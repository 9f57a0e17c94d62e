"""Deterministic arithmetic in small finite fields of odd characteristic.

A FieldCtx models F_{p^n} as F_p[t] modulo the lexicographically smallest
monic irreducible polynomial of degree n, so two contexts built from the
same (p, n) agree coefficient for coefficient, print identically and hash
identically.  Over F_q with n > 1 the modulus and the canonical generator
are read from _FIELD_TABLE, one entry for each extension field the size
guard admits, as computer-algebra systems ship tables of Conway
polynomials (Heath and Loehr, J. Symbolic Comput. 38, 2004).  No context
searches: tests/test_audits.py re-derives every entry by the lex-first
search, Ben-Or's test on each candidate modulus and norms on each
candidate generator, and reads the table against that search.

The lex order used throughout ranks an element by its coefficient tuple
read from the constant term down, i.e. rank(x) = sum(c_i * p**(n-1-i)).
Enumeration, generator selection and every "first match wins" rule in the
rest of the package build on this single ordering.  An element is stored
as its rank alone; the coefficient tuple is derived for printing, by
_poly_str, the one printer of elements, moduli, polynomials and models.

Tables.  Every field, prime fields included, has lazily built exp/log
tables over lex ranks, indexed by the exponent e of the canonical
generator g: exp[e] = rank(g^e), log[rank] = e, and the Zech logarithm
zech[e] = log(1 + g^e) (Lidl and Niederreiter, Finite Fields, ch. 9).
Each table holds O(q) machine integers.  The row sweeps read them on
every field, and point counts the parities of the Zech logarithms
(curve._zech_y).  What other modules build from them, as the row
histograms and Hasse tables of curve and the class residues of forms,
is memoised on the context (_ctx_memo), never at module level, so it
lives exactly as long as the field.  The field alone picks the route of a
discrete logarithm and a power of g: over F_p they are Pohlig-Hellman and
one int pow, whether or not the context holds the tables, so a single
query over F_p builds none; over F_q with n > 1 they read the tables.
The build leans on the norm N(x) = x^((q-1)/(p-1)), which lies in F_p
(ibid., ch. 2): since g^((q-1)/(p-1)) lies in F_p^*, only the first
(q-1)/(p-1) powers of g are walked; the others are those scaled by F_p,
digit by digit.

Arithmetic.  Over F_p (n = 1) the rank is the value: built-in ints.  Over
F_q with n > 1 products, powers and inverses act on logarithms,
a + b = g^(log a + zech[log b - log a]), and negation adds (q-1)/2 to
the logarithm.  gf keeps elements only: polynomials over F_p and F_q are
poly.py's, and the table build needs no product of polynomials, since
each basis image g t^i is the one before it shifted by one digit, less
its top digit times the modulus.  The audit rows table_arithmetic and
log_tables (tests/test_audits.py) hold the tables to products of
coefficient tuples by poly's F_p primitives.  One factorization of ints
by trial division, _factor_int, gives the generator search over F_p its
primes and the Pohlig-Hellman plan its prime powers.  One
square-and-multiply, _power, takes the powers of polynomials and residue
rings, and the multiples of a curve point.

Scale guard: a context refuses q = p**n > 2**20 before it reads the
field table, so every field that exists can build its tables.  None of this
is constant time or meant for cryptographic use.

Logging.  The package's DEBUG records (table builds here, factor and
degree_pattern, census, run_suite) go through one logger object,
gf.logger, that poly, search and verify import.  It never imports
logging: until the program has imported it no handler can exist, so a
record is dropped, and from then on it goes to the "hasseforms" logger
with its caller's funcName and lineno.  Importing the package therefore
loads no logging.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from functools import cached_property, lru_cache, wraps
from math import isqrt
from operator import itemgetter, mul
from typing import Iterator, Sequence, Union

from .errors import (
    CtxMismatchError,
    EvenCharacteristicError,
    FieldTooLargeError,
    NotPrimeError,
    ZeroElementError,
)

__all__ = ["FieldCtx", "FieldElement", "make_field", "norm_to_prime", "quadratic_character",
           "primitive_element", "discrete_log"]

SWEEP_MAX = 2**20       # the largest field order a context accepts


class _Logger:
    """debug drops a record until the program has imported logging, and
    then forwards it to logging.getLogger("hasseforms"), looked up once
    since getLogger takes a lock, at the frame of debug's caller."""

    __slots__ = ("_logger",)

    def __init__(self) -> None:
        self._logger = None

    def debug(self, msg: str, *args) -> None:
        log = self._logger
        if log is None:
            logging = sys.modules.get("logging")
            if logging is None:
                return
            log = self._logger = logging.getLogger("hasseforms")
        log.debug(msg, *args, stacklevel=2)


logger = _Logger()

CoeffsLike = Union[int, Sequence[int], "FieldElement"]


def _power(x, e: int, mul, one):
    """x^e for an int e >= 0 and an associative mul with identity one:
    square-and-multiply from the low bits (Cohen, GTM 138, 1.2.1), with no
    square past the top bit; at e = 0 mul is not called."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def _factor_int(m: int) -> tuple[tuple[int, int], ...]:
    """The factorization of m >= 1 by trial division: (prime, exponent)
    pairs, the primes ascending."""
    out, f = [], 2
    while f * f <= m:
        k = 0
        while m % f == 0:
            m //= f
            k += 1
        if k:
            out.append((f, k))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _digit_table(p: int, m: int, digits: Sequence[int]) -> list[int]:
    """table[r] = the m-digit base-p rank whose digits are digits[d] for the
    digits d of r, read in radix len(digits)."""
    table = [0]
    for _ in range(m):
        table = [t * p + d for t in table for d in digits]
    return table


def smallest_prime_factor(m: int) -> int:
    if m < 2:
        raise ValueError(f"{m} has no prime factor")
    f = 2
    while f * f <= m:
        if m % f == 0:
            return f
        f += 1 if f == 2 else 2
    return m


def _is_prime(m: int) -> bool:
    return m >= 2 and smallest_prime_factor(m) == m


def _poly_str(coeffs: Sequence, var: str) -> str:
    """Coefficients low degree first, ints or elements, printed highest term
    first with zero terms dropped; a coefficient 1 before a power of var is
    left unwritten, one whose text holds " " or "*" goes in parentheses."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        s = str(c)
        if " " in s or "*" in s:
            s = f"({s})"
        if i:
            power = var if i == 1 else f"{var}^{i}"
            s = power if s == "1" else f"{s}*{power}"
        terms.append(s)
    return " + ".join(terms) or "0"


def _check_size(p: int, n: int) -> None:
    # the size guard of FieldCtx, which cli's verify also runs on a whole
    # range before its first suite.  It runs before the primality test,
    # which trial-divides p, and before p**n is formed: every p >= 3
    # passes 2**20 by n = 13, so a huge n is refused without a huge power
    if p > 2 and (n > 20 or p**n > SWEEP_MAX):
        name = f"F_{p}" if n == 1 else f"F_{p}^{n}"
        raise FieldTooLargeError(
            f"{name} is too large: fields need q = p**n <= 2**20 "
            "for their log tables and sweeps")


# the 223 extension fields F_p^n, n >= 2, that _check_size admits: for each
# odd prime p with p^2 <= 2**20 the token " p:" and then one "o,g" per n
# from 2 up, ";" apart.  The modulus is the monic polynomial of rank
# p**(n-1) + o, the first irreducible one in lex order (lower ranks have
# constant term 0), and g the rank of the lex-first generator.  Both come
# from the lex-first search of tests/test_audits.py, which proves every
# entry; a context does not re-prove them
_FIELD_TABLE = (
    " 3:0,4;2,2;4,4;2,2;4,4;5,2;12,4;21,2;6,34;5,2;28,11 5:1,8;1,2;6,6;4,2;6,6;1,2;30,6"
    " 7:0,9;1,12;1,12;3,3;7,8;6,3 11:0,15;4,2;4,17;2,12 13:3,19;4,15;1,15;8,2 17:1,20;3,3;3,19"
    " 19:0,22;1,22;6,20 23:0,25;3,5;4,24 29:1,34;2,2;3,31 31:0,35;3,32;1,34 37:3,41;5,38"
    " 41:1,45;1,6 43:0,45;9,50 47:0,49;5,48 53:1,58;2,2 59:0,62;1,2 61:5,67;3,64 67:0,74;5,70"
    " 71:0,79;1,7 73:3,77;7,76 79:0,85;2,87 83:0,93;3,2 89:1,92;4,3 97:3,101;1,100"
    " 101:1,104;1,2 103:0,105 107:0,109 109:6,120 113:1,118 127:0,135 131:0,134 137:1,141"
    " 139:0,143 149:1,157 151:0,160 157:3,161 163:0,170 167:0,169 173:1,176 179:0,182 181:5,193"
    " 191:0,201 193:3,197 197:1,201 199:0,212 211:0,215 223:0,225 227:0,229 229:5,235 233:1,238"
    " 239:0,247 241:5,247 251:0,256 257:1,260 263:0,265 269:1,272 271:0,276 277:3,281 281:1,285"
    " 283:0,285 293:1,304 307:0,316 311:0,315 313:3,321 317:1,321 331:0,337 337:3,344 347:0,351"
    " 349:5,355 353:1,359 359:0,370 367:0,370 373:3,377 379:0,382 383:0,385 389:1,396 397:3,401"
    " 401:1,405 409:5,422 419:0,423 421:6,431 431:0,435 433:3,437 439:0,448 443:0,445 449:1,453"
    " 457:3,465 461:1,475 463:0,465 467:0,469 479:0,483 487:0,490 491:0,496 499:0,502 503:0,509"
    " 509:1,512 521:1,524 523:0,525 541:6,553 547:0,549 557:1,561 563:0,565 569:1,574 571:0,574"
    " 577:3,581 587:0,593 593:1,596 599:0,610 601:5,607 607:0,609 613:3,617 617:1,627 619:0,622"
    " 631:0,636 641:1,648 643:0,647 647:0,649 653:1,660 659:0,669 661:5,670 673:3,677 677:1,680"
    " 683:0,685 691:0,695 701:1,709 709:6,717 719:0,723 727:0,729 733:3,743 739:0,748 743:0,745"
    " 751:0,755 757:3,761 761:1,764 769:5,778 773:1,776 787:0,789 797:1,803 809:1,814 811:0,814"
    " 821:1,826 823:0,826 827:0,831 829:5,838 839:0,843 853:3,858 857:1,860 859:0,865 863:0,868"
    " 877:3,881 881:1,887 883:0,888 887:0,889 907:0,909 911:0,915 919:0,925 929:1,932 937:3,941"
    " 941:1,944 947:0,953 953:1,960 967:0,969 971:0,974 977:1,981 983:0,985 991:0,1004"
    " 997:3,1002 1009:9,1012 1013:1,1016 1019:0,1025 1021:5,1030 ")


def _field_entry(p: int, n: int) -> tuple[int, int]:
    # (modulus offset o, generator rank g) of F_p^n, n >= 2, off its token
    start = _FIELD_TABLE.index(f" {p}:") + len(str(p)) + 2
    entries = _FIELD_TABLE[start:_FIELD_TABLE.index(" ", start)].split(";")
    o, g = entries[n - 2].split(",")
    return int(o), int(g)


def _ctx_memo(build):
    """build(ctx, *key) memoised on the context: ctx._memo holds one slot
    per builder, its last (key, value), and ctx._builds counts its builds.
    So a table lives exactly as long as its field, and a new context starts
    cold whatever ran before it.

    One rule holds every cache of the package: a builder takes this memo
    only where some caller reads the same key twice on one context, and a
    functools cache at module level, keyed on ints and never on a
    context, only where it is re-read across the calls it serves.  A table
    each caller reads once, as a whole row, is built afresh.
    tests/test_source.py names, for each cache, a path that re-reads it."""
    name = build.__name__

    @wraps(build)
    def memo(ctx, *key):
        slot = ctx._memo.get(name)
        if slot is None or slot[0] != key:
            slot = ctx._memo[name] = key, build(ctx, *key)
            ctx._builds[name] += 1
        return slot[1]
    return memo


class FieldCtx:
    """Immutable description of F_{p^n} plus lazily built lookup tables.

    Two contexts compare equal iff they have the same (p, n); both then
    read one modulus and one generator off the field table.

    The kernels _add, _sub, _neg, _mul, _pow and _inv map lex ranks to
    lex ranks.  The first use of _log_tables (the exp/log/Zech tables,
    about 12 bytes per element) builds them from the lex-smallest
    generator.  Prime fields need them only for sweeps and the table
    point count (p <= 229); their logarithms and powers of g never read
    them.  _memo and _builds hold the tables that other modules build
    from these (_ctx_memo), so they go with the context.
    q > 2**20 raises FieldTooLargeError.
    """

    def __init__(self, p: int, n: int = 1):
        if not isinstance(p, int) or not isinstance(n, int):
            raise TypeError("p and n must be plain integers")
        if p == 2:
            raise EvenCharacteristicError(
                "characteristic 2 is not supported; use an odd prime")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        _check_size(p, n)
        if not _is_prime(p):
            raise NotPrimeError(f"characteristic must be prime, got {p}")
        q = p**n
        self.p = p
        self.n = n
        self.q = q
        # lex weights: constant coefficient is the most significant digit
        self._weights = tuple(p ** (n - 1 - i) for i in range(n))
        self.modulus: tuple[int, ...] | None = None if n == 1 else self._find_modulus()
        self._memo, self._builds = {}, Counter()  # the slots of _ctx_memo

    # -- construction details -------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        # the first monic irreducible of degree n in lex order on
        # (constant, ..., leading-1 coefficient), off the field table
        rank = self._weights[0] + _field_entry(self.p, self.n)[0]
        return self._tuple_from_rank(rank) + (1,)

    def _rank(self, a) -> int:
        return sum(map(mul, a, self._weights))

    def _tuple_from_rank(self, rank: int) -> tuple[int, ...]:
        # over F_p a rank is its value, its one digit
        if self.n == 1:
            return (rank,)
        p = self.p
        return tuple([rank // w % p for w in self._weights])

    # -- rank kernels ----------------------------------------------------

    def _add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        if not (a and b):
            return a or b
        exp, log, zech = self._log_tables
        order = self.q - 1
        la = log[a]
        z = zech[(log[b] - la) % order]
        return 0 if z < 0 else exp[(la + z) % order]

    def _neg(self, a: int) -> int:
        if self.n == 1:
            return -a % self.p
        if not a:
            return 0
        exp, log, _ = self._log_tables
        order = self.q - 1
        return exp[(log[a] + order // 2) % order]

    def _sub(self, a: int, b: int) -> int:
        return self._add(a, self._neg(b))

    def _mul(self, a: int, b: int) -> int:
        if self.n == 1:
            return a * b % self.p
        if not (a and b):
            return 0
        exp, log, _ = self._log_tables
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def _pow(self, a: int, e: int) -> int:
        if self.n == 1:
            return pow(a, e, self.p)
        if not a:
            return 0 if e else self._weights[0]
        exp, log, _ = self._log_tables
        return exp[log[a] * e % (self.q - 1)]

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"division by zero in {self}")
        if self.n == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._log_tables
        return exp[-log[a] % (self.q - 1)]

    # -- element construction and enumeration ---------------------------

    def element(self, value: CoeffsLike) -> "FieldElement":
        """Coerce an int, a coefficient sequence or an element of self."""
        if isinstance(value, FieldElement):
            if value.ctx is not self and value.ctx != self:
                raise CtxMismatchError(
                    f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p * self._weights[0])
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.n:
            raise ValueError(
                f"{len(coeffs)} coefficients given but {self} has degree {self.n}")
        return FieldElement(self, self._rank(coeffs))

    def __call__(self, value: CoeffsLike) -> "FieldElement":
        return self.element(value)

    def from_rank(self, rank: int) -> "FieldElement":
        if not 0 <= rank < self.q:
            raise ValueError(f"rank {rank} out of range for {self}")
        return FieldElement(self, rank)

    def iter_elements(self) -> Iterator["FieldElement"]:
        """All q elements in lex order, starting with zero."""
        for rank in range(self.q):
            yield FieldElement(self, rank)

    # zero, one and generator are built on each read: an element cached on
    # its context would point back at it, and a context in a reference
    # cycle keeps its tables until a full collection

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self._weights[0])

    @property
    def generator(self) -> "FieldElement":
        """The lex-smallest element of multiplicative order q - 1."""
        return FieldElement(self, self._generator_rank)

    @cached_property
    def _generator_rank(self) -> int:
        """The rank of the generator: over F_q with n > 1 its entry in the
        field table; over F_p the first c with c^((p-1)/l) != 1 for every
        prime l | p - 1, one int pow each, so the search tests rank(g)."""
        p = self.p
        if self.n > 1:
            return _field_entry(p, self.n)[1]
        small = [(p - 1) // ell for ell, _ in _factor_int(p - 1)]
        return next(c for c in range(1, p) if all(pow(c, e, p) != 1 for e in small))

    # -- cached sweep tables --------------------------------------------

    @cached_property
    def _log_tables(self) -> tuple[array, array, array]:
        """(exp, log, zech) over lex ranks and exponents of the generator g.

        exp[e] = rank(g^e) for 0 <= e < q - 1; log[rank] = e, with -1 at
        zero; zech[e] = log(1 + g^e), with -1 where 1 + g^e = 0.

        Over F_p exp is one int walk.  Over F_q only g^0 .. g^(N-1) are
        walked, N = (q-1)/(p-1), one half-table step each; z = g^N lies in
        F_p^*, so exp[kN + e] = rank(z^k g^e) scales the digits of exp[e]
        by z^k, read off two half-rank tables per k.
        """
        q = self.q
        t0 = time.perf_counter()
        g = self.generator
        t1 = time.perf_counter()
        p, n, order = self.p, self.n, q - 1
        unit = self._weights[0]
        exp = array("i", [0]) * order
        if n == 1:
            walked, r, g0 = order, 1, g.rank
            for e in range(order):
                exp[e] = r
                r = r * g0 % p
        else:
            # x -> g*x is F_p-linear: tabulate it on the high and the low
            # half of the digits.  The images are written in radix 2p - 1,
            # so two of them add digit by digit without carries, and one
            # table per half reduces the digits of the sum mod p
            walked = order // (p - 1)
            half = n // 2
            size, wide = p**half, (2 * p - 1)**half
            radix = [(2 * p - 1) ** (n - 1 - i) for i in range(n)]
            mod_p = [d % p for d in range(2 * p - 1)]
            red_lo, red_hi = _digit_table(p, half, mod_p), _digit_table(p, n - half, mod_p)
            # a half table grows one digit at a time from the images of the
            # basis t^i, as image(x + d t^i) = image(x) + d image(t^i), the
            # sum's digits taken mod p and written back in radix 2p - 1
            enc_lo = _digit_table(2 * p - 1, half, range(p))
            enc_hi = _digit_table(2 * p - 1, n - half, range(p))
            # basis[i] = g t^i, each one step of x -> t x: shift up one
            # digit, then take the top digit times the monic modulus off
            basis, x = [], list(g.coeffs)
            for _ in range(n):
                basis.append(x)
                top = x[-1]
                x = [(c - top * m) % p for c, m in zip([0] + x[:-1], self.modulus)]

            def images(digits):
                table = [0]
                for i in digits:
                    cols = [[d * c % p * r for d in range(p)] for c, r in zip(basis[i], radix)]
                    steps = list(map(sum, zip(*cols)))
                    table = [enc_hi[red_hi[h]] * wide + enc_lo[red_lo[l]]
                             for h, l in (divmod(t + s, wide) for t in table for s in steps)]
                return table

            lo, hi = images(range(n - half, n)), images(range(n - half))
            # the halves (h, l) of rank(g^e) = h * size + l, e < N
            his, los = [0] * walked, [0] * walked
            h, l = divmod(unit, size)
            for e in range(walked):
                his[e], los[e] = h, l
                h, l = divmod(hi[h] + lo[l], wide)
                h, l = red_hi[h], red_lo[l]
            # now h * size + l = rank(g^N) = z * unit.  Scaling by z^k maps
            # each half of the digits on its own; its half tables are those
            # of z^(k-1) composed with the ones of z
            times_z = [d * ((h * size + l) // unit) % p for d in range(p)]
            hi_z = _digit_table(p, n - half, times_z)
            lo_z = _digit_table(p, half, times_z)
            hi_s, lo_s = range(q // size), range(size)  # scaling by z^0
            for k in range(p - 1):
                exp[k * walked:(k + 1) * walked] = array(
                    "i", [hi_s[h] * size + lo_s[l] for h, l in zip(his, los)])
                hi_s = list(map(hi_z.__getitem__, hi_s))
                lo_s = list(map(lo_z.__getitem__, lo_s))
        log = array("i", [0]) * q
        log[0] = -1
        for e, r in enumerate(exp):
            log[r] = e
        # the constant term is the most significant lex digit, so adding 1
        # to an element moves its rank by one step of that digit: log
        # rotated by that step, gathered at each power
        zech = array("i", itemgetter(*exp)(log[unit:] + log[:unit]))
        t2 = time.perf_counter()
        # the F_p search tried every nonzero rank up to the generator's
        found = "from the field table" if n > 1 else f"{g.rank} candidates tested"
        logger.debug("built log tables for F_%d^%d (q = %d): generator rank %d "
                     "(%s) in %.3f s, %d of %d powers walked, "
                     "tables in %.3f s", p, n, q, g.rank, found, t1 - t0,
                     walked, order, t2 - t1)
        return exp, log, zech

    # -- identity and printing ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return self.p == other.p and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    def __reduce__(self):
        # rebuilt from (p, n), so lazy tables and memo slots are never
        # serialised
        return (FieldCtx, (self.p, self.n))

    def modulus_str(self) -> str | None:
        return None if self.modulus is None else _poly_str(self.modulus, "t")

    def __repr__(self) -> str:
        if self.n == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus_str()})"

    def __str__(self) -> str:
        return f"F_{self.q}" if self.n == 1 else f"F_{self.q} = F_{self.p}[t]/({self.modulus_str()})"


class FieldElement:
    """An element of a FieldCtx, stored as its lex rank; coeffs derives it.

    Arithmetic accepts plain ints on either side (coerced through the
    prime subfield) and refuses to mix distinct contexts.
    """

    __slots__ = ("ctx", "rank")

    def __init__(self, ctx: FieldCtx, rank: int):
        # assumes 0 <= rank < q; go through ctx.element() or
        # ctx.from_rank() when normalisation or a check is needed
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        return (FieldElement, (self.ctx, self.rank))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx._tuple_from_rank(self.rank)

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise CtxMismatchError(
                    f"cannot combine elements of {self.ctx} and {other.ctx}")
            return other
        if isinstance(other, int):
            return self.ctx.element(other)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._add(self.rank, other.rank))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._sub(self.rank, other.rank))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._sub(other.rank, self.rank))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul(self.rank, other.rank))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul(self.rank, self.ctx._inv(other.rank)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul(other.rank, self.ctx._inv(self.rank)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx._neg(self.rank))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return FieldElement(self.ctx, self.ctx._pow(self.ctx._inv(self.rank), -e))
        return FieldElement(self.ctx, self.ctx._pow(self.rank, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._inv(self.rank))

    # -- structure -------------------------------------------------------

    def __bool__(self) -> bool:
        return self.rank != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.rank == other.rank and (
                self.ctx is other.ctx or self.ctx == other.ctx)
        if isinstance(other, int):
            return self.rank == self.ctx.element(other).rank
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.n, self.rank))

    def __int__(self) -> int:
        # the prime subfield holds the ranks c * p**(n-1)
        c, rest = divmod(self.rank, self.ctx._weights[0])
        if rest:
            raise ValueError(f"{self} is not in the prime subfield")
        return c

    def __str__(self) -> str:
        # over F_p the rank is the value
        return str(self.rank) if self.ctx.n == 1 else _poly_str(self.coeffs, "t")

    def __repr__(self) -> str:
        return f"<{self} in F_{self.ctx.q}>"


def make_field(p: int, n: int = 1) -> FieldCtx:
    """Construct F_{p**n} with the canonical modulus.  p must be an odd prime."""
    return FieldCtx(p, n)


def quadratic_character(x: FieldElement) -> int:
    """x**((q-1)/2) collapsed to an int: 0 at zero, +1 squares, -1 otherwise."""
    if not x:
        return 0
    r = x ** ((x.ctx.q - 1) // 2)
    return 1 if r == x.ctx.one else -1


def norm_to_prime(x: FieldElement) -> FieldElement:
    """Multiplicative norm down to F_p, i.e. x**((q-1)/(p-1)).

    The result always lies in the prime subfield; on F_p itself this is
    the identity map.
    """
    ctx = x.ctx
    return x ** ((ctx.q - 1) // (ctx.p - 1))


def primitive_element(ctx: FieldCtx) -> FieldElement:
    """Deterministic generator of the multiplicative group (lex-smallest)."""
    return ctx.generator


def discrete_log(x: FieldElement) -> int:
    """Exponent e in [0, q-1) with primitive_element(ctx)**e == x: by
    Pohlig-Hellman over F_p (_pohlig_hellman), which reads no table even
    where the context holds them, and off the log table over F_q."""
    if not x:
        raise ZeroElementError("zero has no discrete logarithm")
    ctx = x.ctx
    if ctx.n == 1:
        return _pohlig_hellman(ctx._generator_rank, x.rank, ctx.p)
    return ctx._log_tables[1][x.rank]


def _pohlig_hellman(g: int, a: int, p: int) -> int:
    """The e in [0, p-1) with g^e = a mod p, g a generator of F_p^*.

    Pohlig and Hellman (IEEE Trans. Inf. Theory 24, 1978; Cohen, GTM 138,
    5.5.1): for each prime power l^k exactly dividing p - 1, e mod l^k is
    read one base-l digit at a time, each digit the log of an element of
    order dividing l to the base gamma = g^((p-1)/l), by baby and giant
    steps (ibid., 5.4.1): ceil(sqrt(l)) of each, off the plan of (g, p)
    (_pohlig_hellman_plan).  The residues are joined by the Chinese
    remainder theorem.  At most about 2 sqrt(p/2) steps, where (p - 1)/2
    is prime.
    """
    order, e, mod = p - 1, 0, 1
    for ell, k, m, baby, giant in _pohlig_hellman_plan(g, p):
        # x = e mod l^k, digit by digit: a g^-x has order dividing l^(k-i)
        x, step = 0, 1
        for _ in range(k):
            y = pow(a * pow(g, -x, p) % p, order // (step * ell), p)
            for t in range(m):
                if y in baby:
                    break
                y = y * giant % p
            else:
                raise RuntimeError(f"no discrete log of {a} to {g} mod {p}, this is a bug")
            x += (t * m + baby[y]) * step
            step *= ell
        e += mod * ((x - e) * pow(mod, -1, step) % step)
        mod *= step
    return e


@lru_cache(maxsize=1)
def _pohlig_hellman_plan(g: int, p: int) -> tuple:
    # (l, k, m, baby steps gamma^j -> j for j < m, giant step gamma^-m) for
    # each prime power l^k exactly dividing p - 1, gamma = g^((p-1)/l) and
    # m = ceil(sqrt(l)), the l^k read off _factor_int, the factorization
    # the generator search over F_p reads too; one slot, keyed on ints and so
    # holding no context, since the logs of a run are taken in one field
    order, plan = p - 1, []
    for ell, k in _factor_int(order):
        gamma = pow(g, order // ell, p)
        m = isqrt(ell - 1) + 1
        baby, y = {}, 1
        for j in range(m):
            baby[y] = j
            y = y * gamma % p
        plan.append((ell, k, m, baby, pow(gamma, -m, p)))
    return tuple(plan)
