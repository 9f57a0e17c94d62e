"""Twisted forms of p-th roots of unity realized on elliptic curves over
small finite fields, checked by exhaustive enumeration.

The layers, bottom up: gf (deterministic finite fields), poly
(polynomials, truncated powers, factorisation), curve (Weierstrass
models, point counts, Hasse invariants, twists), forms (unit classes and
what they classify), search (witness hunts and the census), verify
(exhaustive identity suites) and cli (the command line front end).

Each module's __all__ declares its public names, and the package
republishes them: its own __all__ is __version__ and those lists.
"""

__version__ = "0.1.0"

from . import curve, errors, forms, gf, poly, search, verify
from .curve import *
from .errors import *
from .forms import *
from .gf import *
from .poly import *
from .search import *
from .verify import *

__all__ = ["__version__", *gf.__all__, *poly.__all__, *curve.__all__, *forms.__all__,
           *search.__all__, *verify.__all__, *errors.__all__]
