"""Exact counting of restricted polygon dissections via reversive symbols.

A reversive symbol is a small rational function alpha(F) whose compositional
inverse, divided by x, generates a dissection-counting sequence; README
describes the routes that compute and cross-check it.  Each public name is
declared once, in the ``__all__`` of the submodule that defines it, and this
package re-exports those lists unchanged.
"""

from . import closed_forms, dissection_oracle, exact_arith, power_series, symbols
from .closed_forms import *
from .dissection_oracle import *
from .exact_arith import *
from .power_series import *
from .symbols import *

__version__ = "0.1.0"

__all__ = [
    *closed_forms.__all__,
    *dissection_oracle.__all__,
    *exact_arith.__all__,
    *power_series.__all__,
    *symbols.__all__,
]
