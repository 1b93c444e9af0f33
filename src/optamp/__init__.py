"""Amplitude-amplification operator family with optimal-angle selection and
one-step marked-item search.

Each module lists its public names in its own ``__all__``; the package
re-exports them, and ``optamp.__all__`` is those lists concatenated in the
order of the imports below."""

from . import errors, family, grover, optimal, search, state
from .errors import *
from .family import *
from .grover import *
from .optimal import *
from .search import *
from .state import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *family.__all__,
    *grover.__all__,
    *optimal.__all__,
    *search.__all__,
    *state.__all__,
]
