"""Passively seeded entanglement QKD: certified rates, sessions, extraction.

The package exports exactly the names its modules list in ``__all__``.
"""

from . import channel, optimize, rates, session, toeplitz, types
from .channel import *  # noqa: F403
from .optimize import *  # noqa: F403
from .rates import *  # noqa: F403
from .session import *  # noqa: F403
from .toeplitz import *  # noqa: F403
from .types import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (channel, optimize, rates, session, toeplitz, types)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
