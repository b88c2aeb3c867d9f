"""padlab: a computational laboratory for padded decompositions.

Finite metric spaces, greedy nets and band graphs, truncated exponential and
geometric carving radii, randomized ball carving, exhaustive verification of
covers and padded decompositions, and a constructive local-lemma engine that
resamples its way to multi-layer decompositions.
"""

from . import carving, decomposition, growth, lll, nets, sampler, spaces
from .spaces import *  # noqa: F401,F403
from .nets import *  # noqa: F401,F403
from .growth import *  # noqa: F401,F403
from .sampler import *  # noqa: F401,F403
from .carving import *  # noqa: F401,F403
from .decomposition import *  # noqa: F401,F403
from .lll import *  # noqa: F401,F403

__all__ = [name for module in (spaces, nets, growth, sampler, carving, decomposition, lll)
           for name in module.__all__]
__version__ = "0.1.0"
