"""repro.kernels — pluggable high-performance kernel backends.

The R0 "double max-plus" reduction dominates BPMax's Θ(N³M³) runtime;
this package makes its implementation a runtime choice:

* :func:`get_backend` / :data:`BACKENDS` — the registry
  (``numpy``, ``numpy-batched``, ``tiled``, ``fourrussians``);
* :class:`Workspace` — the per-engine scratch pool that makes the
  per-window hot path allocation-free;
* :data:`DEFAULT_BACKEND` — what engines use when none is named.

Consumed by :class:`~repro.core.vectorized.VectorizedBPMax`,
:class:`~repro.core.dmp.DoubleMaxPlus`, ``make_engine(backend=...)``
and the CLI's ``--backend`` / ``bpmax backends``.
"""

from .backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .numpy_backend import NUMPY_BACKEND, NUMPY_BATCHED_BACKEND
from .tiled_backend import TILED_BACKEND, TiledExecutor
from .fourrussians_tables import (
    BoundedScoresCheck,
    check_bounded_scores,
    heuristic_q,
    nussinov_fourrussians,
)
from .fourrussians_backend import FOURRUSSIANS_BACKEND, FourRussiansState
from .autotune import get_tile_shape, tune
from .workspace import Workspace

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "Workspace",
    "available_backends",
    "get_backend",
    "register_backend",
    "NUMPY_BACKEND",
    "NUMPY_BATCHED_BACKEND",
    "TILED_BACKEND",
    "TiledExecutor",
    "FOURRUSSIANS_BACKEND",
    "FourRussiansState",
    "BoundedScoresCheck",
    "check_bounded_scores",
    "heuristic_q",
    "nussinov_fourrussians",
    "get_tile_shape",
    "tune",
]
