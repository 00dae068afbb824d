"""Kernel backend registry: runtime-dispatchable R0 implementations.

A :class:`KernelBackend` packages the two operations every engine hot
path needs —

* ``matmul(a, bs, out)`` — one accumulating max-plus product (a single
  ``k1`` split);
* ``batched_r0(astack, bstack, acc, tmp, red)`` — the whole R0 reduction
  of one outer window, with all splits stacked into 3-D blocks;

— behind a name, so :class:`~repro.core.vectorized.VectorizedBPMax`,
:class:`~repro.core.dmp.DoubleMaxPlus` and
:func:`~repro.core.engine.make_engine` can switch implementations at
runtime (``backend="numpy-batched"``, CLI ``--backend``).

Backends register themselves in :data:`BACKENDS`.  A backend whose
precondition fails on this machine (``tiled``'s BLAS-exactness probe)
registers flagged unavailable, and :func:`get_backend` transparently
falls back along its declared fallback chain, so a run never fails just
because the machine cannot run one kernel exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..semiring.semiring import Semiring

__all__ = [
    "KernelBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "register_backend",
    "get_backend",
    "available_backends",
]

#: name of the backend engines use when asked for the default (the
#: ``batched`` preset, and so every default entry point, runs it)
DEFAULT_BACKEND = "tiled"


class KernelBackend:
    """One named R0 kernel implementation.

    Parameters
    ----------
    name: registry key (``bpmax backends`` lists them).
    matmul: accumulating single-split product ``out ⊕= A ⊗ B``.
    batched_r0: stacked whole-window reduction
        ``acc[i, j] ⊕= max_{s, k} A[s, i, k] + B[s, k, j]``; the optional
        ``tmp``/``red`` scratch arguments make it allocation-free.
    description: one line for the CLI listing.
    available: False when the backing dependency is missing here.
    fallback: backend name :func:`get_backend` resolves to instead when
        this one is unavailable.
    note: human-readable availability detail (why it is missing, or what
        an unavailable request resolved to).
    capabilities: feature flags of the backend (``threads``,
        ``workspace_reuse``, ``autotune``, ``tile_graph``,
        ``bounded_scores``) consumed by ``bpmax backends`` and by engines
        that dispatch on them — a ``tile_graph`` backend is executed
        through the tiled wavefront scheduler instead of the per-window
        loop, and a ``bounded_scores`` backend requires the
        bounded-difference weight precondition (the engine verifies it at
        construction and falls back when it does not hold).
    semirings: canonical names of the semirings this backend can reduce
        in.  Every backend speaks ``max-plus``; backends whose kernels
        are algebra-generic also declare ``logsumexp``.  Engines route a
        request for an undeclared semiring to the backend's fallback
        with a structured ``backend_note`` — never a wrong-algebra
        result.  Rendered by ``bpmax backends``.
    """

    #: the capability flags every backend reports (False when unset)
    CAPABILITY_FLAGS = (
        "threads",
        "workspace_reuse",
        "autotune",
        "tile_graph",
        "bounded_scores",
    )

    def __init__(
        self,
        name: str,
        matmul: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
        batched_r0: Callable[..., np.ndarray],
        description: str = "",
        available: bool = True,
        fallback: str | None = None,
        note: str = "",
        capabilities: dict[str, bool] | None = None,
        semirings: tuple[str, ...] = ("max-plus",),
    ) -> None:
        self.name = name
        self.description = description
        self.available = available
        self.fallback = fallback
        self.note = note
        self.capabilities = {
            f: bool((capabilities or {}).get(f, False)) for f in self.CAPABILITY_FLAGS
        }
        self.semirings = tuple(semirings)
        self._matmul = matmul
        self._batched_r0 = batched_r0

    def matmul(self, a: np.ndarray, bs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Accumulating max-plus product of one split: ``out ⊕= A ⊗ B``."""
        return self._matmul(a, bs, out)

    def batched_r0(
        self,
        astack: np.ndarray,
        bstack: np.ndarray,
        acc: np.ndarray,
        tmp: np.ndarray | None = None,
        red: np.ndarray | None = None,
        triangular: bool = False,
        semiring: "Semiring | None" = None,
    ) -> np.ndarray:
        """Whole-window stacked R0 reduction (splits along the leading axis).

        ``triangular=True`` promises the BPMax operand structure (stored
        upper triangles / shifted triangles); backends may exploit it to
        skip the all--inf half of every step, and must produce results
        bit-identical to the dense form for such operands.

        ``semiring`` selects the reduction algebra; ``None`` and
        max-plus take the backend's native kernel (bit-identical to the
        pre-semiring contract).  Any other declared semiring routes
        through the generic stacked reduction; an undeclared one raises
        — silent wrong-algebra output is a contract violation.
        """
        if semiring is None or semiring.name == "max-plus":
            return self._batched_r0(
                astack, bstack, acc, tmp=tmp, red=red, triangular=triangular
            )
        if semiring.name not in self.semirings:
            raise ValueError(
                f"backend {self.name!r} supports semirings {self.semirings}; "
                f"got {semiring.name!r}"
            )
        from ..semiring.generic import semiring_batched

        return semiring_batched(
            semiring, astack, bstack, acc, tmp=tmp, red=red, triangular=triangular
        )

    def __repr__(self) -> str:
        state = "available" if self.available else f"unavailable ({self.note})"
        return f"KernelBackend({self.name!r}, {state})"


#: name -> KernelBackend; populated by the backend modules at import time
BACKENDS: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (last registration wins)."""
    BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend by name, following fallbacks for unavailable ones.

    ``None`` resolves to :data:`DEFAULT_BACKEND`; passing an already-
    resolved :class:`KernelBackend` returns it unchanged.  Requesting a
    registered-but-unavailable backend (e.g. ``tiled`` when the BLAS
    probe failed) returns its declared fallback; the reason stays on the
    unavailable entry's :attr:`~KernelBackend.note` (shown by ``bpmax
    backends``).  An unknown name raises ``ValueError``.
    """
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        name = DEFAULT_BACKEND
    try:
        backend = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(sorted(BACKENDS))}"
        ) from None
    seen = [name]
    while not backend.available:
        if backend.fallback is None or backend.fallback in seen:
            raise ValueError(
                f"backend {name!r} is unavailable here ({backend.note}) "
                "and declares no usable fallback"
            )
        seen.append(backend.fallback)
        backend = BACKENDS[backend.fallback]
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run on this machine."""
    return tuple(sorted(n for n, b in BACKENDS.items() if b.available))
