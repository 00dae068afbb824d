"""Engine registry: every BPMax program version behind one interface."""

from __future__ import annotations

from typing import Protocol

from ..robust.errors import BpmaxError, DeadlineExceeded, EngineFailure
from ..robust.retry import retry
from .reference import BaselineBPMax, BpmaxInputs
from .tables import FTable
from .vectorized import DEFAULT_VARIANT, VARIANT_CONFIGS, VectorizedBPMax

__all__ = [
    "BpmaxEngine",
    "DEFAULT_VARIANT",
    "ENGINES",
    "ResilientEngine",
    "make_engine",
]


class BpmaxEngine(Protocol):
    """Common protocol of every BPMax engine."""

    inputs: BpmaxInputs
    table: FTable

    def run(self, **kwargs) -> float:  # pragma: no cover - protocol
        ...


#: program version name -> constructor kwargs understood by make_engine
ENGINES = ("baseline",) + tuple(VARIANT_CONFIGS)


class ResilientEngine:
    """Graceful degradation: a primary engine plus a fallback chain.

    ``run()`` tries each variant of ``chain`` in order; when one crashes
    (any exception other than :class:`DeadlineExceeded`, which no slower
    engine can outrun) the next variant starts from a fresh table.  The
    variants that failed are recorded in :attr:`degraded_from`, and
    :attr:`variant`/:attr:`table` always reflect the engine that
    actually produced the score.  Per-variant transient retry is
    available via ``retries`` (each attempt rebuilds the engine).

    Checkpoint/resume arguments are forwarded to the *primary* variant
    only: a checkpoint written by the primary describes a table the
    fallback rebuilds from scratch anyway, and resuming a fallback from
    a crashed primary's snapshot would blur whose run the file belongs
    to.
    """

    def __init__(
        self,
        inputs: BpmaxInputs,
        chain: tuple[str, ...],
        retries: int = 0,
        **engine_kwargs,
    ) -> None:
        if not chain:
            raise ValueError("fallback chain must name at least one variant")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.inputs = inputs
        self.chain = tuple(chain)
        self.retries = retries
        self._kwargs = engine_kwargs
        self.degraded_from: tuple[str, ...] = ()
        self.variant = self.chain[0]
        self._active = self._build(self.chain[0])

    def _build(self, variant: str) -> BpmaxEngine:
        # baseline takes no tuning options; don't leak vectorized kwargs
        kwargs = {} if variant == "baseline" else self._kwargs
        return make_engine(self.inputs, variant, **kwargs)

    @property
    def table(self) -> FTable:
        return self._active.table

    @property
    def backend(self):
        return getattr(self._active, "backend", None)

    @property
    def backend_note(self):
        return getattr(self._active, "backend_note", None)

    @property
    def _fr(self):
        return getattr(self._active, "_fr", None)

    def run(self, **run_kwargs) -> float:
        failures: list[tuple[str, BaseException]] = []
        for idx, variant in enumerate(self.chain):
            if idx == 0:
                engine = self._active
            else:
                try:
                    engine = self._build(variant)
                except Exception as exc:
                    # a fallback that cannot even be constructed (e.g. the
                    # max-plus-only baseline offered as fallback for a
                    # log-sum-exp run) degrades like a crash, it does not
                    # sink the whole chain
                    failures.append(
                        (
                            variant,
                            EngineFailure(f"{type(exc).__name__}: {exc}", variant),
                        )
                    )
                    continue
            kwargs = (
                run_kwargs
                if idx == 0
                else {
                    k: v
                    for k, v in run_kwargs.items()
                    if k not in ("checkpoint", "resume")
                }
            )

            def attempt(engine=engine, kwargs=kwargs) -> float:
                return engine.run(**kwargs)

            try:
                if self.retries > 0:
                    score = retry(attempt, attempts=self.retries + 1, backoff=0.0)
                else:
                    score = attempt()
            except DeadlineExceeded:
                raise
            except BpmaxError as exc:
                failures.append((variant, exc))
                continue
            except Exception as exc:  # wrap foreign crashes for the boundary
                failures.append(
                    (variant, EngineFailure(f"{type(exc).__name__}: {exc}", variant))
                )
                continue
            self._active = engine
            self.variant = variant
            self.degraded_from = tuple(v for v, _ in failures)
            return score
        detail = "; ".join(f"{v}: {e}" for v, e in failures)
        raise EngineFailure(f"all engines in fallback chain failed ({detail})")


def make_engine(
    inputs: BpmaxInputs,
    variant: str = DEFAULT_VARIANT,
    fallback: tuple[str, ...] = (),
    retries: int = 0,
    **kwargs,
) -> BpmaxEngine:
    """Instantiate a BPMax engine by paper program-version name.

    ``baseline`` is the original scalar diagonal-by-diagonal program;
    ``coarse`` / ``fine`` / ``hybrid`` / ``hybrid-tiled`` are the
    optimized versions of Figs. 15/16; ``batched`` (the default,
    :data:`DEFAULT_VARIANT`) routes R0 through the :mod:`repro.kernels`
    backend registry (the ``tiled`` wavefront executor by default).
    Extra kwargs (``tile``, ``threads``, ``order``, ``kernel``,
    ``layout``, ``backend``, ``fr_q``, ``fr_sparsify``) reach
    :class:`~repro.core.vectorized.VectorizedBPMax` — ``backend`` names
    any registered kernel backend and works with every vectorized
    variant.

    ``fallback`` names further variants to degrade to when ``variant``
    crashes, and ``retries`` adds per-variant transient retry; either
    one wraps the engine in a :class:`ResilientEngine`.
    """
    if fallback or retries:
        chain = (variant, *fallback)
        for v in chain:
            if v not in ENGINES:
                raise ValueError(f"unknown engine variant {v!r}; use one of {ENGINES}")
        return ResilientEngine(inputs, chain, retries=retries, **kwargs)
    if variant == "baseline":
        if kwargs:
            raise TypeError(f"baseline engine takes no options, got {kwargs}")
        return BaselineBPMax(inputs)
    if variant in VARIANT_CONFIGS:
        return VectorizedBPMax(inputs, variant=variant, **kwargs)
    raise ValueError(f"unknown engine variant {variant!r}; use one of {ENGINES}")
