"""repro — reproduction of "Accelerating the BPMax Algorithm for RNA-RNA
Interaction" (Mondal & Rajopadhye, 2021).

Top-level convenience surface::

    from repro import bpmax, fold
    result = bpmax("GCGCUUCG", "CGAAGCGC", structure=True)

Subpackages:

* :mod:`repro.rna` — alphabet, scoring, sequences, Nussinov folding;
* :mod:`repro.core` — BPMax engines, the mini-Alpha model, schedules;
* :mod:`repro.semiring` — max-plus kernels and the stream micro-benchmark;
* :mod:`repro.kernels` — pluggable kernel backends (``numpy``,
  ``numpy-batched``, ``fourrussians``, the ``tiled`` wavefront
  executor with its window-block autotuner) and the per-engine
  :class:`~repro.kernels.Workspace` scratch pool;
* :mod:`repro.polyhedral` — the mini-AlphaZ framework (domains,
  schedules, dependences, tiling, the Alpha language, code generation);
* :mod:`repro.machine` — machine specs, roofline, work counters, the
  calibrated performance model;
* :mod:`repro.parallel` — OMP-style schedulers, DAG simulation, pools;
* :mod:`repro.observe` — zero-dependency tracing spans, per-run
  operation/traffic counters and roofline-linked run reports;
* :mod:`repro.robust` — fault tolerance: structured errors, retry,
  deadlines, checkpoint/resume, deterministic fault injection;
* :mod:`repro.serve` — the serving layer: request batching and
  coalescing, the content-addressed result cache, JSONL serving
  (``bpmax serve`` / ``bpmax submit`` / :func:`serve_many`), and the
  sharded multi-process tier (:class:`~repro.serve.ShardScheduler`)
  with admission control, load shedding and self-healing workers plus
  its seeded stress-scenario library, fronted by the stdlib HTTP
  gateway (:class:`~repro.serve.HttpGateway`, ``bpmax serve --http``)
  and its retry-aware client (:class:`~repro.serve.GatewayClient`);
* :mod:`repro.bench` — the experiment harness regenerating every paper
  table and figure.
"""

from .core.api import BpmaxResult, bpmax, fold, serve_many
from .core.engine import ENGINES
from .kernels import (
    DEFAULT_BACKEND,
    TiledExecutor,
    Workspace,
    available_backends,
    get_backend,
    get_tile_shape,
    tune,
)
from .observe import Counters, RunReport, collecting, trace, tracing
from .rna.scoring import DEFAULT_MODEL, ScoringModel
from .serve import (
    BatchScheduler,
    GatewayClient,
    HttpGateway,
    ResultCache,
    ServeResult,
    ShardScheduler,
    SubmitRequest,
)
from .rna.sequence import RnaSequence, random_pair, random_sequence
from .robust import (
    BpmaxError,
    CheckpointManager,
    Deadline,
    DeadlineExceeded,
    EngineFailure,
    FaultPlan,
    InvalidSequenceError,
    retry,
)

__version__ = "1.7.0"

__all__ = [
    "BpmaxResult",
    "bpmax",
    "fold",
    "serve_many",
    "BatchScheduler",
    "GatewayClient",
    "HttpGateway",
    "ResultCache",
    "ServeResult",
    "ShardScheduler",
    "SubmitRequest",
    "ENGINES",
    "DEFAULT_BACKEND",
    "TiledExecutor",
    "Workspace",
    "available_backends",
    "get_backend",
    "get_tile_shape",
    "tune",
    "Counters",
    "RunReport",
    "collecting",
    "trace",
    "tracing",
    "DEFAULT_MODEL",
    "ScoringModel",
    "RnaSequence",
    "random_pair",
    "random_sequence",
    "BpmaxError",
    "CheckpointManager",
    "Deadline",
    "DeadlineExceeded",
    "EngineFailure",
    "FaultPlan",
    "InvalidSequenceError",
    "retry",
    "__version__",
]
