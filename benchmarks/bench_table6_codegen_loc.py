"""Table VI — auto-generated code statistics.

Regenerates the LOC rows for every program version (the paper reports
140 / 150 / ~1200 / ~1400 C LOC; our Python generator reproduces the
ordering and growth) and times the generators themselves.
"""

from repro.bench.figures import run_experiment
from repro.core.alpha_model import bpmax_system, dmp_system, target_mapping_for
from repro.polyhedral.codegen import generate_schedule_code, generate_write_code

from conftest import emit


def test_table6_rows():
    res = run_experiment("table6")
    emit(res)
    loc = {r["implementation"]: r["loc"] for r in res.rows}
    # the paper's ordering: base < DMP-scheduled-ish << full BPMax < tiled
    assert loc["BPMax fine (scheduled)"] > 2 * loc["BPMax base (writeC)"]
    assert (
        loc["Double max-plus tiled (scheduled)"] > loc["Double max-plus (scheduled)"]
    )
    assert loc["BPMax hybrid (scheduled)"] >= loc["BPMax coarse (scheduled)"]


def test_writec_generation_cost(benchmark):
    sys_ = bpmax_system(include_s=True)
    src = benchmark(generate_write_code, sys_, "bp")
    assert "def _v_F" in src


def test_schedgen_generation_cost(benchmark):
    sys_ = dmp_system()
    tm = target_mapping_for("dmp", "dmp")
    src = benchmark(generate_schedule_code, sys_, tm, "d")
    assert "def _stmt" in src
