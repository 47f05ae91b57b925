"""Self-test of the benchmark: span arithmetic, every workload at tiny size,
and the run's refusal to report without the program's sources.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, covered_length, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("d", 11.0, 12.0, -1),
    ]
    got = self_times(spans)
    assert got["a"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got["b"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got["c"] == pytest.approx(1.0)
    assert got["d"] == pytest.approx(1.0)
    # self times of a tree add up to the root spans' durations
    assert sum(got.values()) == pytest.approx(10.0 + 1.0)


def test_covered_length_merges_and_clips():
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([], 0.0, 10.0) == 0.0


def test_missing_wrap_target_reports_zero_calls(monkeypatch):
    import satcrb.signal_ml as signal_ml

    monkeypatch.delattr(signal_ml, "minimize")
    t = tracer.Tracer()
    t.install()
    try:
        assert "signal_ml.minimize" in t.missing
        assert t.metrics()["signal_ml.minimize.calls"] == (0.0, "count")
    finally:
        t.uninstall()


def test_uninstall_restores_every_function():
    import satcrb.cli as cli
    import satcrb.montecarlo as montecarlo

    before = (montecarlo.crb_distribution, cli.crb_distribution, cli.render_rows)
    t = tracer.Tracer()
    t.install()
    assert cli.crb_distribution is montecarlo.crb_distribution is not before[0]
    t.uninstall()
    assert (montecarlo.crb_distribution, cli.crb_distribution, cli.render_rows) == before


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_tiny_workload_untraced(name):
    result = run.run_workload(
        name, 7, 0.0, False, tiny=True, min_passes=1, setup_repeats=1,
        results_dir=None, emit=lambda line: None,
    )
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_verify_failure_is_counted():
    # verify's planar-oracle check (gate 1e-10) fails at this seed; the run
    # must report it, not hide it
    result = run.run_workload(
        "closed_form_grid", 989644343, 0.0, False, tiny=True, min_passes=2,
        setup_repeats=1, results_dir=None, emit=lambda line: None,
    )
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (18, 2)


def test_tiny_ml_traced_reports_every_per_layer_metric():
    lines = []
    result = run.run_workload(
        "ml_snr", 7, 0.0, True, tiny=True, min_passes=1,
        results_dir=None, emit=lines.append,
    )
    assert result["correct"], result
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == PER_LAYER
    assert metrics["signal_ml.ml_localize.calls"] == 100  # 50 trials x 2 modes
    assert metrics["signal_ml.minimize.calls"] == 100
    assert metrics["signal_ml.minimize.nfev.mean"] > 0
    assert metrics["signal_ml.ml_localize.fix_z.ms.p50"] > 0
    assert metrics["montecarlo.crb_distribution.calls"] == 0
    assert any(line.startswith("ml_localize time") for line in lines)
    assert any(line.startswith("tracing overhead") for line in lines)


def test_same_seed_same_digests():
    import workloads

    w = workloads.build(tiny=True)["mc_small_fleets"]
    a, b = (run.run_passes(w, 3, 0.0, 2) for _ in range(2))
    c = run.run_passes(w, 4, 0.0, 1)

    def digests(passes):
        return [c["sha256"] for r in passes.records for c in r.commands]

    assert digests(a) == digests(b)
    assert digests(a)[:2] != digests(c)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ml_snr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
