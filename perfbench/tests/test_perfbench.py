"""Tests of the repo benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload once, untraced and traced, so the
whole file takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import worker  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_spans_balance_and_wrappers_go_when_a_call_raises():
    import repro.core.masks as masks

    original = masks.make_mask
    tracer = Tracer((Target("repro.core.masks:make_mask", "core.mask_s"),))
    with tracer:
        assert masks.make_mask is not original
        with pytest.raises(Exception):
            masks.make_mask(None, None)
    assert tracer.recorder.balanced()
    assert tracer.recorder.span_counts()["core.mask_s"] == 1
    assert masks.make_mask is original
    assert tracer.check_removed() == []


def test_from_import_bindings_are_wrapped():
    import repro.sim.baselines as baselines
    import repro.sim.engine as engine

    original = engine.simulate
    with Tracer() as tracer:
        assert baselines.simulate is not original
        assert baselines.simulate.__wrapped__ is original
    assert baselines.simulate is original
    assert tracer.check_removed() == []


def test_a_missed_from_import_binding_fails_the_home_check():
    import repro.sim.baselines as baselines
    from repro.hw.config import tb_stc
    from repro.workloads.generator import build_workload
    from repro.workloads.layers import bert_layers
    from repro.core.patterns import PatternFamily

    workload = build_workload(bert_layers()[2], PatternFamily.TBS, 0.75, seed=0, scale=64)
    tracer = Tracer().install()
    try:
        # A patcher that wrapped only the defining module would leave this
        # binding alone; simulate_arch then calls the unwrapped simulate.
        wrapped = baselines.simulate
        baselines.simulate = wrapped.__wrapped__
        root = tracer.recorder.open("analysis.self_s")
        baselines.simulate_arch(tb_stc(), workload)
        tracer.recorder.close(root)
        baselines.simulate = wrapped
    finally:
        tracer.uninstall()
    span = tracer.recorder.spans[root]
    home = Workload(reports=(), homes=("sim.self_s", "hw.schedule_s"))
    _, problems = worker._self_check(home, tracer, span[2] - span[1])
    assert problems == ["trace: home layers recorded no call: ['sim.self_s']"]


def test_reference_tolerances():
    want = {"cnn/TBS": 0.5, "points/0/quality": 0.25}
    assert check.compare("table1", {"cnn/TBS": 0.5 + 1e-15}, {"cnn/TBS": 0.5}) == []
    assert check.compare("table1", {"cnn/TBS": 0.5 + 1 / 160}, {"cnn/TBS": 0.5})
    assert check.compare("fig1", {"points/0/quality": 0.25 - 1e-15}, {"points/0/quality": 0.25}) == []
    assert check.compare("fig1", {"points/0/cost": 2.0 + 1e-12}, {"points/0/cost": 2.0})
    assert check.compare("fig13", {"a/edp": 0.3 * (1 + 1e-12)}, {"a/edp": 0.3}) == []
    assert check.compare("fig13", {"a/edp": 0.3 * (1 + 1e-6)}, {"a/edp": 0.3})
    assert check.compare("scenarios", {"w": "TBS"}, {"w": "tie"})
    assert check.compare("table1", {}, want)


def test_reference_files_cover_every_workload_and_report():
    for name, workload in WORKLOADS.items():
        for seed in check.REFERENCE_SEEDS:
            ref = check.load_reference(name, seed)
            assert ref is not None, (name, seed)
            assert sorted(ref) == sorted(report for report, _ in workload.reports)


def test_benchmark_json_matches_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    text = "\n".join(lines[:-1])
    assert "failed_frac" in text and "stored reference" in text
    for m in expected:
        assert m["name"] in text


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
