"""Experiment runs on the sweep cell cache: isolation, retries, disk cache.

``run_experiment`` runs every paper experiment through the sweep engine
-- grid drivers as one cell per grid point, single-shot drivers as one
cell keyed by the experiment name -- and ``repro report`` isolates each
experiment of ``all`` and counts cells from the sweep progress callback.
"""

from dataclasses import replace

import pytest

import repro.analysis.experiments as experiments
from repro import cli
from repro.analysis.experiments import _single_cell, run_experiment, run_table3
from repro.cli import main
from repro.faults.chaos import ChaosConfig
from repro.sweep import SweepCellResult, SweepCellsFailed, SweepOptions


def _returns_none():
    return None


def _transient(*args, **kwargs):
    raise RuntimeError("transient")


def _run(name, **kwargs):
    """``run_experiment`` plus the settled cells, in settle order."""
    cells = []
    options = replace(
        kwargs.pop("options", SweepOptions()),
        progress=lambda cell, done, total: cells.append(cell),
    )
    return run_experiment(name, options=options, **kwargs), cells


class TestIsolationAndRetries:
    def test_success_first_try(self):
        value, cells = _run("table3")
        assert value == run_table3()
        assert [(c.key, c.status, c.attempts) for c in cells] == [("table3", "ok", 1)]

    def test_retry_recovers_transient_failure(self, tmp_path):
        chaos = ChaosConfig(modes=("crash",), first_n=1, ledger_dir=str(tmp_path))
        value, cells = _run(
            "table3", options=SweepOptions(executor="supervised", retries=1, chaos=chaos)
        )
        assert value == run_table3()
        assert [(c.status, c.attempts) for c in cells] == [("ok", 2)]

    def test_exhausted_retries_fail_without_raising(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "area_breakdown", _transient)
        assert main(["report", "table3", "--retries", "2"]) == 1
        err = capsys.readouterr().err
        # A cell that raises is deterministic: it is never run again.
        assert "error: table3 failed after 1 attempt(s): RuntimeError: transient" in err

    def test_failure_does_not_stop_later_cells(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_EXPERIMENTS", ("table3", "fig6"))
        monkeypatch.setattr(experiments, "area_breakdown", _transient)
        assert main(["report", "all"]) == 1
        captured = capsys.readouterr()
        assert "error: table3 failed" in captured.err
        assert "--- fig6 ---" in captured.out and "ratio" in captured.out

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "area_breakdown", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["report", "table3", "--retries", "5"])

    def test_rejects_negative_retries(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "area_breakdown", _transient)
        assert main(["report", "table3", "--retries", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: retries must be >= 0")


class TestCache:
    def test_resume_serves_cache_without_calling(self, tmp_path, monkeypatch):
        first = run_experiment("table3", cache_dir=str(tmp_path))
        monkeypatch.setattr(experiments, "area_breakdown", _transient)  # would fail if run
        value, cells = _run("table3", cache_dir=str(tmp_path), resume=True)
        assert value == first
        assert [(c.status, c.attempts) for c in cells] == [("cached", 0)]

    def test_cache_key_includes_kwargs(self, tmp_path):
        run_experiment("fig14", scale=32, cache_dir=str(tmp_path))
        _, cells = _run("fig14", scale=64, cache_dir=str(tmp_path), resume=True)
        assert [c.status for c in cells] == ["ok"]  # a different scale must miss
        assert len(list(tmp_path.glob("fig14-*.pkl"))) == 2

    def test_without_resume_cache_is_ignored_but_written(self, tmp_path):
        run_experiment("table3", cache_dir=str(tmp_path))
        _, cells = _run("table3", cache_dir=str(tmp_path))
        assert [c.status for c in cells] == ["ok"]
        assert len(list(tmp_path.glob("table3-*.pkl"))) == 1

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        run_experiment("table3", cache_dir=str(tmp_path))
        for entry in tmp_path.glob("table3-*.pkl"):
            entry.write_bytes(b"not a pickle")
        value, cells = _run("table3", cache_dir=str(tmp_path), resume=True)
        assert [c.status for c in cells] == ["ok"] and value == run_table3()

    def test_failed_cells_are_not_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "area_breakdown", _transient)
        with pytest.raises(SweepCellsFailed):
            run_experiment("table3", cache_dir=str(tmp_path))
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_none_result_is_cached_and_served(self, tmp_path):
        _single_cell("nothing", _returns_none, {}, cache_dir=str(tmp_path))
        cells = []
        options = SweepOptions(progress=lambda cell, done, total: cells.append(cell))
        value = _single_cell(
            "nothing", _returns_none, {}, cache_dir=str(tmp_path), resume=True,
            options=options,
        )
        assert value is None and [c.status for c in cells] == ["cached"]

    def test_no_tmp_litter(self, tmp_path):
        run_experiment("fig17", cache_dir=str(tmp_path))
        assert len(list(tmp_path.rglob("*.pkl"))) == 3
        assert [p for p in tmp_path.rglob(".tmp-*")] == []


class TestReporting:
    def test_summary_counts(self, tmp_path, monkeypatch, capsys):
        assert main(["report", "table3", "--checkpoint-dir", str(tmp_path)]) == 0
        monkeypatch.setattr(cli, "_EXPERIMENTS", ("table3", "fig6", "fig4"))
        monkeypatch.setattr(experiments, "maskspace_table", _transient)
        assert main([
            "report", "all", "--checkpoint-dir", str(tmp_path), "--resume",
        ]) == 1
        captured = capsys.readouterr()
        assert "--- table3 (cached) ---" in captured.out
        assert "[repro] 1 computed, 1 from cache, 1 failed" in captured.err

    def test_cellresult_ok_statuses(self):
        assert SweepCellResult("x", "ok").ok
        assert SweepCellResult("x", "cached").ok
        for status in ("failed", "crashed", "timeout"):
            assert not SweepCellResult("x", status).ok
