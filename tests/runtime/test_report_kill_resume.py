"""Kill-9 drill for ``repro report --checkpoint-dir``.

``report table1`` caches each finished (task, seed, family) training
cell.  A run SIGKILLed once at least one cell is on disk must, when
rerun with ``--resume``, serve exactly the cached cells, compute only
the rest, and print the same stdout as a run that was never killed.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: table1 at one seed: 3 proxy tasks x (Dense + 5 pattern families).
TABLE1_CELLS = 18

REPORT = [sys.executable, "-m", "repro", "report", "table1", "--epochs", "1"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cell_counts(stderr: str):
    match = re.search(r"\[repro\] (\d+) computed, (\d+) from cache, (\d+) failed", stderr)
    assert match, stderr
    return tuple(int(n) for n in match.groups())


def test_sigkilled_report_resumes_cell_by_cell(tmp_path):
    cache = tmp_path / "cells"
    env = _env()
    # The uninterrupted reference run shares the wall clock with the drill.
    clean = subprocess.Popen(
        REPORT, env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    victim = subprocess.Popen(
        REPORT + ["--checkpoint-dir", str(cache)], env=env, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 300
        while not list(cache.rglob("*.pkl")):
            assert victim.poll() is None, "report exited before caching a cell"
            assert time.monotonic() < deadline, "report never cached a cell"
            time.sleep(0.05)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        finished = len(list(cache.rglob("*.pkl")))
        assert 1 <= finished < TABLE1_CELLS

        resumed = subprocess.run(
            REPORT + ["--checkpoint-dir", str(cache), "--resume"], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=300,
        )
        clean_out, clean_err = clean.communicate(timeout=300)
    finally:
        for proc in (victim, clean):
            if proc.poll() is None:  # pragma: no cover - cleanup on assert failure
                proc.kill()
                proc.wait()

    assert resumed.returncode == 0, resumed.stderr
    assert clean.returncode == 0, clean_err
    assert _cell_counts(resumed.stderr) == (TABLE1_CELLS - finished, finished, 0)
    assert _cell_counts(clean_err) == (TABLE1_CELLS, 0, 0)
    assert resumed.stdout == clean_out
