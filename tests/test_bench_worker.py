"""The benchmark's traced worker runs on this tree.

`perfbench/worker.py` wraps the library's entry points and counts what
they return (it takes `len` of each `enumerate_sigma_cycles` result, for
one), so a change that keeps every library test passing can still make a
traced benchmark run fail.  These tests start the worker the way
`perfbench/run.py` does, with `"trace": true` (or `"marks": true`, as
the plain CLI runs use it), and read its span file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
VERIFY_ALL_SHA256 = "e27fd6bdefff5b46730d7281d70e5c7ae3916fa2e891e9382e57d42b45cf00e5"


def run_worker(cfg: dict) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(cfg)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def test_traced_abelianize_q13_loop(tmp_path):
    out = tmp_path / "loop.jsonl"
    cfg = {"mode": "loop", "workload": "abelianize_q13", "seed": 1, "seconds": 0, "trace": True, "out": str(out)}
    done = run_worker(cfg)
    assert done.returncode == 0, done.stderr
    counters = json.loads(Path(f"{out}.spans").read_text())["counters"]
    assert counters["abelian.calls"] == 18
    assert counters["presentations.sigma_calls"] == 183


def test_traced_enumerate_q13_cli(tmp_path):
    out = tmp_path / "cli.spans"
    cfg = {
        "mode": "cli",
        "workload": "enumerate_q13",
        "seed": 1,
        "seconds": 0,
        "trace": True,
        "argv": ["enumerate", "--q", "13", "--all"],
        "out": str(out),
    }
    done = run_worker(cfg)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["counters"]["presentations.sigma_calls"] == 183


@pytest.mark.parametrize("flag", ["trace", "marks"])
def test_verify_all_cli(tmp_path, flag):
    out = tmp_path / "cli.spans"
    cfg = {
        "mode": "cli",
        "workload": "verify_all",
        "seed": 1,
        "seconds": 0,
        flag: True,
        "argv": ["verify", "--all"],
        "out": str(out),
    }
    done = run_worker(cfg)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == VERIFY_ALL_SHA256
    if flag == "trace":
        counters = json.loads(out.read_text())["counters"]
        assert counters["abelian.calls"] == 75
        assert counters["presentations.sigma_calls"] == 426
