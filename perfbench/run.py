"""End-to-end and per-layer benchmark of the tripres pipeline.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`, never from an installed copy.  Load is one closed-loop client: one
operation at a time, the next only after the previous returned.

Workloads (BENCHMARK.json records why each exists):
  verify_all      CLI_CHILDREN fresh processes running `tripres verify --all`
  enumerate_q13   CLI_CHILDREN fresh processes running `tripres enumerate
                  --q 13 --all`; these are the twins in worker.py that mark
                  where each call into a layer starts and ends
  abelianize_q13  one child builds the 144 q=13 catalog presentations, then
                  abelianizes a fixed stratified sample of 18 of them, each
                  under an in-process deadline; a miss is reported, not hung
                  on, and only the ops that finished are repeated, for
                  at least worker.REPEAT_PASSES more passes and until
                  --seconds have passed

`--trace 0` prints the end-to-end metrics.  Each distinct op is read at its
fastest repeat in the run (see e2e_metrics), and a CLI op, one whole child
process, at the fastest repeat of each segment between the calls into
`tripres` layers (see segment_best): wall_s is one pass at those times,
op_p50_ms and op_tail_ms their median and tail, ops_per_s the completed ops
per second of that pass; done_frac is the share of distinct ops that
finished in time with a right result on every attempt, peak_rss_mb the
median peak RSS of the measured children, setup_s the median of set-up-only
children.
`--trace 1` prints the per-layer metrics of traced children (see
worker.py).  The last stdout line is the JSON result; a wrong result makes
the command exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ("verify_all", "enumerate_q13", "abelianize_q13")
CLI_ARGS = {
    "verify_all": ["verify", "--all"],
    "enumerate_q13": ["enumerate", "--q", "13", "--all"],
}
# Measured children per run of a CLI workload, whatever --seconds says.
# segment_best reads each segment at its fastest child, so its result falls
# as children are added (one series of 16 verify_all children on a shared
# 2-vCPU host: 8.4 s from 4 of them, 7.3 s from all 16); a fixed count keeps
# runs of faster and slower code comparable.  Four kept four successive
# windows of that series within 1.5 %, three spread them by 25 %.
CLI_CHILDREN = {"verify_all": 4, "enumerate_q13": 4}
# Setup probes per run; setup_s is their median.
SETUP_PROBES = {"verify_all": 7, "enumerate_q13": 7, "abelianize_q13": 3}
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
RANK_PRIMES = (2, 3, 13, 61, 2_147_483_647)

E2E_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "done_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer time metrics: the self time of these spans, summed.
LAYER_SPANS = {
    "gf.build_field_s": ("gf.build_field",),
    "plane.build_plane_s": ("plane.build_plane",),
    "presentations.canonical_form_s": ("presentations.canonical_form",),
    "presentations.sigma_cycles_s": ("presentations.enumerate_sigma_cycles",),
    "presentations.enumerate_all_s": ("presentations.enumerate_all_invariant",),
    "presentations.twist_s": ("presentations.twist_multiplier", "presentations.twist_translation"),
    "presentations.group_presentation_s": (
        "presentations.group_presentation",
        "presentations.extended_presentation",
    ),
    "abelian.abelianization_s": ("abelian.abelianization",),
    "abelian.invariant_factors_s": ("abelian.invariant_factors",),
    "catalog.invariant_catalog_s": ("catalog.invariant_catalog",),
    "tables.verify_s": ("tables.verify_abelianizations",),
    "tables.load_dataset_s": ("tables.load_dataset",),
    "cli.self_s": ("cli.main",),
    "trace.hooks_s": ("trace.hooks",),
}
LAYER_COUNTS = {
    "presentations.canonical_form_calls": "count",
    "presentations.sigma_cycles": "count",
    "abelian.calls": "count",
    "abelian.input_rows": "count",
    "abelian.input_cols": "count",
    "abelian.core_rows": "count",
    "abelian.core_max_bits": "bits",
    "abelian.deadline_misses": "count",
}
LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    **LAYER_COUNTS,
    "presentations.sigma_hit_frac": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result (missing sources, killed child, ...)."""


# -- children ------------------------------------------------------------------


class Runner:
    """Starts children in the run's work directory and reaps each with os.wait4.

    Paths the children write, like the class files whose names the file
    commands print, are relative to that directory, so outputs do not
    depend on where the checkout is.
    """

    def __init__(self, work: Path, limit_s: float = RUN_LIMIT_S):
        self.work = work
        self.deadline = time.perf_counter() + limit_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.n = 0

    def run(self, argv: list[str]) -> dict:
        """One child to completion: wall seconds, exit code, peak RSS, stdout."""
        self.n += 1
        out_path = self.work / f"child{self.n}.out"
        err_path = self.work / f"child{self.n}.err"
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{argv[1:]} killed by signal {-proc.returncode}: {err_path.read_text()[-2000:]}")
        return {
            "wall": end - start,
            "t0": start,  # perf_counter is CLOCK_MONOTONIC, the same clock in the child
            "t1": end,
            "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(errors="replace"),
        }

    def run_worker(self, cfg: dict) -> dict:
        return self.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(cfg)])


def setup_probes(runner: Runner, workload: str) -> list[float]:
    """Wall times of set-up-only children: interpreter start, import, inputs."""
    walls = []
    for _ in range(SETUP_PROBES[workload]):
        if workload in CLI_ARGS:
            child = runner.run([sys.executable, "-c", "import tripres.cli, sys; sys.stdout.write(tripres.__file__)"])
            where = Path(child["stdout"].decode())
            if SRC not in where.resolve().parents:
                raise BenchError(f"tripres imported from {where}, not from {SRC}")
        else:
            child = runner.run_worker({"mode": "setup", "workload": workload})
        if child["exit"] != 0:
            raise BenchError(f"setup probe exited {child['exit']}: {child['stderr'][-2000:]}")
        walls.append(child["wall"])
    return walls


# -- correctness gates -----------------------------------------------------------


def check_cli(workload: str, child: dict, want: dict) -> bool:
    if child["exit"] != want["exit"]:
        return False
    if workload == "verify_all":
        return hashlib.sha256(child["stdout"]).hexdigest() == want["stdout_sha256"]
    header = f"classes={want['classes']}"
    lines = child["stdout"].decode().splitlines()
    return any(ln.endswith(header) for ln in lines) and key_digests(child["stdout"]) == want["key_digests"]


def key_digests(stdout: bytes) -> list[str]:
    """The class key digests printed by `enumerate --all`, in order."""
    return [ln.rsplit("key=", 1)[1] for ln in stdout.decode().splitlines() if " key=" in ln]


def relator_digest(gp) -> str:
    blob = ";".join(",".join(map(str, r)) for r in gp.relators).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def rank_mod_p(relators, ncols: int, p: int) -> int:
    """Rank over GF(p) of the relator exponent-sum matrix (independent of tripres)."""
    import numpy as np

    a = np.zeros((len(relators), ncols), dtype=np.int64)
    for i, rel in enumerate(relators):
        for letter in rel:
            a[i, abs(letter) - 1] += 1 if letter > 0 else -1
    a %= p
    rank = 0
    for c in range(ncols):
        nz = np.flatnonzero(a[rank:, c])
        if not len(nz):
            continue
        piv = rank + nz[0]
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, c]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, c])
        if len(below):
            a[below] = (a[below] - np.outer(a[below, c], a[rank])) % p
        rank += 1
        if rank == len(a):
            break
    return rank


def group_consistent(gp, rank: int, divisors) -> bool:
    """rank_p(M) = n - free rank - #{d_i : p | d_i} for every checked prime p."""
    return all(
        rank_mod_p(gp.relators, gp.num_generators, p)
        == gp.num_generators - rank - sum(1 for d in divisors if d % p == 0)
        for p in RANK_PRIMES
    )


def score_abelianize(records, gps, expected_groups: dict) -> tuple[int, int]:
    """(failed, missed) over the records; a record is failed on a wrong group.

    Sets each record's `ok`: finished in time with a right group.
    A group is wrong if it differs from the one recorded at the seed commit,
    or if it disagrees with the rank of the relation matrix modulo one of
    RANK_PRIMES (which also covers ops that first finish after the seed).
    """
    failed = missed = 0
    verdict: dict[tuple, bool] = {}
    for rec in records:
        rec["ok"] = False
        if rec["miss"]:
            missed += 1
            continue
        key = (rec["item"], rec["group"])
        if key not in verdict:
            want = expected_groups.get(str(rec["item"]))
            verdict[key] = (want is None or want == rec["group"]) and group_consistent(
                gps[rec["item"]], rec["rank"], rec["divisors"]
            )
        failed += not verdict[key]
        rec["ok"] = verdict[key]
    return failed, missed


def q13_inputs(expected: dict):
    """Group presentations of the q=13 catalog, checked against the seed's."""
    from tripres.presentations import group_presentation

    gps = [group_presentation(p) for p in worker.q13_presentations()]
    if [relator_digest(gp) for gp in gps] != expected["relator_digests"]:
        raise BenchError("the q=13 catalog presentations differ from the recorded ones")
    return gps


# -- metrics -----------------------------------------------------------------------


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it (never below p50)."""
    xs = sorted(values)
    return xs[max(len(xs) - 11, len(xs) // 2)]


def layer_metrics(trace: dict) -> dict:
    """Self times of the spans by layer, plus the layer counters."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    top = 0.0
    for (name, start, end, parent), inner in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
        if parent < 0:
            top += end - start
    out = {m: sum(self_time.get(n, 0.0) for n in names) for m, names in LAYER_SPANS.items()}
    counters = trace["counters"]
    out.update({m: counters.get(m, 0) for m in LAYER_COUNTS})
    calls = counters.get("presentations.sigma_calls", 0)
    out["presentations.sigma_hit_frac"] = counters.get("presentations.sigma_hits", 0) / calls if calls else 0.0
    start, end = trace["window"]
    out["trace.unattributed_s"] = (end - start) - top
    return out


# -- workloads ---------------------------------------------------------------------


def measured_child(
    runner: Runner, workload: str, seed: int, seconds: float, traced: bool, want: dict, gps, marks: bool = False
):
    """One child run, checked: its op records and outcome counts.

    A CLI workload's child is a single op: `python -m tripres.cli`, or with
    `traced` or `marks` its twin in worker.py, which keeps the spans of the
    calls into the layers (with `marks` only their start and end times).
    The abelianize_q13 child runs passes over its ops (see worker.main).
    """
    out = str(runner.work / f"result{runner.n + 1}")
    if workload in CLI_ARGS:
        if traced or marks:
            cfg = {"mode": "cli", "workload": workload, "out": out, "argv": CLI_ARGS[workload]}
            child = runner.run_worker({**cfg, "trace": traced, "marks": marks})
            spans = json.loads(Path(out).read_text())
            child["trace" if traced else "spans"] = spans if traced else spans["spans"]
        else:
            child = runner.run([sys.executable, "-m", "tripres.cli", *CLI_ARGS[workload]])
        ok = check_cli(workload, child, want)
        child.update(records=[{"item": workload, "s": child["wall"], "ok": ok}], failed=int(not ok), missed=0)
        return child

    cfg = {
        "mode": "loop",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "out": out,
    }
    child = runner.run_worker(cfg)
    if child["exit"] != 0:
        raise BenchError(f"{workload} child exited {child['exit']}: {child['stderr'][-2000:]}")
    with open(out) as f:
        records = [r for line in f for r in json.loads(line)["records"]]
    failed, missed = score_abelianize(records, gps, want["groups"])
    if traced:
        child["trace"] = json.loads(Path(out + ".spans").read_text())
        child["trace"]["counters"]["abelian.deadline_misses"] = missed
    child.update(records=records, failed=failed, missed=missed)
    return child


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool, want: dict):
    """(metrics, attempted, failed, missed) of one benchmark run."""
    gps = q13_inputs(want) if workload == "abelianize_q13" else None

    def child(traced: bool, budget: float, marks: bool = False) -> dict:
        return measured_child(runner, workload, seed, budget, traced, want, gps, marks)

    if trace:
        # Untraced and traced twins doing the same fixed work, in pairs.
        plain, traced = [], []
        pairs: list[float] = []
        while worker.another_pass(pairs, sum(pairs), seconds, 1):
            plain.append(child(False, 0))
            traced.append(child(True, 0))
            pairs.append(plain[-1]["wall"] + traced[-1]["wall"])
        kids = plain + traced
        metrics = traced_metrics(plain, traced)
    else:
        setups = setup_probes(runner, workload)
        if workload in CLI_ARGS:
            kids = [child(False, 0, marks=True) for _ in range(CLI_CHILDREN[workload])]
        else:
            kids = [child(False, seconds)]
        metrics = e2e_metrics(kids, setups)
    return (
        metrics,
        sum(len(c["records"]) for c in kids),
        sum(c["failed"] for c in kids),
        sum(c["missed"] for c in kids),
    )


def segment_best(kids: list[dict]) -> float:
    """A CLI op's time at the fastest repeat of each of its segments.

    The marks (start and end of every call into a layer, and the child's
    start and exit) cut each child's run into the same sequence of
    segments, since the program is deterministic; the result sums, over
    the segments, the shortest time any child spent in it.
    """
    bounds = [[c["t0"], *sorted(t for span in c["spans"] for t in span[1:3]), c["t1"]] for c in kids]
    if len({len(b) for b in bounds}) != 1:
        raise BenchError(f"children of one CLI command made different call sequences: {[len(b) for b in bounds]}")
    return sum(min(b[i + 1] - b[i] for b in bounds) for i in range(len(bounds[0]) - 1))


def e2e_metrics(kids: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics over the distinct ops, each at its fastest repeat.

    The shared 2-vCPU host this was tuned on ran the same code up to 35 %
    slower for minutes at a time, and within each second it ran 1 ms slices
    of the same work at anything from their fastest time to several times
    that.  An op's fastest repeat removes much of that, but a 7 s CLI child
    averages over the slices, so it is cut into its segments between layer
    calls (segment_best).  Neither removes a slow phase that lasts a whole
    run.  A missed op counts at the time it ran, which is the deadline.
    """
    best: dict = {}
    done: dict = {}
    for c in kids:
        for r in c["records"]:
            best[r["item"]] = min(best.get(r["item"], r["s"]), r["s"])
            done[r["item"]] = done.get(r["item"], True) and r["ok"]
    if all("spans" in c for c in kids):
        [item] = best
        best[item] = segment_best(kids)
    times = sorted(best.values())
    done = sum(done.values()) / len(done)
    return {
        "wall_s": sum(times),
        "ops_per_s": done * len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_tail_ms": tail(times) * 1000,
        "done_frac": done,
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in kids),
        "setup_s": statistics.median(setups),
    }


def traced_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Median over the traced children of each per-layer metric."""
    per_child = [layer_metrics(c["trace"]) for c in traced]
    out = {m: statistics.median(pc[m] for pc in per_child) for m in per_child[0]}
    out["trace.overhead_frac"] = (
        statistics.median(c["wall"] for c in traced) / statistics.median(c["wall"] for c in plain) - 1
    )
    return out


# -- entry -------------------------------------------------------------------------


def environment() -> str:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        commit = ref[:12]
    return f"commit={commit} python={platform.python_version()} nproc={os.cpu_count()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tripres" / "__init__.py").is_file():
        print(f"error: no tripres sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    work = worker.work_dir(ROOT)
    try:
        metrics, attempted, failed, missed = run_workload(
            Runner(work), args.workload, args.seed, args.seconds, bool(args.trace), expected[args.workload]
        )
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        worker.remove_work_dir(work)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {environment()}")
    print(f"# ops attempted={attempted} failed={failed} deadline_misses={missed}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
