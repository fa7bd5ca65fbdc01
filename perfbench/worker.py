"""Child-process side of the benchmark.

`run.py` starts this file in a fresh interpreter for every measured process,
so the `lru_cache`s of `tripres` start cold and `os.wait4` on the child gives
that process's own peak RSS.  The single argument is a JSON object:

    {"mode": "loop", "workload": "abelianize_q13", "seed": 1, "seconds": 30,
     "trace": false, "out": "/abs/path/result.jsonl"}

Modes:
  setup  build the workload's inputs and exit (timed from outside as setup_s)
  loop   build the inputs, then run closed-loop passes (see main),
         writing one JSON line of op records per pass to `out`
         (`"whole_catalog": true` makes abelianize_q13 cover all 144 items)
  cli    run `tripres.cli.main(argv)` once, with stdout going to the real
         stdout (the twin of `python -m tripres.cli ...`)

With `"trace": true` the public entry points of every `tripres` layer are
wrapped before anything runs, and the spans are written at the end, to
`out` in cli mode and to `out + ".spans"` in loop mode.  With `"marks":
true` (cli mode) the same entry points are wrapped without the counting
hooks: the spans only mark where the calls start and end, so that run.py
can split the run into segments and compare each across children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

# Per-op deadline of the q=13 abelianizations.  On calibration sweeps over
# all 144 ops (shared 2-vCPU x86 VM, Python 3.11) every op outside the
# 976-relator stratum took at most 0.55 s; of the 32 976-relator ops ten
# finished within 0.6-4.7 s, the next took 9.2 s, and 21 were still running
# at 12 s.  The only gap that leaves a 1.3x margin on both sides is
# 4.7 s .. 9.2 s (6.1 s .. 7.1 s after the margins); 6.5 s sits in its
# middle, so machine noise does not flip an op between finished and missed.
DEADLINE_S = 6.5

WORK = ".perfbench-work"  # under the checkout root, one subdirectory per run
SAMPLE_STEP = 8  # abelianize_q13 measures 144 / 8 = 18 of the q=13 catalog items
# Least number of abelianize_q13 passes over the ops that finished, after
# the first pass over all.  On a shared 2-vCPU host the same 0.3 s op took
# anything up to 1.6 times its fastest time, and in one run of nine passes
# the median of the ops' fastest times reached its final value within 2 %
# only at the fourth; five leave a margin for slower phases.
REPEAT_PASSES = 5


def work_dir(root: Path) -> Path:
    path = root / WORK / f"run{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


# -- tracing -------------------------------------------------------------------

# Public entry points per layer.  Every binding of these functions in any
# `tripres` namespace is replaced, because `from .abelian import
# abelianization` gives `catalog` and `cli` their own names for it.
TRACED = {
    "gf": ("build_field",),
    "plane": ("build_plane",),
    "presentations": (
        "canonical_form",
        "enumerate_sigma_cycles",
        "enumerate_all_invariant",
        "twist_multiplier",
        "twist_translation",
        "group_presentation",
        "extended_presentation",
    ),
    "abelian": ("abelianization", "invariant_factors"),
    "catalog": ("invariant_catalog",),
    "tables": ("load_dataset", "verify_abelianizations"),
    "cli": ("main",),
}
HOOK_SPAN = "trace.hooks"


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus layer counters."""

    def __init__(self, hooks: bool = True):
        self.hooks = hooks
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.start = time.perf_counter()

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _hook(self, observe, args, result) -> None:
        idx = self._open(HOOK_SPAN)
        try:
            observe(self, args, result)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        """`before` sees the arguments of every call, `after` those of the calls that return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args, None)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                self._hook(after, args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module("tripres")]
        modules += [importlib.import_module(f"tripres.{m}") for m in TRACED]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"tripres.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                hooks = (BEFORE.get(fname), AFTER.get(fname)) if self.hooks else (None, None)
                wrapper = self.wrap(f"{layer}.{fname}", orig, *hooks)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
        self.start = time.perf_counter()

    def dump(self, path: str) -> None:
        window = [self.start, time.perf_counter()]
        Path(path).write_text(json.dumps({"window": window, "spans": self.spans, "counters": self.counters}))


def _observe_abelianization(tr: Tracer, args, result) -> None:
    gp = args[0]
    tr.count("abelian.calls")
    tr.peak("abelian.input_rows", len(gp.relators))
    tr.peak("abelian.input_cols", gp.num_generators)


def _observe_invariant_factors(tr: Tracer, args, result) -> None:
    matrix = args[0]
    tr.peak("abelian.core_rows", len(matrix))
    tr.peak("abelian.core_max_bits", max((abs(x).bit_length() for row in matrix for x in row), default=0))


def _observe_sigma_cycles(tr: Tracer, args, result) -> None:
    tr.count("presentations.sigma_calls")
    tr.count("presentations.sigma_cycles", len(result))
    tr.count("presentations.sigma_hits", 1 if result else 0)


def _observe_canonical_form(tr: Tracer, args, result) -> None:
    tr.count("presentations.canonical_form_calls")


BEFORE = {
    "abelianization": _observe_abelianization,
    "invariant_factors": _observe_invariant_factors,
    "canonical_form": _observe_canonical_form,
}
AFTER = {"enumerate_sigma_cycles": _observe_sigma_cycles}


# -- inputs --------------------------------------------------------------------


def q13_presentations():
    """The 144 presentations of the q=13 catalog, built without canonical_form.

    Classes are the orbits of (shift, sigma) under the multiplier subgroup,
    in the order `enumerate_all_invariant` finds them; each contributes its
    first multiplier-fixed member and that member's two multiplier twists,
    as `invariant_catalog` does.  Item 3*i+t is class i with twist t.
    """
    from tripres.gf import prime_power
    from tripres.plane import build_plane
    from tripres.presentations import (
        admissible_differences,
        enumerate_sigma_cycles,
        is_multiplier_fixed,
        presentation_from_sigma,
        twist_multiplier,
    )

    plane = build_plane(13)
    n = plane.n_points
    p = prime_power(13).p
    mults = [1]
    while (r := mults[-1] * p % n) != 1:
        mults.append(r)
    classes: dict = {}
    for b in range(n):
        for sigma in enumerate_sigma_cycles(n, admissible_differences(plane, b)):
            key = min(((m * b) % n, sigma.scaled(m).images) for m in mults)
            classes.setdefault(key, []).append((b, sigma))
    out = []
    for members in classes.values():
        for b, sigma in members:
            rep = presentation_from_sigma(plane, b, sigma)
            if is_multiplier_fixed(rep):
                break
        else:
            raise RuntimeError("class without a multiplier-fixed member")
        out += [rep, twist_multiplier(rep, 1), twist_multiplier(rep, 2)]
    return out


def q13_sample(sizes) -> list[int]:
    """Every SAMPLE_STEP-th item of the catalog ordered by relator count.

    `sizes[i]` is the relator count of catalog item i.  Every relator count
    of the q=13 catalog occurs a multiple of 8 times, so the sample keeps
    each at its exact catalog share: 4 of the 18 are 976-relator items, as
    32 of the 144 are.  The set does not depend on the seed, only its order
    does: the 976-relator ops range from 0.6 s to past the deadline, so a
    per-seed draw of four of them could put a run's busy time anywhere from
    about 7 s to 30 s.
    """
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    return sorted(order[::SAMPLE_STEP])


# -- ops -----------------------------------------------------------------------


class DeadlineMiss(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineMiss()


def timed_op(fn, deadline: float):
    """Run fn() under an in-process deadline: (seconds, result or None if missed)."""
    old = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMiss:
        result = None
    finally:
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, old)
    return elapsed, result


def abelianize_pass(items, order, deadline, abelianize, group_presentation) -> list[dict]:
    records = []
    for i in order:
        p = items[i]
        elapsed, group = timed_op(lambda: abelianize(group_presentation(p)), deadline)
        rec = {"item": i, "s": elapsed, "miss": group is None}
        if group is not None:
            rec.update(group=str(group), rank=group.rank, divisors=list(group.divisors))
        records.append(rec)
    return records


def another_pass(walls: list[float], elapsed: float, seconds: float, min_passes: int) -> bool:
    """Whether a run that has spent `elapsed` on `walls` should start one more pass.

    It does while it has fewer than `min_passes`, and otherwise while one
    more pass as long as the last ends the run nearer to `seconds`.
    """
    return len(walls) < min_passes or elapsed + walls[-1] / 2 < seconds


def closed_loop(run_pass, keys, seed: int, seconds: float, out: str, repeat, min_passes: int) -> None:
    """Back-to-back passes, each in a fresh seeded order.

    The first pass covers all keys, each later one `repeat(records of the
    pass before)`.  Each pass is appended to `out` as one JSON line as soon
    as it ends, so the records do not pile up in the memory being measured.
    """
    rng = random.Random(seed)
    walls: list[float] = []
    start = time.perf_counter()
    with open(out, "w") as f:
        while keys and another_pass(walls, time.perf_counter() - start, seconds, min_passes):
            order = list(keys)
            rng.shuffle(order)
            t = time.perf_counter()
            records = run_pass(order)
            walls.append(time.perf_counter() - t)
            f.write(json.dumps({"s": walls[-1], "records": records}) + "\n")
            f.flush()
            keys = repeat(records)


# -- entry ---------------------------------------------------------------------


def main(cfg: dict) -> int:
    tracer = None
    if cfg.get("trace") or cfg.get("marks"):
        tracer = Tracer(hooks=bool(cfg.get("trace")))
        tracer.install()
    workload = cfg["workload"]
    if cfg["mode"] == "cli":
        from tripres import cli

        try:
            return cli.main(cfg["argv"])
        finally:
            sys.stdout.flush()
            if tracer:
                tracer.dump(cfg["out"])

    if workload != "abelianize_q13":
        raise ValueError(f"no in-process setup for {workload}")
    items = q13_presentations()
    sample = q13_sample([len(p.rotation_classes()) for p in items])
    if cfg["mode"] == "setup":
        return 0

    from tripres import abelian, presentations

    def run_pass(order):
        return abelianize_pass(items, order, DEADLINE_S, abelian.abelianization, presentations.group_presentation)

    # A miss is attempted once per run: a repeat would cost the whole
    # deadline again and show nothing new.  The ops that finished are
    # repeated, at least REPEAT_PASSES times, so each is read at its fastest
    # repeat (see run.e2e_metrics).  With `seconds` 0 (the traced twins,
    # the baseline sweep) there is exactly one pass.
    def repeat(records):
        return sorted(r["item"] for r in records if not r["miss"])

    keys = range(len(items)) if cfg.get("whole_catalog") else sample
    min_passes = 1 + REPEAT_PASSES if cfg["seconds"] > 0 else 1
    closed_loop(run_pass, keys, cfg["seed"], cfg["seconds"], cfg["out"], repeat, min_passes)
    if tracer:
        tracer.dump(cfg["out"] + ".spans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
