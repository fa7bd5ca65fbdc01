"""Tests of the benchmark's own accounting: python3 -m pytest perfbench -q"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
from tripres.abelian import AbelianGroup, abelianization  # noqa: E402
from tripres.plane import build_plane  # noqa: E402
from tripres.presentations import enumerate_invariant, group_presentation  # noqa: E402


def small_gp():
    return group_presentation(enumerate_invariant(build_plane(2), 0)[0])


def records_for(stub, deadline=5.0):
    return worker.abelianize_pass([small_gp()], [0], deadline, stub, lambda gp: gp)


def test_sleeping_stub_counts_as_miss():
    def sleeper(gp):
        time.sleep(1.0)
        return abelianization(gp)

    start = time.perf_counter()
    records = records_for(sleeper, deadline=0.05)
    assert time.perf_counter() - start < 0.5
    assert records[0]["miss"]
    assert run.score_abelianize(records, [small_gp()], {}) == (0, 1)


def test_wrong_group_counts_as_failure():
    right = abelianization(small_gp())
    wrong = AbelianGroup(rank=right.rank + 1, divisors=right.divisors)
    assert run.score_abelianize(records_for(lambda gp: right), [small_gp()], {}) == (0, 0)
    # caught by the rank check alone, for an op with no recorded group
    assert run.score_abelianize(records_for(lambda gp: wrong), [small_gp()], {}) == (1, 0)
    # caught by the recorded group even where the ranks cannot tell
    recorded = {"0": str(AbelianGroup(rank=0, divisors=(7,)))}
    assert run.score_abelianize(records_for(lambda gp: right), [small_gp()], recorded) == (1, 0)


def test_rank_mod_p_matches_group():
    gp = small_gp()
    group = abelianization(gp)
    assert run.group_consistent(gp, group.rank, group.divisors)


def test_tracer_wraps_every_binding_and_derives_self_time(tmp_path):
    import importlib

    import tripres

    gp = small_gp()
    modules = [tripres] + [importlib.import_module(f"tripres.{m}") for m in worker.TRACED]
    saved = [dict(vars(m)) for m in modules]
    tracer = worker.Tracer()
    tracer.install()
    try:
        assert tripres.catalog.abelianization is tripres.abelian.abelianization
        assert tripres.cli.abelianization is tripres.abelian.abelianization
        assert tripres.abelianization is tripres.abelian.abelianization
        tripres.abelian.abelianization(gp)
        tracer.dump(str(tmp_path / "spans.json"))
    finally:
        for mod, names in zip(modules, saved):
            vars(mod).update(names)
    trace = run.json.loads((tmp_path / "spans.json").read_text())
    names = [s[0] for s in trace["spans"] if s[0] != worker.HOOK_SPAN]
    assert names == ["abelian.abelianization", "abelian.invariant_factors"]
    layers = run.layer_metrics(trace)
    assert layers["abelian.calls"] == 1
    start, end = trace["window"]
    total = sum(layers[m] for m in run.LAYER_SPANS) + layers["trace.unattributed_s"]
    assert abs(total - (end - start)) < 1e-6


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(100))
    assert run.tail(xs) == 89
    assert run.tail([3.0, 1.0, 2.0]) == 2.0


def test_segment_best_takes_each_segment_at_its_fastest_child():
    # two children of the same program: one call mark pair each, slow in different segments
    fast_then_slow = {"t0": 0.0, "t1": 10.0, "spans": [["abelian.abelianization", 1.0, 4.0, -1]]}
    slow_then_fast = {"t0": 20.0, "t1": 27.0, "spans": [["abelian.abelianization", 23.0, 25.0, -1]]}
    assert run.segment_best([fast_then_slow, slow_then_fast]) == 1.0 + 2.0 + 2.0
    # a different number of marks means different work: no estimate
    other = {"t0": 0.0, "t1": 5.0, "spans": []}
    with pytest.raises(run.BenchError):
        run.segment_best([fast_then_slow, other])


def test_closed_loop_repeats_only_what_the_first_pass_finished(tmp_path):
    out = tmp_path / "passes.jsonl"

    def run_pass(order):
        return [{"item": i, "miss": i == 0} for i in order]

    def repeat(records):
        return sorted(r["item"] for r in records if not r["miss"])

    worker.closed_loop(run_pass, range(3), 1, 0, str(out), repeat, 3)
    passes = [run.json.loads(line)["records"] for line in out.read_text().splitlines()]
    assert [sorted(r["item"] for r in recs) for recs in passes] == [[0, 1, 2], [1, 2], [1, 2]]
