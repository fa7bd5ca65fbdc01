"""Regenerate the measured-baseline rows of ROADMAP.md in one command.

    python3 perfbench/baseline.py [--write-expected]

Runs one fresh `tripres verify --all`, one fresh `tripres enumerate --q 13
--all`, and every one of the 144 q=13 catalog abelianizations under the
benchmark's deadline, and prints wall time, peak RSS and the q=13 deadline
misses.

`--write-expected` also rewrites `expected.json`, the reference outputs the
benchmark's correctness gates compare against.  Write it only from a commit
whose outputs are known to be right: the gates trust it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import run
import worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    work = worker.work_dir(run.ROOT)
    runner = run.Runner(work, limit_s=1800)
    try:
        verify = runner.run([sys.executable, "-m", "tripres.cli", *run.CLI_ARGS["verify_all"]])
        enum = runner.run([sys.executable, "-m", "tripres.cli", *run.CLI_ARGS["enumerate_q13"]])
        out = str(work / "sweep.jsonl")
        cfg = {"mode": "loop", "workload": "abelianize_q13", "seed": 0, "seconds": 0, "whole_catalog": True, "out": out}
        sweep = runner.run_worker(cfg)
        sweep_recs = json.loads(Path(out).read_text())["records"]
    finally:
        worker.remove_work_dir(work)

    from tripres.presentations import group_presentation

    gps = [group_presentation(p) for p in worker.q13_presentations()]
    sweep_recs.sort(key=lambda r: r["item"])
    misses = [r for r in sweep_recs if r["miss"]]
    big = [r for r in sweep_recs if len(gps[r["item"]].relators) == max(len(g.relators) for g in gps)]
    finished = sorted(r["s"] for r in sweep_recs if not r["miss"])
    failed, _ = run.score_abelianize(sweep_recs, gps, {})
    digests = run.key_digests(enum["stdout"])

    print(f"# {run.environment()}")
    print("| what | result |")
    print("| --- | --- |")
    print(f"| `tripres verify --all` | {verify['wall']:.1f} s, {verify['rss_mb']:.0f} MB peak RSS, exit {verify['exit']} |")
    print(f"| `tripres enumerate --q 13 --all` | {enum['wall']:.1f} s, {enum['rss_mb']:.0f} MB peak RSS, {len(digests)} classes |")
    print(
        f"| q=13 catalog abelianizations, {worker.DEADLINE_S} s deadline each | "
        f"{len(sweep_recs) - len(misses)} of {len(sweep_recs)} finish, {len(misses)} miss "
        f"({sum(r['miss'] for r in big)} of the {len(big)} {len(gps[big[0]['item']].relators)}-relator ones); "
        f"slowest finished {finished[-1]:.2f} s; {failed} fail the rank check; {sweep['rss_mb']:.0f} MB peak RSS |"
    )

    if args.write_expected:
        expected = {
            "verify_all": {"exit": verify["exit"], "stdout_sha256": hashlib.sha256(verify["stdout"]).hexdigest()},
            "enumerate_q13": {"exit": enum["exit"], "classes": len(digests), "key_digests": digests},
            "abelianize_q13": {
                "relator_digests": [run.relator_digest(gp) for gp in gps],
                "groups": {str(r["item"]): r["group"] for r in sweep_recs if not r["miss"]},
                "calibration_s": {str(r["item"]): round(r["s"], 3) for r in sweep_recs},
            },
        }
        run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {run.EXPECTED.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
