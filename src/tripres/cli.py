"""Command-line frontend.

Subcommands: field, plane, enumerate, twist, present, abelianize, verify,
survey.  All output is line-oriented plain text behind a `# generated-by`
header that records the modulus choice, so runs are diffable.  Exit codes:
0 success/verified, 1 verification mismatch or heuristic deviation,
2 usage or input errors, 141 (128 + SIGPIPE) when the reader of stdout
goes away, as in `tripres enumerate --q 13 --all | head -1`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .abelian import abelianization
from .catalog import invariant_catalog
from .gf import SUPPORTED_Q, build_field, poly_str
from .plane import build_plane, check_difference_set
from .presentations import (
    enumerate_all_invariant,
    enumerate_invariant,
    extended_presentation,
    group_presentation,
    presentation_from_text,
    presentation_to_text,
    read_utf8,
    twist_multiplier,
    twist_translation,
)
from .tables import heuristic_survey, load_dataset, verify_abelianizations


def _header(q: int | None = None) -> str:
    parts = [f"# generated-by: tripres {__version__}"]
    if q is not None:
        f = build_field(q)
        parts.append(f"# field: GF({f.p}^{f.degree}), modulus {poly_str(f.modulus)} (min-value primitive)")
    return "\n".join(parts)


def _load_labels(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    labels = {}
    for number, raw in enumerate(read_utf8(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        digest, *name = line.split(None, 1)
        if not name:
            raise ValueError(f"{path} line {number}: no name after the digest {digest}")
        if digest in labels:
            raise ValueError(f"{path} line {number}: digest {digest} is named twice")
        labels[digest] = name[0]
    return labels


# -- subcommands -------------------------------------------------------------


def cmd_field(args) -> int:
    f = build_field(args.q)
    plane = build_plane(args.q)
    print(_header(args.q))
    print(f"q={args.q} p={f.p} d={f.degree}")
    print(f"modulus = {poly_str(f.modulus)}")
    print("generator = x")
    print("trace_zero = " + " ".join(str(j) for j in plane.difference_set))
    return 0


def cmd_plane(args) -> int:
    plane = build_plane(args.q)
    if not check_difference_set(plane).ok:
        raise ValueError(f"the q={args.q} difference set fails its invariants")
    print(_header(args.q))
    print(f"N={plane.n_points}")
    dstr = " ".join(str(j) for j in plane.difference_set)
    print(f"D(q={plane.q},N={plane.n_points}) = {dstr}")
    return 0


def cmd_enumerate(args) -> int:
    if not args.all_shifts and (args.out_dir is not None or args.labels is not None):
        raise ValueError("--out-dir and --labels need --all")
    labels = _load_labels(args.labels)
    if args.out_dir:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    plane = build_plane(args.q)
    if not args.all_shifts and not 0 <= args.b < plane.n_points:
        raise ValueError(f"--b {args.b} is not in 0..{plane.n_points - 1}")
    print(_header(args.q))
    if not args.all_shifts:
        ps = enumerate_invariant(plane, args.b)
        print(f"q={args.q} N={plane.n_points} b={args.b} presentations={len(ps)}")
        for i, p in enumerate(ps):
            print(f"presentation {i}:")
            sys.stdout.write(presentation_to_text(p))
        return 0
    classes = enumerate_all_invariant(plane)
    print(f"q={args.q} N={plane.n_points} classes={len(classes)}")
    for c in classes:
        b0, sigma0 = c.members[0]
        digest = c.key_digest
        name = labels.get(digest, f"class {c.index}")
        print(
            f"{name}: b={b0} sigma={sigma0.describe()} members={len(c.members)} "
            f"inverse={c.inverse_index} key={digest}"
        )
        if args.out_dir:
            path = Path(args.out_dir) / f"q{args.q}_class{c.index}.tp"
            path.write_text(
                presentation_to_text(
                    c.representative, note=f"q={args.q} class {c.index} key {digest}"
                )
            )
            print(f"  wrote {path}")
    return 0


def cmd_twist(args) -> int:
    p = presentation_from_text(read_utf8(args.infile))
    if args.kind == "q":
        result = twist_multiplier(p, 1)
    elif args.kind == "q2":
        result = twist_multiplier(p, 2)
    elif args.kind == "transB":
        result = twist_translation(p)[0]
    else:
        result = twist_translation(p)[1]
    text = presentation_to_text(result, note=f"{args.kind} twist of {args.infile}")
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(_header(p.q))
        sys.stdout.write(text)
    return 0


def _phi_from_spec(p, spec: str):
    n = p.n
    if spec == "q":
        return tuple((p.q * j) % n for j in range(n))
    if spec == "q2":
        return tuple((p.q * p.q * j) % n for j in range(n))
    if spec in ("transB", "transC"):
        if n % 3:
            raise ValueError("translation extension needs 3 | N")
        t = n // 3 if spec == "transB" else 2 * (n // 3)
        return tuple((j + t) % n for j in range(n))
    raise ValueError(f"unknown phi spec {spec!r} (use q, q2, transB, transC)")


def _letter(idx: int, n: int) -> str:
    name = "t" if abs(idx) == n + 1 else f"x{abs(idx) - 1}"
    return name + ("^-1" if idx < 0 else "")


def cmd_present(args) -> int:
    p = presentation_from_text(read_utf8(args.infile))
    if args.extended:
        gp = extended_presentation(p, _phi_from_spec(p, args.extended))
    else:
        gp = group_presentation(p)
    print(_header(p.q))
    print(f"generators {gp.num_generators}")
    for rel in gp.relators:
        print("relator " + " ".join(_letter(v, p.n) for v in rel))
    return 0


def cmd_abelianize(args) -> int:
    p = presentation_from_text(read_utf8(args.infile))
    print(_header(p.q))
    print(str(abelianization(group_presentation(p))))
    return 0


def cmd_verify(args) -> int:
    labels = _load_labels(args.labels)
    ds = load_dataset(args.data)
    if not args.all_q and args.q not in ds.qs():
        raise ValueError(f"q={args.q} not present in the dataset")
    catalogs = {q: invariant_catalog(q) for q in (ds.qs() if args.all_q else (args.q,))}
    report = verify_abelianizations(ds, catalogs)
    print(_header())
    for sec in report.sections:
        catalog = catalogs[sec.q]
        print(f"q={sec.q}: families_matched={len(sec.matched)} extras={len(sec.extra_orbits)}")
        for fam, idx in sec.matched:
            o = catalog[idx]
            digest_name = labels.get(o.key_digest, f"class {idx}")
            print(
                f"  match {fam}: {digest_name} gamma_ab={o.base} twists={o.twist_q},{o.twist_q2}"
            )
        for fam in sec.unmatched:
            print(f"  UNMATCHED family {fam}")
        for fam, detail in sec.mismatched:
            print(f"  MISMATCH family {fam}: {detail}")
        for idx in sec.extra_orbits:
            o = catalog[idx]
            print(f"  extra class {idx} (inverse of {o.inverse_index}): gamma_ab={o.base}")
        for name, reason in sec.skipped:
            print(f"  skipped {name}: {reason}")
    print("verified" if report.ok else "verification FAILED")
    return 0 if report.ok else 1


def cmd_survey(args) -> int:
    ds = load_dataset(args.data)
    sv = heuristic_survey(ds)
    print(_header())
    for label, rows in (("FAILS", sv.fails), ("HOLDS", sv.holds), ("VACUOUS", sv.vacuous)):
        print(f"{label} ({len(rows)}):")
        for r in rows:
            print(f"  q={r.q} {r.name}")
    print(f"non-q3 failing set: {sorted(sv.non_q3_failures)}")
    if sv.matches_published:
        print("survey matches the published exception list")
        return 0
    print("survey DEVIATES from the published exception list")
    return 1


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripres",
        description="Triangle presentations over Singer planes: enumeration, twists, abelianization, table checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_q(p):
        p.add_argument("--q", type=int, required=True, choices=SUPPORTED_Q)

    p_field = sub.add_parser("field", help="print the field data for one q")
    add_q(p_field)
    p_field.set_defaults(func=cmd_field)

    p_plane = sub.add_parser("plane", help="print N and the difference set")
    add_q(p_plane)
    p_plane.set_defaults(func=cmd_plane)

    p_enum = sub.add_parser("enumerate", help="enumerate invariant presentations")
    add_q(p_enum)
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", type=int, help="single correspondence shift")
    group.add_argument("--all", dest="all_shifts", action="store_true",
                       help="all shifts, reduced to equivalence classes")
    p_enum.add_argument("--out-dir", help="write one presentation file per class")
    p_enum.add_argument("--labels", help="optional key-digest to name mapping file")
    p_enum.set_defaults(func=cmd_enumerate)

    p_twist = sub.add_parser("twist", help="twist a presentation file")
    p_twist.add_argument("--in", dest="infile", required=True)
    p_twist.add_argument("--kind", required=True, choices=("q", "q2", "transB", "transC"))
    p_twist.add_argument("--out", help="output file (default: stdout)")
    p_twist.set_defaults(func=cmd_twist)

    p_present = sub.add_parser("present", help="emit the group presentation")
    p_present.add_argument("--in", dest="infile", required=True)
    p_present.add_argument("--extended", choices=("q", "q2", "transB", "transC"),
                           help="emit the degree-3 extension for this order-3 phi")
    p_present.set_defaults(func=cmd_present)

    p_abel = sub.add_parser("abelianize", help="print the abelianization in bracket notation")
    p_abel.add_argument("--in", dest="infile", required=True)
    p_abel.set_defaults(func=cmd_abelianize)

    p_verify = sub.add_parser("verify", help="recompute abelianizations and match the tables")
    vq = p_verify.add_mutually_exclusive_group(required=True)
    vq.add_argument("--q", type=int)
    vq.add_argument("--all", dest="all_q", action="store_true")
    p_verify.add_argument("--data", help="table file (default: bundled)")
    p_verify.add_argument("--labels", help="optional class-name mapping file")
    p_verify.set_defaults(func=cmd_verify)

    p_survey = sub.add_parser("survey", help="run the torsion-doubling heuristic survey")
    p_survey.add_argument("--data", help="table file (default: bundled)")
    p_survey.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # every string option names a file or directory; report it by its metavar
        empty = [name.upper() for name, value in vars(args).items() if value == ""]
        if empty:
            raise ValueError(f"{empty[0]} is an empty path")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone, which is no input error; point stdout at
        # /dev/null so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
