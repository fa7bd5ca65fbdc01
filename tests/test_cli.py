import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tripres.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv, env=None):
    """`python -m tripres ARGV` in a fresh interpreter, with this tree's src first.

    `env` holds extra environment variables; the output is read as UTF-8.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tripres", *argv],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=path, **(env or {})),
        timeout=60,
    )


def test_plane_q2(capsys):
    code, out, _ = run(capsys, "plane", "--q", "2")
    assert code == 0
    assert "N=7" in out
    assert "D(q=2,N=7) = 1 2 4" in out
    assert out.startswith("# generated-by: tripres")


def test_plane_failing_check_exits_2(capsys, monkeypatch):
    import tripres.cli
    from tripres.plane import DifferenceSetReport

    failing = DifferenceSetReport(
        ok=False, size_ok=True, perfect_ok=False, multiplier_ok=True, difference_counts=((1, 2),)
    )
    monkeypatch.setattr(tripres.cli, "check_difference_set", lambda plane: failing)
    code, out, err = run(capsys, "plane", "--q", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_field_q2(capsys):
    code, out, _ = run(capsys, "field", "--q", "2")
    assert code == 0
    assert "modulus = x^3 + x + 1" in out
    assert "generator = x" in out
    assert "trace_zero = 1 2 4" in out


def test_field_and_plane_output_pinned(capsys):
    import hashlib

    from tripres.gf import SUPPORTED_Q

    out = ""
    for q in SUPPORTED_Q:
        for cmd in ("field", "plane"):
            code, text, _ = run(capsys, cmd, "--q", str(q))
            assert code == 0
            out += text
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a2e4b265e9fb3705737c06a1018e86d066c2b15254c8ab340e13dd6dae9722f4"


ENUMERATE_Q13_SHA256 = "5936f3d24d67a0d0d4d5d3629e502338c5a20d88c5a8d06080d4f4bda7a0bee0"


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [
        (("verify", "--all"), 0, "e27fd6bdefff5b46730d7281d70e5c7ae3916fa2e891e9382e57d42b45cf00e5"),
        (("survey",), 1, "7e593e6a796af27c47c48adb76e288c10c7a01a7e2991a106cff5eb01c6a88b6"),
        (("enumerate", "--q", "13", "--all"), 0, ENUMERATE_Q13_SHA256),
    ],
    ids=["verify-all", "survey", "enumerate-q13-all"],
)
def test_command_output_pinned(capsys, argv, exit_code, digest):
    import hashlib

    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_enumerate_output_does_not_depend_on_the_hash_seed(hash_seed):
    """Set and dict order of strings moves with PYTHONHASHSEED; the class names must not."""
    import hashlib

    res = run_module("enumerate", "--q", "13", "--all", env={"PYTHONHASHSEED": hash_seed})
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == ENUMERATE_Q13_SHA256


def test_enumerate_all_q2(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--all", "--out-dir", str(tmp_path))
    assert code == 0
    assert "classes=2" in out
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["q2_class0.tp", "q2_class1.tp"]


def test_enumerate_single_shift(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--b", "0")
    assert code == 0
    assert "presentations=2" in out
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--b", "1")
    assert "presentations=0" in out


def test_pipeline_twist_present_abelianize(capsys, tmp_path):
    run(capsys, "enumerate", "--q", "2", "--all", "--out-dir", str(tmp_path))
    base = tmp_path / "q2_class0.tp"

    code, out, _ = run(capsys, "abelianize", "--in", str(base))
    assert code == 0
    assert out.strip().endswith("[(3)2,3]")

    twisted = tmp_path / "tw.tp"
    code, _, _ = run(capsys, "twist", "--in", str(base), "--kind", "q", "--out", str(twisted))
    assert code == 0
    code, out, _ = run(capsys, "abelianize", "--in", str(twisted))
    assert out.strip().endswith("[2,3,7]")

    code, out, _ = run(capsys, "present", "--in", str(base))
    assert code == 0
    assert "generators 7" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("relator ")) == 7

    code, out, _ = run(capsys, "present", "--in", str(base), "--extended", "q")
    assert "generators 8" in out
    assert "relator t t t" in out


def test_twist_of_a_file_whose_name_holds_a_newline_reads_back(capsys, tmp_path):
    # the note names the input file, and each of its lines is written as a comment
    run(capsys, "enumerate", "--q", "2", "--all", "--out-dir", str(tmp_path))
    base = (tmp_path / "q2_class0.tp").rename(tmp_path / "a\nb=0.tp")
    twisted = tmp_path / "tw.tp"
    code, _, _ = run(capsys, "twist", "--in", str(base), "--kind", "q", "--out", str(twisted))
    assert code == 0
    assert twisted.read_text().startswith(f"# q twist of {tmp_path}/a\n# b=0.tp\nq=2\n")
    code, out, err = run(capsys, "abelianize", "--in", str(twisted))
    assert (code, err) == (0, "")
    assert out.strip().endswith("[2,3,7]")


def test_translation_twist_cli(capsys, tmp_path):
    run(capsys, "enumerate", "--q", "4", "--all", "--out-dir", str(tmp_path))
    base = tmp_path / "q4_class0.tp"
    out_b = tmp_path / "b.tp"
    code, _, _ = run(capsys, "twist", "--in", str(base), "--kind", "transB", "--out", str(out_b))
    assert code == 0
    code, out, _ = run(capsys, "abelianize", "--in", str(out_b))
    assert out.strip().endswith("[(2)3]")
    for kind, group in [("q2", "[(2)2,(2)3,7]"), ("transC", "[(2)3]")]:
        twisted = tmp_path / f"{kind}.tp"
        code, _, _ = run(capsys, "twist", "--in", str(base), "--kind", kind, "--out", str(twisted))
        assert code == 0
        code, out, _ = run(capsys, "abelianize", "--in", str(twisted))
        assert (code, out.strip().splitlines()[-1]) == (0, group)
    # with no --out the twist goes to stdout: the header, its note, then q=4
    code, out, err = run(capsys, "twist", "--in", str(base), "--kind", "q")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].startswith("# generated-by: tripres") and lines[3] == "q=4"
    # the extension adds a generator t, t^3 and t x t^-1 = phi(x) for each of
    # the 21 points to the 35 relators of the base
    for phi in ("q2", "transB", "transC"):
        code, out, _ = run(capsys, "present", "--in", str(base), "--extended", phi)
        lines = out.splitlines()
        assert code == 0 and "generators 22" in lines
        assert sum(line.startswith("relator ") for line in lines) == 57
        assert ("relator t x0 t^-1 x7^-1" in lines) == (phi == "transB")


def test_twist_rejects_translation_for_bad_q(capsys, tmp_path):
    run(capsys, "enumerate", "--q", "2", "--all", "--out-dir", str(tmp_path))
    code, _, err = run(capsys, "twist", "--in", str(tmp_path / "q2_class0.tp"), "--kind", "transB")
    assert code == 2
    assert "q = 1 mod 3" in err


def test_corrupt_presentation_file(capsys, tmp_path):
    bad = tmp_path / "bad.tp"
    bad.write_text("q=2\nN=7\na=1\nb=0\n0 1 5\n")  # wrong triple for this header
    code, _, err = run(capsys, "abelianize", "--in", str(bad))
    assert code == 2
    assert "not a triangle presentation" in err


@pytest.mark.parametrize("n", [0, 8])
def test_header_n_mismatch_is_a_format_error(capsys, tmp_path, n):
    bad = tmp_path / "bad.tp"
    bad.write_text(f"q=2\nN={n}\na=1\nb=0\n0 1 3\n")
    code, _, err = run(capsys, "abelianize", "--in", str(bad))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"N={n}" in err and "= 7" in err


@pytest.mark.parametrize(
    "header, field",
    [
        ("q=6\nN=43\na=1\nb=0", "q=6"),
        ("q=0\nN=1\na=0\nb=0", "q=0"),
        ("q=-1\nN=1\na=0\nb=0", "q=-1"),
        ("q=2\nN=8\na=1\nb=0", "N=8"),
        ("q=2\nN=7\na=15\nb=0", "a=15"),
        ("q=2\nN=7\na=1\nb=-3", "b=-3"),
        ("q=2\nN=7\na=1\nb=0\nscale=0", "scale=0"),
        ("q=2\nN=7\na=1\nb=0\nscale=8", "scale=8"),
    ],
    ids=["q", "q_zero", "q_negative", "N", "a", "b", "scale", "scale_past_N"],
)
def test_malformed_header_field(capsys, tmp_path, header, field):
    bad = tmp_path / "bad.tp"
    bad.write_text(header + "\n0 1 3\n")
    code, out, err = run(capsys, "abelianize", "--in", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


# a q=2 class file as `enumerate --q 2 --all` writes it
Q2_CLASS0 = "q=2\nN=7\na=1\nb=0\n0 1 3\n0 2 6\n0 4 5\n1 2 4\n1 5 6\n2 3 5\n3 4 6\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("0 1 3", "7 8 10", "line 5: triple entry not in 0..6"),
        ("0 1 3", "-7 1 3", "line 5: triple entry not in 0..6"),
        ("b=0", "b=0\nb=0", "line 5: repeated header 'b'"),
        ("3 4 6", "3 4 \u0666", "line 11: bad triple '3 4 \u0666'"),
        ("3 4 6", "3 4 0_6", "line 11: bad triple '3 4 0_6'"),
        ("q=2", "q=\u0662", "line 1: bad integer '\u0662'"),
    ],
    ids=[
        "entry-above-range",
        "entry-below-range",
        "repeated-header",
        "arabic-indic-entry",
        "underscore-entry",
        "arabic-indic-header",
    ],
)
def test_malformed_presentation_line(capsys, tmp_path, old, new, message):
    bad = tmp_path / "bad.tp"
    bad.write_text(Q2_CLASS0.replace(old, new, 1))
    code, out, err = run(capsys, "abelianize", "--in", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_header_must_match_the_triples(capsys, tmp_path):
    bad = tmp_path / "bad.tp"
    bad.write_text(Q2_CLASS0.replace("b=0", "b=3"))
    code, out, err = run(capsys, "abelianize", "--in", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "header a=1 b=3" in err and "a=1 b=0" in err


def test_header_scale_is_read_up_to_powers_of_p(capsys, tmp_path):
    # 2*D = D at q=2, so scale=2 names the same map as no scale line; the
    # twist's header is derived from its triples and so has no scale line
    scaled = tmp_path / "scaled.tp"
    scaled.write_text(Q2_CLASS0.replace("b=0", "b=0\nscale=2"))
    code, out, _ = run(capsys, "abelianize", "--in", str(scaled))
    assert code == 0 and out.strip().endswith("[(3)2,3]")
    twisted = tmp_path / "tw.tp"
    code, _, _ = run(capsys, "twist", "--in", str(scaled), "--kind", "q", "--out", str(twisted))
    assert code == 0
    assert twisted.read_text().splitlines()[1:5] == ["q=2", "N=7", "a=2", "b=0"]
    assert "scale=" not in twisted.read_text()
    # at q=4 the coset 5*<2> mod 21 is {5, 10, 20, 19, 17, 13}: each of those
    # names the map of class 0 relabeled by 5, and no other unit does
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_all_invariant, presentation_to_text, relabel

    p = relabel(enumerate_all_invariant(build_plane(4))[0].representative, 5, 0)
    text = presentation_to_text(p)
    assert "\nscale=5\n" in text
    for scale, expected in [(5, 0), (10, 0), (13, 0), (17, 0), (19, 0), (20, 0), (1, 2), (2, 2)]:
        scaled.write_text(text.replace("scale=5", f"scale={scale}"))
        code, out, err = run(capsys, "abelianize", "--in", str(scaled))
        assert code == expected, scale
        if expected:
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: ") and err.rstrip().endswith("scale=5")
    # a scale that is not a unit mod N names no map at all
    scaled.write_text(text.replace("scale=5", "scale=3"))
    code, out, err = run(capsys, "abelianize", "--in", str(scaled))
    assert (code, out) == (2, "")
    assert err == "error: header scale=3 is not coprime to N=21\n"


def test_presentation_file_axioms_are_checked_once(capsys, tmp_path, monkeypatch):
    import tripres.presentations as presentations

    calls = []
    check = presentations.check_axioms
    monkeypatch.setattr(presentations, "check_axioms", lambda p: calls.append(p) or check(p))
    good = tmp_path / "good.tp"
    good.write_text(Q2_CLASS0)
    code, _, _ = run(capsys, "abelianize", "--in", str(good))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("2|A.1|", "x|A.1|", "line {ln}: bad q 'x'"),
        ("2|A.1|", "1_1|A.1|", "line {ln}: bad q '1_1'"),
        ("|[(3)2,3]|", "|((3)2,3]|", "line {ln}: expected '[' in '((3)2,3]' (at position 0)"),
        ("|[(2)3,9]|", "|[(\u00b2)3,9]|", "line {ln}: expected an integer in '[(\u00b2)3,9]' (at position 2)"),
        ("|14 [2,(2)3]|", "|1\u2074 [2,(2)3]|", "line {ln}: expected '[' in '1\u2074 [2,(2)3]' (at position 1)"),
        ("|4 [3]|4 [3]", "|4 [" + "7" * 5000 + "]|4 [3]", "line {ln}: Exceeds the limit (4300 digits)"),
        (
            "|0 [(6)2,3]|",
            "|0 [(1000001)2,3]|",
            "line {ln}: more than 1000000 cyclic factors in '0 [(1000001)2,3]' (at position 4)",
        ),
        ("2|B.1|p-adic|", "2|B.1 p-adic|", "line {ln}: expected 6 '|'-separated fields"),
        ("2|B.1|p-adic|", "2|B.1|padic|", "line {ln}: unknown linearity class 'padic'"),
        ("2|B.1|p-adic|[3]|", "2|B.1|p-adic|1 [3]|", "line {ln}: gamma_ab cell has a free part: '1 [3]'"),
        ("2|C.1|p-adic|[(2)2,3]|0 [(4)2,3]|0 [(4)2,3]\n", "", "row counts {{2: 8, 3: 90, 4: 6,"),
        ("2|B.1|p-adic|", "2|B.1|nonlinear|", "q=2 has no nonlinear rows"),
        ("|[(4)3]|26 [2]|26 []", "|[(4)3]|26 [2]|27 []", "(3, 1.1): K-group ranks disagree"),
    ],
    ids=[
        "q",
        "underscore-q",
        "cell",
        "superscript-count",
        "superscript-rank",
        "digit-limit",
        "factor-bound",
        "five-fields",
        "linearity-class",
        "gamma-free-rank",
        "row-count",
        "nonlinear-q2",
        "k-ranks-disagree",
    ],
)
def test_malformed_dataset_line_is_named(capsys, tmp_path, old, new, message):
    from tripres.tables import _bundled_text

    text = _bundled_text()
    ln = text[: text.index(old)].count("\n") + 1
    bad = tmp_path / "tables.txt"
    bad.write_text(text.replace(old, new, 1))
    code, out, err = run(capsys, "survey", "--data", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message.format(ln=ln) in err


@pytest.mark.parametrize(
    "argv, exit_code", [(("survey",), 1), (("verify", "--q", "2"), 0)], ids=["survey", "verify-q2"]
)
def test_large_prime_torsion_order_does_not_hang(tmp_path, argv, exit_code):
    # a cell's torsion orders are never factorized, so a large prime is cheap
    from tripres.tables import _bundled_text

    prime = "1000000000000000003"
    edited = tmp_path / "tables.txt"
    edited.write_text(_bundled_text().replace("|4 [3]|4 [3]", f"|4 [{prime}]|4 [{prime}]", 1))
    res = run_module(*argv, "--data", str(edited))
    assert res.returncode == exit_code, res.stderr


def test_missing_file(capsys):
    code, _, err = run(capsys, "abelianize", "--in", "/nonexistent/x.tp")
    assert code == 2
    assert "error:" in err


def test_verify_q2(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2")
    assert code == 0
    assert "verified" in out
    assert "match A.1:" in out
    assert "skipped B.1" in out


Q2_SKIPPED = "".join(
    f"  skipped {name}: not in the invariant-presentation catalog\n"
    for name in ("A.4", "B.1", "B.2", "B.3", "C.1")
)


@pytest.mark.parametrize(
    "old, new, report",
    [
        (
            "2|A.2|function-field|[2,3,7]|",
            "2|A.2|function-field|[5]|",
            "  match A.1': class 0 gamma_ab=[(3)2,3] twists=[2,3,7],[2,3]\n"
            "  MISMATCH family A.1: base matches orbit 0 but twist values differ\n",
        ),
        (
            "2|A.1'|function-field|[(3)2,3]|",
            "2|A.1'|function-field|[5]|",
            "  match A.1: class 0 gamma_ab=[(3)2,3] twists=[2,3,7],[2,3]\n"
            "  UNMATCHED family A.1'\n",
        ),
    ],
    ids=["twist-mismatch", "base-unmatched"],
)
def test_verify_reports_failures(capsys, tmp_path, old, new, report):
    from tripres.tables import _bundled_text

    text = _bundled_text()
    assert old in text
    edited = tmp_path / "tables.txt"
    edited.write_text(text.replace(old, new, 1))
    code, out, err = run(capsys, "verify", "--q", "2", "--data", str(edited))
    assert code == 1
    assert err == ""
    assert out == (
        "# generated-by: tripres 0.1.0\n"
        "q=2: families_matched=1 extras=1\n"
        + report
        + "  extra class 1 (inverse of 0): gamma_ab=[(3)2,3]\n"
        + Q2_SKIPPED
        + "verification FAILED\n"
    )


@pytest.mark.parametrize(
    "q, old, new, exit_code, line",
    [
        ("2", "2|A.2|", "2|A.9|", 0, "  skipped A.9: not in the invariant-presentation catalog"),
        ("2", "2|A.1|", "2|A.9|", 1, "  UNMATCHED family A.1"),
        ("3", "3|1.1'|", "3|9.9|", 0, "  skipped 9.9: not in the invariant-presentation catalog"),
    ],
    ids=["q2-twist-row", "q2-base-row", "q3-primed-row"],
)
def test_verify_reads_a_renamed_chain_row(capsys, tmp_path, q, old, new, exit_code, line):
    # a q=2,3 row outside the published chains is skipped; a chain that lost
    # its base row cannot be matched
    from tripres.tables import _bundled_text

    text = _bundled_text()
    assert old in text
    edited = tmp_path / "tables.txt"
    edited.write_text(text.replace(old, new, 1))
    code, out, err = run(capsys, "verify", "--q", q, "--data", str(edited))
    assert (code, err) == (exit_code, "")
    assert line in out.splitlines()


def test_verify_rejects_unknown_q(capsys):
    code, out, err = run(capsys, "verify", "--q", "13")
    assert code == 2
    assert out == ""
    assert err == "error: q=13 not present in the dataset\n"


def test_survey_reports_deviation(capsys):
    code, out, _ = run(capsys, "survey")
    assert code == 1  # the q=11 Semiregular 2 family deviates from the published list
    assert "FAILS" in out
    assert "q=2 B.2" in out
    assert "q=11 Semiregular 2" in out
    assert "DEVIATES" in out


def test_labels_file(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--all")
    digests = [ln.split("key=")[1] for ln in out.splitlines() if "key=" in ln]
    labels = tmp_path / "labels.txt"
    labels.write_text(f"{digests[0]} A.1\n{digests[1]} A.1'\n")
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--all", "--labels", str(labels))
    assert code == 0
    assert "A.1:" in out and "A.1':" in out
    code, out, _ = run(capsys, "verify", "--q", "2", "--labels", str(labels))
    assert code == 0
    assert "match A.1: A.1 " in out


def test_inputs_that_start_with_a_byte_order_mark_are_read(capsys, tmp_path):
    from tripres.catalog import invariant_catalog
    from tripres.tables import _bundled_text

    bom = "\ufeff"
    labels = tmp_path / "labels.txt"
    labels.write_text(f"{bom}{invariant_catalog(2)[0].key_digest} A.1\n", encoding="utf-8")
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--all", "--labels", str(labels))
    assert code == 0
    assert "\nA.1: b=0" in out
    code, out, _ = run(capsys, "verify", "--q", "2", "--labels", str(labels))
    assert code == 0
    assert "  match A.1: A.1 " in out
    tp = tmp_path / "class0.tp"
    tp.write_text(bom + Q2_CLASS0, encoding="utf-8")
    code, out, _ = run(capsys, "abelianize", "--in", str(tp))
    assert code == 0
    assert out.endswith("\n[(3)2,3]\n")
    data = tmp_path / "tables.txt"
    data.write_text(bom + _bundled_text(), encoding="utf-8")
    assert run(capsys, "verify", "--q", "2", "--data", str(data)) == run(capsys, "verify", "--q", "2")


def test_labels_are_read_as_utf8_under_a_c_locale(tmp_path):
    from tripres.catalog import invariant_catalog

    labels = tmp_path / "labels.txt"
    labels.write_text(f"{invariant_catalog(2)[0].key_digest} Semiregular 2\u2032\n", encoding="utf-8")
    c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}
    res = run_module("enumerate", "--q", "2", "--all", "--labels", str(labels), env=c_locale)
    assert res.returncode == 0, res.stderr
    assert "\nSemiregular 2\u2032: b=" in res.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("abelianize", "--in", "{bad}"),
        ("present", "--in", "{bad}"),
        ("twist", "--in", "{bad}", "--kind", "q"),
        ("enumerate", "--q", "2", "--all", "--labels", "{bad}"),
        ("verify", "--q", "2", "--data", "{bad}"),
        ("survey", "--data", "{bad}"),
    ],
    ids=["abelianize-in", "present-in", "twist-in", "enumerate-labels", "verify-data", "survey-data"],
)
def test_input_that_is_not_utf8_is_named(capsys, tmp_path, argv):
    bad = tmp_path / "bad.tp"
    bad.write_bytes(Q2_CLASS0.encode() + b"\xff\n")
    code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad} is not UTF-8 text: invalid start byte at byte {len(Q2_CLASS0)}\n"


def test_verify_reads_labels_before_computing(capsys, tmp_path, monkeypatch):
    calls = []

    def refuse(q):
        calls.append(q)
        raise AssertionError("catalogs built before the labels were read")

    monkeypatch.setattr("tripres.cli.invariant_catalog", refuse)
    code, out, err = run(capsys, "verify", "--q", "2", "--labels", str(tmp_path / "missing"))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""
    assert calls == []


def test_enumerate_reads_labels_before_printing(capsys, tmp_path):
    code, out, err = run(
        capsys, "enumerate", "--q", "2", "--all", "--labels", str(tmp_path / "missing")
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [("enumerate", "--q", "2", "--all"), ("verify", "--q", "2")])
@pytest.mark.parametrize(
    "text, message",
    [
        ("{0}\n", "line 1: no name after the digest {0}"),
        ("# names\n{0} A.1\n{1} A.1'\n\n{0} B.1\n", "line 5: digest {0} is named twice"),
    ],
    ids=["no-name", "repeated-digest"],
)
def test_bad_labels_line_is_rejected_before_computing(capsys, tmp_path, command, text, message):
    from tripres.catalog import invariant_catalog

    digests = [o.key_digest for o in invariant_catalog(2)]
    labels = tmp_path / "labels.txt"
    labels.write_text(text.format(*digests))
    code, out, err = run(capsys, *command, "--labels", str(labels))
    assert code == 2
    assert out == ""
    assert err == f"error: {labels} {message.format(*digests)}\n"


@pytest.mark.parametrize("option", ["--out-dir", "--labels"])
def test_enumerate_single_shift_rejects_all_only_options(capsys, tmp_path, option):
    target = tmp_path / "d"
    code, out, err = run(capsys, "enumerate", "--q", "2", "--b", "0", option, str(target))
    assert code == 2
    assert out == ""
    assert err == "error: --out-dir and --labels need --all\n"
    assert not target.exists()


@pytest.mark.parametrize("b", ["7", "-7"])
def test_enumerate_shift_out_of_range(capsys, b):
    code, out, err = run(capsys, "enumerate", "--q", "2", "--b", b)
    assert code == 2
    assert out == ""
    assert err == f"error: --b {b} is not in 0..6\n"


def test_enumerate_out_dir_is_made_before_printing(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, "enumerate", "--q", "2", "--all", "--out-dir", str(taken))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "enumerate", "--q", "3", "--all")
    _, out2, _ = run(capsys, "enumerate", "--q", "3", "--all")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("abelianize", "--in", "{dir}"),
        ("enumerate", "--q", "2", "--all", "--labels", "{dir}"),
        ("verify", "--q", "2", "--data", "{dir}"),
    ],
    ids=["abelianize-in", "enumerate-labels", "verify-data"],
)
def test_directory_argument_is_an_input_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, metavar",
    [
        (("enumerate", "--q", "2", "--all", "--out-dir", ""), "OUT_DIR"),
        (("enumerate", "--q", "2", "--all", "--labels", ""), "LABELS"),
        (("verify", "--q", "2", "--labels", ""), "LABELS"),
        (("verify", "--q", "2", "--data", ""), "DATA"),
        (("twist", "--in", "{tp}", "--kind", "q", "--out", ""), "OUT"),
        (("abelianize", "--in", ""), "INFILE"),
    ],
    ids=["enumerate-out-dir", "enumerate-labels", "verify-labels", "verify-data", "twist-out", "abelianize-in"],
)
def test_empty_path_argument_is_an_input_error(capsys, tmp_path, monkeypatch, argv, metavar):
    tp = tmp_path / "q2.tp"
    tp.write_text(Q2_CLASS0)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out, err = run(capsys, *(a.format(tp=tp) for a in argv))
    assert code == 2
    assert out == ""
    assert err == f"error: {metavar} is an empty path\n"
    assert list(work.iterdir()) == []


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away, on the file descriptor `fd`."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_is_not_an_input_error(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "wb") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        code = main(["enumerate", "--q", "2", "--all"])
        os.write(f.fileno(), b"after")  # the descriptor now points at os.devnull
    assert code == 141
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


def test_python_dash_m_runs_the_cli():
    res = run_module("plane", "--q", "2")
    assert res.returncode == 0, res.stderr
    assert "D(q=2,N=7) = 1 2 4" in res.stdout
