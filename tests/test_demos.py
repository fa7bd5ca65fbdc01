"""Every demo runs to completion in-process and prints exactly its pinned output.

The demos are the only callers outside the tests of several public names,
so removing or renaming one of those names fails here.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_fields_and_planes": "843123273f0257001ff5e54620b6b20bed80d87b1c0344da71b039edddc97aa6",
    "02_invariant_presentations": "6a437ab571aa1438f6e2b1076e9a592ccf3a8d0d6b69f5a7931f02ad2258f2d6",
    "03_twists_and_forms": "75e51d59be6d6c2f2b31c763d8f4e7a5a5eab0fc69c86fdf8cd2753aae072dd2",
    "04_abelianization": "b59d2ea7911c90a0a42979756d70d89ef3f57f90f6627d278ba88ffed7b778fa",
    "05_table_verification": "427a1fe374c3b978cd10f26c5061bba3c8209d5cb506897a78916bb818e57c9d",
}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
