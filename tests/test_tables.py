from dataclasses import replace

import pytest

from tripres.abelian import AbelianGroup
from tripres.catalog import invariant_catalog
from tripres.gf import factorize
from tripres.tables import (
    CellParseError,
    EXPECTED_ROW_COUNTS,
    PUBLISHED_NON_Q3_FAILURES,
    format_group_cell,
    heuristic_survey,
    load_dataset,
    parse_group_cell,
    published_families,
    twice_heuristic,
    verify_abelianizations,
)


@pytest.fixture(scope="module")
def ds():
    return load_dataset()


def test_parse_plain_cell():
    rank, g = parse_group_cell("[(3)2,3]")
    assert rank is None
    assert g.primary_factors == (2, 2, 2, 3)


def test_parse_rank_cell():
    rank, g = parse_group_cell("26 [2]")
    assert rank == 26
    assert g.primary_factors == (2,)


def test_parse_trivial_torsion():
    rank, g = parse_group_cell("4 []")
    assert rank == 4
    assert g.is_trivial


def test_parse_zero_rank_distinct_from_absent():
    assert parse_group_cell("0 [3]")[0] == 0
    assert parse_group_cell("[3]")[0] is None


def test_parse_whitespace_tolerant():
    rank, g = parse_group_cell("10 [(5)2, 3]")
    assert rank == 10
    assert g.primary_factors == (2, 2, 2, 2, 2, 3)


def test_parse_composite_item_normalizes():
    _, g = parse_group_cell("[10,3]")
    assert g.primary_factors == (2, 3, 5)


def test_parse_errors_carry_position():
    for text in ("[2", "2]", "[a]", "[(2]", "[2,]", "[] extra", "[1]"):
        with pytest.raises(CellParseError) as err:
            parse_group_cell(text)
        assert err.value.position >= 0


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("2 (3)2]", "expected '['", 2),
        ("[(]", "expected an integer", 2),
        ("[(3 2]", "expected ')'", 3),
        ("[(0)2]", "repetition count must be positive", 4),
        ("[(1000001)2]", "more than 1000000 cyclic factors", 2),
        ("[(999999)2,(2)3]", "more than 1000000 cyclic factors", 12),
        ("[(2) 3]", "expected an integer", 4),
        ("[( 2)3]", "expected an integer", 2),
        ("[1]", "torsion order 1 < 2", 2),
        ("[2;3]", "expected ',' or ']'", 2),
        ("[2", "expected ',' or ']'", 2),
        ("[2,]", "expected an integer", 3),
        ("[2] x", "trailing text", 4),
        ("1\u2074 [2]", "expected '['", 1),
    ],
)
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(CellParseError) as err:
        parse_group_cell(text)
    assert str(err.value) == f"{message} in {text!r} (at position {position})"
    assert err.value.position == position


def test_long_repetition_parses_in_linear_time():
    # popping each exponent from the front of a list made the divisor chain quadratic
    import time

    start = time.perf_counter()
    rank, g = parse_group_cell("[(200000)2]")
    assert time.perf_counter() - start < 1.0
    assert rank is None and g.divisors == (2,) * 200000


def test_cell_at_the_factor_bound_parses():
    rank, g = parse_group_cell("[(999999)2,(1)3]")
    assert g.divisors == (2,) * 999998 + (6,)


def test_many_distinct_orders_parse_quickly():
    # a chain rebuilt once per distinct order made this cell take about a second
    import time
    from math import factorial, lcm

    cell = "[" + ",".join(map(str, range(2, 3002))) + "]"
    start = time.perf_counter()
    rank, g = parse_group_cell(cell)
    assert time.perf_counter() - start < 0.2
    # 1500 even orders, the largest term is the lcm, and the order is 3001!
    assert len(g.divisors) == 1500 and g.divisors[-1] == lcm(*range(2, 3002))
    assert g.order() == factorial(3001)


def test_format_inverts_parse():
    for text in ("[(3)2,3]", "26 [2]", "4 []", "0 [(6)2,3]", "[3,9]", "[2,8,3]"):
        rank, g = parse_group_cell(text)
        norm = format_group_cell(rank, g)
        assert parse_group_cell(norm) == (rank, g)
        # idempotent normalization
        assert format_group_cell(*parse_group_cell(norm)) == norm


def test_dataset_counts(ds):
    assert {q: len(ds.by_q(q)) for q in ds.qs()} == EXPECTED_ROW_COUNTS
    assert len(ds.rows) == 170


def test_dataset_q2_rows(ds):
    names = [r.name for r in ds.by_q(2)]
    assert names == ["A.1", "A.1'", "A.2", "A.3", "A.4", "B.1", "B.2", "B.3", "C.1"]
    assert all(r.linearity in ("function-field", "p-adic") for r in ds.by_q(2))


def test_dataset_q11_has_24_rows(ds):
    assert len(ds.by_q(11)) == 24


def test_gamma_cells_all_finite(ds):
    for r in ds.rows:
        assert r.gamma_ab.rank == 0


def test_k_ranks_agree_where_present(ds):
    for r in ds.rows:
        if r.k0.rank is not None and r.k0_mod_id.rank is not None:
            assert r.k0.rank == r.k0_mod_id.rank
    missing = ds.get(9, "Semiregular 2'")
    assert missing.k0_mod_id.rank is None
    assert missing.k0.rank == 434


def _p_exponents(group):
    """{prime: exponents of its primary factors, largest first} of a torsion group."""
    out = {}
    for order in group.primary_factors:
        ((prime, k),) = factorize(order).items()
        out.setdefault(prime, []).append(k)
    return {prime: sorted(ks, reverse=True) for prime, ks in out.items()}


def test_k_columns_agree_with_each_other(ds):
    # K0/<[id]> is K0 modulo one cyclic subgroup, so at each prime the two
    # torsion parts interlace, and the torsion shrinks by a factor of q - 1
    unranked = []
    for r in ds.rows:
        a_by_p, b_by_p = _p_exponents(r.k0.torsion), _p_exponents(r.k0_mod_id.torsion)
        for prime in a_by_p.keys() | b_by_p.keys():
            a, b = a_by_p.get(prime, []), b_by_p.get(prime, [])
            width = max(len(a), len(b)) + 1
            a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
            assert all(a[i] >= b[i] >= a[i + 1] for i in range(width - 1)), (r.q, r.name, prime)
        ratio, rest = divmod(r.k0.torsion.order(), r.k0_mod_id.torsion.order())
        assert rest == 0 and (r.q - 1) % ratio == 0, (r.q, r.name)
        unranked += [(r.q, r.name, c) for c in ("k0", "k0_mod_id") if getattr(r, c).rank is None]
    assert len(ds.rows) == 170
    assert unranked == [(9, "Semiregular 2'", "k0_mod_id")]


def test_round_trip_every_cell(ds):
    # criterion 7: the transcribed cells all round-trip through the grammar
    cells = 0
    for r in ds.rows:
        for cell in (r.k0, r.k0_mod_id):
            norm = format_group_cell(*cell)
            rank, tors = parse_group_cell(norm)
            assert rank == cell.rank and tors == cell.torsion
            assert format_group_cell(rank, tors) == norm
            cells += 1
        norm = format_group_cell(None, r.gamma_ab)
        assert parse_group_cell(norm)[1] == r.gamma_ab
        cells += 1
    assert cells == 510


def test_duplicate_rows_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "2|A.1|function-field|[3]|0 [3]|0 [3]\n2|A.1|function-field|[3]|0 [3]|0 [3]\n"
    )
    with pytest.raises(ValueError):
        load_dataset(bad)


def test_twice_heuristic_examples(ds):
    assert twice_heuristic(ds.get(2, "A.2")) == "holds"
    assert twice_heuristic(ds.get(2, "B.2")) == "fails"
    assert twice_heuristic(ds.get(9, "Regular")) == "vacuous"
    assert twice_heuristic(ds.get(5, "Voskuil")) == "fails"
    assert twice_heuristic(ds.get(3, "1.2")) == "holds"
    assert twice_heuristic(ds.get(3, "4.1")) == "fails"


def test_survey_covers_all_rows(ds):
    sv = heuristic_survey(ds)
    assert len(sv.fails) + len(sv.holds) + len(sv.vacuous) == len(ds.rows)
    assert (2, "B.2") in sv.non_q3_failures
    assert (5, "Voskuil") in sv.non_q3_failures
    assert (7, "Voskuil") not in sv.non_q3_failures


def test_survey_finds_q11_semiregular2_family(ds):
    # Beyond the two published exceptions, the q=11 Semiregular 2 family
    # fails the doubling heuristic on the published data itself: away from
    # 3 its K0/<[id]> torsion is three copies of gamma_ab, not two.
    sv = heuristic_survey(ds)
    expected = set(PUBLISHED_NON_Q3_FAILURES) | {
        (11, "Semiregular 2"),
        (11, "Semiregular 2'"),
        (11, "Semiregular 2''"),
    }
    assert set(sv.non_q3_failures) == expected
    assert not sv.matches_published


def test_published_families_q7(ds):
    fams = published_families(ds, 7)
    assert [f.name for f in fams] == [
        "Regular",
        "Near Regular B",
        "Near Regular C",
        "Semiregular",
        "Semiregular B",
        "Semiregular C",
    ]
    assert all(f.complete for f in fams)


def test_published_families_q2(ds):
    fams = published_families(ds, 2)
    assert [f.name for f in fams] == ["A.1", "A.1'"]
    assert fams[0].complete and not fams[1].complete


def test_verification_full(ds):
    catalogs = {q: invariant_catalog(q) for q in ds.qs()}
    report = verify_abelianizations(ds, catalogs)
    assert report.ok
    by_q = {s.q: s for s in report.sections}
    assert len(by_q[11].matched) == 8
    assert ("Voskuil", "no triangle presentation given for this group") in by_q[5].skipped
    # extras are the generator-inverse partners; every extra orbit shares its
    # signature with some matched orbit
    for sec in report.sections:
        orbits = catalogs[sec.q]
        matched_sigs = {orbits[idx].signature() for _, idx in sec.matched}
        for idx in sec.extra_orbits:
            assert orbits[idx].signature() in matched_sigs


def test_verification_detects_mismatch(ds):
    catalog = invariant_catalog(2)
    # corrupt one value: the base of class 0
    corrupt = replace(catalog[0], base=AbelianGroup.from_primary([2]))
    report = verify_abelianizations(ds, {2: (corrupt,) + catalog[1:]})
    assert not report.ok


def test_verification_detects_missing_orbit(ds):
    report = verify_abelianizations(ds, {2: invariant_catalog(2)[:1]})
    assert not report.ok
    assert report.sections[0].unmatched == ("A.1'",)
