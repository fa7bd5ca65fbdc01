import random
from itertools import combinations
from math import gcd

import pytest

from tripres.abelian import (
    AbelianGroup,
    away_from,
    determinant,
    direct_double,
    invariant_factors,
    iso_equal,
    snf,
)


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def minors_gcd_divisors(m):
    """Oracle: d_k = gcd of all k x k minors; s_k = d_k / d_{k-1}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(determinant(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def check_snf(m):
    res = snf(m)
    rows, cols = len(m), len(m[0])
    # exact factorization
    assert matmul(matmul([list(r) for r in res.u], m), [list(r) for r in res.v]) == [
        list(r) for r in res.d
    ]
    # diagonal, non-negative, divisor chain
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert res.d[i][j] == 0
    diag = [res.d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x]
    assert len(nz) == len(diag) - diag.count(0)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros come after the nonzero invariants
    seen_zero = False
    for x in diag:
        if x == 0:
            seen_zero = True
        else:
            assert not seen_zero
    # unimodular transforms
    assert abs(determinant(res.u)) == 1
    assert abs(determinant(res.v)) == 1
    return res


def test_snf_identity():
    res = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res.divisors == (1, 1, 1)


def test_snf_zero_matrix():
    res = check_snf([[0, 0], [0, 0]])
    assert res.divisors == ()
    assert res.u == ((1, 0), (0, 1))
    assert res.v == ((1, 0), (0, 1))


def test_snf_worked_example():
    # gcd-of-minors oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    m = [[2, 4], [6, 8]]
    assert minors_gcd_divisors(m) == (2, 4)
    res = check_snf(m)
    assert res.divisors == (2, 4)


def test_snf_matches_minors_oracle_small_random():
    rng = random.Random(20260811)
    for _ in range(400):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        res = check_snf(m)
        nz = res.divisors
        assert nz == minors_gcd_divisors(m), m


def test_invariant_factors_agree_with_snf():
    rng = random.Random(7)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        assert invariant_factors(m) == snf(m).divisors


def test_snf_deterministic():
    m = [[6, 10, 15], [10, 15, 6], [15, 6, 10]]
    assert snf(m) == snf(m)


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(rank=0, divisors=(2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        AbelianGroup(rank=0, divisors=(1, 2))
    with pytest.raises(ValueError):
        AbelianGroup(rank=-1, divisors=())


def test_from_primary_builds_chain():
    g = AbelianGroup.from_primary([2, 2, 7, 7])
    assert g.divisors == (14, 14)
    h = AbelianGroup.from_primary([2, 8, 3])
    assert h.divisors == (2, 24)
    assert str(h) == "[2,8,3]"


def test_bracket_rendering():
    assert str(AbelianGroup.from_primary([2, 2, 2, 3])) == "[(3)2,3]"
    assert str(AbelianGroup.trivial()) == "[]"
    assert str(AbelianGroup.from_primary([3, 9])) == "[3,9]"


def test_primary_ops():
    g = AbelianGroup.from_primary([2, 2, 2, 3])
    assert away_from(g, 3).primary_factors == (2, 2, 2)
    d = direct_double(AbelianGroup.from_primary([2, 7]))
    assert d.divisors == (14, 14)
    assert iso_equal(d, AbelianGroup.from_primary([2, 2, 7, 7]))


def test_iso_equal_distinguishes_primary_types():
    a = AbelianGroup.from_primary([2, 8])
    b = AbelianGroup.from_primary([4, 4])
    assert not iso_equal(a, b)
    assert iso_equal(
        AbelianGroup.from_primary([2, 8, 3]),
        AbelianGroup.from_primary([2, 3, 8]),
    )
    assert iso_equal(
        AbelianGroup.from_primary([2, 8, 3]),
        AbelianGroup(rank=0, divisors=(2, 24)),
    )


def test_rank_tracked():
    g = AbelianGroup(rank=4, divisors=())
    assert direct_double(g).rank == 8
    assert not iso_equal(g, AbelianGroup.trivial())


def _gp(num_generators, relators):
    from tripres.presentations import GroupPresentation

    return GroupPresentation(num_generators=num_generators, relators=tuple(relators))


def test_abelianization_matches_snf_of_relation_matrix():
    # dual route: the fast path equals divisors of the full generators x
    # relators matrix for presentations of the shapes we build
    from tripres.abelian import abelianization, relation_matrix

    cases = [
        _gp(3, [(1, 2, 3), (1, 1, 1)]),
        _gp(4, [(1, 2, 3), (2, 3, 4), (1, -4)]),
        _gp(2, [(1, 1, 2, 2, 2)]),
        _gp(3, []),
    ]
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_invariant, group_presentation, twist_multiplier

    for q in (2, 3):
        for p in enumerate_invariant(build_plane(q), 0):
            cases.append(group_presentation(p))
            cases.append(group_presentation(twist_multiplier(p, 1)))
    for gp in cases:
        fast = abelianization(gp)
        m = relation_matrix(gp)
        divisors = snf(m).divisors if gp.relators else ()
        slow = AbelianGroup.from_invariant_factors(
            divisors, rank=gp.num_generators - len(divisors)
        )
        assert iso_equal(fast, slow), gp


def test_abelianization_invariant_under_relator_moves():
    from tripres.abelian import abelianization

    base = _gp(4, [(1, 2, 3), (2, 3, 4), (3, 3, 3)])
    g = abelianization(base)
    # relator reordering
    assert iso_equal(abelianization(_gp(4, [(3, 3, 3), (1, 2, 3), (2, 3, 4)])), g)
    # cyclic rotation of a relator
    assert iso_equal(abelianization(_gp(4, [(2, 3, 1), (2, 3, 4), (3, 3, 3)])), g)
    # inverting a relator
    assert iso_equal(abelianization(_gp(4, [(-3, -2, -1), (2, 3, 4), (3, 3, 3)])), g)
    # permuting generators
    perm = {1: 2, 2: 3, 3: 4, 4: 1}
    relabeled = _gp(
        4,
        [
            tuple((1 if v > 0 else -1) * perm[abs(v)] for v in rel)
            for rel in base.relators
        ],
    )
    assert iso_equal(abelianization(relabeled), g)


def test_all_catalog_groups_are_finite():
    # every constructed presentation in scope has rank-0 abelianization
    from tripres.catalog import invariant_catalog
    from tripres.gf import SUPPORTED_Q

    for q in SUPPORTED_Q:
        for orbit in invariant_catalog(q):
            assert orbit.base.rank == 0
            assert orbit.twist_q.rank == 0
            assert orbit.twist_q2.rank == 0
    assert len(invariant_catalog(13)) == 48


def _sympy_group(gp):
    """Independent oracle: sympy's invariant factors of the relation matrix.

    sympy is a declared test dependency; a missing sympy fails here.
    """
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    from tripres.abelian import relation_matrix

    factors = [int(d) for d in sympy_factors(Matrix(relation_matrix(gp)), domain=ZZ) if d]
    return AbelianGroup.from_invariant_factors(factors, rank=gp.num_generators - len(factors))


def _assert_matches_sympy(gp):
    from tripres.abelian import abelianization

    g, want = abelianization(gp), _sympy_group(gp)
    assert (g.rank, g.divisors) == (want.rank, want.divisors), gp


def test_abelianization_matches_sympy_on_small_catalogs():
    from tripres.catalog import _fixed_representative
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_all_invariant, group_presentation, twist_multiplier

    checked = 0
    for q in (2, 3, 4, 5):
        plane = build_plane(q)
        for cls in enumerate_all_invariant(plane):
            rep = _fixed_representative(cls, plane)
            for k in range(3):
                _assert_matches_sympy(group_presentation(twist_multiplier(rep, k) if k else rep))
                checked += 1
    assert checked == 36


def _random_relators(rng, n, shape):
    gens = range(1, n + 1)
    if shape == "letters":
        # free 3-letter relators plus cubes like (3, 3, 3)
        rels = [tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(3))
                for _ in range(rng.randint(1, n + 2))]
        rels += [(g,) * 3 for g in rng.sample(gens, rng.randint(0, n))]
        return rels
    if shape == "nonunit":
        # every exponent sum is +-2 or +-3: no unit pivot, all of it goes to the dense core
        rels = []
        for _ in range(rng.randint(1, n + 2)):
            rel = []
            for g in rng.sample(gens, rng.randint(1, min(3, n))):
                rel += [g * rng.choice((1, -1))] * rng.choice((2, 3))
            rels.append(tuple(rel))
        return rels
    # "cancelling": relators whose letters cancel to an empty row, among 3-letter ones
    rels = [tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(3))
            for _ in range(rng.randint(0, n))]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(gens), rng.choice(gens)
        rels.append(rng.choice([(a, -a), (a, b, -a, -b), (-a, a, a, -a)]))
    rng.shuffle(rels)
    return rels


def test_abelianization_matches_sympy_on_random_relators():
    rng = random.Random(20261018)
    for shape in ("letters", "nonunit", "cancelling"):
        for _ in range(60):
            n = rng.randint(1, 6)
            _assert_matches_sympy(_gp(n, _random_relators(rng, n, shape)))
