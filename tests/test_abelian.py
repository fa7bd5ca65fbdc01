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


@pytest.mark.parametrize(
    "m, divisors",
    [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
    ],
)
def test_snf_builds_divisor_chain_at_the_pivot(m, divisors):
    # the pivot's row and column are clear, but it does not divide a later entry
    assert minors_gcd_divisors(m) == divisors
    assert check_snf(m).divisors == divisors
    assert invariant_factors(m) == divisors


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


def _sympy_divisors(m):
    """Independent oracle: sympy's nonzero invariant factors of m.

    sympy is a declared test dependency; a missing sympy fails here.
    """
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    return tuple(abs(int(d)) for d in sympy_factors(Matrix(m), domain=ZZ) if d)


def test_snf_matches_sympy_on_large_entries():
    # catalog cores reach 31-bit entries and K0 cores more; these reach 64 bits
    rng = random.Random(20261019)
    for _ in range(300):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-(2**64), 2**64) for _ in range(cols)] for _ in range(rows)]
        assert check_snf(m).divisors == invariant_factors(m) == _sympy_divisors(m), m


def test_snf_matches_sympy_on_fibonacci_matrices():
    # consecutive Fibonacci numbers take the most division steps to reduce
    f = [0, 1]
    while len(f) < 95:
        f.append(f[-1] + f[-2])
    for k in range(93):
        m = [[f[k], f[k + 1]], [f[k + 1], f[k + 2]]]
        assert check_snf(m).divisors == invariant_factors(m) == _sympy_divisors(m), m


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
    # 2**3000 is split into 2s one at a time: a deep split, walked without recursion
    assert AbelianGroup.from_primary([2**3000, 2, 6]).divisors == (2, 2, 3 * 2**3000)
    assert str(h) == "[2,8,3]"


def test_bracket_rendering():
    assert str(AbelianGroup.from_primary([2, 2, 2, 3])) == "[(3)2,3]"
    assert str(AbelianGroup(rank=0, divisors=())) == "[]"
    assert str(AbelianGroup.from_primary([3, 9])) == "[3,9]"


def test_primary_ops():
    g = AbelianGroup.from_primary([2, 2, 2, 3])
    assert away_from(g, 3).primary_factors == (2, 2, 2)
    d = direct_double(AbelianGroup.from_primary([2, 7]))
    assert d.divisors == (14, 14)
    assert d == AbelianGroup.from_primary([2, 2, 7, 7])


def test_group_equality_distinguishes_primary_types():
    a = AbelianGroup.from_primary([2, 8])
    b = AbelianGroup.from_primary([4, 4])
    assert a != b
    assert AbelianGroup.from_primary([2, 8, 3]) == AbelianGroup.from_primary([2, 3, 8])
    assert AbelianGroup.from_primary([2, 8, 3]) == AbelianGroup(rank=0, divisors=(2, 24))


def test_rank_tracked():
    g = AbelianGroup(rank=4, divisors=())
    assert direct_double(g).rank == 8
    assert g != AbelianGroup(rank=0, divisors=())


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
        assert fast == slow, gp


def test_abelianization_invariant_under_relator_moves():
    from tripres.abelian import abelianization

    base = _gp(4, [(1, 2, 3), (2, 3, 4), (3, 3, 3)])
    g = abelianization(base)
    # relator reordering
    assert abelianization(_gp(4, [(3, 3, 3), (1, 2, 3), (2, 3, 4)])) == g
    # cyclic rotation of a relator
    assert abelianization(_gp(4, [(2, 3, 1), (2, 3, 4), (3, 3, 3)])) == g
    # inverting a relator
    assert abelianization(_gp(4, [(-3, -2, -1), (2, 3, 4), (3, 3, 3)])) == g
    # permuting generators
    perm = {1: 2, 2: 3, 3: 4, 4: 1}
    relabeled = _gp(
        4,
        [
            tuple((1 if v > 0 else -1) * perm[abs(v)] for v in rel)
            for rel in base.relators
        ],
    )
    assert abelianization(relabeled) == g


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


def test_inverse_partner_groups_match_direct_computation():
    # oracle for the catalog's reuse: each class whose groups are copied from
    # its generator-inverse partner, abelianized from its own representative
    from tripres.abelian import abelianization
    from tripres.catalog import invariant_catalog
    from tripres.gf import SUPPORTED_Q
    from tripres.plane import build_plane
    from tripres.presentations import (
        enumerate_all_invariant,
        group_presentation,
        twist_multiplier,
    )

    for q in SUPPORTED_Q:
        catalog = invariant_catalog(q)
        classes = enumerate_all_invariant(build_plane(q))
        assert [catalog[o.inverse_index].inverse_index for o in catalog] == [
            o.index for o in catalog
        ], f"q={q}"
        for cls, orbit in zip(classes, catalog):
            if cls.inverse_index >= cls.index:
                continue
            rep = cls.representative
            base = abelianization(group_presentation(rep))
            g1 = abelianization(group_presentation(twist_multiplier(rep, 1)))
            g2 = abelianization(group_presentation(twist_multiplier(rep, 2)))
            partner = catalog[cls.inverse_index]
            assert (base, g1, g2) == (orbit.base, orbit.twist_q, orbit.twist_q2), (q, cls.index)
            assert (base, g1, g2) == (partner.base, partner.twist_q2, partner.twist_q)
            assert base.rank == g1.rank == g2.rank == 0


@pytest.mark.parametrize("q, n_classes, n_calls", [(7, 12, 18), (11, 16, 24)])
def test_catalog_abelianizes_one_class_per_inverse_pair(monkeypatch, q, n_classes, n_calls):
    from tripres import catalog

    abelianization = catalog.abelianization
    enumerate_all_invariant = catalog.enumerate_all_invariant
    calls = []
    built = []

    def count(gp):
        calls.append(gp)
        return abelianization(gp)

    def record(plane):
        built[:] = enumerate_all_invariant(plane)
        return built

    monkeypatch.setattr(catalog, "abelianization", count)
    monkeypatch.setattr(catalog, "enumerate_all_invariant", record)
    orbits = catalog.invariant_catalog.__wrapped__(q)
    assert len(orbits) == len(built) == n_classes
    assert len(calls) == n_calls
    for cls in built:
        assert ("representative" in vars(cls)) == (cls.inverse_index >= cls.index)


# q -> sha256 of "index:rank/d1,d2,...;..." over the base, q and q^2 groups
# of every catalog class, in catalog order.
PINNED_CATALOG_GROUPS = {
    2: "e725a62323e153054fd6966e2988208d35bcbf00120990fb0a40fdbc1ccc7bf8",
    3: "b53a896ad13c9e6da91584ac40439eec00ab9ecc941224b7599731f0a0403ac5",
    4: "90fa6a24cb9b734f97017a73eddc2ecdd3571622c878bfdb0b544e8533ffa338",
    5: "3acdb386365a44aa6ddf916e57d48227d7a540213c3a8a910ddbc5bb37b71c06",
    7: "484cac56950f54100a0e2a20e48ddacaf9d6b7d8db6fa93bee2abf49d60f766f",
    8: "723841d4dfd230486e302bbff1e44d51ba7c44d1d7c617f907eff42fec040e67",
    9: "588c010c0107a565e3a7867cf52eedf0f6b1a95a91faa38a7fb0ea449f5b2945",
    11: "ebbce76f29bbe950bf00ace4551732fc694e4d8ff5d8dcafbf6f9fab157323a9",
    13: "46a5b1ba65ca22f83a363c7382dc87f7addb1e0adbbbe50d2ee684da1df01b71",
}


def test_catalog_groups_pinned():
    import hashlib

    from tripres.catalog import invariant_catalog
    from tripres.gf import SUPPORTED_Q

    assert sorted(PINNED_CATALOG_GROUPS) == sorted(SUPPORTED_Q)
    for q in SUPPORTED_Q:
        blob = " ".join(
            f"{o.index}:"
            + ";".join(
                f"{g.rank}/" + ",".join(map(str, g.divisors))
                for g in (o.base, o.twist_q, o.twist_q2)
            )
            for o in invariant_catalog(q)
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_CATALOG_GROUPS[q], f"q={q}"


def _extended(q, k, mult):
    """The degree-3 extension of q's class k by the multiplier phi(j) = mult*j."""
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_all_invariant, extended_presentation

    p = enumerate_all_invariant(build_plane(q))[k].representative
    return extended_presentation(p, [mult * j % p.n for j in range(p.n)])


def _sympy_group(gp):
    """Independent oracle: sympy's invariant factors of the relation matrix."""
    from tripres.abelian import relation_matrix

    factors = _sympy_divisors(relation_matrix(gp))
    return AbelianGroup.from_invariant_factors(factors, rank=gp.num_generators - len(factors))


def _assert_matches_sympy(gp):
    from tripres.abelian import abelianization

    g, want = abelianization(gp), _sympy_group(gp)
    assert (g.rank, g.divisors) == (want.rank, want.divisors), gp


def test_abelianization_matches_sympy_on_small_catalogs():
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_all_invariant, group_presentation, twist_multiplier

    checked = 0
    for q in (2, 3, 4, 5):
        plane = build_plane(q)
        for cls in enumerate_all_invariant(plane):
            rep = cls.representative
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
    # no unit coefficient anywhere, so every generator becomes a seed: 7-12 core columns
    for _ in range(60):
        n = rng.randint(7, 12)
        _assert_matches_sympy(_gp(n, _random_relators(rng, n, "nonunit")))


@pytest.mark.parametrize(
    "gp",
    [
        # one seed whose rows 4e and 6e give Z_2: the second row only lowers the index
        _gp(1, [(1,) * 4, (1,) * 6]),
        _gp(2, [(1,) * 4, (2, 2, 2), (1,) * 6, (1, 1, 1, 1, 2, 2, 2)]),
        # fewer independent rows than seeds: free rank 1 and 2 at the end
        _gp(3, [(1, 1, 2, 2), (2, 2, 2, 3, 3, 3), (1, 1, 2, 2, 1, 1, 2, 2)]),
        _gp(3, [(1, 1, 1, 1), (1, 1, -2, -2)]),
        # the first four rows already give the trivial group; the last two are never needed
        _gp(2, [(1, 1), (2, 2), (1, 1, 1), (2, 2, 2), (1, 1, 1, 1, 2, 2), (1,) * 9]),
        # the second relator is zero once x2 = x1 is substituted; Z_3 is left
        _gp(2, [(1, -2), (1, 1, -2, -2), (1, 1, 1)]),
        _gp(3, [(1, -2), (2, -3), (1, -3, 1, -3), (2, 2)]),
        # two finite live coordinates, Z_2 + Z_4: the last row is 0 mod 2 in the
        # first coordinate and 2 mod 4 in the second, so both must be tested
        _gp(2, [(1, 1), (2, 2, 2, 2), (1, 1, 2, 2, 2, 2), (2, 2)]),
        _gp(2, [(1, 1), (2, 2, 2, 2), (1, 1, 2, 2, 2, 2), (2,) * 8, (-1, -1, 2, 2, 2, 2)]),
        # a free coordinate beside torsion Z_6: the torsion residue of the
        # last row is 0 and only its free part puts it outside the lattice
        _gp(3, [(1, 1), (2, 2, 2), (1, 1, 3, 3)]),
        _gp(4, [(1, 1), (2, 2, 2), (1, 1, 3, 3), (1,) * 6 + (2,) * 6]),
        # 4e1 and 4e2 fill the images with V = I; 2e1 + 2e2 lowers a d_i to 2
        # and changes V, so 2e1 is outside the lattice only in the new coordinates
        _gp(2, [(1,) * 4, (2,) * 4, (1,) * 4 + (2,) * 4, (1, 1, 2, 2), (1, 1)]),
        # t x_j t^-1 x_phi(j)^-1 has negative letters and four of them
        *(_extended(q, k, m) for q in (2, 3) for k in (0, 1) for m in (q, q * q)),
        # 4e2, then 6e3, make free coordinates torsion beside Z_2; Z_4 + Z_6 is
        # Z_2 + Z_12, with columns -2e2 + e3 and -3e2 + 2e3, where e1 + 3e3 is tested
        _gp(3, [(1, 1), (2,) * 4, (3,) * 6, (1, 3, 3, 3)]),
        # 3e1 beside 2e1 takes the first coordinate to d = 1, so it leaves the
        # live set; 4e2 and then e1 + 2e2 are tested in the second one alone
        _gp(2, [(1, 1), (1, 1, 1), (2,) * 4, (1, 2, 2)]),
        # 2e1 + 3e2 leaves one free coordinate, with column (-3, 2); 2e1 - 2e2
        # maps to -10 there (to 0 if the column were e1 + e2), and 10e1 to -30
        _gp(2, [(1, 1, 2, 2, 2), (1, 1, -2, -2), (1,) * 10]),
        # seeding x3 makes the first row ready on x2, held with coefficient 2
        # (then -2), so x2 is left unsolved and the row goes to the lattice test
        _gp(3, [(3, 2, 2), (3, 3, 1), (2, 2, 2, 1)]),
        _gp(3, [(3, -2, -2), (3, 3, 1), (2, 2, 2, -1)]),
        # seeding x1 makes both first rows ready; solving x2 from the second
        # empties the first before it is popped, so it must not solve x1 again
        _gp(3, [(1, 2), (1, -2), (3, 3, 3)]),
        # the first row is {x3: 2, x1: 1}: x2 cancels out beside the repeated
        # x3, so the row is ready on x1 alone once x3 is seeded
        _gp(3, [(3, 3, 2, -2, 1), (3, 3, 3, 2, 2), (2, -3)]),
    ],
)
def test_abelianization_matches_sympy_on_core_growth_paths(gp):
    _assert_matches_sympy(gp)


# Per-q maxima over every catalog class, base and both twists, of the core
# that reaches invariant_factors: seed columns, kept rows, entry bit length.
CORE_MAXIMA = {
    2: (3, 3, 4),
    3: (4, 4, 4),
    4: (6, 6, 5),
    5: (4, 7, 7),
    7: (6, 8, 16),
    8: (9, 10, 11),
    9: (7, 9, 13),
    11: (6, 8, 16),
    13: (10, 12, 35),
}


def test_dense_core_keeps_few_rows(monkeypatch):
    # every catalog group is finite, so each abelianization ends in one
    # invariant_factors call; only rows that enlarge the lattice reach it
    import tripres.abelian as abelian
    from tripres.gf import SUPPORTED_Q
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_all_invariant, group_presentation, twist_multiplier

    cores = []
    real = abelian.invariant_factors

    def record(matrix):
        cores.append(matrix)
        return real(matrix)

    monkeypatch.setattr(abelian, "invariant_factors", record)
    assert sorted(CORE_MAXIMA) == sorted(SUPPORTED_Q)
    for q in SUPPORTED_Q:
        most = (0, 0, 0)
        for cls in enumerate_all_invariant(build_plane(q)):
            rep = cls.representative
            for k in range(3):
                cores.clear()
                abelian.abelianization(group_presentation(twist_multiplier(rep, k) if k else rep))
                assert len(cores) == 1, (q, cls.index, k, len(cores))
                core = cores[0]
                bits = max(abs(x).bit_length() for row in core for x in row)
                most = tuple(map(max, most, (len(core[0]), len(core), bits)))
        assert most == CORE_MAXIMA[q], q


def _k0_presentation(p, identity):
    """K0 relators of T (Robertson-Steger): K0 = Z^{2r} + T' for the cokernel Z^r + T'.

    The alphabet A is the triples (a, d, f) with (a, d) and (d, f) in the
    pairs of T and f != e(a, d), where e(x, y) is the z with (x, y, z) in T.
    Each letter t gives the two relators t - sum of M_i[t, u] u, for
    M1[(a,d,f), (a',d',f')] = 1 iff e(a', d') = e(d, f) and a' != d, and
    M2[...] = 1 iff a' = f and e(a', d') != d.  `identity` adds the
    all-ones relator, for K0 / <[id]>.
    """
    e = {(x, y): z for x, y, z in p.triples}
    alphabet = [(a, d, f) for a, d in e for d2, f in e if d2 == d and f != e[a, d]]
    relators = []
    for t, (a, d, f) in enumerate(alphabet, 1):
        m1 = [-u for u, (a2, d2, _) in enumerate(alphabet, 1) if e[a2, d2] == e[d, f] and a2 != d]
        m2 = [-u for u, (a2, d2, _) in enumerate(alphabet, 1) if a2 == f and e[a2, d2] != d]
        relators += [(t, *m1), (t, *m2)]
    if identity:
        relators.append(tuple(range(1, len(alphabet) + 1)))
    return _gp(len(alphabet), relators)


def test_abelianization_matches_sympy_on_k0_cores(monkeypatch):
    # wide cores, which no catalog presentation reaches: the lattice test
    # keeps up to 46 rows over 58 seeds
    import tripres.abelian as abelian
    from tripres.plane import build_plane
    from tripres.presentations import enumerate_all_invariant

    cores = []
    real = abelian.invariant_factors

    def record(matrix):
        cores.append((len(matrix[0]), len(matrix)))
        return real(matrix)

    monkeypatch.setattr(abelian, "invariant_factors", record)
    for q, rank in ((2, 0), (3, 13)):
        for cls in enumerate_all_invariant(build_plane(q)):
            for identity in (False, True):
                gp = _k0_presentation(cls.representative, identity)
                assert gp.num_generators == (q * q + q + 1) * (q + 1) * q
                g = abelian.abelianization(gp)
                assert g == _sympy_group(gp) and g.rank == rank, (q, cls.index, identity)
    assert tuple(map(max, zip(*cores))) == (58, 46)


def test_traced_abelianization_sees_one_invariant_factors_call_per_op():
    # the benchmark's tracer rebinds abelianization and invariant_factors by
    # name, and its hooks take len() of the first positional argument and
    # iterate over it; a renamed kernel function, a keyword call or a one-shot
    # iterator would fail only traced runs
    import importlib
    import sys
    from pathlib import Path

    import tripres
    from tripres import abelian
    from tripres.presentations import group_presentation

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import worker

    items = worker.q13_presentations()
    sample = worker.q13_sample([len(p.rotation_classes()) for p in items])
    gps = [group_presentation(items[i]) for i in sample]
    want = [abelian.abelianization(gp) for gp in gps]
    modules = [tripres] + [importlib.import_module(f"tripres.{m}") for m in worker.TRACED]
    saved = [dict(vars(m)) for m in modules]
    tracer = worker.Tracer()
    tracer.install()
    try:
        got = [abelian.abelianization(gp) for gp in gps]
    finally:
        for mod, names in zip(modules, saved):
            vars(mod).update(names)
    assert len(gps) == 18
    assert got == want
    ops = [i for i, s in enumerate(tracer.spans) if s[0] == "abelian.abelianization"]
    smith = [s[3] for s in tracer.spans if s[0] == "abelian.invariant_factors"]
    assert len(ops) == 18 and sorted(smith) == ops
    assert tracer.counters["abelian.calls"] == 18
