import hashlib
import itertools
from math import gcd

import pytest

from tripres.abelian import abelianization
from tripres.gf import SUPPORTED_Q
from tripres.plane import build_plane
from tripres.presentations import (
    SigmaCycle,
    TrianglePresentation,
    admissible_differences,
    canonical_form,
    check_axioms,
    classify_central_forms,
    correspondence,
    enumerate_all_invariant,
    enumerate_invariant,
    enumerate_sigma_cycles,
    extended_presentation,
    group_presentation,
    invert_generators,
    is_multiplier_fixed,
    is_singer_invariant,
    key_digest,
    presentation_from_sigma,
    presentation_from_text,
    presentation_to_text,
    relabel,
    twist_multiplier,
    twist_translation,
)


def fano_presentation():
    # T = {(i, i+1, i+3)} with all rotations: the q=2 invariant presentation
    triples = set()
    for i in range(7):
        t = (i, (i + 1) % 7, (i + 3) % 7)
        triples.update({t, (t[1], t[2], t[0]), (t[2], t[0], t[1])})
    return TrianglePresentation(q=2, n=7, triples=frozenset(triples))


def test_fano_presentation_valid():
    p = fano_presentation()
    assert check_axioms(p) == []
    assert is_singer_invariant(p)
    assert len(p.triples) == 21


def test_empty_triple_set_violates_existence():
    p = TrianglePresentation(q=2, n=7, triples=frozenset())
    viol = check_axioms(p)
    assert any(v.startswith("existence") for v in viol)


def test_duplicate_pair_violates_uniqueness():
    p = fano_presentation()
    extra = frozenset(p.triples | {(0, 1, 5), (1, 5, 0), (5, 0, 1)})
    bad = TrianglePresentation(q=2, n=7, triples=extra)
    assert any(v.startswith("uniqueness") for v in check_axioms(bad))


def test_non_affine_presentation_q2():
    # lambda(x) = D + pi(x) with pi swapping 5 and 6: no x -> scale*D + a*x + b fits
    reps = [(0, 1, 5), (0, 2, 3), (0, 4, 6), (1, 2, 4), (1, 3, 5), (2, 6, 6), (3, 4, 5)]
    triples = frozenset(r for x, y, z in reps for r in ((x, y, z), (y, z, x), (z, x, y)))
    p = TrianglePresentation(q=2, n=7, triples=triples)
    assert check_axioms(p) == []
    assert correspondence(p) is None
    with pytest.raises(ValueError, match="no affine point-line map to write"):
        presentation_to_text(p)
    assert str(abelianization(group_presentation(p))) == "[(2)2,3]"


def test_scaled_copies_of_d_are_distinct_up_to_translation():
    # `correspondence` relies on this: s*D is a translate of D exactly when s is a power of p
    from tripres.presentations import _multiplier_subgroup, _units

    for q in SUPPORTED_Q:
        n = q * q + q + 1
        dset = build_plane(q).difference_set
        translates = {frozenset((d + t) % n for d in dset) for t in range(n)}
        fixing = [s for s in _units(n) if frozenset((s * d) % n for d in dset) in translates]
        assert fixing == sorted(_multiplier_subgroup(q, n)), f"q={q}"


def test_sigma_cycle_validation():
    with pytest.raises(ValueError):
        SigmaCycle(7, (1, 2, 4), (2, 4, 2))  # not a permutation
    with pytest.raises(ValueError):
        SigmaCycle(7, (1, 2, 4), (2, 1, 4))  # order 2 piece
    with pytest.raises(ValueError):
        SigmaCycle(7, (1, 2, 3), (2, 3, 1))  # 1+2+3 = 6 != 0 mod 7
    s = SigmaCycle(7, (1, 2, 4), (2, 4, 1))
    assert s.as_dict()[4] == 1


def test_enumerate_q2_b0():
    cycles = enumerate_sigma_cycles(7, (1, 2, 4))
    assert [c.images for c in cycles] == [(2, 4, 1), (4, 1, 2)]
    ps = enumerate_invariant(build_plane(2), 0)
    assert len(ps) == 2
    for p in ps:
        assert check_axioms(p) == []
        assert is_singer_invariant(p)
    assert fano_presentation().triples in [p.triples for p in ps]


def test_identity_sigma_impossible_q2():
    # 3u = 0 mod 7 forces u = 0, which is not an admissible difference at b=0
    assert all(c.images != (1, 2, 4) for c in enumerate_sigma_cycles(7, (1, 2, 4)))


def test_enumerate_other_shifts_empty_q2():
    plane = build_plane(2)
    for b in range(1, 7):
        assert enumerate_invariant(plane, b) == []


def brute_force_invariant(plane, b):
    """Oracle: all invariant triple sets satisfying the axioms directly.

    Scans every function v: Dt -> Z_N assigning the third-point offset of
    each admissible difference, with no reference to the cycle reduction.
    """
    n = plane.n_points
    dt = admissible_differences(plane, b)
    found = []
    for image in itertools.product(range(n), repeat=len(dt)):
        v = dict(zip(dt, image))
        triples = frozenset(
            (i, (i + u) % n, (i + u + v[u]) % n) for i in range(n) for u in dt
        )
        p = TrianglePresentation(q=plane.q, n=n, triples=triples)
        if not check_axioms(p) and is_singer_invariant(p):
            found.append(triples)
    return sorted(found, key=sorted)


def test_brute_force_oracle_q2_all_shifts():
    plane = build_plane(2)
    for b in range(7):
        brute = brute_force_invariant(plane, b)
        quick = sorted((p.triples for p in enumerate_invariant(plane, b)), key=sorted)
        assert brute == quick, f"b={b}"


def test_enumerate_all_q2_q3():
    for q, gamma in ((2, "[(3)2,3]"), (3, "[(4)3]")):
        classes = enumerate_all_invariant(build_plane(q))
        assert len(classes) == 2
        keys = {canonical_form(c.representative) for c in classes}
        assert len(keys) == 2
        for c in classes:
            assert str(abelianization(group_presentation(c.representative))) == gamma
        # the two classes are each other's generator-inverse partners
        assert [c.inverse_index for c in classes] == [1, 0]


# q -> (class count, sha256 of the space-joined key_digest list), in
# enumeration order; taken from the full-scan canonical form.
PINNED_CLASS_KEYS = {
    2: (2, "1a367528cec4f13ec66eacf17870b2992c42a5c9fa09890664d245edd0ff0eb5"),
    3: (2, "cdc1bd090e0b98d33736e3f9f214d9b068d2ac423970643cd0a8e0261abba793"),
    4: (4, "7f05e1c76c8f897cd119eb27d26d158154de7cd3662c149c383862bd63806ba8"),
    5: (4, "6669b311cfebbe1b6f246e3c4054d70a9582fc2f382a3ffcef46c3994f9d4617"),
    7: (12, "3fd8411904bb8f0964135da9573770cf855ed8bbe8520b67315e28b27d1c8c3f"),
    8: (4, "dde006288bbe97250babd27769c05351d70524b935f8f0af3afe11ee2c31c0e0"),
    9: (6, "1f703c54db9453b4ddf02e52acbb01d832fddd5d5a33edca6ce9cbb7e52e6920"),
    11: (16, "ee14b71760fed1989241f3ce781c5d82aab1bb5342843fd6517c8baed167f597"),
    13: (48, "2593c86b054d11f4fe4f96a52a5bb8425676bd6440fb75a9eba22381254dfb54"),
}


def test_class_key_digests_pinned():
    assert sorted(PINNED_CLASS_KEYS) == sorted(SUPPORTED_Q)
    for q in SUPPORTED_Q:
        classes = enumerate_all_invariant(build_plane(q))
        blob = " ".join(c.key_digest for c in classes)
        got = (len(classes), hashlib.sha256(blob.encode()).hexdigest())
        assert got == PINNED_CLASS_KEYS[q], f"q={q}"


def test_class_digest_is_digest_of_canonical_form():
    for q in SUPPORTED_Q:
        plane = build_plane(q)
        for c in enumerate_all_invariant(plane):
            assert c.representative == presentation_from_sigma(plane, *c.members[0]), (q, c.index)
            assert c.key_digest == key_digest(canonical_form(c.representative)), (q, c.index)


def test_key_digest_text_past_the_largest_supported_n():
    form = ((0, 1, 182), (0, 183, 4000))
    assert key_digest(form) == hashlib.sha256(b"0,1,182;0,183,4000").hexdigest()[:12]


def test_key_digest_text_of_a_negative_entry():
    assert key_digest(((0, -1, 2),)) == hashlib.sha256(b"0,-1,2").hexdigest()[:12]


def test_classes_are_named_without_building_triple_sets(monkeypatch):
    import tripres.presentations as presentations

    calls = {"presentation_from_sigma": 0, "is_singer_invariant": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(presentations, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(presentations, name, counted)
    classes = enumerate_all_invariant(build_plane(13))
    assert calls == {"presentation_from_sigma": 0, "is_singer_invariant": 0}
    rep = classes[7].representative
    assert calls == {"presentation_from_sigma": 1, "is_singer_invariant": 0}
    assert classes[7].representative is rep
    assert calls == {"presentation_from_sigma": 1, "is_singer_invariant": 0}


def full_scan_canonical_form(p):
    """Oracle: the lex-least sorted triple list over every unit scaling.

    Translations fix an invariant triple set, so for invariant input this
    covers every affine relabeling.
    """
    n = p.n
    return min(
        tuple(sorted(((r * x) % n, (r * y) % n, (r * z) % n) for x, y, z in p.triples))
        for r in range(1, n)
        if gcd(r, n) == 1
    )


def test_canonical_form_matches_full_scan():
    for q in (2, 3, 4, 5, 7):
        plane = build_plane(q)
        n = plane.n_points
        for c in enumerate_all_invariant(plane):
            rep = c.representative
            inv = invert_generators(rep)
            want = full_scan_canonical_form(rep)
            assert canonical_form(rep) == want, f"q={q} {rep}"
            assert canonical_form(inv) == full_scan_canonical_form(inv), f"q={q} {inv}"
            # r*T lies in the unit orbit of T, so its full scan is `want` too
            for r in range(2, n):
                if gcd(r, n) == 1:
                    moved = relabel(rep, r, 1)
                    if correspondence(moved)[2] != 1:
                        assert canonical_form(moved) == want, f"q={q} r={r} {rep}"
    with pytest.raises(ValueError):
        canonical_form(twist_multiplier(fano_presentation(), 1))


def test_class_identity_matches_the_canonical_form():
    """Grouping, pairing and naming agree with the canonical form at every q.

    The full scan is the oracle up to q = 7; above that `canonical_form`,
    checked against the full scan by `test_canonical_form_matches_full_scan`,
    stands in for it.
    """
    for q in SUPPORTED_Q:
        form = full_scan_canonical_form if q <= 7 else canonical_form
        plane = build_plane(q)
        # the cycles of each shift come in `images` order, which fixes the class indices
        for b in range(plane.n_points):
            cycles = enumerate_sigma_cycles(plane.n_points, admissible_differences(plane, b))
            assert [s.images for s in cycles] == sorted(s.images for s in cycles), (q, b)
        classes = enumerate_all_invariant(plane)
        forms = [form(c.representative) for c in classes]
        assert len(set(forms)) == len(classes), f"q={q}"
        for c, want in zip(classes, forms):
            for b, sigma in c.members:
                assert form(presentation_from_sigma(plane, b, sigma)) == want, (q, c.index, b)
            assert form(invert_generators(c.representative)) == forms[c.inverse_index], (q, c.index)


def test_canonical_form_affine_invariance():
    p = fano_presentation()
    for r in (1, 2, 3, 5):
        for s in (0, 4):
            assert canonical_form(relabel(p, r, s)) == canonical_form(p)
    with pytest.raises(ValueError):
        relabel(p, 0, 1)


def test_relabel_identity_and_frobenius():
    p = fano_presentation()
    assert relabel(p, 1, 0).triples == p.triples
    assert relabel(p, 2, 0).triples == p.triples  # fixed by j -> qj


def test_relabel_keeps_axioms_and_abelianization():
    for q in (2, 3):
        plane = build_plane(q)
        p = enumerate_invariant(plane, 0)[0]
        g = abelianization(group_presentation(p))
        for r in range(1, plane.n_points):
            from math import gcd

            if gcd(r, plane.n_points) != 1:
                continue
            moved = relabel(p, r, 3)
            assert check_axioms(moved) == []
            assert abelianization(group_presentation(moved)) == g


def test_relabel_by_3_moves_difference_data_q2():
    p = fano_presentation()
    moved = relabel(p, 3, 0)
    diffs = {(y - x) % 7 for x, y, _ in moved.triples}
    assert diffs == {3, 6, 5}
    assert correspondence(moved)[2] == 3
    assert check_axioms(moved) == []


def test_invert_generators():
    p = fano_presentation()
    q2_classes = enumerate_all_invariant(build_plane(2))
    inv = invert_generators(p)
    assert check_axioms(inv) == []
    assert invert_generators(inv).triples == p.triples
    assert abelianization(group_presentation(inv)) == abelianization(group_presentation(p))
    # inversion maps the sigma=(1 2 4) class onto the sigma=(1 4 2) class
    assert canonical_form(inv) != canonical_form(p)
    assert canonical_form(inv) in {canonical_form(c.representative) for c in q2_classes}


def test_abelianization_preserved_by_inversion_q3():
    for c in enumerate_all_invariant(build_plane(3)):
        p = c.representative
        inv = invert_generators(p)
        assert abelianization(group_presentation(inv)) == abelianization(group_presentation(p))


def test_twist_requires_fixed_presentation():
    partial = TrianglePresentation(q=2, n=7, triples=frozenset({(0, 1, 3), (1, 3, 0), (3, 0, 1)}))
    with pytest.raises(ValueError):
        twist_multiplier(partial, 1)
    # twists of a fixed presentation stay fixed, so the chain never breaks
    p = fano_presentation()
    assert is_multiplier_fixed(twist_multiplier(p, 1))


def test_twist_multiplier_q2():
    p = fano_presentation()
    t1 = twist_multiplier(p, 1)
    t2 = twist_multiplier(p, 2)
    assert check_axioms(t1) == [] and check_axioms(t2) == []
    assert not is_singer_invariant(t1)
    got = {str(abelianization(group_presentation(t))) for t in (t1, t2)}
    assert got == {"[2,3,7]", "[2,3]"}
    assert correspondence(t1)[:2] == (2, 0)


def test_twist_multiplier_q3_pair():
    p = enumerate_invariant(build_plane(3), 0)[0]
    got = {
        str(abelianization(group_presentation(twist_multiplier(p, k)))) for k in (1, 2)
    }
    assert got == {"[(2)3,13]", "[(2)3]"}


def test_triple_twist_is_identity():
    for q in (2, 3, 4, 5):
        for p in enumerate_invariant(build_plane(q), 0):
            if not is_multiplier_fixed(p):
                continue
            t = twist_multiplier(twist_multiplier(twist_multiplier(p, 1), 1), 1)
            assert t == p
            assert twist_multiplier(p, 2) == twist_multiplier(twist_multiplier(p, 1), 1)


def test_twist_translation_q4():
    plane = build_plane(4)
    classes = enumerate_all_invariant(plane)
    regular = next(
        c.representative
        for c in classes
        if str(abelianization(group_presentation(c.representative))) == "[(6)2,(2)3]"
    )
    b, cpres = twist_translation(regular)
    for t in (b, cpres):
        assert check_axioms(t) == []
        assert is_singer_invariant(t)
        assert str(abelianization(group_presentation(t))) == "[(2)3]"
    shift = correspondence(regular)[1]
    assert correspondence(b)[1] == (shift + 7) % 21
    assert correspondence(cpres)[1] == (shift + 14) % 21


def test_twist_translation_rejects_bad_q():
    p = fano_presentation()
    with pytest.raises(ValueError):
        twist_translation(p)


def test_classify_central_forms_q4():
    plane = build_plane(4)
    for c in enumerate_all_invariant(plane):
        forms = classify_central_forms(c.representative)
        assert len(forms) == 2
    with pytest.raises(ValueError):
        classify_central_forms(fano_presentation())


def test_translation_twist_permutes_forms():
    plane = build_plane(4)
    p = enumerate_all_invariant(plane)[0].representative
    forms = classify_central_forms(p)
    b, c = twist_translation(p)
    cycle = {"a": "b", "b": "c", "c": "a"}
    assert classify_central_forms(b) == frozenset(cycle[f] for f in forms)
    assert classify_central_forms(c) == frozenset(cycle[cycle[f]] for f in forms)


def test_group_presentation_counts():
    p = fano_presentation()
    gp = group_presentation(p)
    assert gp.num_generators == 7
    assert len(gp.relators) == 7  # 21 ordered triples / 3
    assert all(len(r) == 3 and all(x > 0 for x in r) for r in gp.relators)


# sha256 of the relator tuples of each catalog representative and its two
# multiplier twists, in catalog order: (presentations, digest)
PINNED_RELATORS = {
    2: (6, "d25d9fb340927075691a3df9cb0106558db7b2876bd1c0100666b93cdc4aeaad"),
    3: (6, "66b5cc2b8a3e4ef5a5a085e31421463ae036756927bc9f1e0bb640a5f68a15ac"),
    4: (12, "470ff1eac99fec91ce00e8450130abf6f1a9a28a7bc0de2a3070284ba7d22201"),
    5: (12, "a21985c256e9b9fb2c2e9d3f75164495bfbe2ad2ad5b5251558941d70fcc305a"),
    7: (36, "bc7c9d48469c62b4d403e4ed5d4edb6339b12d475cce384c17c9aeca504882c0"),
    8: (12, "a7bd989cc79e4f43edb752f1777449b401beb7ea7dca9ba06bd90cd705be0104"),
    9: (18, "877cd4989b5f434d84d2916827f9168fd25697489232caf14b9a0df29a68c8bc"),
}


def test_group_presentation_relators_pinned():
    for q, pinned in PINNED_RELATORS.items():
        digest = hashlib.sha256()
        count = 0
        for cls in enumerate_all_invariant(build_plane(q)):
            rep = cls.representative
            for k in range(3):
                gp = group_presentation(twist_multiplier(rep, k) if k else rep)
                digest.update(repr(gp.relators).encode())
                count += 1
        assert (count, digest.hexdigest()) == pinned, f"q={q}"


def tp_pin_presentations(q):
    """Each class representative, its twists and, for q <= 5, its relabelings.

    The relabelings j -> r*j + 1 and the generator inverse are where the
    `.tp` header has a scale other than 1.
    """
    for cls in enumerate_all_invariant(build_plane(q)):
        rep = cls.representative
        yield rep
        yield twist_multiplier(rep, 1)
        yield twist_multiplier(rep, 2)
        if q % 3 == 1:
            yield from twist_translation(rep)
        if q <= 5:
            yield from (relabel(rep, r, 1) for r in range(1, rep.n) if gcd(r, rep.n) == 1)
            yield invert_generators(rep)


# sha256 of the concatenated `presentation_to_text` of tp_pin_presentations(q):
# (presentations, digest)
PINNED_TP_TEXT = {
    2: (20, "4c8b29942f06f5bc6dd4f2b06480ac3817e17d5350016b8d3b6e459102fc70fb"),
    3: (32, "ec89e4ab58fd949308798287319fec3f09043dead785c8f70e372abbb3c7120a"),
    4: (72, "ab86b9efcfcca20e9e29b220635e3429a0c7fca20b8be4fb6c55712595386f80"),
    5: (136, "fdb5d4148116bf21a44047b1bf2f8314a46ae528e8eed84bab2195a152914871"),
    7: (60, "ed688edd1b66689dfa12ddd7b028b42de6a782c50aba833b5012ef94851fc898"),
    8: (12, "38f5755e7fd1a1fd12c3c46ca09b2fd77a6f424af093996f4fff6032d079d5ef"),
    9: (18, "444a4f67cc2f4d0c0e06fd1d4fe0d1adb71d110639d32407c3494801595a2520"),
    11: (48, "1845fddeb0f311e9322a378eacf8d6378938542fc76a1e30089641756f8f1109"),
    13: (240, "63ae9c34d215b80bba0026e0ea05470f947e212e5583eb2353df7f8f2df36381"),
}


def test_presentation_text_pinned():
    assert sorted(PINNED_TP_TEXT) == sorted(SUPPORTED_Q)
    for q in SUPPORTED_Q:
        digest = hashlib.sha256()
        count = 0
        for p in tp_pin_presentations(q):
            digest.update(presentation_to_text(p).encode())
            count += 1
        assert (count, digest.hexdigest()) == PINNED_TP_TEXT[q], f"q={q}"


def test_rotation_fixed_triples_q3():
    # sigma(0) = 0 contributes the 13 one-element rotation classes x_i^3
    p = enumerate_invariant(build_plane(3), 0)[0]
    gp = group_presentation(p)
    assert gp.num_generators == 13
    assert len(gp.relators) == 26  # 13 cubes + (52-13)/3
    cubes = [r for r in gp.relators if len(set(r)) == 1]
    assert len(cubes) == 13


def test_extended_presentation():
    p = fano_presentation()
    phi = tuple((2 * j) % 7 for j in range(7))
    gp = extended_presentation(p, phi)
    assert gp.num_generators == 8
    assert len(gp.relators) == 7 + 1 + 7
    assert (8, 8, 8) in gp.relators
    assert (8, 1, -8, -1) in gp.relators  # t x_0 t^-1 x_{phi(0)}^-1
    with pytest.raises(ValueError):
        extended_presentation(p, tuple(range(7)))  # identity: not order 3
    with pytest.raises(ValueError):
        extended_presentation(p, tuple((3 * j) % 7 for j in range(7)))  # order 6


def test_extended_presentation_abelianization_consistency():
    # Gamma+ = Z/3 x| Gamma: its abelianization surjects onto Z/3
    p = fano_presentation()
    phi = tuple((2 * j) % 7 for j in range(7))
    g = abelianization(extended_presentation(p, phi))
    assert g.order() % 3 == 0


def test_text_round_trip():
    p = fano_presentation()
    text = presentation_to_text(p, note="fano demo")
    back = presentation_from_text(text)
    assert back == p
    # every line of a note is a comment, whatever line break ends it
    text = presentation_to_text(p, note="a\nb=0\r0 1 2\u2028N=8")
    assert text.startswith("# a\n# b=0\n# 0 1 2\n# N=8\nq=2\n")
    assert presentation_from_text(text) == p
    t1 = twist_multiplier(p, 1)
    assert presentation_from_text(presentation_to_text(t1)) == t1
    moved = relabel(p, 3, 0)
    assert "scale=3" in presentation_to_text(moved)
    assert presentation_from_text(presentation_to_text(moved)) == moved


def test_text_rejects_garbage():
    from tripres.presentations import PresentationFormatError

    with pytest.raises(PresentationFormatError):
        presentation_from_text("q=2\nN=7\na=1\n0 1\n")
    with pytest.raises(PresentationFormatError):
        presentation_from_text("q=2\nN=7\n0 1 3\n")  # missing a=, b=
    with pytest.raises(PresentationFormatError):
        presentation_from_text("q=2\nN=7\na=1\nb=zero\n")
