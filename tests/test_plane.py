from tripres.gf import SUPPORTED_Q
from tripres.plane import SingerPlane, build_plane, check_difference_set


def test_q2_difference_set():
    plane = build_plane(2)
    assert plane.n_points == 7
    assert plane.difference_set == (1, 2, 4)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, f, p):
    """a modulo the monic f over GF(p), padded to len(f) - 1 coefficients."""
    a = list(a)
    d = len(f) - 1
    while len(a) > d:
        c = a.pop()
        for i in range(d):
            a[len(a) - d + i] = (a[len(a) - d + i] - c * f[i]) % p
    return a + [0] * (d - len(a))


def _x_power(k, f, p):
    """x^k modulo the monic f over GF(p), by square-and-multiply."""
    result, base = _poly_rem([1], f, p), [0, 1]
    while k:
        if k & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        base = _poly_rem(_poly_mul(base, base, p), f, p)
        k >>= 1
    return result


def test_q2_difference_set_against_trace_brute_force():
    # independent oracle: Tr(x^j) = x^j + x^(jq) + x^(jq^2) by polynomial
    # arithmetic modulo the field's modulus, for every supported q
    from tripres.gf import build_field

    for q in SUPPORTED_Q:
        f = build_field(q)
        n = q * q + q + 1
        byhand = []
        for j in range(n):
            terms = [_x_power(j * e, f.modulus, f.p) for e in (1, q, q * q)]
            if not any(sum(c) % f.p for c in zip(*terms)):
                byhand.append(j)
        assert tuple(byhand) == build_plane(q).difference_set, f"q={q}"


def test_sizes_all_q():
    for q in SUPPORTED_Q:
        plane = build_plane(q)
        assert plane.n_points == q * q + q + 1
        assert len(plane.difference_set) == q + 1


def test_q13_plane():
    plane = build_plane(13)
    assert plane.n_points == 183
    assert len(plane.difference_set) == 14
    assert check_difference_set(plane).ok


def test_perfect_difference_property_all_q():
    for q in SUPPORTED_Q:
        report = check_difference_set(build_plane(q))
        assert report.ok, (q, report)


def test_incidence_q2():
    plane = build_plane(2)
    assert plane.incident(1, 0)
    assert not plane.incident(0, 0)  # Tr(1) = 1 != 0


def test_each_line_has_q_plus_1_points():
    for q in (2, 3, 5, 8):
        plane = build_plane(q)
        for k in range(plane.n_points):
            pts = plane.line_points(k)
            assert len(pts) == q + 1
            assert all(plane.incident(x, k) for x in pts)


def test_degenerate_set_fails():
    bogus = SingerPlane(q=2, n_points=7, difference_set=(0, 1))
    report = check_difference_set(bogus)
    assert not report.ok
    assert not report.size_ok
    assert not report.perfect_ok
    # residue 3 unrepresented among the two ordered differences
    assert (3, 0) in report.difference_counts


def test_multiplier_closure_q4():
    plane = build_plane(4)
    assert {(4 * d) % 21 for d in plane.difference_set} == set(plane.difference_set)


def test_difference_set_is_union_of_q_orbits():
    for q in (2, 3, 5, 7, 9, 11):
        plane = build_plane(q)
        n = plane.n_points
        dset = set(plane.difference_set)
        seen = set()
        for d in plane.difference_set:
            if d in seen:
                continue
            orbit = {d}
            x = (q * d) % n
            while x != d:
                orbit.add(x)
                x = (q * x) % n
            assert orbit <= dset
            seen |= orbit
        assert seen == dset


def test_translation_acts_transitively_on_lines():
    plane = build_plane(3)
    base = set(plane.line_points(0))
    seen = set()
    for k in range(plane.n_points):
        shifted = frozenset((x + k) % plane.n_points for x in base)
        assert shifted == frozenset(plane.line_points(k))
        seen.add(shifted)
    assert len(seen) == plane.n_points
