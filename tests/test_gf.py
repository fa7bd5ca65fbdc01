import pytest

from tripres.gf import SUPPORTED_Q, build_field, poly_str, prime_power


def test_prime_power_decomposition():
    assert prime_power(2) == prime_power(2)
    assert (prime_power(8).p, prime_power(8).e) == (2, 3)
    assert (prime_power(9).p, prime_power(9).e) == (3, 2)
    assert (prime_power(13).p, prime_power(13).e) == (13, 1)


def test_unsupported_q_rejected():
    with pytest.raises(ValueError):
        build_field(6)
    with pytest.raises(ValueError):
        build_field(16)


def test_q2_modulus_and_generator():
    # Exhaustive check in code below; the selected modulus is x^3 + x + 1, g = x.
    f = build_field(2)
    assert poly_str(f.modulus) == "x^3 + x + 1"
    assert f.powers[:2] == ((1, 0, 0), (0, 1, 0))


# q -> (modulus, sha256 of repr([g^k coefficient tuple for k in 0..order-1])).
PINNED_FIELDS = {
    2: ("x^3 + x + 1", "ad3ed61863c8fcdeecd1e884caab730d63e3f8f5f4534acce87f16cf73e8ee73"),
    3: ("x^3 + 2x + 1", "c1c4bc2026f39bd1a1524d2e07c65899e742f52d6790c6e2ec0c1b438395e369"),
    4: ("x^6 + x + 1", "9339394bfe0df0bc35ce76a3a35765d3f3aa181d08dc58e35bc1b95170d246a5"),
    5: ("x^3 + 3x + 2", "dbc385f0dc255e0bcedbb03cc62718136eb46b2ad7951d45eea7928c63be7a0d"),
    7: ("x^3 + 3x + 2", "a4644f029d1f7b8f2158ac7ed7060528321fad50e2e4538d1452c208eb7d45ae"),
    8: ("x^9 + x^4 + 1", "574e4cb4957cf12f18201ca8400df337fa75f7d21a48b5205db0e72f65cb46d8"),
    9: ("x^6 + x + 2", "5b340385a9add92ed46bdd424f95c7cebd505e318f4c6821f0dff27fed62c37f"),
    11: ("x^3 + x + 4", "0e26caa3f788ef86e08b99cef73e37d214a902a413c46b3367c803022e3f19da"),
    13: ("x^3 + x + 6", "11e0483888b9274896ba4d1e2238cd87b74c1db2565e9b53275efff16357e543"),
}


def test_fields_pinned():
    import hashlib

    assert sorted(PINNED_FIELDS) == sorted(SUPPORTED_Q)
    for q in SUPPORTED_Q:
        f = build_field(q)
        modulus, digest = PINNED_FIELDS[q]
        assert poly_str(f.modulus) == modulus, f"q={q}"
        assert len(f.powers) == f.order, f"q={q}"
        powers = repr(list(f.powers))
        assert hashlib.sha256(powers.encode()).hexdigest() == digest, f"q={q}"
        assert f.powers[1] == (0, 1) + (0,) * (f.degree - 2), f"q={q}"


def test_q2_reduction_matches_polynomial_division():
    # x^3 reduces to x + 1 under x^3 = x + 1.
    f = build_field(2)
    assert f.powers[3] == (1, 1, 0)
    # oracle: naive remainder of x^3 by x^3+x+1 over GF(2)
    rem = _poly_rem([0, 0, 0, 1], [1, 1, 0, 1], 2)
    assert f.powers[3] == tuple(rem)


def _poly_rem(a, f, p):
    a = list(a)
    d = len(f) - 1
    while len(a) > d:
        c = a[-1] % p
        if c:
            for i in range(len(f)):
                a[len(a) - 1 - d + i] = (a[len(a) - 1 - d + i] - c * f[i]) % p
        a.pop()
    return a + [0] * (d - len(a))


def test_char2_squaring():
    f = build_field(2)
    # x + 1 = x^3, so (x + 1)^2 = x^6 = x^2 + 1
    assert f.powers[3] == (1, 1, 0)
    assert f.powers[6] == (1, 0, 1)
    assert _poly_rem(_poly_mul(f.powers[3], f.powers[3], 2), f.modulus, 2) == [1, 0, 1]


def test_primitivity_all_q():
    for q in SUPPORTED_Q:
        f = build_field(q)
        one = (1,) + (0,) * (f.degree - 1)
        assert f.powers[0] == one
        # x^order = x * x^(order-1) is 1 again, and x^0 .. x^(order-1) are
        # distinct, so x has order exactly p^d - 1
        assert _poly_rem(_poly_mul([0, 1], f.powers[-1], f.p), f.modulus, f.p) == list(one)
        assert len(set(f.powers)) == f.order == f.p ** f.degree - 1


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_field_axioms_small():
    # the table multiplies as polynomials mod f: x^i * x^j = x^(i+j), and
    # x^(order-i) is the inverse of x^i
    for q in (2, 3, 4):
        f = build_field(q)
        one = list(f.powers[0])
        for i in range(f.order):
            inverse = f.powers[-i % f.order]
            assert _poly_rem(_poly_mul(f.powers[i], inverse, f.p), f.modulus, f.p) == one
            for j in range(0, f.order, 5):
                product = _poly_rem(_poly_mul(f.powers[i], f.powers[j], f.p), f.modulus, f.p)
                assert tuple(product) == f.powers[(i + j) % f.order]


def _trace(f, q, k):
    """Tr(x^k) = x^k + x^(kq) + x^(kq^2), read from the power table."""
    terms = (f.powers[k * e % f.order] for e in (1, q, q * q))
    return tuple(sum(c) % f.p for c in zip(*terms))


def test_trace_q2_examples():
    f = build_field(2)
    # Tr(x) = x + x^2 + x^4 = 0 with x^3 = x + 1
    assert _trace(f, 2, 1) == (0, 0, 0)
    assert _trace(f, 2, 0) == (1, 0, 0)  # 1 + 1 + 1 in characteristic 2


def test_frobenius_fixes_exactly_subfield():
    # a -> a^q, by square-and-multiply mod f, sends x^k to x^(kq) and fixes
    # exactly the q - 1 powers x^k with (q^3 - 1)/(q - 1) dividing k
    for q in (2, 3, 4, 5, 9):
        f = build_field(q)
        for k in range(0, f.order, max(1, f.order // 97)):
            image = tuple(_poly_pow(f.powers[k], q, f.modulus, f.p))
            assert image == f.powers[k * q % f.order]
        fixed = [k for k in range(f.order) if f.powers[k * q % f.order] == f.powers[k]]
        step = f.order // (q - 1)
        assert fixed == list(range(0, f.order, step))


def test_trace_surjective_with_even_fibers():
    for q in (2, 3, 4, 5):
        f = build_field(q)
        fibers = {(0,) * f.degree: 1}  # Tr(0) = 0
        for k in range(f.order):
            t = _trace(f, q, k)
            fibers[t] = fibers.get(t, 0) + 1
        assert len(fibers) == q
        assert all(v == q * q for v in fibers.values())


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_pow(a, k, f, p):
    """a^k modulo the monic f over GF(p), by square-and-multiply."""
    result, base = _poly_rem([1], f, p), list(a)
    while k:
        if k & 1:
            result = _poly_rem(_poly_mul(result, base, p), f, p)
        base = _poly_rem(_poly_mul(base, base, p), f, p)
        k >>= 1
    return result


def _x_has_order(n, f, p):
    """Whether x has multiplicative order exactly n modulo the monic f over GF(p)."""
    one = _poly_rem([1], f, p)
    return _poly_pow([0, 1], n, f, p) == one and all(
        _poly_pow([0, 1], n // r, f, p) != one for r in _prime_divisors(n)
    )


def test_modulus_is_value_minimal_primitive():
    # Independent re-derivation of the modulus rule: sympy decides
    # irreducibility, a square-and-multiply loop the order of x.
    from sympy import Poly, symbols

    x = symbols("x")
    for q in SUPPORTED_Q:
        f = build_field(q)
        p, d = f.p, f.degree
        for value in range(p ** d):
            cand = [value // p ** i % p for i in range(d)] + [1]
            irreducible = Poly(cand[::-1], x, modulus=p).is_irreducible
            if irreducible and _x_has_order(p ** d - 1, cand, p):
                assert tuple(cand) == f.modulus, f"q={q}"
                break
        else:
            raise AssertionError(f"q={q}: no primitive modulus found")
