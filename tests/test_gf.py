import pytest

from tripres.gf import SUPPORTED_Q, FieldElement, build_field, poly_str, prime_power


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
    assert f.generator == FieldElement(f, (0, 1, 0))


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
        powers = repr([f.from_log(k).coeffs for k in range(f.order)])
        assert hashlib.sha256(powers.encode()).hexdigest() == digest, f"q={q}"
        assert f.generator == FieldElement(f, (0, 1) + (0,) * (f.degree - 2)), f"q={q}"


def test_q2_reduction_matches_polynomial_division():
    # g * g^2 = g^3 reduces to g + 1 under x^3 = x + 1.
    f = build_field(2)
    g = f.generator
    assert g * (g * g) == FieldElement(f, (1, 1, 0))
    # oracle: naive remainder of x^3 by x^3+x+1 over GF(2)
    rem = _poly_rem([0, 0, 0, 1], [1, 1, 0, 1], 2)
    assert FieldElement(f, tuple(rem)) == g * g * g


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
    a = FieldElement(f, (1, 1, 0))  # x + 1
    assert a * a == FieldElement(f, (1, 0, 1))  # x^2 + 1


def test_primitivity_all_q():
    for q in SUPPORTED_Q:
        f = build_field(q)
        g = f.generator
        assert g ** f.order == f.one
        # order is exactly p^d - 1: no proper divisor exponent collapses to 1
        for r in _prime_divisors(f.order):
            assert g ** (f.order // r) != f.one


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
    for q in (2, 3, 4):
        f = build_field(q)
        size = f.order + 1
        elems = [f.zero] + [f.from_log(k) for k in range(f.order)]
        for a in elems:
            assert a + f.zero == a
            if a:
                assert a * a ** -1 == f.one
                assert a ** -1 == a ** (size - 2)
        # spot associativity / distributivity on a few triples
        for a in elems[:5]:
            for b in elems[:5]:
                for c in elems[:5]:
                    assert (a + b) + c == a + (b + c)
                    assert a * (b + c) == a * b + a * c


def test_lagrange_all_nonzero():
    for q in SUPPORTED_Q:
        f = build_field(q)
        size = f.order + 1
        for k in range(0, f.order, max(1, f.order // 97)):
            a = f.from_log(k)
            assert a ** (size - 1) == f.one


def test_trace_q2_examples():
    f = build_field(2)
    g = f.generator
    # Tr(g) = g + g^2 + g^4 = 0 with x^3 = x + 1
    assert g.trace() == f.zero
    assert f.zero.trace() == f.zero
    assert f.one.trace() == f.one  # 1 + 1 + 1 in characteristic 2


def test_trace_additive_and_linear():
    for q in (3, 4, 9):
        f = build_field(q)
        sub = _subfield(f)
        elems = [f.from_log(k) for k in range(0, f.order, max(1, f.order // 23))]
        for a in elems:
            assert a.trace() ** f.q == a.trace()
            for b in elems[:7]:
                assert (a + b).trace() == a.trace() + b.trace()
            for lam in sub:
                assert (lam * a).trace() == lam * a.trace()


def _subfield(f):
    """GF(q) inside GF(q^3): {0} and g^(k(q^3-1)/(q-1)) for k = 0..q-2."""
    step = f.order // (f.q - 1)
    return [f.zero] + [f.from_log(k * step) for k in range(f.q - 1)]


def test_frobenius_fixes_exactly_subfield():
    for q in (2, 3, 4, 5, 9):
        f = build_field(q)
        elems = [f.zero] + [f.from_log(k) for k in range(f.order)]
        fixed = [a for a in elems if a ** f.q == a]
        assert len(fixed) == q
        assert set(a.coeffs for a in fixed) == set(a.coeffs for a in _subfield(f))


def test_trace_surjective_with_even_fibers():
    for q in (2, 3, 4, 5):
        f = build_field(q)
        fibers = {}
        for a in [f.zero] + [f.from_log(k) for k in range(f.order)]:
            fibers.setdefault(a.trace().coeffs, 0)
            fibers[a.trace().coeffs] += 1
        assert len(fibers) == q
        assert all(v == q * q for v in fibers.values())


def test_discrete_log():
    f = build_field(2)
    assert f.one.log() == 0
    assert f.generator.log() == 1
    assert FieldElement(f, (1, 1, 0)).log() == 3  # g^3 = g + 1
    with pytest.raises(ValueError):
        f.zero.log()


def test_discrete_log_inverts_exp():
    for q in (2, 3, 4, 11):
        f = build_field(q)
        for k in range(0, f.order, max(1, f.order // 151)):
            assert f.from_log(k).log() == k


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _x_has_order(n, f, p):
    """Whether x has multiplicative order exactly n modulo the monic f over GF(p)."""

    def x_pow(k):
        result, base = [1], [0, 1]
        while k:
            if k & 1:
                result = _poly_rem(_poly_mul(result, base, p), f, p)
            base = _poly_rem(_poly_mul(base, base, p), f, p)
            k >>= 1
        return result

    one = _poly_rem([1], f, p)
    return x_pow(n) == one and all(x_pow(n // r) != one for r in _prime_divisors(n))


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
