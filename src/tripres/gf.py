"""The cubic extensions GF(q^3) behind the Singer construction.

Every supported field is tiny (at most 13^3 = 2197 elements), so a field is
held as the table of powers of its primitive generator x: x^k for k in
0..p^d - 2, each a reduced coefficient tuple over GF(p).  The Singer plane
reads its trace-zero exponents straight from that table.

The defining modulus is chosen deterministically so independent runs (and
independent implementations following the same rule) agree: among all monic
polynomials f of degree d = 3e over GF(p) for which the residue of x is
primitive, take the one whose non-leading coefficient vector has the
smallest value as a base-p integer with the constant term least significant.
Such an f is irreducible, since x of order p^d - 1 makes all p^d - 1 nonzero
residues units, so GF(p)[x]/(f) is a field; and one exists in every degree,
so x is the generator for every q.  For q = 2 this yields x^3 + x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n by trial division, primes ascending."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class PrimePower:
    """A supported prime power q = p^e."""

    p: int
    e: int
    q: int

    def __post_init__(self) -> None:
        if factorize(self.p) != {self.p: 1}:
            raise ValueError(f"p={self.p} is not prime")
        if self.e < 1 or self.p ** self.e != self.q:
            raise ValueError(f"q={self.q} is not p^e for p={self.p}, e={self.e}")


def prime_power(q: int) -> PrimePower:
    """Factor a supported q into (p, e, q)."""
    if q not in SUPPORTED_Q:
        raise ValueError(f"unsupported q={q}; supported values: {SUPPORTED_Q}")
    (p, e), = factorize(q).items()
    return PrimePower(p, e, q)


# ---------------------------------------------------------------------------
# Choosing the modulus.  The shift register that steps x^k mod f is both the
# primitivity test and the table build: the accepted cycle is the power table.


def _primitive_modulus(p: int, d: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The least monic f of degree d over GF(p) for which x is primitive, and x^k mod f.

    Candidates f = x^d + c_{d-1}x^{d-1} + ... + c_0 are taken in order of the
    base-p value of (c_0, ..., c_{d-1}), constant term least significant;
    those with c_0 = 0 are skipped.  From 1, the state x^k mod f is stepped
    by multiplying by x (shift the coefficients up, subtract lead * f) until
    it is 1 again.  The first f whose cycle has length p^d - 1 is returned
    with the states of that cycle, x^0 .. x^(p^d - 2), in order.

    This is the rule "the least irreducible f for which x is primitive":

    - if x has order p^d - 1 in GF(p)[x]/(f), that ring of p^d elements has
      p^d - 1 units, so it is a field and f is irreducible;
    - when c_0 != 0, x is a unit, so every cycle closes within p^d - 1 steps;
    - a primitive polynomial exists in every degree over every GF(p), so the
      search always succeeds and x always serves as the generator.
    """
    one = (1,) + (0,) * (d - 1)
    for value in range(1, p ** d):
        if value % p == 0:
            continue
        low = [value // p ** i % p for i in range(d)]
        powers = [one]
        state = one
        while True:
            lead = state[-1]
            state = (0,) + state[:-1]
            if lead:
                state = tuple((s - lead * c) % p for s, c in zip(state, low))
            if state == one:
                break
            powers.append(state)
        if len(powers) == p ** d - 1:
            return tuple(low) + (1,), tuple(powers)
    raise AssertionError(f"no primitive polynomial of degree {d} over GF({p})")


@dataclass(frozen=True)
class FieldContext:
    """GF(p^d) with d = 3e, a cubic extension of GF(q), by the powers of its generator x.

    modulus has length d+1, monic, constant term first; powers[k] is the
    coefficient tuple of x^k mod modulus for k in 0..order-1.
    """

    p: int
    degree: int
    modulus: tuple[int, ...]
    powers: tuple[tuple[int, ...], ...]
    order: int


def poly_str(coeffs) -> str:
    """Render a constant-first coefficient sequence as a readable polynomial."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def build_field(q: int) -> FieldContext:
    """Build GF(q^3) for a supported q, with the deterministic modulus rule."""
    pp = prime_power(q)
    d = 3 * pp.e
    modulus, powers = _primitive_modulus(pp.p, d)
    return FieldContext(pp.p, d, modulus, powers, pp.p ** d - 1)
