"""Arithmetic in the cubic extensions GF(q^3) behind the Singer construction.

Every supported field is tiny (at most 13^3 = 2197 elements), so everything
is exact and table driven: elements are reduced coefficient tuples over
GF(p), and a precomputed exp/log table for the primitive generator x makes
multiplication, inversion and discrete logarithms cheap lookups.

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
# primitivity test and the table build: the accepted cycle is the exp table.


def _primitive_modulus(p: int, d: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
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
            return tuple(low) + (1,), powers
    raise AssertionError(f"no primitive polynomial of degree {d} over GF({p})")


# ---------------------------------------------------------------------------


class FieldElement:
    """An element of a FieldContext, stored as a reduced coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldContext", coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if not self or not other:
            return self.ctx.zero
        return self.ctx.from_log(self.log() + other.log())

    def __pow__(self, n: int) -> "FieldElement":
        if not self:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.ctx.one if n == 0 else self.ctx.zero
        return self.ctx.from_log(self.log() * n)

    def trace(self) -> "FieldElement":
        """Tr(a) = a + a^q + a^(q^2), a GF(q)-linear map onto GF(q)."""
        q = self.ctx.q
        return self + self ** q + self ** (q * q)

    def log(self) -> int:
        """k in 0..order-1 with x^k = self."""
        if not self:
            raise ValueError("discrete logarithm of zero is undefined")
        return self.ctx._log[self.coeffs]

    def __repr__(self) -> str:
        return f"FieldElement({poly_str(self.coeffs)})"


class FieldContext:
    """GF(p^d) with d = 3e, a cubic extension of GF(q), and its primitive generator x.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, pp: PrimePower):
        p, e, q = pp.p, pp.e, pp.q
        d = 3 * e
        self.p = p
        self.q = q
        self.degree = d
        self.order = p ** d - 1

        # modulus: length d+1, monic, constant term first; _exp[k] = x^k mod modulus
        self.modulus, self._exp = _primitive_modulus(p, d)
        self._log = {c: k for k, c in enumerate(self._exp)}
        self.zero = FieldElement(self, (0,) * d)
        self.one = FieldElement(self, self._exp[0])
        self.generator = FieldElement(self, self._exp[1])

    def from_log(self, k: int) -> FieldElement:
        """g^k for the primitive generator g = x."""
        return FieldElement(self, self._exp[k % self.order])

    def __repr__(self) -> str:
        return f"FieldContext(GF({self.p}^{self.degree}), modulus={poly_str(self.modulus)})"


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
    return FieldContext(prime_power(q))
