"""Arithmetic in the cubic extensions GF(q^3) behind the Singer construction.

Every supported field is tiny (at most 13^3 = 2197 elements), so everything
is exact and table driven: elements are reduced coefficient tuples over
GF(p), and a precomputed exp/log table for a fixed primitive generator makes
multiplication, inversion and discrete logarithms cheap lookups.

The defining modulus is chosen deterministically so independent runs (and
independent implementations following the same rule) agree: among all monic
irreducible polynomials of degree d = 3e over GF(p) for which the residue of
x is primitive, take the one whose non-leading coefficient vector has the
smallest value as a base-p integer with the constant term least significant.
For q = 2 this yields x^3 + x + 1 with generator x.
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
# Raw polynomial helpers over GF(p).  Polynomials are int lists, constant
# term first, with no trailing zeros.  Only used while selecting the modulus;
# afterwards all field arithmetic goes through the exp/log tables.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    a = list(a)
    d = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    while len(a) > d:
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - d
        if coef:
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - coef * fi) % p
        a.pop()
        _trim(a)
    return _trim(a)


def _poly_powmod(a: list[int], n: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, f, p)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        n >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    d = len(f) - 1
    x = [0, 1]
    # x^(p^d) == x mod f, and x^(p^(d/r)) - x coprime to f for prime r | d
    t = list(x)
    powers = []
    for _ in range(d):
        t = _poly_powmod(t, p, f, p)
        powers.append(t)
    if powers[-1] != _poly_mod(x, f, p):
        return False
    for r in factorize(d):
        g = _poly_gcd([(a - b) % p for a, b in _pad(powers[d // r - 1], x)], f, p)
        if len(g) > 1:
            return False
    return True


def _pad(a: list[int], b: list[int]) -> zip:
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _has_order(a: list[int], order: int, f: list[int], p: int) -> bool:
    if _poly_powmod(a, order, f, p) != [1]:
        return False
    return all(_poly_powmod(a, order // r, f, p) != [1] for r in factorize(order))


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

    def __hash__(self) -> int:
        return hash((id(self.ctx), self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.add(self, other)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.add(self, self.ctx.neg(other))

    def __neg__(self) -> "FieldElement":
        return self.ctx.neg(self)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.ctx.mul(self, other)

    def __pow__(self, n: int) -> "FieldElement":
        return self.ctx.pow(self, n)

    def inverse(self) -> "FieldElement":
        return self.ctx.pow(self, -1)

    def trace(self) -> "FieldElement":
        return self.ctx.trace_to_subfield(self)

    def log(self) -> int:
        return self.ctx.discrete_log(self)

    def __repr__(self) -> str:
        return f"FieldElement({poly_str(self.coeffs)})"


class FieldContext:
    """GF(p^d) with d = 3e, its GF(q) subfield and a fixed primitive generator.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, pp: PrimePower):
        p, e, q = pp.p, pp.e, pp.q
        d = 3 * e
        self.p = p
        self.e = e
        self.q = q
        self.degree = d
        self.num_elements = p ** d
        self.order = p ** d - 1

        modulus, generator_is_x = self._select_modulus(p, d)
        self.modulus = tuple(modulus)  # length d+1, monic, constant term first
        self.generator_is_x = generator_is_x

        gen_coeffs = (0, 1) + (0,) * (d - 2) if generator_is_x else None
        if gen_coeffs is None:
            gen_coeffs = self._smallest_primitive(modulus, p, d)
        self._build_tables(gen_coeffs)

    @staticmethod
    def _select_modulus(p: int, d: int) -> tuple[list[int], bool]:
        order = p ** d - 1
        fallback = None
        for value in range(p ** d):
            coeffs = []
            v = value
            for _ in range(d):
                coeffs.append(v % p)
                v //= p
            f = coeffs + [1]
            if not _is_irreducible(f, p):
                continue
            if fallback is None:
                fallback = f
            if _has_order([0, 1], order, f, p):
                return f, True
        if fallback is None:
            raise ValueError(f"no irreducible polynomial of degree {d} over GF({p})")
        return fallback, False

    @staticmethod
    def _smallest_primitive(f: list[int], p: int, d: int) -> tuple[int, ...]:
        order = p ** d - 1
        for value in range(2, p ** d):
            coeffs = []
            v = value
            for _ in range(d):
                coeffs.append(v % p)
                v //= p
            if _has_order(coeffs, order, f, p):
                return tuple(coeffs)
        raise ValueError("no primitive element found")

    def _build_tables(self, gen_coeffs: tuple[int, ...]) -> None:
        p, d = self.p, self.degree
        f = list(self.modulus)
        exp: list[tuple[int, ...]] = []
        log: dict[tuple[int, ...], int] = {}
        cur = [1]
        gen = list(gen_coeffs)
        for k in range(self.order):
            t = tuple(cur) + (0,) * (d - len(cur))
            exp.append(t)
            log[t] = k
            cur = _poly_mod(_poly_mul(cur, gen, p), f, p)
        if tuple(cur) + (0,) * (d - len(cur)) != exp[0]:
            raise AssertionError("generator does not have full multiplicative order")
        self._exp = exp
        self._log = log
        self.zero = FieldElement(self, (0,) * d)
        self.one = FieldElement(self, exp[0])
        self.generator = FieldElement(self, exp[1 % self.order])

    # -- construction -------------------------------------------------------

    def element(self, coeffs) -> FieldElement:
        c = tuple(int(x) % self.p for x in coeffs)
        if len(c) > self.degree and any(c[self.degree:]):
            raise ValueError("coefficient sequence longer than field degree")
        c = (c + (0,) * self.degree)[: self.degree]
        return FieldElement(self, c)

    def from_log(self, k: int) -> FieldElement:
        """g^k for the fixed primitive generator g."""
        return FieldElement(self, self._exp[k % self.order])

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        p = self.p
        return FieldElement(self, tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs)))

    def neg(self, a: FieldElement) -> FieldElement:
        p = self.p
        return FieldElement(self, tuple((-x) % p for x in a.coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if not a or not b:
            return self.zero
        k = (self._log[a.coeffs] + self._log[b.coeffs]) % self.order
        return FieldElement(self, self._exp[k])

    def pow(self, a: FieldElement, n: int) -> FieldElement:
        if not a:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return self.one if n == 0 else self.zero
        k = (self._log[a.coeffs] * n) % self.order
        return FieldElement(self, self._exp[k])

    def trace_to_subfield(self, a: FieldElement) -> FieldElement:
        """Tr(a) = a + a^q + a^(q^2), a GF(q)-linear map onto GF(q)."""
        return self.add(self.add(a, self.pow(a, self.q)), self.pow(a, self.q * self.q))

    def discrete_log(self, a: FieldElement) -> int:
        if not a:
            raise ValueError("discrete logarithm of zero is undefined")
        return self._log[a.coeffs]

    def subfield(self) -> tuple[FieldElement, ...]:
        """The q elements fixed by a -> a^q."""
        out = [self.zero]
        step = self.order // (self.q - 1)
        out.extend(self.from_log(k * step) for k in range(self.q - 1))
        return tuple(out)

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
