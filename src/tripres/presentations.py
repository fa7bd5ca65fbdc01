"""Triangle presentations on a Singer plane.

A triangle presentation is a set T of ordered point triples with

  (A) rotation closure:  (x,y,z) in T  =>  (y,z,x) in T;
  (B) existence:  a pair (x,y) extends to a triple iff y lies on the line
      attached to x by the point-line correspondence;
  (C) uniqueness:  the extension z of (x,y) is unique;

so |T| = N(q+1), one triple per incident pair.  The attached group is
Gamma = <x_0..x_{N-1} | x_a x_b x_c = 1 for (a,b,c) in T>.

Correspondences here are affine in the Singer labeling: x is sent to the
line with index a*x + b, and the incidence test may run against a scaled
copy r0*D of the difference set.  In-scope constructions always have
r0 = 1 and a in {1, q, q^2}; the scale only moves off 1 when a presentation
is relabeled by a unit that is not a multiplier of D, which keeps the
axioms checkable for every affine image.

Cyclically invariant presentations (invariant under j -> j+1 on all three
coordinates) reduce to difference data: with correspondence (1, b) the
admissible first differences form Dt = D + b, axiom (C) makes the second
difference a function s of the first, and rotation closure forces
s^3 = id with u + s(u) + s^2(u) = 0 (mod N).  Enumeration searches over
these "difference cycles"; a raw brute force over all invariant triple
sets (used in the tests) confirms the reduction at q = 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .gf import prime_power
from .plane import SingerPlane, build_plane

Triple = tuple[int, int, int]


# ---------------------------------------------------------------------------
# Data types


@dataclass(frozen=True)
class Correspondence:
    """x -> line(multiplier * x + shift), tested against plane_scale * D."""

    multiplier: int
    shift: int
    plane_scale: int = 1


@dataclass(frozen=True)
class SigmaCycle:
    """An order-3 zero-sum permutation of the admissible difference set."""

    n: int
    domain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.domain)) != self.domain:
            raise ValueError("domain must be sorted")
        if sorted(self.images) != list(self.domain):
            raise ValueError("images are not a permutation of the domain")
        table = dict(zip(self.domain, self.images))
        for u in self.domain:
            v = table[u]
            w = table[v]
            if table[w] != u:
                raise ValueError("permutation does not have order dividing 3")
            if (u + v + w) % self.n:
                raise ValueError(f"cycle through {u} does not sum to 0 mod {self.n}")

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.domain, self.images))

    def inverse(self) -> "SigmaCycle":
        table = {v: u for u, v in zip(self.domain, self.images)}
        return SigmaCycle(self.n, self.domain, tuple(table[u] for u in self.domain))

    def scaled(self, r: int) -> "SigmaCycle":
        """The cycle data of the relabeled set, u -> r*u."""
        n = self.n
        table = {(r * u) % n: (r * v) % n for u, v in zip(self.domain, self.images)}
        domain = tuple(sorted(table))
        return SigmaCycle(n, domain, tuple(table[u] for u in domain))

    def describe(self) -> str:
        parts = []
        seen = set()
        table = self.as_dict()
        for u in self.domain:
            if u in seen:
                continue
            cyc = [u]
            v = table[u]
            while v != u:
                cyc.append(v)
                v = table[v]
            seen.update(cyc)
            parts.append("(" + " ".join(str(x) for x in cyc) + ")")
        return "".join(parts)


@dataclass(frozen=True)
class TrianglePresentation:
    q: int
    n: int
    corr: Correspondence
    triples: frozenset[Triple]

    def rotation_classes(self) -> tuple[Triple, ...]:
        """Lex-least representative of each rotation class, sorted."""
        reps = set()
        for t in self.triples:
            x, y, z = t
            reps.add(min(t, (y, z, x), (z, x, y)))
        return tuple(sorted(reps))

    def __repr__(self) -> str:
        return (
            f"TrianglePresentation(q={self.q}, N={self.n}, a={self.corr.multiplier}, "
            f"b={self.corr.shift}, scale={self.corr.plane_scale}, |T|={len(self.triples)})"
        )


@dataclass(frozen=True)
class GroupPresentation:
    """Relators are words over signed 1-based generator indices."""

    num_generators: int
    relators: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Axioms


def _pair_condition_set(p: TrianglePresentation) -> frozenset[int]:
    plane = build_plane(p.q)
    r0 = p.corr.plane_scale
    return frozenset((r0 * d) % p.n for d in plane.difference_set)


def check_axioms(p: TrianglePresentation) -> list[str]:
    """Empty list iff the triangle presentation axioms hold."""
    n = p.n
    viol: list[str] = []
    for t in p.triples:
        if any(not (0 <= c < n) for c in t):
            viol.append(f"coordinates: triple {t} not reduced mod {n}")
            break

    for t in p.triples:
        x, y, z = t
        if (y, z, x) not in p.triples:
            viol.append(f"rotation: {t} present but {(y, z, x)} missing")
            break

    ext: dict[tuple[int, int], int] = {}
    for x, y, z in sorted(p.triples):
        k = (x, y)
        if k in ext and ext[k] != z:
            viol.append(f"uniqueness: pair {k} extends to both {ext[k]} and {z}")
            break
        ext[k] = z

    a, b = p.corr.multiplier, p.corr.shift
    dset = _pair_condition_set(p)
    expected = set()
    for x in range(n):
        base = (a * x + b) % n
        for d in dset:
            expected.add((x, (base + d) % n))
    actual = set(ext)
    missing = expected - actual
    extra = actual - expected
    if missing:
        viol.append(f"existence: {len(missing)} incident pairs unextended, e.g. {min(missing)}")
    if extra:
        viol.append(f"existence: {len(extra)} non-incident pairs extended, e.g. {min(extra)}")

    if len(p.triples) != n * (p.q + 1):
        viol.append(f"cardinality: |T| = {len(p.triples)}, expected {n * (p.q + 1)}")
    return viol


def is_singer_invariant(p: TrianglePresentation) -> bool:
    """Invariance under the cyclic shift on all three coordinates."""
    n = p.n
    return all(
        ((x + 1) % n, (y + 1) % n, (z + 1) % n) in p.triples for x, y, z in p.triples
    )


def is_multiplier_fixed(p: TrianglePresentation) -> bool:
    """Fixedness under j -> q*j on all three coordinates."""
    n, q = p.n, p.q
    return all(
        ((q * x) % n, (q * y) % n, (q * z) % n) in p.triples for x, y, z in p.triples
    )


# ---------------------------------------------------------------------------
# Enumeration of invariant presentations


def admissible_differences(plane: SingerPlane, b: int) -> tuple[int, ...]:
    n = plane.n_points
    return tuple(sorted((d + b) % n for d in plane.difference_set))


def enumerate_sigma_cycles(n: int, domain) -> list[SigmaCycle]:
    """All order-3 permutations of `domain` with u + s(u) + s^2(u) = 0 mod n."""
    domain = tuple(sorted(domain))
    dset = set(domain)
    if len(dset) != len(domain):
        raise ValueError("domain has repeated elements")
    out: list[SigmaCycle] = []
    assign: dict[int, int] = {}

    def descend(remaining: tuple[int, ...]) -> None:
        if not remaining:
            out.append(SigmaCycle(n, domain, tuple(assign[u] for u in domain)))
            return
        u = remaining[0]
        rest = remaining[1:]
        if (3 * u) % n == 0:
            assign[u] = u
            descend(rest)
            del assign[u]
        restset = set(rest)
        for v in rest:
            w = (-u - v) % n
            if w == u or w == v or w not in restset:
                continue
            assign[u], assign[v], assign[w] = v, w, u
            descend(tuple(x for x in rest if x != v and x != w))
            del assign[u], assign[v], assign[w]

    descend(domain)
    out.sort(key=lambda s: s.images)
    return out


def presentation_from_sigma(
    plane: SingerPlane, b: int, sigma: SigmaCycle
) -> TrianglePresentation:
    n = plane.n_points
    table = sigma.as_dict()
    triples = frozenset(
        (i, (i + u) % n, (i + u + table[u]) % n)
        for i in range(n)
        for u in sigma.domain
    )
    return TrianglePresentation(
        q=plane.q, n=n, corr=Correspondence(1, b % n, 1), triples=triples
    )


def enumerate_invariant(plane: SingerPlane, b: int) -> list[TrianglePresentation]:
    """All cyclically invariant presentations with correspondence (1, b)."""
    domain = admissible_differences(plane, b)
    return [
        presentation_from_sigma(plane, b, s)
        for s in enumerate_sigma_cycles(plane.n_points, domain)
    ]


# ---------------------------------------------------------------------------
# Transformations


def _units(n: int) -> tuple[int, ...]:
    return tuple(r for r in range(1, n) if gcd(r, n) == 1)


@lru_cache(maxsize=None)
def _multiplier_subgroup(q: int, n: int) -> tuple[int, ...]:
    """Powers of the characteristic p mod n: the units with r*D = D."""
    p = prime_power(q).p
    out = [1]
    r = p % n
    while r != 1:
        out.append(r)
        r = (r * p) % n
    return tuple(out)


def _normalize_scale(q: int, n: int, scale: int) -> int:
    return min((scale * m) % n for m in _multiplier_subgroup(q, n))


def relabel(p: TrianglePresentation, r: int, s: int) -> TrianglePresentation:
    """Affine index change j -> r*j + s; the group is unchanged up to iso."""
    n = p.n
    if gcd(r, n) != 1:
        raise ValueError(f"r={r} is not a unit mod {n}")
    triples = frozenset(
        ((r * x + s) % n, (r * y + s) % n, (r * z + s) % n) for x, y, z in p.triples
    )
    a, b, r0 = p.corr.multiplier, p.corr.shift, p.corr.plane_scale
    corr = Correspondence(
        multiplier=a,
        shift=(r * b + s * (1 - a)) % n,
        plane_scale=_normalize_scale(p.q, n, (r * r0) % n),
    )
    return TrianglePresentation(q=p.q, n=n, corr=corr, triples=triples)


def invert_generators(p: TrianglePresentation) -> TrianglePresentation:
    """Pass to inverse generators, reversing every triple."""
    n = p.n
    triples = frozenset((z, y, x) for x, y, z in p.triples)
    a, b, r0 = p.corr.multiplier, p.corr.shift, p.corr.plane_scale
    a_inv = pow(a, -1, n)
    corr = Correspondence(
        multiplier=a_inv,
        shift=(-a_inv * b) % n,
        plane_scale=_normalize_scale(p.q, n, (-a_inv * r0) % n),
    )
    return TrianglePresentation(q=p.q, n=n, corr=corr, triples=triples)


def twist_multiplier(p: TrianglePresentation, power: int = 1) -> TrianglePresentation:
    """Twist a q-fixed presentation: triples (j,k,l) become (j, qk, q^2 l).

    power=2 applies the square twist (j, q^2 k, q l).  Three applications
    of the basic twist return the original presentation since q^3 = 1 mod N.
    """
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    if not is_multiplier_fixed(p):
        raise ValueError("presentation is not fixed by j -> q*j")
    n = p.n
    m = pow(p.q, power, n)
    m2 = (m * m) % n
    triples = frozenset((x, (m * y) % n, (m2 * z) % n) for x, y, z in p.triples)
    corr = Correspondence(
        multiplier=(p.corr.multiplier * m) % n,
        shift=(p.corr.shift * m) % n,
        plane_scale=p.corr.plane_scale,
    )
    return TrianglePresentation(q=p.q, n=n, corr=corr, triples=triples)


def twist_translation(
    p: TrianglePresentation,
) -> tuple[TrianglePresentation, TrianglePresentation]:
    """For q = 1 mod 3: shift middle/last coordinates by N/3 and 2N/3.

    Returns the two twisted presentations (B, C); both are cyclically
    invariant and axiom-valid, with the correspondence shift raised by N/3
    (resp. 2N/3).  Neither presents the same group as the input in general.
    """
    if p.q % 3 != 1:
        raise ValueError(f"translation twist needs q = 1 mod 3, got q={p.q}")
    if not is_singer_invariant(p):
        raise ValueError("translation twist needs a cyclically invariant presentation")
    n = p.n
    t = n // 3
    a, b, r0 = p.corr.multiplier, p.corr.shift, p.corr.plane_scale

    def shifted(k1: int, k2: int) -> TrianglePresentation:
        triples = frozenset(
            (x, (y + k1) % n, (z + k2) % n) for x, y, z in p.triples
        )
        return TrianglePresentation(
            q=p.q,
            n=n,
            corr=Correspondence(a, (b + k1) % n, r0),
            triples=triples,
        )

    return shifted(t, 2 * t), shifted(2 * t, t)


def classify_central_forms(p: TrianglePresentation) -> frozenset[str]:
    """Which of the three central triple forms occur (q = 1 mod 3 only).

    'a': all triples (j, j, j); 'b': all (j, j+N/3, j+2N/3);
    'c': all (j, j+2N/3, j+N/3).  Valid invariant presentations contain
    exactly two of the three families.
    """
    if p.q % 3 != 1:
        raise ValueError(f"central forms need q = 1 mod 3, got q={p.q}")
    if not is_singer_invariant(p):
        raise ValueError("central forms are defined for invariant presentations")
    n = p.n
    t = n // 3
    forms = set()
    if (0, 0, 0) in p.triples:
        forms.add("a")
    if (0, t, 2 * t) in p.triples:
        forms.add("b")
    if (0, 2 * t, t) in p.triples:
        forms.add("c")
    return frozenset(forms)


# ---------------------------------------------------------------------------
# Equivalence


def canonical_form(p: TrianglePresentation) -> tuple[Triple, ...]:
    """Lex-least sorted triple list over all affine relabelings j -> r*j + s.

    Defined for cyclically invariant presentations only; any other input
    raises ValueError.  Translations fix an invariant triple set, so only
    the scalings j -> r*j by units r need to be scanned, and each scaled
    copy is invariant again.  An invariant set is determined by its x=0
    block {(0, y, z)}, which also heads its sorted triple list; all scaled
    copies have blocks of the same size, so two of them compare the way
    their sorted x=0 blocks do.  The scan therefore sorts q+1 pairs per
    unit and builds the full sorted list once, for the winning unit.

    Generator inversion is deliberately *not* part of the reduction group:
    an invariant presentation and its inverse define distinct catalog
    entries even though their groups are isomorphic.
    """
    if not is_singer_invariant(p):
        raise ValueError("canonical form is defined for cyclically invariant presentations")
    n = p.n
    block = [(y, z) for x, y, z in p.triples if x == 0]
    r = min(_units(n), key=lambda r: sorted(((r * y) % n, (r * z) % n) for y, z in block))
    return tuple(sorted(((r * x) % n, (r * y) % n, (r * z) % n) for x, y, z in p.triples))


def _orbit_key(q: int, n: int, b: int, sigma: SigmaCycle):
    """Class key of an invariant presentation under affine relabelings.

    Only units with r*D = D (the powers of the characteristic) can map one
    presentation over D-translate difference data to another, so the orbit
    is scanned over that subgroup.
    """
    best = None
    for r in _multiplier_subgroup(q, n):
        cand = ((r * b) % n, sigma.scaled(r).images)
        if best is None or cand < best:
            best = cand
    return best


@dataclass(frozen=True)
class InvariantClass:
    index: int
    members: tuple[tuple[int, SigmaCycle], ...]
    representative: TrianglePresentation
    canonical_key: tuple[Triple, ...]
    inverse_index: int
    """Index of the class presenting the generator-inverse group."""


def enumerate_all_invariant(plane: SingerPlane) -> list[InvariantClass]:
    """All invariant presentations over every shift b, up to affine relabeling."""
    n, q = plane.n_points, plane.q
    groups: dict = {}
    for b in range(n):
        for sigma in enumerate_sigma_cycles(n, admissible_differences(plane, b)):
            groups.setdefault(_orbit_key(q, n, b, sigma), []).append((b, sigma))

    index_of = {key: i for i, key in enumerate(groups)}
    classes = []
    for i, key in enumerate(groups):
        members = tuple(groups[key])
        b0, sigma0 = members[0]
        rep = presentation_from_sigma(plane, b0, sigma0)
        inv_key = _orbit_key(q, n, b0, sigma0.inverse())
        classes.append(
            InvariantClass(
                index=i,
                members=members,
                representative=rep,
                canonical_key=canonical_form(rep),
                inverse_index=index_of[inv_key],
            )
        )
    return classes


# ---------------------------------------------------------------------------
# Group presentations


def group_presentation(p: TrianglePresentation) -> GroupPresentation:
    """One length-3 positive relator per rotation class of T."""
    relators = tuple(
        (x + 1, y + 1, z + 1) for x, y, z in p.rotation_classes()
    )
    return GroupPresentation(num_generators=p.n, relators=relators)


def extended_presentation(p: TrianglePresentation, phi) -> GroupPresentation:
    """The degree-3 extension <x_j, t | T, t^3, t x_j t^-1 = x_phi(j)>."""
    n = p.n
    phi = tuple(int(v) for v in phi)
    if sorted(phi) != list(range(n)):
        raise ValueError("phi is not a permutation of the generator indices")
    ident = tuple(range(n))
    phi2 = tuple(phi[phi[j]] for j in range(n))
    phi3 = tuple(phi[v] for v in phi2)
    if phi == ident or phi3 != ident:
        raise ValueError("phi does not have order 3")
    stable = all(
        (phi[x], phi[y], phi[z]) in p.triples for x, y, z in p.triples
    )
    if not stable:
        raise ValueError("phi does not stabilize the triple set")
    base = group_presentation(p)
    t = n + 1
    relators = list(base.relators)
    relators.append((t, t, t))
    for j in range(n):
        relators.append((t, j + 1, -t, -(phi[j] + 1)))
    return GroupPresentation(num_generators=n + 1, relators=tuple(relators))


# ---------------------------------------------------------------------------
# Text serialization (one triple per rotation class, `#` comments)


class PresentationFormatError(ValueError):
    pass


def read_int(text: str) -> int:
    """An optional sign and ASCII digits; int() alone also reads '٦' or '0_6' as 6."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def presentation_to_text(p: TrianglePresentation, note: str = "") -> str:
    lines = []
    if note:
        lines.append(f"# {note}")
    lines.append(f"q={p.q}")
    lines.append(f"N={p.n}")
    lines.append(f"a={p.corr.multiplier}")
    lines.append(f"b={p.corr.shift}")
    if p.corr.plane_scale != 1:
        lines.append(f"scale={p.corr.plane_scale}")
    for x, y, z in p.rotation_classes():
        lines.append(f"{x} {y} {z}")
    return "\n".join(lines) + "\n"


def presentation_from_text(text: str) -> TrianglePresentation:
    header = {}
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in ("q", "N", "a", "b", "scale"):
                raise PresentationFormatError(f"line {ln}: unknown header {key!r}")
            if key in header:
                raise PresentationFormatError(f"line {ln}: repeated header {key!r}")
            try:
                header[key] = read_int(val)
            except ValueError:
                raise PresentationFormatError(f"line {ln}: bad integer {val!r}") from None
            continue
        parts = line.split()
        if len(parts) != 3:
            raise PresentationFormatError(f"line {ln}: expected 'x y z', got {line!r}")
        try:
            x, y, z = (read_int(v) for v in parts)
        except ValueError:
            raise PresentationFormatError(f"line {ln}: bad triple {line!r}") from None
        rows.append((ln, (x, y, z)))
    for key in ("q", "N", "a", "b"):
        if key not in header:
            raise PresentationFormatError(f"missing header line {key}=...")
    q, n = header["q"], header["N"]
    if n != q * q + q + 1:
        raise PresentationFormatError(
            f"header N={n} does not match q={q}: expected N = q^2+q+1 = {q * q + q + 1}"
        )
    for key in ("a", "b"):
        if not 0 <= header[key] < n:
            raise PresentationFormatError(f"header {key}={header[key]} is not in 0..{n - 1}")
    scale = header.get("scale", 1)
    if not 1 <= scale < n:
        raise PresentationFormatError(f"header scale={scale} is not in 1..{n - 1}")
    if gcd(scale, n) != 1:
        raise PresentationFormatError(f"header scale={scale} is not coprime to N={n}")
    triples = set()
    for ln, (x, y, z) in rows:
        if not all(0 <= v < n for v in (x, y, z)):
            raise PresentationFormatError(f"line {ln}: triple entry not in 0..{n - 1}: {x} {y} {z}")
        triples.update({(x, y, z), (y, z, x), (z, x, y)})
    return TrianglePresentation(
        q=q,
        n=n,
        corr=Correspondence(header["a"], header["b"], scale),
        triples=frozenset(triples),
    )
