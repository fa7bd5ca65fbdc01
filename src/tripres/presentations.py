"""Triangle presentations on a Singer plane.

A triangle presentation is a set T of ordered point triples with

  (A) rotation closure:  (x,y,z) in T  =>  (y,z,x) in T;
  (B) existence:  a pair (x,y) extends to a triple iff y lies on the line
      lambda(x) attached to x by a point-line bijection lambda;
  (C) uniqueness:  the extension z of (x,y) is unique;

so |T| = N(q+1), one triple per incident pair.  The attached group is
Gamma = <x_0..x_{N-1} | x_a x_b x_c = 1 for (a,b,c) in T>.

T fixes lambda: lambda(x) is the out-set {y : (x,y,z) in T}, so nothing
else is stored.  When lambda is affine in the Singer labeling,
lambda(x) = scale*D + a*x + b, `correspondence` derives (a, b, scale) and
the `.tp` header records it; the scale moves off 1 only when a presentation
is relabeled by a unit that is not a multiplier of D.

Cyclically invariant presentations (invariant under j -> j+1 on all three
coordinates) reduce to difference data: with lambda(x) = D + b + x the
admissible first differences form Dt = D + b, axiom (C) makes the second
difference a function s of the first, and rotation closure forces
s^3 = id with u + s(u) + s^2(u) = 0 (mod N).  Enumeration searches over
these "difference cycles"; a raw brute force over all invariant triple
sets (used in the tests) confirms the reduction at q = 2.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd

from .gf import SUPPORTED_Q, prime_power
from .plane import SingerPlane, build_plane

Triple = tuple[int, int, int]


# ---------------------------------------------------------------------------
# Data types


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
    triples: frozenset[Triple]

    def rotation_classes(self) -> tuple[Triple, ...]:
        """Lex-least representative of each rotation class, sorted.

        The rotation that starts at a strict minimum is the lex-least one;
        only a triple with a repeated least coordinate needs `min`.
        """
        reps = set()
        for t in self.triples:
            x, y, z = t
            if x < y and x < z:
                reps.add(t)
            elif y < z and y < x:
                reps.add((y, z, x))
            elif z < x and z < y:
                reps.add((z, x, y))
            else:
                reps.add(min(t, (y, z, x), (z, x, y)))
        return tuple(sorted(reps))

    def __repr__(self) -> str:
        return f"TrianglePresentation(q={self.q}, N={self.n}, |T|={len(self.triples)})"


@dataclass(frozen=True)
class GroupPresentation:
    """Relators are words over signed 1-based generator indices."""

    num_generators: int
    relators: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Axioms


def check_axioms(p: TrianglePresentation) -> list[str]:
    """Empty list iff the axioms hold for the plane whose lines are the out-sets.

    (B) asks that each out-set have q+1 points and that no two points lie in
    two out-sets; with |T| = N(q+1) the out-sets then cover each pair of
    points once, so they are the lines of a projective plane.
    """
    n, q = p.n, p.q
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

    lines: dict[int, list[int]] = {}
    for x, y in ext:
        lines.setdefault(x, []).append(y)
    wrong = [x for x in range(n) if len(lines.get(x, ())) != q + 1]
    if wrong:
        viol.append(f"existence: {len(wrong)} out-sets do not have {q + 1} points, e.g. lambda({wrong[0]})")
    pairs = [y * n + w for ys in lines.values() for y, w in combinations(sorted(ys), 2)]
    if len(set(pairs)) != len(pairs):
        viol.append(f"existence: {len(pairs) - len(set(pairs))} repeats of a point pair in the out-sets")

    if len(p.triples) != n * (q + 1):
        viol.append(f"cardinality: |T| = {len(p.triples)}, expected {n * (q + 1)}")
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
    """All order-3 permutations of `domain` with u + s(u) + s^2(u) = 0 mod n, by `images`.

    The search fixes the image of the least unassigned u first, trying u
    itself and then each later v in ascending order, so the cycles come out
    in ascending `images` order with no sort.  Class indices depend on it.
    """
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
    return out


def presentation_from_sigma(
    plane: SingerPlane, b: int, sigma: SigmaCycle
) -> TrianglePresentation:
    """The invariant presentation of `sigma`, a cycle on the differences D + b."""
    n = plane.n_points
    table = sigma.as_dict()
    triples = frozenset(
        (i, (i + u) % n, (i + u + table[u]) % n)
        for i in range(n)
        for u in sigma.domain
    )
    return TrianglePresentation(q=plane.q, n=n, triples=triples)


def enumerate_invariant(plane: SingerPlane, b: int) -> list[TrianglePresentation]:
    """All cyclically invariant presentations with lambda(x) = D + b + x."""
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
    return TrianglePresentation(q=p.q, n=n, triples=triples)


def invert_generators(p: TrianglePresentation) -> TrianglePresentation:
    """Pass to inverse generators, reversing every triple."""
    triples = frozenset((z, y, x) for x, y, z in p.triples)
    return TrianglePresentation(q=p.q, n=p.n, triples=triples)


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
    return TrianglePresentation(q=p.q, n=n, triples=triples)


def twist_translation(
    p: TrianglePresentation,
) -> tuple[TrianglePresentation, TrianglePresentation]:
    """For q = 1 mod 3: shift middle/last coordinates by N/3 and 2N/3.

    Returns the two twisted presentations (B, C); both are cyclically
    invariant and axiom-valid, with lambda shifted by N/3 (resp. 2N/3).
    Neither presents the same group as the input in general.
    """
    if p.q % 3 != 1:
        raise ValueError(f"translation twist needs q = 1 mod 3, got q={p.q}")
    if not is_singer_invariant(p):
        raise ValueError("translation twist needs a cyclically invariant presentation")
    n = p.n
    t = n // 3

    def shifted(k1: int, k2: int) -> TrianglePresentation:
        triples = frozenset(
            (x, (y + k1) % n, (z + k2) % n) for x, y, z in p.triples
        )
        return TrianglePresentation(q=p.q, n=n, triples=triples)

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


def _least_block(n: int, block) -> list[tuple[int, int]]:
    """The least of the sorted scaled blocks sorted((r*y, r*z) mod n), r a unit.

    Each sorted list starts with its least pair, so the winner starts with
    the least pair over all units and all pairs, and only the units that
    reach that pair can win.  A pair (0, 0) leads every list and decides
    nothing.  For a pair with y != 0, r*y mod n is a nonzero multiple of
    g = gcd(y, n), and it equals g exactly for the units
    r = (y/g)^-1 mod n/g; a pair (0, z) with z != 0 leads with (0, gcd(z, n))
    for the units r = (z/g)^-1 mod n/g.  A unit that brings no pair to the
    least lead heads a larger list, so only the units that do have their
    blocks sorted.  With no such unit every scaling gives the same list.
    """
    lead = None
    units: list[int] = []
    for y, z in block:
        a = y or z
        if not a:
            continue
        g = gcd(a, n)
        m = n // g
        for r in range(pow(a // g, -1, m), n, m):
            if gcd(r, n) == 1:
                pair = ((r * y) % n, (r * z) % n)
                if lead is None or pair < lead:
                    lead, units = pair, [r]
                elif pair == lead:
                    units.append(r)
    return min(
        (sorted(((r * y) % n, (r * z) % n) for y, z in block) for r in units),
        default=sorted(block),
    )


def _x_blocks(n: int, best):
    """(x, the x-block of the invariant set whose x=0 block is `best`), x = 0..n-1.

    `best` is sorted; shifted by x, its y order is its own, rotated to
    start at the first y that wraps past N.
    """
    ys = [y for y, _ in best]
    for x in range(n):
        k = bisect_left(ys, n - x)
        yield x, best[k:] + best[:k]


def canonical_form(p: TrianglePresentation) -> tuple[Triple, ...]:
    """Lex-least sorted triple list over all affine relabelings j -> r*j + s.

    Defined for cyclically invariant presentations only; any other input
    raises ValueError.  Translations fix an invariant triple set, so only
    the scalings j -> r*j by units r matter, and an invariant set is
    determined by its x=0 block {(0, y, z)}.  Each scaled copy heads its
    sorted triple list with its own sorted x=0 block r*block, and all blocks
    have the same size, so the copies compare the way those blocks do:
    `_least_block` finds the least one from the units that reach its least
    pair, since no other unit can head a smaller list, and the form is
    that block shifted by each x.  The catalog groups, pairs and names its
    classes by the same least block (see `enumerate_all_invariant`), so the
    library never calls this; the tests keep it as the oracle for all three.

    Generator inversion is deliberately *not* part of the reduction group:
    an invariant presentation and its inverse define distinct catalog
    entries even though their groups are isomorphic.
    """
    if not is_singer_invariant(p):
        raise ValueError("canonical form is defined for cyclically invariant presentations")
    n = p.n
    best = _least_block(n, [(y, z) for x, y, z in p.triples if x == 0])
    return tuple(
        (x, (y + x) % n, (z + x) % n) for x, rows in _x_blocks(n, best) for y, z in rows
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def key_digest(form) -> str:
    """Short stable digest of a canonical triple list, used in label files.

    It hashes the triples as `x,y,z` joined by `;`.  The catalog builds
    the same text from a class's least block (`_block_digest`); the tests
    check the two against each other.
    """
    return _digest(";".join(map("%d,%d,%d".__mod__, form)))


# decimal text of the residues 0..N-1 of every supported q
_DECIMALS = tuple(map(str, range(max(q * q + q + 1 for q in SUPPORTED_Q))))


def _block_digest(n: int, best) -> str:
    """`key_digest(canonical_form(p))` for the invariant set p with least x=0 block `best`.

    `best` is `_least_block` of p's x=0 block, so the text is built from
    it without triple tuples: a doubled decimal table gives the text of
    y + x mod n for y + x < 2n.
    """
    dec = _DECIMALS[:n] * 2
    parts = []
    for x, rows in _x_blocks(n, best):
        px = dec[x]
        parts.append(";".join([f"{px},{dec[y + x]},{dec[z + x]}" for y, z in rows]))
    return _digest(";".join(parts))


@dataclass(frozen=True)
class InvariantClass:
    """One class of invariant presentations under affine relabeling.

    The class is held as its difference data: `members` lists every
    (b, sigma) in it, all with the same least x=0 block, and `key_digest`
    and `inverse_index` are read from that block without building a triple
    set.  `representative`, the presentation of the first member, is built
    on first use.
    """

    q: int
    index: int
    members: tuple[tuple[int, SigmaCycle], ...]
    key_digest: str
    """`key_digest` of the representative's canonical form."""
    inverse_index: int
    """Index of the class presenting the generator-inverse group."""

    @cached_property
    def representative(self) -> TrianglePresentation:
        return presentation_from_sigma(build_plane(self.q), *self.members[0])


def enumerate_all_invariant(plane: SingerPlane) -> list[InvariantClass]:
    """All invariant presentations over every shift b, up to affine relabeling.

    The x=0 block of `presentation_from_sigma(plane, b, sigma)` is
    {(u, u + sigma(u)) : u in D + b}.  Translations fix an invariant set,
    so two members are affinely equivalent exactly when their blocks have
    the same least scaling, and `_least_block` of the block is the class
    key.  The same key pairs and names each class: reversing every triple
    turns (0, y, z) into (z, y, 0), the translate of (0, y - z, -z), so the
    generator-inverse class is the one keyed by the least scaling of those
    pairs, and `_block_digest` hashes the text of the canonical form
    straight from the key.  No triple set is built here.
    """
    n, q = plane.n_points, plane.q
    groups: dict = {}
    for b in range(n):
        for sigma in enumerate_sigma_cycles(n, admissible_differences(plane, b)):
            block = [(u, (u + v) % n) for u, v in zip(sigma.domain, sigma.images)]
            groups.setdefault(tuple(_least_block(n, block)), []).append((b, sigma))

    index_of = {key: i for i, key in enumerate(groups)}
    return [
        InvariantClass(
            q=q,
            index=i,
            members=tuple(members),
            key_digest=_block_digest(n, key),
            inverse_index=index_of[tuple(_least_block(n, [((y - z) % n, -z % n) for y, z in key]))],
        )
        for i, (key, members) in enumerate(groups.items())
    ]


# ---------------------------------------------------------------------------
# Group presentations


def group_presentation(p: TrianglePresentation) -> GroupPresentation:
    """One length-3 positive relator per rotation class of T."""
    relators = tuple([(x + 1, y + 1, z + 1) for x, y, z in p.rotation_classes()])
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


def read_utf8(path) -> str:
    """The input file at `path`, decoded as UTF-8 whatever the locale says.

    One leading byte order mark is dropped after decoding, so that byte
    offsets in the not-UTF-8 message count from the start of the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None
    return text.removeprefix("\ufeff")


def correspondence(p: TrianglePresentation) -> tuple[int, int, int] | None:
    """(a, b, scale) with lambda(x) = scale*D + a*x + b for all x, or None if T has none.

    One search over the out-sets: (scale, b) is the unit and shift that
    carry D onto lambda(0), taking min(lambda(0)) to some scale*d + b, and
    a is the shift that carries lambda(0) onto lambda(1), taking some y to
    min(lambda(1)).  Only the powers of p map D onto a translate of itself
    and no line is a translate of itself, so with the scale normalized as
    `_normalize_scale` does, the map found is the only one.
    """
    q, n = p.q, p.n
    lines: defaultdict[int, set[int]] = defaultdict(set)
    for x, y, _ in p.triples:
        lines[x].add(y)
    line0, line1 = lines.get(0), lines.get(1)
    if len(lines) != n or not line0 or not line1:
        return None
    dset = build_plane(q).difference_set
    y0, y1 = min(line0), min(line1)
    found = next(
        (
            (b, scale)
            for scale in _units(n)
            if scale == _normalize_scale(q, n, scale)
            for b in {(y0 - scale * d) % n for d in dset}
            if {(scale * d + b) % n for d in dset} == line0
        ),
        None,
    )
    if found is None:
        return None
    for a in {(y1 - y) % n for y in line0}:
        if all(lines.get(x) == {(y + a * x) % n for y in line0} for x in range(1, n)):
            return (a, *found)
    return None


def presentation_to_text(p: TrianglePresentation, note: str = "") -> str:
    """The `.tp` text: header lines, then one `x y z` line per rotation class.

    The header's point-line map is `correspondence(p)`; a presentation
    without an affine map raises ValueError.  Each line of `note` becomes
    a `#` comment line, so the reader skips all of it.
    """
    derived = correspondence(p)
    if derived is None:
        raise ValueError("no affine point-line map to write: the header needs scale*D + a*x + b")
    a, b, scale = derived
    lines = [f"# {line}" for line in note.splitlines()]
    lines.append(f"q={p.q}")
    lines.append(f"N={p.n}")
    lines.append(f"a={a}")
    lines.append(f"b={b}")
    if scale != 1:
        lines.append(f"scale={scale}")
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
    if q not in SUPPORTED_Q:
        raise PresentationFormatError(f"header q={q} is not one of {SUPPORTED_Q}")
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
    p = TrianglePresentation(q=q, n=n, triples=frozenset(triples))
    violations = check_axioms(p)
    if violations:
        raise PresentationFormatError("not a triangle presentation: " + "; ".join(violations))
    derived = correspondence(p)
    if derived != (header["a"], header["b"], _normalize_scale(q, n, scale)):
        found = "a={} b={} scale={}".format(*derived) if derived else "no affine map"
        given = f"a={header['a']} b={header['b']} scale={scale}"
        raise PresentationFormatError(f"header {given} does not match the triples' point-line map: {found}")
    return p
