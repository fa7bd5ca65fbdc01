"""Per-q catalog: invariant classes with their twist abelianizations.

This is the computed side of the table verification: for every equivalence
class of invariant presentations, the abelianization of a representative
and of its two multiplier twists.

Only one class of each generator-inverse pair is abelianized; the partner's
three groups are read off it, with the two twists exchanged.  Write R for
the representative, iota for generator inversion (x, y, z) -> (z, y, x) and
t1, t2 for the multiplier twists.  Then:

- Gamma(iota T) is isomorphic to Gamma(T) through a_x -> a_x^-1;
- iota(t2(R)) = {(qz, q^2 y, x)}, which relabeled by j -> q^2 j is
  {(z, qy, q^2 x)} = t1(iota R);
- the inverse class's representative is r * iota R for a unit r, since
  invariant sets are fixed by translations, and scalings commute with
  both twists;
- iota R is multiplier-fixed because R is, so t1 and t2 of it are defined.

So the partner's base is the class's base, its q twist is the class's q^2
twist and its q^2 twist the class's q twist.  A self-inverse class, or one
whose partner comes later, is computed from its own representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianGroup, abelianization
from .plane import build_plane
from .presentations import enumerate_all_invariant, group_presentation, twist_multiplier


@dataclass(frozen=True)
class TwistOrbit:
    index: int
    base: AbelianGroup
    twist_q: AbelianGroup
    twist_q2: AbelianGroup
    inverse_index: int
    key_digest: str

    def signature(self) -> tuple:
        return tuple(sorted((self.base, self.twist_q, self.twist_q2)))


@lru_cache(maxsize=None)
def invariant_catalog(q: int) -> tuple[TwistOrbit, ...]:
    plane = build_plane(q)
    orbits = []
    for cls in enumerate_all_invariant(plane):
        if cls.inverse_index < cls.index:
            partner = orbits[cls.inverse_index]
            base, g1, g2 = partner.base, partner.twist_q2, partner.twist_q
        else:
            rep = cls.representative
            base = abelianization(group_presentation(rep))
            g1 = abelianization(group_presentation(twist_multiplier(rep, 1)))
            g2 = abelianization(group_presentation(twist_multiplier(rep, 2)))
        orbits.append(
            TwistOrbit(
                index=cls.index,
                base=base,
                twist_q=g1,
                twist_q2=g2,
                inverse_index=cls.inverse_index,
                key_digest=cls.key_digest,
            )
        )
    return tuple(orbits)
