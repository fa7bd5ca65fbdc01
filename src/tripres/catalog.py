"""Per-q catalog: invariant classes with their twist abelianizations.

This is the computed side of the table verification: for every equivalence
class of invariant presentations, the abelianization of a representative
and of its two multiplier twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianGroup, abelianization
from .plane import build_plane
from .presentations import enumerate_all_invariant, group_presentation, twist_multiplier


@dataclass(frozen=True)
class TwistOrbit:
    q: int
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
        rep = cls.representative
        base = abelianization(group_presentation(rep))
        g1 = abelianization(group_presentation(twist_multiplier(rep, 1)))
        g2 = abelianization(group_presentation(twist_multiplier(rep, 2)))
        orbits.append(
            TwistOrbit(
                q=q,
                index=cls.index,
                base=base,
                twist_q=g1,
                twist_q2=g2,
                inverse_index=cls.inverse_index,
                key_digest=cls.key_digest,
            )
        )
    return tuple(orbits)

