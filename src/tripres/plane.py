"""The Singer model of PG(2,q).

Points are Z_N with N = q^2 + q + 1, via the identification of the
projective points with GF(q^3)^x / GF(q)^x and a fixed primitive generator.
The exponents whose powers have trace zero form a perfect difference set D,
and the N lines are its translates D + k, so the cyclic shift j -> j + 1
acts the same way on points and on lines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .gf import build_field


@dataclass(frozen=True)
class SingerPlane:
    q: int
    n_points: int
    difference_set: tuple[int, ...]

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.difference_set)

    def incident(self, point: int, line: int) -> bool:
        """point lies on line_k = D + k iff point - k falls in D."""
        return (point - line) % self.n_points in self._members

    def line_points(self, line: int) -> tuple[int, ...]:
        n = self.n_points
        return tuple(sorted((d + line) % n for d in self.difference_set))

    def __repr__(self) -> str:
        return f"SingerPlane(q={self.q}, N={self.n_points}, D={list(self.difference_set)})"


@dataclass(frozen=True)
class DifferenceSetReport:
    ok: bool
    size_ok: bool
    perfect_ok: bool
    multiplier_ok: bool
    difference_counts: tuple[tuple[int, int], ...]
    """(residue, multiplicity) for every residue not represented exactly once."""


@lru_cache(maxsize=None)
def build_plane(q: int) -> SingerPlane:
    """Points Z_N and the trace-zero difference set for a supported q.

    Tr(c*a) = c*Tr(a) for c in GF(q), so vanishing of the trace depends only
    on the point g^j GF(q)^x and the set of exponents is well defined mod N.
    """
    field = build_field(q)
    n = q * q + q + 1
    zero = field.zero
    dset = tuple(j for j in range(n) if field.from_log(j).trace() == zero)
    return SingerPlane(q=q, n_points=n, difference_set=dset)


def check_difference_set(plane: SingerPlane) -> DifferenceSetReport:
    """Confirm |D| = q+1, the perfect difference property, and qD = D."""
    n = plane.n_points
    dset = plane.difference_set
    size_ok = len(dset) == plane.q + 1

    counts = Counter(
        (a - b) % n for a in dset for b in dset if a != b
    )
    bad = tuple(
        (r, counts.get(r, 0)) for r in range(1, n) if counts.get(r, 0) != 1
    )
    perfect_ok = not bad

    multiplier_ok = {(plane.q * d) % n for d in dset} == set(dset)

    return DifferenceSetReport(
        ok=size_ok and perfect_ok and multiplier_ok,
        size_ok=size_ok,
        perfect_ok=perfect_ok,
        multiplier_ok=multiplier_ok,
        difference_counts=bad,
    )
