"""Exact Smith normal form and abelianizations.

The abelianization of <x_0..x_{N-1} | x_a x_b x_c> is the cokernel of the
exponent-sum matrix, computed exactly over the integers.  `snf` returns
the full U*M*V = D factorization; `abelianization` first solves each
generator once, on a +-1 coefficient, in terms of a few seed generators,
keeps only the leftover relators that enlarge the lattice spanned by the
rows kept so far (tested in the coordinates of the quotient by that
lattice, which each kept row updates with one small `snf`), and takes the
invariant factors of those few rows, the diagonal of their `snf`.
"""

from tripres.abelian import AbelianGroup, abelianization, relation_matrix, snf
from tripres.plane import build_plane
from tripres.presentations import enumerate_all_invariant, group_presentation

m = [[2, 4], [6, 8]]
res = snf(m)
print("snf([[2,4],[6,8]]): divisors", res.divisors)
print("  U =", res.u)
print("  V =", res.v)
print("  D =", res.d)

p = enumerate_all_invariant(build_plane(2))[0].representative
gp = group_presentation(p)
print("\nq=2 presentation:", gp.num_generators, "generators,", len(gp.relators), "relators")
mat = relation_matrix(gp)
print("relation matrix rows (generators x relators):")
for row in mat:
    print(" ", row)
g = abelianization(gp)
print("abelianization:", g, " order:", g.order())

print("\ngamma_ab across q (one class representative each):")
for q in (2, 3, 4, 5, 7, 8, 9, 11):
    cls = enumerate_all_invariant(build_plane(q))[0]
    print(f"  q={q:>2}: {abelianization(group_presentation(cls.representative))}")

print("\nbracket notation normalizes composite factors:")
print("  Z_2 + Z_8 + Z_3 has divisor chain", AbelianGroup.from_primary([2, 8, 3]).divisors)
