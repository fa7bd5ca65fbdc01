"""Exact integer linear algebra and abelianization of group presentations.

Smith normal form is computed over Python ints (intermediate entries can
exceed machine range even for small inputs) by one elimination core with a
deterministic pivot rule: the nonzero entry of minimal absolute value, ties
broken by smallest row then column.  Its one reduction rule is division
with remainder: the pivot p is made positive, and every entry below and
right of it is reduced by the nearest-integer quotient, leaving |r| <= p/2.
A nonzero remainder is a smaller entry, so the pivot search runs again at
the same step; the trailing block's minimum strictly falls, and the loop
ends.  Once the pivot's row and column are clear, a later row holding an
entry the pivot does not divide is added to the pivot row and reduced
again, which lowers the pivot to a gcd (Cohen, A Course in Computational
Algebraic Number Theory, 2.4), so the diagonal is a nonnegative divisor
chain as it is built.  `snf` runs the core on the matrix augmented by
identity blocks, [M | I] over [I | 0], so the same row and column moves
build the unimodular U and V with U*M*V = D; `invariant_factors` is the
diagonal of that D.

`AbelianGroup` holds its torsion as that divisor chain, which is unique,
so groups compare and sort by (rank, divisors); `from_primary` builds the
chain over a coprime base of the orders, with gcd alone, and prime powers
are found only to print a group.

`abelianization` solves generators on +-1 coefficients by lazy Tietze
substitution: each generator is written once in terms of a few free seed
generators (unit-pivot elimination after Havas-Holt-Rees, "Recognizing
badly presented Z-modules", 1993); when no relator is ready, the first
unsolved generator of the first relator with two unsolved ones becomes a
seed.  Of the remaining relators it keeps only those that enlarge the
lattice spanned by the rows kept so far, tested in coordinates of the
quotient by that lattice, a sum of cyclic groups: a generator's image in
a coordinate is computed once per coordinate, on first use, so a test is
one short integer sum per coordinate, stopped at the first nonzero
residue.  Each kept row updates the coordinates with the `snf` of a
matrix only as wide as the live coordinates.  The few kept rows, a few
seed columns wide, go to `invariant_factors`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .gf import factorize


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SNFResult:
    """U * M * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        out = []
        for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)):
            if self.d[i][i]:
                out.append(self.d[i][i])
        return tuple(out)


def _find_pivot(a: list[list[int]], t: int, m: int, n: int):
    """Minimal |entry| in the trailing submatrix; ties by row, then column.

    Scanning row-major and stopping at the first 1 gives exactly the
    tie-rule winner when the minimum is 1.
    """
    best = None
    best_val = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            val = row[j]
            if val:
                av = abs(val)
                if best_val is None or av < best_val:
                    best, best_val = (i, j), av
                    if av == 1:
                        return best
    return best


def snf(matrix) -> SNFResult:
    """Smith normal form with unimodular transforms, deterministic."""
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    # [M | I_m] over [I_n | 0]: row moves act on whole rows and column moves
    # on every row, so U builds up to the right of M and V below it
    a = [row + [int(i == k) for k in range(m)] for i, row in enumerate(a)]
    a += [[int(i == k) for k in range(n)] + [0] * m for i in range(n)]
    t = 0
    while (piv := _find_pivot(a, t, m, n)) is not None:
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        p = a[t][t]
        # nearest-integer quotients leave remainders with |r| <= p/2 < p
        for i in range(t + 1, m):
            if qt := (a[i][t] + p // 2) // p:
                a[i] = [x - qt * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if qt := (a[t][j] + p // 2) // p:
                for row in a:
                    row[j] -= qt * row[t]
        # a nonzero remainder is a smaller pivot; search again at this t
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1:n]):
            continue
        # divisor chain: add a row holding an entry the pivot does not
        # divide; reducing it again lowers the pivot to a gcd
        i = next((i for i in range(t + 1, m) if any(x % p for x in a[i][t + 1:n])), None)
        if i is None:
            t += 1
        else:
            a[t] = [x + y for x, y in zip(a[t], a[i])]
    return SNFResult(
        u=tuple(tuple(row[n:]) for row in a[:m]),
        d=tuple(tuple(row[:n]) for row in a[:m]),
        v=tuple(tuple(row[:n]) for row in a[m:]),
    )


def invariant_factors(matrix) -> tuple[int, ...]:
    """Nonzero SNF diagonal entries."""
    return snf(matrix).divisors


def determinant(matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


@dataclass(frozen=True, order=True)
class AbelianGroup:
    """Z^rank plus a torsion divisor chain d1 | d2 | ..., each di >= 2.

    The chain is unique, so groups compare and sort by (rank, divisors):
    e.g. Z_2 + Z_24 and Z_2 + Z_8 + Z_3 are the same group, (0, (2, 24)).
    """

    rank: int
    divisors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("negative free rank")
        for d in self.divisors:
            if d < 2:
                raise ValueError(f"divisor {d} < 2; drop trivial factors first")
        for a, b in zip(self.divisors, self.divisors[1:]):
            if b % a:
                raise ValueError(f"divisor chain violated: {a} does not divide {b}")

    @classmethod
    def from_invariant_factors(cls, factors, rank: int = 0) -> "AbelianGroup":
        return cls(rank=rank, divisors=tuple(d for d in factors if d > 1))

    @classmethod
    def from_primary(cls, orders) -> "AbelianGroup":
        """Build the divisor chain of a sum of cyclic groups Z/n, each n >= 2.

        No order is factorized: the orders are refined to a coprime base
        (Bach-Driscoll-Shallit, "Factor refinement", 1993), pairwise coprime
        b > 1 of which each order is a product of powers.  A number a that
        shares a factor with a base element b is split by g = gcd(a, b), and
        so is b when g < b; b is gcd(a, base product) itself when a is a
        multiple of it, else found by a scan.  By CRT Z/n is the sum of the
        Z/b^e over n's exponents e, so the k-th chain term, largest first,
        takes the k-th largest exponent at each b.
        """
        counts = Counter(orders)
        base: dict[int, None] = {}  # an insertion-ordered set
        split: dict[int, tuple[int, int]] = {}  # x = g * h, for each x split
        product = 1
        todo = sorted(counts, reverse=True)
        if todo and todo[-1] < 2:
            raise ValueError(f"cyclic order {todo[-1]} < 2")
        while todo:
            a = todo.pop()
            if (g := gcd(a, product)) == 1:
                base[a] = None
                product *= a
                continue
            b = g if g in base else next(b for b in base if gcd(a, b) > 1)
            g = gcd(a, b)
            if g < b:
                del base[b]
                product //= b
                split[b] = (g, b // g)
                todo += [g, b // g]
            if g < a:
                split[a] = (g, a // g)
                todo.append(a // g)

        exps: dict[int, list[int]] = {}
        for n, c in counts.items():
            # walk n's split tree down to its base leaves, without recursion:
            # n = 2**k above a base element 2 is split k - 1 times
            leaves: Counter = Counter()
            stack = [n]
            while stack:
                x = stack.pop()
                if x in base:
                    leaves[x] += 1
                else:
                    stack += split[x]
            for b, e in leaves.items():
                exps.setdefault(b, []).extend([e] * c)
        top: list[int] = []  # the chain, largest first
        for b, es in exps.items():
            es.sort(reverse=True)
            top += [1] * (len(es) - len(top))
            for k, e in enumerate(es):
                top[k] *= b**e
        return cls.from_invariant_factors(reversed(top))

    @cached_property
    def primary_factors(self) -> tuple[int, ...]:
        """Prime powers sorted by (prime, exponent), as a group is printed."""
        parts = []
        for d in self.divisors:
            for p, e in factorize(d).items():
                parts.append((p, e))
        parts.sort()
        return tuple(p ** e for p, e in parts)

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.divisors

    def order(self) -> int:
        if self.rank:
            raise ValueError("infinite group")
        n = 1
        for d in self.divisors:
            n *= d
        return n

    def __str__(self) -> str:
        """Bracket notation on the torsion part, e.g. ``[(3)2,3]``."""
        items = []
        factors = self.primary_factors
        i = 0
        while i < len(factors):
            j = i
            while j < len(factors) and factors[j] == factors[i]:
                j += 1
            count = j - i
            items.append(f"({count}){factors[i]}" if count > 1 else str(factors[i]))
            i = j
        return "[" + ",".join(items) + "]"


def away_from(g: AbelianGroup, p: int) -> AbelianGroup:
    """Remove the p-power factors (free part dropped)."""
    out = []
    for d in g.divisors:
        while d % p == 0:
            d //= p
        out.append(d)
    return AbelianGroup.from_invariant_factors(out)


def direct_double(g: AbelianGroup) -> AbelianGroup:
    """g + g: each divisor of the chain, twice, is still a chain."""
    return AbelianGroup(rank=2 * g.rank, divisors=tuple(sorted(g.divisors * 2)))


# ---------------------------------------------------------------------------
# Abelianization


def relation_matrix(gp) -> list[list[int]]:
    """Generators x relators matrix of exponent sums."""
    rows = [[0] * len(gp.relators) for _ in range(gp.num_generators)]
    for c, relator in enumerate(gp.relators):
        for letter in relator:
            idx = abs(letter) - 1
            rows[idx][c] += 1 if letter > 0 else -1
    return rows


def _relator_rows(gp) -> list[dict[int, int]]:
    """Sparse exponent-sum rows ``{generator index: coefficient}``, no empty rows."""
    rows = []
    for relator in gp.relators:
        row: dict[int, int] = {}
        for letter in relator:
            idx = abs(letter) - 1
            c = row.get(idx, 0) + (1 if letter > 0 else -1)
            if c:
                row[idx] = c
            else:
                del row[idx]
        if row:
            rows.append(row)
    return rows


def abelianization(gp) -> AbelianGroup:
    """Cokernel of the relation matrix: free rank plus torsion divisors.

    Each generator is solved once, as a sparse ``{seed: coefficient}``
    expression in a few free seed generators.  A relator is ready when it
    holds exactly one unsolved generator u, with coefficient c = +-1; then
    u = -c * (sum of the relator's other terms), a Tietze move that keeps
    the cokernel, and the relator is used up.  Ready relators are worked
    through with a stack.  Each relator keeps, beside its count of unsolved
    generators, the running sum of their indices, and a solve lowers both;
    since a row's generators are distinct, a ready relator's u is that sum,
    found without a scan.  When none is ready, the first unsolved generator
    of the first relator with exactly two unsolved generators (else the
    first unsolved generator) becomes a new seed.

    The unused relators are then tested one by one against the lattice L
    spanned by the kept rows K, written in the seeds.  The quotient
    Z^seeds / L is held as the sum of Z/d_i over live coordinates i,
    d_i != 1 (d_i = 0 for a free one): r maps to r*col_i mod d_i, so r lies
    in L iff every such residue is 0.  Each live coordinate holds the
    generator images expr[j]*col_i, reduced mod d_i, filled on first use.
    The test sums c * image over the relator's few terms, one coordinate
    at a time, and stops at the first nonzero residue, so a relator in L
    costs one such sum per live coordinate.  A relator in L is skipped
    without being rewritten; one outside L is rewritten in the seeds as r
    and kept.  The new quotient is the old one modulo x = (r*col_i mod d_i),
    the cokernel of S = [d_i*e_i for d_i != 0] + [x]; with U*S*V = D =
    `snf(S)`, the new coordinate i has divisor D_ii and column
    sum_k V[k][i]*col_k, reduced mod D_ii, and is dropped when D_ii = 1.
    S is only as wide as the live coordinates, not the seeds.  Starting
    from col_i = e_i and d_i = 0 for each seed, the quotient stays exact,
    and the kept rows go to `invariant_factors`.

    The result is the cokernel of the full core: a skipped relator lay in
    span(K) when it was tested and the span only grows, so the kept rows
    span the same lattice as all unused relators, and invariant factors
    are unique.  Each kept row raises the rank or at least halves the
    index, so at most seeds + log2(first full-rank index) rows are kept
    (at most 12 over every catalog presentation for q <= 13).
    """
    n = gp.num_generators
    rows = _relator_rows(gp)
    rows_of: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            rows_of[j].append(i)
    # beside each row's count of unsolved generators, the sum of their
    # indices: _relator_rows gives a row distinct keys with nonzero
    # coefficients, so a row with one unsolved generator holds it at usum
    unsolved = [len(row) for row in rows]
    usum = [sum(row) for row in rows]
    used = [False] * len(rows)
    expr: dict[int, dict[int, int]] = {}
    ready = [i for i, k in enumerate(unsolved) if k == 1]
    seeds = 0

    def solve(u: int, e: dict[int, int]) -> None:
        expr[u] = e
        for i in rows_of[u]:
            unsolved[i] -= 1
            usum[i] -= u
            if unsolved[i] == 1:
                ready.append(i)

    while True:
        while ready:
            i = ready.pop()
            row = rows[i]
            # another solve may have emptied the row since it became ready
            u = usum[i]
            if not unsolved[i] or row[u] not in (1, -1):
                continue
            e: dict[int, int] = {}
            for j, c in row.items():
                if j != u:
                    f = -row[u] * c
                    for s, v in expr[j].items():
                        t = e.get(s, 0) + f * v
                        if t:
                            e[s] = t
                        else:
                            del e[s]
            used[i] = True
            solve(u, e)
        if len(expr) == n:
            break
        i = next((i for i, k in enumerate(unsolved) if k == 2), None)
        u = next(j for j in (rows[i] if i is not None else range(n)) if j not in expr)
        solve(u, {seeds: 1})
        seeds += 1
    # kept rows K, and one (w, col, d) per live coordinate of the quotient
    # Z^seeds / span(K) = sum of Z/d, d != 1: a row r maps to r*col mod d,
    # and w[j], filled on first use, is expr[j]*col, reduced mod d when d != 0.
    # With no row kept, each seed is a free coordinate: col = e_i and d = 0.
    kept: list[list[int]] = []
    live = [([None] * n, [int(s == i) for s in range(seeds)], 0) for i in range(seeds)]
    for row, done in zip(rows, used):
        if done:
            continue
        for w, col, d in live:
            t = 0
            for j, c in row.items():
                y = w[j]
                if y is None:
                    y = 0
                    for s, v in expr[j].items():
                        y += v * col[s]
                    w[j] = y = y % d if d else y
                t += c * y
            if t % d if d else t:
                break
        else:
            continue
        vec = [0] * seeds
        for j, c in row.items():
            for s, x in expr[j].items():
                vec[s] += c * x
        kept.append(vec)
        k = len(live)
        small = [[d * (i == j) for j in range(k)] for i, (_, _, d) in enumerate(live) if d]
        x = [sum(a * b for a, b in zip(vec, col)) for _, col, _ in live]
        small.append([y % d if d else y for y, (_, _, d) in zip(x, live)])
        res = snf(small)
        grown = []
        for i in range(k):
            if (d := res.d[i][i] if i < len(small) else 0) == 1:
                continue
            col = [0] * seeds
            for r, (_, old, _) in zip(res.v, live):
                if f := r[i]:
                    col = [a + f * b for a, b in zip(col, old)]
            grown.append(([None] * n, [a % d for a in col] if d else col, d))
        live = grown
    factors = invariant_factors(kept) if kept else ()
    return AbelianGroup.from_invariant_factors(factors, rank=seeds - len(factors))
