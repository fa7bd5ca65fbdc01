"""Exact integer linear algebra and abelianization of group presentations.

Smith normal form is computed over Python ints (intermediate entries can
exceed machine range even for small inputs), with a deterministic pivot
rule: the nonzero entry of minimal absolute value, ties broken by smallest
row then column.  `snf` tracks the unimodular transforms U, V with
U*M*V = D; `invariant_factors` is the transform-free variant.

`abelianization` first eliminates generators on +-1 pivots in a sparse
copy of the relation matrix (Havas-Holt-Rees, "Recognizing badly presented
Z-modules", 1993), so coefficients stay small, and hands the dense core
that is left to `invariant_factors`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from math import gcd


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        qt = g // ng
        x, nx = nx, x - qt * nx
        y, ny = ny, y - qt * ny
        g, ng = ng, g - qt * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


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
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i1, i2, c11, c12, c21, c22):
        for mat in (a, u):
            r1, r2 = mat[i1], mat[i2]
            mat[i1] = [c11 * x + c12 * y for x, y in zip(r1, r2)]
            mat[i2] = [c21 * x + c22 * y for x, y in zip(r1, r2)]

    def col_op(j1, j2, c11, c12, c21, c22):
        for mat in (a, v):
            for row in mat:
                x, y = row[j1], row[j2]
                row[j1] = c11 * x + c12 * y
                row[j2] = c21 * x + c22 * y

    t = 0
    while True:
        piv = _find_pivot(a, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for mat in (a, v):
                for row in mat:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t below the pivot
            for i in range(t + 1, m):
                if a[i][t]:
                    p = a[t][t]
                    r = a[i][t]
                    if r % p == 0:
                        row_op(t, i, 1, 0, -(r // p), 1)
                    else:
                        x, y, g = xgcd(p, r)
                        row_op(t, i, x, y, -(r // g), p // g)
            # clear row t right of the pivot
            dirty = False
            for j in range(t + 1, n):
                if a[t][j]:
                    p = a[t][t]
                    r = a[t][j]
                    if r % p == 0:
                        col_op(t, j, 1, 0, -(r // p), 1)
                    else:
                        x, y, g = xgcd(p, r)
                        col_op(t, j, x, y, -(r // g), p // g)
                        dirty = True
            if not any(a[i][t] for i in range(t + 1, m)):
                if not dirty:
                    break
        t += 1

    # fix signs
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    # enforce the divisor chain
    r = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj and di and dj % di != 0:
                # put dj next to di via a row move, then re-clear the 2x2
                row_op(i, i + 1, 1, 1, 0, 1)
                x, y, g = xgcd(di, dj)
                col_op(i, i + 1, x, y, -(dj // g), di // g)
                # the block is now [[g, 0], [?, lcm]]; clear the stray entry
                if a[i + 1][i]:
                    p = a[i][i]
                    rr = a[i + 1][i]
                    row_op(i, i + 1, 1, 0, -(rr // p), 1)
                if a[i][i] < 0:
                    a[i] = [-x2 for x2 in a[i]]
                    u[i] = [-x2 for x2 in u[i]]
                if a[i + 1][i + 1] < 0:
                    a[i + 1] = [-x2 for x2 in a[i + 1]]
                    u[i + 1] = [-x2 for x2 in u[i + 1]]
                changed = True

    return SNFResult(
        u=tuple(tuple(row) for row in u),
        d=tuple(tuple(row) for row in a),
        v=tuple(tuple(row) for row in v),
    )


def invariant_factors(matrix) -> tuple[int, ...]:
    """Nonzero SNF diagonal entries, without tracking transforms."""
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while True:
        piv = _find_pivot(a, t, m, n)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    p = a[t][t]
                    r = a[i][t]
                    if r % p == 0:
                        qt = r // p
                        rt = a[t]
                        a[i] = [x - qt * y for x, y in zip(a[i], rt)]
                    else:
                        x, y, g = xgcd(p, r)
                        rt, ri = a[t], a[i]
                        a[t] = [x * u_ + y * w for u_, w in zip(rt, ri)]
                        a[i] = [-(r // g) * u_ + (p // g) * w for u_, w in zip(rt, ri)]
            dirty = False
            for j in range(t + 1, n):
                if a[t][j]:
                    p = a[t][t]
                    r = a[t][j]
                    if r % p == 0:
                        qt = r // p
                        for row in a:
                            row[j] -= qt * row[t]
                    else:
                        x, y, g = xgcd(p, r)
                        for row in a:
                            cx, cy = row[t], row[j]
                            row[t] = x * cx + y * cy
                            row[j] = -(r // g) * cx + (p // g) * cy
                        dirty = True
            if not any(a[i][t] for i in range(t + 1, m)):
                if not dirty:
                    break
        t += 1

    diag = [abs(a[i][i]) for i in range(min(m, n)) if a[i][i]]
    # enforce divisibility by gcd/lcm exchanges
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return tuple(diag)


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


def _factorize(n: int) -> dict[int, int]:
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
class AbelianGroup:
    """Z^rank plus a torsion divisor chain d1 | d2 | ..., each di >= 2.

    Comparison is always through the primary decomposition, so e.g.
    Z_2 + Z_24 and Z_2 + Z_8 + Z_3 are the same group.
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
    def from_primary(cls, primaries, rank: int = 0) -> "AbelianGroup":
        """Build the divisor chain from a multiset of prime powers."""
        by_prime: dict[int, list[int]] = {}
        for pk in primaries:
            fac = _factorize(pk)
            if len(fac) != 1:
                raise ValueError(f"{pk} is not a prime power")
            (p, e), = fac.items()
            by_prime.setdefault(p, []).append(e)
        for exps in by_prime.values():
            exps.sort(reverse=True)
        chain = []
        while any(by_prime.values()):
            d = 1
            for p, exps in by_prime.items():
                if exps:
                    d *= p ** exps.pop(0)
            chain.append(d)
        chain.reverse()
        return cls(rank=rank, divisors=tuple(chain))

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(rank=0, divisors=())

    @cached_property
    def primary_factors(self) -> tuple[int, ...]:
        """Prime powers sorted by (prime, exponent); the canonical form."""
        parts = []
        for d in self.divisors:
            for p, e in _factorize(d).items():
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

    def sort_key(self) -> tuple:
        return (self.rank, self.primary_factors)

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


def iso_equal(g: AbelianGroup, h: AbelianGroup) -> bool:
    return g.rank == h.rank and g.primary_factors == h.primary_factors


def primary_part(g: AbelianGroup, p: int) -> AbelianGroup:
    """Keep only the p-power factors (free part dropped)."""
    return AbelianGroup.from_primary(
        [pk for pk in g.primary_factors if pk % p == 0], rank=0
    )


def away_from(g: AbelianGroup, p: int) -> AbelianGroup:
    """Remove the p-power factors (free part dropped)."""
    return AbelianGroup.from_primary(
        [pk for pk in g.primary_factors if pk % p != 0], rank=0
    )


def direct_double(g: AbelianGroup) -> AbelianGroup:
    """g + g, renormalized to a divisor chain."""
    return AbelianGroup.from_primary(g.primary_factors * 2, rank=2 * g.rank)


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

    Generators with a +-1 coefficient are eliminated first (a Tietze move,
    so the cokernel is unchanged); the pivot is taken in the live column
    with fewest rows, from its shortest row with a unit entry, ties by
    index.  What remains is a narrow dense core for `invariant_factors`.
    """
    rows = dict(enumerate(_relator_rows(gp)))
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    # lazy heap of (row count, column); an entry is stale once the count
    # changes, and a column without a unit entry is only pushed again when
    # a later elimination touches it
    heap = [(len(rs), j) for j, rs in cols.items()]
    heapq.heapify(heap)
    eliminated = 0
    while heap:
        count, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != count:
            continue
        units = [i for i in col if rows[i][j] in (1, -1)]
        if not units:
            continue
        pivot = min(units, key=lambda i: (len(rows[i]), i))
        prow = rows.pop(pivot)
        for k in prow:
            cols[k].discard(pivot)
        for i in list(col):
            row = rows[i]
            f = row[j] * prow[j]
            for k, v in prow.items():
                c = row.get(k, 0) - f * v
                if c:
                    if k not in row:
                        cols[k].add(i)
                    row[k] = c
                else:
                    del row[k]
                    cols[k].discard(i)
            if not row:
                del rows[i]
        del cols[j]
        eliminated += 1
        for k in prow:
            if k != j:
                heapq.heappush(heap, (len(cols[k]), k))
    core_cols = sorted(j for j, rs in cols.items() if rs)
    # a row, its negative and its repeats span the same lattice, so each
    # core row is kept once with its first nonzero entry positive
    core = set()
    for row in rows.values():
        v = tuple(row.get(j, 0) for j in core_cols)
        core.add(v if next(c for c in v if c) > 0 else tuple(-c for c in v))
    factors = invariant_factors(sorted(core)) if core else ()
    rank = gp.num_generators - eliminated - len(factors)
    return AbelianGroup.from_invariant_factors(factors, rank=rank)
