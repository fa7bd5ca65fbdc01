"""Property tests for the bracket cell grammar and the integer factorizer.

Examples are derandomized and the example database is off, so every run
checks the same inputs.
"""

from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime

from tripres.abelian import AbelianGroup
from tripres.gf import factorize
from tripres.tables import format_group_cell, parse_group_cell

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

prime_powers = st.builds(
    pow, st.sampled_from((2, 3, 5, 7, 11, 13, 19, 97)), st.integers(1, 4)
)
ranks = st.none() | st.integers(0, 50)


@SETTINGS
@given(ranks, st.lists(prime_powers, max_size=12))
def test_cell_round_trip(rank, primaries):
    group = AbelianGroup.from_primary(primaries)
    assert parse_group_cell(format_group_cell(rank, group)) == (rank, group)


@SETTINGS
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(2, 400)), min_size=1, max_size=6))
def test_composite_orders_split_into_prime_powers(items):
    cell = "[" + ",".join(f"({c}){v}" if c > 1 else str(v) for c, v in items) + "]"
    split = [p**e for c, v in items for p, e in factorint(v).items() for _ in range(c)]
    assert parse_group_cell(cell) == (None, AbelianGroup.from_primary(split))


def test_composite_cell_example():
    assert parse_group_cell("[10,(2)6]") == (None, AbelianGroup.from_primary([2, 5, 2, 3, 2, 3]))


@SETTINGS
@given(st.integers(1, 10**9))
def test_factorize_is_a_prime_factorization(n):
    fac = factorize(n)
    assert all(isprime(p) and e >= 1 for p, e in fac.items())
    assert prod(p**e for p, e in fac.items()) == n
