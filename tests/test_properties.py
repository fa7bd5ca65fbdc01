"""Property tests for the bracket cell grammar, the integer factorizer,
the least scaled block behind the class names, the point-line map in the
`.tp` header, abelianization and the `.tp` presentation reader.

Examples are derandomized and the example database is off, so every run
checks the same inputs.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, factorint, isprime
from sympy.matrices.normalforms import invariant_factors as sympy_factors

from tripres.abelian import AbelianGroup, abelianization, relation_matrix
from tripres.cli import main
from tripres.gf import SUPPORTED_Q, factorize
from tripres.plane import build_plane
from tripres.presentations import (
    GroupPresentation,
    TrianglePresentation,
    _least_block,
    correspondence,
    enumerate_all_invariant,
    is_multiplier_fixed,
    relabel,
    twist_multiplier,
)
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


def _chain_by_popping(orders):
    """The divisor chain from factorized orders: pop each prime's largest
    exponent into d_1, then the next largest into d_2, and so on."""
    by_prime = {}
    for n in orders:
        for p, e in factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    chain = []
    while any(by_prime.values()):
        chain.append(prod(p ** exps.pop(0) for p, exps in by_prime.items() if exps))
    return tuple(reversed(chain))


@SETTINGS
@given(st.lists(prime_powers, max_size=20))
def test_from_primary_chain_unchanged(primaries):
    assert AbelianGroup.from_primary(primaries).divisors == _chain_by_popping(primaries)


# orders that share factors in many ways: small numbers, products of prime
# powers, and a few large ones
composite_orders = (
    st.integers(2, 200) | st.builds(lambda a, b: a * b, prime_powers, prime_powers) | st.integers(2, 10**12)
)


@SETTINGS
@given(st.lists(composite_orders, max_size=25))
def test_from_primary_matches_factorizing_oracle(orders):
    assert AbelianGroup.from_primary(orders).divisors == _chain_by_popping(orders)


def test_composite_cell_example():
    assert parse_group_cell("[10,(2)6]") == (None, AbelianGroup.from_primary([2, 5, 2, 3, 2, 3]))


@SETTINGS
@given(st.integers(1, 10**9))
def test_factorize_is_a_prime_factorization(n):
    fac = factorize(n)
    assert all(isprime(p) and e >= 1 for p, e in fac.items())
    assert prod(p**e for p, e in fac.items()) == n


# small coordinates, so that x = y, x = z and x = y = z are common
small_triples = st.tuples(*[st.integers(0, 3)] * 3) | st.tuples(*[st.integers(0, 40)] * 3)


@SETTINGS
@example({(0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 2, 2), (1, 1, 0), (3, 1, 1)})
@given(st.sets(small_triples, max_size=30))
def test_rotation_classes_match_lex_least_rotation(triples):
    # any triple set, also one that is not closed under rotation
    p = TrianglePresentation(q=2, n=7, triples=frozenset(triples))
    want = sorted({min((x, y, z), (y, z, x), (z, x, y)) for x, y, z in triples})
    assert p.rotation_classes() == tuple(want)


@st.composite
def scaled_blocks(draw):
    """(N, block) for a supported N: pairs (y, z) with distinct y.

    Up to q+1 pairs with y != 0, then a (0, 0) pair, a (0, z) pair with
    z != 0, or neither.  The composite N (21, 57, 91, 133, 183) give pairs
    whose y shares a factor with N, so y/g is inverted mod N/g.
    """
    q = draw(st.sampled_from(SUPPORTED_Q))
    n = q * q + q + 1
    ys = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=q + 1))
    block = [(y, draw(st.integers(0, n - 1))) for y in ys]
    z0 = draw(st.integers(1, n - 1))
    block += draw(st.sampled_from(([], [(0, 0)], [(0, z0)])))
    return n, draw(st.permutations(block))


@SETTINGS
@example((21, [(7, 3), (14, 0), (3, 9), (0, 0)]))
@example((183, [(61, 5), (122, 7), (0, 122)]))
@given(scaled_blocks())
def test_least_block_is_least_over_every_unit(case):
    n, block = case
    units = [r for r in range(1, n) if gcd(r, n) == 1]
    want = min(sorted(((r * y) % n, (r * z) % n) for y, z in block) for r in units)
    assert _least_block(n, block) == want


@cache
def _classes(q):
    return enumerate_all_invariant(build_plane(q))


@st.composite
def relabeled_classes(draw):
    """(q, r, T): a class representative at q >= 7, twisted when the draw
    asks and it is multiplier-fixed, then relabeled by j -> r*j + s."""
    q = draw(st.sampled_from([q for q in SUPPORTED_Q if q >= 7]))
    n = q * q + q + 1
    rep = draw(st.sampled_from(_classes(q))).representative
    power = draw(st.sampled_from((0, 1, 2)))
    if power and is_multiplier_fixed(rep):
        rep = twist_multiplier(rep, power)
    r = draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
    return q, r, relabel(rep, r, draw(st.integers(0, n - 1)))


@SETTINGS
@given(relabeled_classes())
def test_point_line_map_of_a_relabeled_class(case):
    """lambda(x) = scale*D + a*x + b, from `correspondence`, reproduces every
    out-set, and scale is the least of r*p^k mod N."""
    q, r, p = case
    n = p.n
    a, b, scale = correspondence(p)
    dset = build_plane(q).difference_set
    out_sets = {x: set() for x in range(n)}
    for x, y, _ in p.triples:
        out_sets[x].add(y)
    assert out_sets == {x: {(scale * d + a * x + b) % n for d in dset} for x in range(n)}
    (char,) = factorint(q)
    assert scale == min(r * pow(char, k, n) % n for k in range(n))


@st.composite
def three_letter_presentations(draw):
    """Up to 8 generators and 0..n+3 relators of three signed letters.

    Relators of three distinct generators leave no relator with a single
    unsolved generator, so most examples stall and need one or more seeds;
    repeated letters give non-unit coefficients, and fewer relators than
    generators give free rank.
    """
    n = draw(st.integers(1, 8))
    letter = st.builds(lambda g, s: g * s, st.integers(1, n), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.tuples(letter, letter, letter), max_size=n + 3))
    return GroupPresentation(num_generators=n, relators=tuple(relators))


def _group(gp):
    g = abelianization(gp)
    return g.rank, g.divisors


@SETTINGS
@given(three_letter_presentations(), st.randoms(use_true_random=False))
def test_abelianization_ignores_relator_order_names_and_spelling(gp, rnd):
    names = list(range(1, gp.num_generators + 1))
    rnd.shuffle(names)
    relators = []
    for rel in gp.relators:
        k = rnd.randrange(len(rel))
        rel = rel[k:] + rel[:k]  # a cyclic rotation is a conjugate
        if rnd.random() < 0.5:
            rel = tuple(-v for v in reversed(rel))  # the inverse word
        relators.append(tuple(names[abs(v) - 1] * (1 if v > 0 else -1) for v in rel))
    rnd.shuffle(relators)
    moved = GroupPresentation(num_generators=gp.num_generators, relators=tuple(relators))
    assert _group(moved) == _group(gp)


@SETTINGS
# stalls at once and again later (two seeds); Z + Z_3
@example(GroupPresentation(6, ((1, 2, 3), (3, 4, 5), (5, 6, 1), (2, 2, 4), (6, 6, 6))))
@example(GroupPresentation(3, ((1, 1, 2), (2, 2, 3), (3, 3, 1))))  # one seed; Z_9
@given(three_letter_presentations())
def test_abelianization_matches_sympy_on_three_letter_presentations(gp):
    matrix = Matrix(relation_matrix(gp)) if gp.relators else Matrix.zeros(gp.num_generators, 1)
    factors = [int(d) for d in sympy_factors(matrix, domain=ZZ) if d]
    want = AbelianGroup.from_invariant_factors(factors, rank=gp.num_generators - len(factors))
    assert _group(gp) == (want.rank, want.divisors)


# a valid q=2 class file: header lines, then one triple per rotation class
Q2_CLASS0 = ["q=2", "N=7", "a=1", "b=0", "0 1 3", "0 2 6", "0 4 5", "1 2 4", "1 5 6", "2 3 5", "3 4 6"]
JUNK = ("x", "-1", "=", "#", "q=3", "N=13", "scale=2", "99", "7", "1 2", "7 7 7", "\t", "\u00b2", "1_0", "0x1")


@st.composite
def mutated_class_files(draw):
    """The q=2 class file after 1-4 random line drops, line repeats, digit
    swaps and junk insertions."""
    lines = list(Q2_CLASS0)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("drop", "repeat", "swap", "junk")))
        k = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "drop" and lines:
            del lines[k]
        elif op == "repeat" and lines:
            lines.insert(k, lines[k])
        elif op == "swap":
            text = "\n".join(lines)
            digits = [i for i, c in enumerate(text) if c.isdigit()]
            if len(digits) >= 2:
                i, j = sorted(draw(st.lists(st.sampled_from(digits), min_size=2, max_size=2, unique=True)))
                text = text[:i] + text[j] + text[i + 1 : j] + text[i] + text[j + 1 :]
            lines = text.split("\n")
        else:
            junk = draw(st.sampled_from(JUNK))
            if lines and draw(st.booleans()):
                at = draw(st.integers(0, len(lines[k])))
                lines[k] = lines[k][:at] + junk + lines[k][at:]
            else:
                lines.insert(k, junk)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def tp_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.tp"


def _assert_abelianize_exits_cleanly(path, text):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["abelianize", "--in", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        assert out.count("\n") == 3 and out.splitlines()[-1].startswith("[")
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@SETTINGS
@given(mutated_class_files())
def test_mutated_class_file_gives_a_group_or_one_error_line(tp_path, text):
    _assert_abelianize_exits_cleanly(tp_path, text)


@SETTINGS
@given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_random_text_gives_one_error_line(tp_path, text):
    _assert_abelianize_exits_cleanly(tp_path, text)
