"""The published K-theory tables as machine-readable ground truth.

The dataset ships as a delimited text file transcribed cell-for-cell in the
tables' bracket grammar (`q|name|class|gamma_ab|k0|k0_mod_id`), so the
transcription stays byte-auditable.  This module parses that grammar,
recomputes nothing: the K columns are data only, while the gamma_ab column
is what the rest of the package reproduces and verifies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, NamedTuple, Sequence

from .abelian import AbelianGroup, away_from, direct_double
from .catalog import TwistOrbit
from .presentations import read_int, read_utf8

EXPECTED_ROW_COUNTS = {2: 9, 3: 90, 4: 6, 5: 7, 7: 19, 8: 6, 9: 9, 11: 24}

LINEARITY_CLASSES = ("function-field", "p-adic", "nonlinear", "unspecified")

#: rows the survey expects to fail the doubling heuristic, outside q=3
PUBLISHED_NON_Q3_FAILURES = ((2, "B.2"), (5, "Voskuil"))

#: the (family, twist level) of each q = 2, 3 row in a published twist chain;
#: the primed rows are the second enumerated class and carry no twist rows of
#: their own, and no other row of these q is in the catalog
SMALL_Q_FAMILIES = {
    2: {"A.1": ("A.1", 0), "A.2": ("A.1", 1), "A.3": ("A.1", 2), "A.1'": ("A.1'", 0)},
    3: {"1.1": ("1.1", 0), "1.2": ("1.1", 1), "1.3": ("1.1", 2), "1.1'": ("1.1'", 0)},
}


#: most cyclic factors a cell may expand to; a short `(count)value` item
#: could otherwise ask for any amount of memory
MAX_CYCLIC_FACTORS = 10 ** 6


class CellParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_PREFIX = re.compile(r"\s*(?P<rank>[0-9]+)?\s*(?P<open>\[)?")
_EMPTY = re.compile(r"\s*\]\s*")
#: one item `(count)value` or `value` and the ',' or ']' after it; digits are
#: ASCII only, since \d also matches digits such as '٣' that int() reads as 3
_ITEM = re.compile(
    r"\s*(?P<paren>\((?P<count>[0-9]*)(?P<close>\))?)?(?P<value>[0-9]*)\s*(?P<sep>[,\]])?\s*"
)


class GroupCell(NamedTuple):
    rank: int | None
    torsion: AbelianGroup


def parse_group_cell(text: str) -> GroupCell:
    """Parse `m [a,(j)b,...]` into (optional free rank, torsion group)."""

    def error(message: str, position: int) -> CellParseError:
        return CellParseError(f"{message} in {text!r}", position)

    m = _PREFIX.match(text)
    if not m["open"]:
        raise error("expected '['", m.end())
    rank = None if m["rank"] is None else int(m["rank"])
    orders: list[int] = []
    empty = _EMPTY.match(text, m.end())
    pos, sep = (empty.end(), "]") if empty else (m.end(), ",")
    while sep == ",":
        m = _ITEM.match(text, pos)
        count = 1
        if m["paren"]:
            if not m["count"]:
                raise error("expected an integer", m.start("count"))
            if not m["close"]:
                raise error("expected ')'", m.end("count"))
            count = int(m["count"])
            if count < 1:
                raise error("repetition count must be positive", m.end("close"))
            if len(orders) + count > MAX_CYCLIC_FACTORS:
                raise error(f"more than {MAX_CYCLIC_FACTORS} cyclic factors", m.start("count"))
        if not m["value"]:
            raise error("expected an integer", m.start("value"))
        value = int(m["value"])
        if value < 2:
            raise error(f"torsion order {value} < 2", m.end("value"))
        if not m["sep"]:
            raise error("expected ',' or ']'", m.end())
        orders.extend([value] * count)
        pos, sep = m.end(), m["sep"]
    if pos != len(text):
        raise error("trailing text", pos)
    return GroupCell(rank, AbelianGroup.from_primary(orders))


def format_group_cell(rank: int | None, group: AbelianGroup) -> str:
    """Normalized bracket form; inverse of parse on structured values."""
    body = str(group)
    return body if rank is None else f"{rank} {body}"


@dataclass(frozen=True)
class PaperRow:
    q: int
    name: str
    linearity: str
    gamma_ab: AbelianGroup
    k0: GroupCell
    k0_mod_id: GroupCell


@dataclass(frozen=True)
class Dataset:
    rows: tuple[PaperRow, ...]

    def qs(self) -> tuple[int, ...]:
        return tuple(sorted({r.q for r in self.rows}))

    def by_q(self, q: int) -> tuple[PaperRow, ...]:
        return tuple(r for r in self.rows if r.q == q)

    def get(self, q: int, name: str) -> PaperRow:
        for r in self.rows:
            if r.q == q and r.name == name:
                return r
        raise KeyError((q, name))


def _bundled_text() -> str:
    return resources.files("tripres").joinpath("data/ktheory_tables.txt").read_text()


def load_dataset(path=None) -> Dataset:
    """Load and validate the delimited table file (bundled copy by default)."""
    if path is None:
        text = _bundled_text()
    else:
        text = read_utf8(path)
    rows: list[PaperRow] = []
    seen: set[tuple[int, str]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 6:
            raise ValueError(f"line {ln}: expected 6 '|'-separated fields")
        qs, name, cls, gamma_s, k0_s, k0m_s = (p.strip() for p in parts)
        try:
            q = read_int(qs)
        except ValueError:
            raise ValueError(f"line {ln}: bad q {qs!r}") from None
        if cls not in LINEARITY_CLASSES:
            raise ValueError(f"line {ln}: unknown linearity class {cls!r}")
        key = (q, name)
        if key in seen:
            raise ValueError(f"line {ln}: duplicate row {key}")
        seen.add(key)
        try:
            g_rank, gamma = parse_group_cell(gamma_s)
            k0, k0_mod_id = parse_group_cell(k0_s), parse_group_cell(k0m_s)
        except ValueError as err:  # a CellParseError, or int()'s digit limit
            raise ValueError(f"line {ln}: {err}") from None
        if g_rank not in (None, 0):
            raise ValueError(f"line {ln}: gamma_ab cell has a free part: {gamma_s!r}")
        rows.append(
            PaperRow(q=q, name=name, linearity=cls, gamma_ab=gamma, k0=k0, k0_mod_id=k0_mod_id)
        )
    ds = Dataset(rows=tuple(rows))
    counts = {q: len(ds.by_q(q)) for q in ds.qs()}
    if counts != EXPECTED_ROW_COUNTS:
        raise ValueError(f"row counts {counts} do not match the transcription {EXPECTED_ROW_COUNTS}")
    for r in ds.rows:
        if r.q == 2 and r.linearity == "nonlinear":
            raise ValueError("q=2 has no nonlinear rows")
        if r.k0.rank is not None and r.k0_mod_id.rank is not None:
            if r.k0.rank != r.k0_mod_id.rank:
                raise ValueError(f"({r.q}, {r.name}): K-group ranks disagree")
    return ds


# ---------------------------------------------------------------------------
# The doubling heuristic

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"


def twice_heuristic(row: PaperRow) -> str:
    """Away from 3, does torsion(K0/<[id]>) equal gamma_ab + gamma_ab?"""
    actual = away_from(row.k0_mod_id.torsion, 3)
    expected = away_from(direct_double(row.gamma_ab), 3)
    if actual.is_trivial and expected.is_trivial:
        return VACUOUS
    return HOLDS if actual == expected else FAILS


@dataclass(frozen=True)
class SurveyResult:
    fails: tuple[PaperRow, ...]
    holds: tuple[PaperRow, ...]
    vacuous: tuple[PaperRow, ...]

    @property
    def non_q3_failures(self) -> tuple[tuple[int, str], ...]:
        return tuple((r.q, r.name) for r in self.fails if r.q != 3)

    @property
    def matches_published(self) -> bool:
        return set(self.non_q3_failures) == set(PUBLISHED_NON_Q3_FAILURES)


def heuristic_survey(ds: Dataset) -> SurveyResult:
    buckets = {HOLDS: [], FAILS: [], VACUOUS: []}
    for row in ds.rows:
        buckets[twice_heuristic(row)].append(row)
    return SurveyResult(
        fails=tuple(buckets[FAILS]),
        holds=tuple(buckets[HOLDS]),
        vacuous=tuple(buckets[VACUOUS]),
    )


# ---------------------------------------------------------------------------
# Verification of the recomputed abelianizations


_PRIME_SUFFIX = re.compile(r"^(?P<stem>.*?)(?P<primes>'{0,2})$")


def _family_of(q: int, name: str) -> tuple[str, int] | None:
    """The (family, twist level) of one table row, or None if no family takes it.

    For q = 2, 3 the published chains are A.1 -> A.2 -> A.3 and
    1.1 -> 1.2 -> 1.3, with the primed rows as separate base-only families;
    for q >= 4 the table names encode the twist level by trailing primes.
    Voskuil rows have no triangle presentations here and are never families.
    """
    if name == "Voskuil":
        return None
    if q in SMALL_Q_FAMILIES:
        return SMALL_Q_FAMILIES[q].get(name)
    m = _PRIME_SUFFIX.match(name)
    return m["stem"].strip(), len(m["primes"])


@dataclass(frozen=True)
class Family:
    """A table family: a base row and its twist rows, if published."""

    name: str
    cells: tuple[AbelianGroup | None, AbelianGroup | None, AbelianGroup | None]

    @property
    def complete(self) -> bool:
        return all(c is not None for c in self.cells)

    def signature(self) -> tuple:
        return tuple(sorted(c for c in self.cells if c is not None))


def published_families(ds: Dataset, q: int) -> list[Family]:
    """Group the rows of one q into twist families.

    One rule, `_family_of`, places each row of every q in its family at its
    twist level; families come in the order of their first row.
    """
    grouped: dict[str, dict[int, AbelianGroup]] = {}
    for r in ds.by_q(q):
        family = _family_of(q, r.name)
        if family is not None:
            name, level = family
            grouped.setdefault(name, {})[level] = r.gamma_ab
    return [Family(name, tuple(levels.get(i) for i in range(3))) for name, levels in grouped.items()]


@dataclass(frozen=True)
class QVerification:
    q: int
    matched: tuple[tuple[str, int], ...]          # (family name, orbit index)
    unmatched: tuple[str, ...]                    # family names with no orbit
    mismatched: tuple[tuple[str, str], ...]       # (family name, detail)
    extra_orbits: tuple[int, ...]                 # computed classes beyond the table
    skipped: tuple[tuple[str, str], ...]          # (row name, reason)

    @property
    def ok(self) -> bool:
        return not self.unmatched and not self.mismatched


@dataclass(frozen=True)
class VerificationReport:
    sections: tuple[QVerification, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)


def verify_abelianizations(
    ds: Dataset, catalogs: Mapping[int, Sequence[TwistOrbit]]
) -> VerificationReport:
    """Match computed twist orbits against the table families of each q.

    `catalogs` maps each q to check to `invariant_catalog(q)`, whose item i
    is class i.  Published twist numbering is ambiguous where families share
    identical abelianization data, so families are matched to computed
    orbits by the unordered multiset of the orbit's three values; if the
    table names more families with one signature than the computation
    produced, the surplus families are reported unmatched.  Computed orbits
    beyond the table (e.g. the generator-inverse partner of a listed class,
    which has the same data) are reported as extras, not failures.
    """
    sections = []
    for q, catalog in catalogs.items():
        matched: list[tuple[str, int]] = []
        unmatched: list[str] = []
        mismatched: list[tuple[str, str]] = []
        free = list(catalog)

        for fam in published_families(ds, q):
            base = fam.cells[0]
            same_base = [o for o in free if o.base == base]
            if fam.complete:
                want = fam.signature()
                pick = next((o for o in free if o.signature() == want), None)
            else:
                pick = same_base[0] if same_base else None
            if pick is not None:
                free.remove(pick)
                matched.append((fam.name, pick.index))
            elif same_base:
                mismatched.append(
                    (fam.name, f"base matches orbit {same_base[0].index} but twist values differ")
                )
            else:
                unmatched.append(fam.name)

        skipped = tuple(
            (r.name, "no triangle presentation given for this group")
            if r.name == "Voskuil"
            else (r.name, "not in the invariant-presentation catalog")
            for r in ds.by_q(q)
            if _family_of(q, r.name) is None
        )
        sections.append(
            QVerification(
                q=q,
                matched=tuple(matched),
                unmatched=tuple(unmatched),
                mismatched=tuple(mismatched),
                extra_orbits=tuple(o.index for o in free),
                skipped=skipped,
            )
        )
    return VerificationReport(sections=tuple(sections))
