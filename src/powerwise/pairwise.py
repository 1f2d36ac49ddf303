"""Hierarchical pairwise comparisons and the full round-robin tournament.

Every pair of teams is compared by a three-step ladder, stopping at the first
decisive step:

  I.   head-to-head record (strictly more wins; tied scores count half),
  II.  record against common opponents, by win percentage or by win-minus-loss
       differential depending on configuration,
  III. power rating comparison, ratings within RATING_TOL counting as equal.

A pair no step can decide (identical ratings, or teams whose schedules never
connect) is reported unresolved and awards no point. Decided pairs award one
point to the winner; a team's season score is its total points.

``run_tournament`` walks the ladder for all pairs at once on the season's
matrix view (``SeasonDataset.schedule``): win values W, game counts G and the
symmetric adjacency A = (G > 0), all with zero diagonals, so neither team of a
pair is ever in its own common pool.

  I.   sign(W - Wᵀ); it is 0 where the teams never met.
  II.  W @ A is each team's win total against the pair's common pool, G @ A
       its games against it and A @ A the pool size. Percentage is
       wins / games, numeric is wins - (games - wins), and the sign of the
       statistic minus its transpose decides where the pool is not empty (and,
       with ``skip_singular_co``, has more than one team).
  III. sign(r_i - r_j) where |r_i - r_j| > RATING_TOL inside one component.

Every entry of W, G and their products is a sum of half-integers, exact in
float64, so each pair is decided exactly as a walk over its games would
decide it. The tournament keeps two int8 matrices (deciding step and winner
sign) and renders evidence strings only when outcomes are read or exported.

Rendering is table and gather: one renderer (``_Ladder.render``) serves the
outcomes.csv export, ``rows()``/``outcomes``, ``outcome_for`` and
``unresolved()``. Strings are made once per table, not per pair: per team, its
name as a field and one head per deciding step ("{name},power_rating,{name}
rated higher (") in two quotings (CSV-escaped for the export, raw for
``PairwiseOutcome.evidence``), its rating at 3 decimals, and win totals by
half-unit count. Pool labels and step II statistics are formatted once per
distinct value in a block. A block of whole team rows fancy-indexes those
tables into an (m, 7) array of pieces, one row per pair, and joins it into
one string; only the rare unresolved pairs are formatted one by one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .ingest import SeasonDataset
from .power_rating import RATING_TOL, PowerRatingTable

STEP_HEAD_TO_HEAD = "head_to_head"
STEP_COMMON_OPPONENTS = "common_opponents"
STEP_POWER_RATING = "power_rating"
STEP_UNRESOLVED = "unresolved"
STEPS = (STEP_HEAD_TO_HEAD, STEP_COMMON_OPPONENTS, STEP_POWER_RATING, STEP_UNRESOLVED)
UNRESOLVED = STEPS.index(STEP_UNRESOLVED)
_STEP_NAMES = np.array(STEPS, dtype=object)

# Pairs per block of team rows that the renderer gathers and joins at once. Any fixed size bounds the
# memory a block needs; on a 500-team league, peak RSS varied with how blocks met the allocator (the
# traced Python peak did not) and was lowest for blocks of 24k-48k pairs.
_BLOCK_PAIRS = 32768

CO_MODES = ("percentage", "numeric")


@dataclass(frozen=True)
class ComparisonConfig:
    """Step II behavior: comparison statistic and singular-opponent handling.

    ``skip_singular_co`` skips step II when exactly one common opponent exists,
    since a single opponent played an unequal number of times can flip the
    numeric differential on schedule length alone.
    """

    co_mode: str = "percentage"
    skip_singular_co: bool = False

    def __post_init__(self):
        if self.co_mode not in CO_MODES:
            raise ValidationError(f"co_mode must be one of {CO_MODES}, got {self.co_mode!r}")


class PairwiseOutcome(NamedTuple):
    """Result of one pair's ladder walk. ``team_a`` < ``team_b`` lexicographically."""

    team_a: str
    team_b: str
    winner: str | None
    deciding_step: str
    evidence: str


NO_MEETINGS = "no meetings"
NO_COMMON_OPPONENTS = "no common opponents"
NO_SCHEDULE_PATH = "no schedule path between teams"


def _pool_label(pool: float) -> str:
    return f"{pool:.0f} common opponent" + ("s" if pool > 1 else "")


def _quote(field: str) -> str:
    """``field`` as csv.writer's minimal quoting, with a ``\\n`` terminator, writes it."""
    if any(c in field for c in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _distinct(values: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The distinct float64 values of ``values`` and, for each entry, the index of its value among them.

    Values are told apart by their bits, not by ``==``: -0.0 equals 0.0 but is
    shown as "-0" under ``+g``, so each keeps its own text. (The step II
    statistics are never -0.0 today, as ``x - x`` is +0.0, but nothing here
    rests on that.)
    """
    keys, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    return keys.view(np.float64).tolist(), inverse


def _texts(fmt: Callable[[float], str], values: list[float]) -> np.ndarray:
    return np.array([fmt(v) for v in values], dtype=object)


# The words that follow the winner's name in the evidence of each deciding step.
_PHRASES = (" leads head-to-head ", " better against ", " rated higher (")


class _Names(NamedTuple):
    """One quoting's per-team string tables, indexed like ``teams``; ``_Ladder.render`` gathers from them.

    A decided pair's line is ``field[a] field[b] head[step, w]``, the step's
    numbers, then ``end[w]``, w its winner. An unresolved pair's is
    ``field[a] field[b] unresolved(evidence)``.
    """

    field: np.ndarray  # the team as a leading field of the line
    head: np.ndarray  # (3, n), by deciding step: the winner's field, the step, the evidence up to its numbers
    end: np.ndarray  # what closes the winner's evidence and the line
    unresolved: Callable[[str], str]  # the line from an unresolved pair's evidence on

    @classmethod
    def for_csv(cls, teams: Sequence[str]) -> "_Names":
        """outcomes.csv lines. A decided pair's evidence holds ``,`` or ``"`` only through its winner's
        name, so it is quoted exactly when that name is, and opens with the quoted name less its last quote."""
        quoted = [_quote(t) for t in teams]
        opening = [q[:-1] if q != t else q for q, t in zip(quoted, teams)]
        head = [[f"{q},{step},{o}{phrase}" for q, o in zip(quoted, opening)] for step, phrase in zip(STEPS, _PHRASES)]
        return cls(
            np.array([q + "," for q in quoted], dtype=object),
            np.array(head, dtype=object).reshape(3, len(teams)),
            np.array(['"\n' if q != t else "\n" for q, t in zip(quoted, teams)], dtype=object),
            lambda evidence: f",{STEP_UNRESOLVED},{_quote(evidence)}\n",
        )

    @classmethod
    def for_evidence(cls, teams: Sequence[str]) -> "_Names":
        """Lines of bare ``PairwiseOutcome.evidence``: no leading fields, each evidence ended by LF."""
        head = [[t + phrase for t in teams] for phrase in _PHRASES]
        return cls(
            np.full(len(teams), "", dtype=object),
            np.array(head, dtype=object).reshape(3, len(teams)),
            np.full(len(teams), "\n", dtype=object),
            lambda evidence: evidence + "\n",
        )


def _sign(m: np.ndarray) -> np.ndarray:
    """+1 where m[i, j] > m[j, i], -1 where it is less, else 0, as int8."""
    return (m > m.T).astype(np.int8) - (m < m.T)


class _Ladder:
    """The inputs of all three steps for every pair, as N×N matrices over one season."""

    def __init__(self, dataset: SeasonDataset, ratings: PowerRatingTable, config: ComparisonConfig):
        view = dataset.schedule
        self.teams = dataset.teams
        self.config = config
        self.wins, self.adjacency = view.wins, view.adjacency
        self.pool = view.adjacency @ view.adjacency
        pool_wins = view.wins @ view.adjacency
        pool_games = view.games @ view.adjacency
        with np.errstate(invalid="ignore"):  # 0 / 0 off the pool, never read
            if config.co_mode == "percentage":
                self.stat = pool_wins / pool_games
            else:
                self.stat = pool_wins - (pool_games - pool_wins)
        self.ratings = [ratings.rating_of(t) for t in self.teams]
        self.spec = ".3f" if config.co_mode == "percentage" else "+g"
        self.components = [ratings.component_of(t) for t in self.teams]

    def decide(self) -> tuple[np.ndarray, np.ndarray]:
        """(step, sign): each pair's deciding step as an index into STEPS, and its winner's sign."""
        by_series = _sign(self.wins)
        pool_counts = self.pool > (1 if self.config.skip_singular_co else 0)  # step II applies
        by_pool = np.where(pool_counts, _sign(self.stat), 0)
        gap = np.subtract.outer(self.ratings, self.ratings)
        same_component = np.equal.outer(self.components, self.components)
        by_rating = np.where(same_component & (np.abs(gap) > RATING_TOL), np.sign(gap), 0).astype(np.int8)
        steps = (by_series, by_pool, by_rating)
        sign = np.select([s != 0 for s in steps], steps, 0).astype(np.int8)
        step = np.select([s != 0 for s in steps], range(3), UNRESOLVED).astype(np.int8)
        return step, sign

    @cached_property
    def shown(self) -> np.ndarray:
        """Each team's rating at 3 decimals, and " vs {rating})" closing a step III evidence it loses."""
        shown = [f"{r:.3f}" for r in self.ratings]
        return np.array([shown, [f" vs {r})" for r in shown]], dtype=object)

    @cached_property
    def halves(self) -> np.ndarray:
        """Win totals by half-unit count h, h / 2 without a trailing .0: as the winner's, then as "-{loser's}"."""
        shown = [f"{h / 2:g}" for h in range(int(2 * self.wins.max()) + 1)]
        return np.array([shown, ["-" + x for x in shown]], dtype=object)

    @cached_property
    def csv_names(self) -> "_Names":
        return _Names.for_csv(self.teams)

    @cached_property
    def evidence_names(self) -> "_Names":
        return _Names.for_evidence(self.teams)

    def render(self, i: np.ndarray, j: np.ndarray, step: np.ndarray, sign: np.ndarray, csv: bool) -> np.ndarray:
        """The pieces of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k], as an (m, 7) object array.

        Row k joined is the pair's outcomes.csv line when ``csv``, else its
        evidence and LF. Every piece is gathered from a table made once per table:
        the quoting's name tables, ``shown``, ``halves``, and for step II one
        string per distinct pool size and statistic. Only unresolved pairs,
        which are rare, are formatted one by one.
        """
        names, spec = self.csv_names if csv else self.evidence_names, self.spec
        code, won = step[i, j], sign[i, j] > 0
        w, l = np.where(won, i, j), np.where(won, j, i)  # winner and loser; (a, b) when unresolved
        out = np.empty((len(i), 7), dtype=object)
        out[:, 0] = names.field[i]
        out[:, 1] = names.field[j]
        out[:, 2] = names.head[np.minimum(code, 2), w]
        # Step III decides most pairs: give every row its pieces, then overwrite the rows the other steps decide.
        out[:, 3] = self.shown[0, w]
        out[:, 4] = self.shown[1, l]
        out[:, 5] = ""
        out[:, 6] = names.end[w]
        counts = np.bincount(code, minlength=len(STEPS))
        if counts[0]:
            series = np.flatnonzero(code == 0)
            w0, l0 = w[series], l[series]
            out[series, 3] = self.halves[0, (2 * self.wins[w0, l0]).astype(np.intp)]
            out[series, 4] = self.halves[1, (2 * self.wins[l0, w0]).astype(np.intp)]
        if counts[1]:
            pooled = np.flatnonzero(code == 1)
            w1, l1 = w[pooled], l[pooled]
            sizes, at = _distinct(self.pool[w1, l1])
            out[pooled, 3] = _texts(lambda p: f"{_pool_label(p)} (", sizes)[at]
            stats, at = _distinct(self.stat[np.r_[w1, l1], np.r_[l1, w1]])  # the winners', then the losers'
            out[pooled, 4] = _texts(lambda x: format(x, spec), stats)[at[: len(pooled)]]
            out[pooled, 5] = _texts(lambda x: f" vs {x:{spec}})", stats)[at[len(pooled) :]]
        if counts[UNRESOLVED]:
            for k in np.flatnonzero(code == UNRESOLVED).tolist():
                out[k, 2:] = (names.unresolved(self._unresolved_evidence(int(i[k]), int(j[k]))), "", "", "", "")
        return out

    def _unresolved_evidence(self, i: int, j: int) -> str:
        """Each step's even or silent verdict on teams i and j."""
        pool, (wins_a, wins_b) = self.pool[i, j], self.wins[[i, j], [j, i]].tolist()
        stat_a, stat_b = self.stat[[i, j], [j, i]].tolist()
        if not pool:
            common = NO_COMMON_OPPONENTS
        elif pool == 1 and self.config.skip_singular_co:
            opponent = self.teams[np.flatnonzero(self.adjacency[i] * self.adjacency[j])[0]]
            common = f"single common opponent {opponent} skipped"
        else:
            common = f"even against {_pool_label(pool)} ({stat_a:{self.spec}} vs {stat_b:{self.spec}})"
        series = f"head-to-head even {wins_a:g}-{wins_b:g}" if wins_a + wins_b else NO_MEETINGS
        connected = self.components[i] == self.components[j]
        rating = f"identical ratings ({self.shown[0, i]})" if connected else NO_SCHEDULE_PATH
        return f"{series}; {common}; {rating}"


class Outcomes(Sequence):
    """Every pair's PairwiseOutcome, (teams[i], teams[j]) for i < j row by row, each rendered when it is read."""

    def __init__(self, table: "PowerwiseTable"):
        self._table = table

    def __len__(self) -> int:
        n = len(self._table.teams)
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[PairwiseOutcome]:
        return self._table.rows()

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[m] for m in range(len(self))[k])
        k = range(len(self))[k]  # normalizes negative indices, raises IndexError
        # Counted from the last pair, rows hold 1, 2, 3, ... pairs: row r from the end starts at r(r+1)/2.
        n, back = len(self._table.teams), len(self) - 1 - k
        r = (isqrt(8 * back + 1) - 1) // 2
        return self._table._outcome_at(n - 2 - r, n - 1 - (back - r * (r + 1) // 2))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(x == y for x, y in zip(self, other))

    __hash__ = None


@dataclass(frozen=True, eq=False)
class PowerwiseTable:
    """Full tournament result as per-pair arrays indexed like ``teams``.

    ``step[i, j]`` indexes STEPS with the step that decided teams i and j
    (symmetric; the diagonal reads unresolved). ``sign[i, j]`` is +1 when i won
    the pair, -1 when j won and 0 when it is unresolved (antisymmetric).
    ``points`` holds each team's total. ``ladder`` renders the evidence.
    """

    season: int
    teams: tuple[str, ...]
    points: Mapping[str, int]
    step: np.ndarray
    sign: np.ndarray
    ladder: _Ladder = field(repr=False)

    @cached_property
    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.teams)}

    def _index_of(self, team: str) -> int:
        try:
            return self.index[team]
        except KeyError:
            raise ValidationError(f"unknown team {team!r}") from None

    @property
    def outcomes(self) -> Outcomes:
        return Outcomes(self)

    @cached_property
    def _names_or_none(self) -> np.ndarray:
        """``teams`` as an object array, then None: the winner of an unresolved pair."""
        return np.array([*self.teams, None], dtype=object)

    def _row_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(i, j) index arrays of every pair i < j, row by row, cut into blocks of whole team rows.

        A block holds at most _BLOCK_PAIRS pairs, or one row when that row alone
        holds more, so no reader holds every pair's pieces at once.
        """
        n, first = len(self.teams), 0
        while first < n - 1:
            stop, pairs = first + 1, n - 1 - first  # row r pairs team r with the n - 1 - r teams after it
            while stop < n - 1 and pairs + n - 1 - stop <= _BLOCK_PAIRS:
                pairs, stop = pairs + n - 1 - stop, stop + 1
            i, j = np.nonzero(np.arange(n) > np.arange(first, stop)[:, None])
            yield i + first, j
            first = stop

    def _lines(self, i: np.ndarray, j: np.ndarray, csv: bool) -> str:
        """Pairs (teams[i[k]], teams[j[k]]), i[k] < j[k], one line each: its outcomes.csv line, or its evidence."""
        return "".join(self.ladder.render(i, j, self.step, self.sign, csv).ravel().tolist())

    def csv_blocks(self) -> Iterator[str]:
        """The lines of outcomes.csv after its header, in ``rows()`` order, one string per block of team rows."""
        return (self._lines(i, j, csv=True) for i, j in self._row_blocks())

    def _outcomes(self, i: np.ndarray, j: np.ndarray) -> list[PairwiseOutcome]:
        """The outcomes of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k]."""
        names, code, s = self._names_or_none, self.step[i, j], self.sign[i, j]
        winner = np.where(s > 0, i, np.where(s < 0, j, len(self.teams)))
        evidence = self._lines(i, j, csv=False).split("\n")[:-1]  # team names hold no LF: ingest rejects them
        columns = (names[i], names[j], names[winner], _STEP_NAMES[code])
        return list(map(PairwiseOutcome._make, zip(*(c.tolist() for c in columns), evidence)))

    def rows(self) -> Iterator[PairwiseOutcome]:
        """Every pair's outcome (teams[i], teams[j]), i < j, row by row, rendered one block of rows at a time."""
        return chain.from_iterable(self._outcomes(i, j) for i, j in self._row_blocks())

    def _outcome_at(self, i: int, j: int) -> PairwiseOutcome:
        """The outcome of teams ``teams[i]`` and ``teams[j]``, i < j."""
        return self._outcomes(np.array([i]), np.array([j]))[0]

    def outcome_for(self, team_a: str, team_b: str) -> PairwiseOutcome:
        i, j = self.index.get(team_a), self.index.get(team_b)
        if i is None or j is None or i == j:
            raise ValidationError(f"no outcome recorded for {team_a!r} vs {team_b!r}")
        return self._outcome_at(min(i, j), max(i, j))

    def unresolved(self) -> tuple[PairwiseOutcome, ...]:
        return tuple(self._outcomes(*np.nonzero(np.triu(self.step == UNRESOLVED, 1))))

    @cached_property
    def _wins_by_step(self) -> list[tuple[int, int, int]]:
        """Every team's (head-to-head, common-opponent, rating) wins, in ``teams`` order."""
        won = np.where(self.sign > 0, self.step, UNRESOLVED)  # the deciding step of each pair the row team won
        counts = np.stack([np.count_nonzero(won == code, axis=1) for code in range(UNRESOLVED)], axis=1)
        return list(map(tuple, counts.tolist()))

    def step_wins(self, team: str) -> tuple[int, int, int]:
        """(head-to-head, common-opponent, rating) wins making up ``team``'s points."""
        return self._wins_by_step[self._index_of(team)]

    def step_decomposition(self, team: str) -> dict[str, int]:
        """How each of ``team``'s comparisons was decided, win or lose."""
        i = self._index_of(team)
        counts = np.bincount(np.delete(self.step[i], i), minlength=len(STEPS))
        return dict(zip(STEPS, counts.tolist()))


def run_tournament(
    dataset: SeasonDataset,
    ratings: PowerRatingTable,
    config: ComparisonConfig = ComparisonConfig(),
) -> PowerwiseTable:
    """Compare every pair of teams once, on the season's matrix view, and total the points."""
    ladder = _Ladder(dataset, ratings, config)
    step, sign = ladder.decide()
    points = dict(zip(dataset.teams, (sign > 0).sum(axis=1).tolist()))
    return PowerwiseTable(dataset.season, dataset.teams, points, step, sign, ladder)


def decisiveness_report(table: PowerwiseTable) -> dict[str, float]:
    """Share of all pairs each step decided, as percentages summing to 100."""
    n = len(table.teams)
    total = n * (n - 1) // 2
    if total == 0:
        raise ValidationError("tournament has no pairs")
    counts = np.bincount(table.step[np.triu_indices(n, 1)], minlength=len(STEPS)).tolist()
    return {step: 100.0 * count / total for step, count in zip(STEPS, counts)}
