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
symmetric adjacency A = (G > 0), float32 with zero diagonals, so neither team
of a pair is ever in its own common pool. Each step gives a sign in {-1, 0, +1}:

  I.   sign(W - Wᵀ); it is 0 where the teams never met.
  II.  W @ A is each team's win total against the pair's common pool, G @ A
       its games against it and A @ A the pool size. Percentage is
       wins / games, numeric is wins - (games - wins), and the sign of the
       statistic minus its transpose counts where the pool is not empty (and,
       with ``skip_singular_co``, has more than one team); elsewhere it is 0.
  III. +1 where r_i - r_j > RATING_TOL, -1 where it is below -RATING_TOL,
       counted only inside one component.

``_Ladder.decide`` makes two passes over blocks of whole team rows. The
first keys steps I and II as one int8 3·I + II per pair, whose sign is the
winner's and whose magnitude names the step (2-4 step I, 1 step II), and marks
the pairs it leaves at 0 inside one component open. The second blends step
III's sign into the open pairs; a pair it leaves at 0 too is unresolved. A
flipped season's first pass starts from its parent's step I/II verdicts and
re-keys only the flipped pair's rows and columns.

The products are the schedule view's (``ScheduleView.pool``, ``pool_games``
and ``pool_wins``): float32 products of its float32 W, G and A, exact below
``ingest.MAX_GAMES`` games (see there; the view refuses a larger season),
formed once per view and kept with it, and inherited by a flipped season. The
step II statistic is formed from them in float64 only where it is read: a block
of rows and its columns at a time in ``decide``, and entry by entry for an
unresolved pair's evidence. So the ladder never forms a float N×N matrix of
its own. Each pair is decided exactly as a walk over its games would decide
it. The tournament keeps two int8 matrices (deciding step and winner sign) and
renders outcomes.csv lines only when outcomes are read or exported.

A pair's outcome has one rendered form, its outcomes.csv line, made of four
pieces (``_Ladder.render``): the two teams as leading fields, a head and a
tail. Heads and step III tails come from string tables built on the first
render; step I and II tails are formatted once per distinct key of doubled
win values (``_per_key``). A block of whole team rows gathers its pieces with
``take`` and joins them; only the rare unresolved pairs are formatted one by
one. The export joins the blocks; the readers (``outcomes``, iterated but not
indexed, ``outcome_for``, ``unresolved()``) run ``csv.reader`` over the lines.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

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

# Pairs per block of team rows that the renderer gathers and joins at once, and the most ordered pairs
# ``decide`` keys at once. Any fixed size bounds the memory a block needs; on a 500-team league, peak RSS
# varied with how blocks met the allocator (the traced Python peak did not) and was lowest for blocks of
# 24k-48k pairs.
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


def _read(lines: Iterable[str]) -> Iterator[PairwiseOutcome]:
    """The outcomes that outcomes.csv ``lines`` hold, as csv.reader reads them; an empty winner is None."""
    for row in csv.reader(lines):
        row[2] = row[2] or None
        yield PairwiseOutcome._make(row)


def _quote(field: str) -> str:
    """``field`` as csv.writer's minimal quoting, with a ``\\n`` terminator, writes it."""
    if any(c in field for c in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _per_key(columns: list[np.ndarray], text: Callable[..., str]) -> np.ndarray:
    """``text(*row)`` for each row of ``columns`` (whole numbers >= 0), formatted once per distinct row.

    A row's key is its index in the grid the columns' maxima span, or, where
    that grid is too large for int64, the row itself.
    """
    table = np.array(columns, dtype=np.int64)
    dims = (table.max(axis=1) + 1).tolist()
    if prod(dims) < 2**63:
        keys, at = np.unique(np.ravel_multi_index(table, dims), return_inverse=True)
        rows = np.unravel_index(keys, dims)
    else:
        rows, at = np.unique(table, axis=1, return_inverse=True)
    return np.array([text(*row) for row in zip(*(r.tolist() for r in rows))], dtype=object)[at]


# The words that follow the winner's name in the evidence of each deciding step.
_PHRASES = (" leads head-to-head ", " better against ", " rated higher (")

_ENDS = ("\n", '"\n')  # what closes a line, by whether its evidence is quoted


def _series(e: int, a: int, b: int) -> str:
    """A step I tail from its quoting and the winner's, then the loser's, twice its win total against the other."""
    return f"{a / 2:g}-{b / 2:g}{_ENDS[e]}"


def _sign(above: np.ndarray, below: np.ndarray) -> np.ndarray:
    """+1 where ``above`` holds, -1 where ``below`` does, else 0, as int8; the two never both hold."""
    return above.view(np.int8) - below


class _Ladder:
    """The inputs of all three steps for every pair, as N×N matrices over one season."""

    def __init__(self, dataset: SeasonDataset, ratings: PowerRatingTable, config: ComparisonConfig):
        view = dataset.schedule
        self.teams = dataset.teams
        self.config = config
        self.wins, self.adjacency = view.wins, view.adjacency
        self.pool, self.pool_wins, self.pool_games = view.pool, view.pool_wins, view.pool_games
        self.ratings = ratings.vector
        self.spec = ".3f" if config.co_mode == "percentage" else "+g"
        self.components = dataset.component_labels

    def stat(self, at) -> np.ndarray:
        """The step II statistic of the pairs at index ``at``, in float64.

        Formed from the exact float32 products: percentage wins / games,
        numeric wins - (games - wins). Off the pool it is NaN or 0, never read.
        """
        wins, games = self.pool_wins[at].astype(np.float64), self.pool_games[at]
        if self.config.co_mode == "numeric":
            wins *= 2  # exact, as is every sum and difference here: 2·wins - games is wins - (games - wins)
            return np.subtract(wins, games, out=wins)
        with np.errstate(invalid="ignore"):  # 0 / 0
            return np.divide(wins, games, out=wins)

    def _verdicts(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Steps I and II's int8 (step, sign, open) of each pair (i, j), i in ``rows``.

        The sign is that of 3·I + II, and two compares give the step. A pair
        both leave silent reads (unresolved, 0) and is open to step III when
        its teams share a component.
        """
        wins, wins_t = self.wins[rows], self.wins[:, rows].T
        series = _sign(wins > wins_t, wins < wins_t)
        key = 3 * series + self._by_pool(rows)
        silent = key == 0
        step = (UNRESOLVED - 2) + 2 * silent.view(np.int8) - (series != 0).view(np.int8)  # 3, 1 (step II) or 0
        return step, np.sign(key), (silent & (self.components[rows, None] == self.components)).view(np.int8)

    def _by_pool(self, rows) -> np.ndarray:
        """Step II's int8 sign of each pair (i, j), i in ``rows``: 0 where the pool is too small to count.

        Its own call, so the two float64 statistics are freed before ``_verdicts`` forms its int8 arrays.
        """
        floor = 1 if self.config.skip_singular_co else 0  # step II needs a pool larger than this
        stat, stat_t = self.stat(rows), self.stat((slice(None), rows)).T
        return _sign(stat > stat_t, stat < stat_t) * (self.pool[rows] > floor)

    def decide(self, parent: PowerwiseTable | None = None, rows: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """(step, sign): each pair's deciding step as an index into STEPS, and its winner's sign.

        Two passes over blocks of at most _BLOCK_PAIRS pairs (or one row) of
        team rows. The first gives steps I and II's (step, sign, open)
        (``_verdicts``): of every row, or, given a ``parent`` table whose steps
        I and II differ only in ``rows`` and their columns, the parent's
        ``_kept`` verdicts with ``rows`` re-keyed and mirrored into their
        columns. The second blends step III's sign into the open pairs.
        """
        n = len(self.teams)
        height = max(1, _BLOCK_PAIRS // max(n, 1))
        blocks = [slice(a, min(a + height, n)) for a in range(0, n, height)]
        if parent is None:
            step, sign, open_ = (np.empty((n, n), dtype=np.int8) for _ in range(3))
            for block in blocks:
                step[block], sign[block], open_[block] = self._verdicts(block)
        else:
            step, sign, open_ = (x.copy() for x in parent._kept)
            verdicts = self._verdicts(rows)
            step[rows], sign[rows], open_[rows] = verdicts
            step[:, rows], sign[:, rows], open_[:, rows] = verdicts[0].T, -verdicts[1].T, verdicts[2].T
        for block in blocks:
            gap = self.ratings[block, None] - self.ratings
            rated = open_[block] * _sign(gap > RATING_TOL, gap < -RATING_TOL)  # step III's sign where it decides
            # Blended by arithmetic: np.where on int8 is several times slower here.
            sign[block] += rated
            step[block] -= np.abs(rated)  # STEPS ends power_rating, unresolved
        return step, sign

    @cached_property
    def strings(self) -> tuple[np.ndarray, ...]:
        """(lead, head, rated, quoted): the string tables of outcomes.csv lines, built on first render.

        Per team t: ``lead[t]`` is t as a leading field; ``head[step·N + t]``
        t's field as winner, the step and the evidence up to its numbers (for
        step III, up to the loser's rating); ``rated[q·N + t]`` step III's tail
        " vs {t's rating})" and the line end. The evidence holds ``,`` or ``"``
        only through the winner's name, so it is quoted exactly when that name
        is (q = ``quoted[w]``).
        """
        names = [_quote(t) for t in self.teams]
        quoted = [q != t for q, t in zip(names, self.teams)]
        opening = [q[:-1] if f else q for q, f in zip(names, quoted)]  # a quoted evidence's opening quote
        shown = [f"{r:.3f}" for r in self.ratings.tolist()]
        held = ([""] * len(names), [""] * len(names), shown)  # step III's head ends with the winner's rating
        head = [f"{q},{st},{o}{p}{r}" for st, p, x in zip(STEPS, _PHRASES, held) for q, o, r in zip(names, opening, x)]
        return (
            np.array([q + "," for q in names], dtype=object),
            np.array(head, dtype=object),
            np.array([f" vs {r}){end}" for end in _ENDS for r in shown], dtype=object),
            np.array(quoted, dtype=np.intp),
        )

    def render(self, i: np.ndarray, j: np.ndarray, step: np.ndarray, sign: np.ndarray) -> np.ndarray:
        """The pieces of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k], as an (m, 4) object array.

        Row k joined is the pair's line: ``lead[i]``, ``lead[j]``, a head and
        a tail. Step I and II tails are formatted once per distinct key:
        quoting and each side's doubled wins against the other, or quoting,
        pool size and each side's doubled wins and games against the pool.
        Only unresolved pairs, which are rare, are formatted one by one.
        """
        (lead, heads, rated, quoted), n = self.strings, len(self.teams)
        flat = i * n + j  # matrices are read through flat indices: ``take`` is several times faster than [i, j]
        code, won = step.take(flat).astype(np.intp), sign.take(flat) > 0
        w = np.where(won, i, j)  # the winner, and l the loser; (a, b) when unresolved
        l, q = i + j - w, quoted.take(w)
        head = heads.take(np.minimum(code, 2) * n + w)
        # Step III decides most pairs: give every pair its tail, then overwrite the pairs the other steps decide.
        tail = rated.take(q * n + l)
        counts = np.bincount(code, minlength=len(STEPS)).tolist()
        if counts[0]:
            at = (code == 0).nonzero()[0]
            sides = w[at] * n + l[at], l[at] * n + w[at]  # the winner's, then the loser's
            tail[at] = _per_key([q[at], *(2 * self.wins.take(s) for s in sides)], _series)
        if counts[1]:
            at = (code == 1).nonzero()[0]
            sides = w[at] * n + l[at], l[at] * n + w[at]  # the winner's, then the loser's
            numbers = [x for s in sides for x in (2 * self.pool_wins.take(s), self.pool_games.take(s))]
            tail[at] = _per_key([q[at], self.pool.take(sides[0]), *numbers], self._pooled)
        if counts[UNRESOLVED]:
            for k in (code == UNRESOLVED).nonzero()[0].tolist():
                head[k], tail[k] = f",{STEP_UNRESOLVED},{_quote(self._unresolved_evidence(int(i[k]), int(j[k])))}\n", ""
        return np.stack([lead.take(i), lead.take(j), head, tail], axis=1)

    def _pooled(self, e: int, pool: int, *sides: int) -> str:
        """A step II tail from its quoting, the pool size, and the winner's, then the loser's, twice wins and games."""
        # With w twice the wins, w / 2 / g and w - g are the float64 wins / games and wins - (games - wins) of ``stat``.
        a, b = (w - g if self.config.co_mode == "numeric" else w / 2 / g for w, g in zip(sides[::2], sides[1::2]))
        return f"{_pool_label(pool)} ({a:{self.spec}} vs {b:{self.spec}}){_ENDS[e]}"

    def _unresolved_evidence(self, i: int, j: int) -> str:
        """Each step's even or silent verdict on teams i and j."""
        pool, (wins_a, wins_b) = self.pool[i, j], self.wins[[i, j], [j, i]].tolist()
        stat_a, stat_b = self.stat(([i, j], [j, i])).tolist()
        if not pool:
            common = NO_COMMON_OPPONENTS
        elif pool == 1 and self.config.skip_singular_co:
            opponent = self.teams[np.flatnonzero(self.adjacency[i] * self.adjacency[j])[0]]
            common = f"single common opponent {opponent} skipped"
        else:
            common = f"even against {_pool_label(pool)} ({stat_a:{self.spec}} vs {stat_b:{self.spec}})"
        series = f"head-to-head even {wins_a:g}-{wins_b:g}" if wins_a + wins_b else NO_MEETINGS
        connected = self.components[i] == self.components[j]
        rating = f"identical ratings ({self.ratings[i]:.3f})" if connected else NO_SCHEDULE_PATH
        return f"{series}; {common}; {rating}"


class Outcomes:
    """Every pair's PairwiseOutcome, (teams[i], teams[j]) for i < j row by row, rendered a block at a time."""

    def __init__(self, table: "PowerwiseTable"):
        self._table = table

    def __len__(self) -> int:
        n = len(self._table.teams)
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[PairwiseOutcome]:
        return _read(chain.from_iterable(map(io.StringIO, self._table.csv_blocks())))


@dataclass(frozen=True, eq=False)
class PowerwiseTable:
    """Full tournament result as per-pair arrays indexed like ``teams``.

    ``step[i, j]`` indexes STEPS with the step that decided teams i and j
    (symmetric; the diagonal reads unresolved). ``sign[i, j]`` is +1 when i won
    the pair, -1 when j won and 0 when it is unresolved (antisymmetric).
    ``index`` maps each team to its position in ``teams`` (the schedule view's
    mapping), ``points`` holds each team's total and ``ladder`` renders the
    outcomes.csv lines that every outcome is read from.
    """

    season: int
    teams: tuple[str, ...]
    index: Mapping[str, int] = field(repr=False)
    points: Mapping[str, int]
    step: np.ndarray
    sign: np.ndarray
    ladder: _Ladder = field(repr=False)

    def _index_of(self, team: str) -> int:
        try:
            return self.index[team]
        except KeyError:
            raise ValidationError(f"unknown team {team!r}") from None

    @property
    def outcomes(self) -> Outcomes:
        return Outcomes(self)

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
            rows = np.arange(first, stop)
            counts = n - 1 - rows  # row r's last pair, j = n - 1, is the block's pair cumsum(counts)[r - first] - 1
            yield np.repeat(rows, counts), np.arange(pairs) - np.repeat(np.cumsum(counts) - n, counts)
            first = stop

    def _lines(self, i: np.ndarray, j: np.ndarray) -> str:
        """The outcomes.csv lines of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k]."""
        if not len(i):
            return ""  # before any string table is built
        # Joined once ``render``'s index arrays are freed, which lowers a block's peak memory.
        return "".join(self.ladder.render(i, j, self.step, self.sign).ravel().tolist())

    def csv_blocks(self) -> Iterator[str]:
        """The lines of outcomes.csv after its header, in ``outcomes`` order, one string per block of team rows."""
        return (self._lines(i, j) for i, j in self._row_blocks())

    def _outcomes(self, i: np.ndarray, j: np.ndarray) -> list[PairwiseOutcome]:
        """The outcomes of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k], read from their lines."""
        return list(_read(io.StringIO(self._lines(i, j))))

    def outcome_for(self, team_a: str, team_b: str) -> PairwiseOutcome:
        i, j = self.index.get(team_a), self.index.get(team_b)
        if i is None or j is None or i == j:
            raise ValidationError(f"no outcome recorded for {team_a!r} vs {team_b!r}")
        return self._outcomes(np.array([min(i, j)]), np.array([max(i, j)]))[0]

    def unresolved(self) -> tuple[PairwiseOutcome, ...]:
        i, j = np.nonzero(self.step == UNRESOLVED)  # the diagonal, and each unresolved pair both ways
        return tuple(self._outcomes(i[i < j], j[i < j]))

    @cached_property
    def _kept(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A flip's start, int8 (step, sign, open): each step I/II verdict, else (unresolved, 0, same component)."""
        kept, component = self.step < STEPS.index(STEP_POWER_RATING), self.ladder.components
        open_ = ~kept & (component[:, None] == component)
        return np.where(kept, self.step, UNRESOLVED), self.sign * kept, open_.view(np.int8)

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
    """Compare every pair of teams once, on the season's matrix view, and total the points.

    A flipped view that ``perturbation_experiment`` ranks holds its parent's
    tournament and the flipped pair's two indices as ``parent_tournament``.
    The flip changes W only between the two, so steps I and II only in their
    rows and columns: under the parent's config, ``_Ladder.decide`` keeps its
    other step I and II verdicts, re-keys the two rows and decides step III
    afresh. The result is the same either way.
    """
    ladder = _Ladder(dataset, ratings, config)
    parent = vars(dataset.schedule).get("parent_tournament")
    step, sign = ladder.decide(*parent) if parent is not None and parent[0].ladder.config == config else ladder.decide()
    points = dict(zip(dataset.teams, np.count_nonzero(sign > 0, axis=1).tolist()))
    return PowerwiseTable(dataset.season, dataset.teams, dataset.schedule.index, points, step, sign, ladder)


def decisiveness_report(table: PowerwiseTable) -> dict[str, float]:
    """Share of all pairs each step decided, as percentages summing to 100."""
    n = len(table.teams)
    total = n * (n - 1) // 2
    if total == 0:
        raise ValidationError("tournament has no pairs")
    # ``step`` is symmetric with an unresolved diagonal: count it whole, drop the diagonal, halve.
    counts = np.bincount(table.step.ravel(), minlength=len(STEPS))
    counts[UNRESOLVED] -= n
    return {step: 100.0 * count / total for step, count in zip(STEPS, (counts // 2).tolist())}
