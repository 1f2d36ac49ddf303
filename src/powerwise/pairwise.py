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
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Iterator, Mapping, NamedTuple

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
        self.shown = [f"{r:.3f}" for r in self.ratings]
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

    def render(self, i: int, cols: slice | list[int] | np.ndarray, step: np.ndarray, sign: np.ndarray) -> list[tuple]:
        """(team_a, team_b, winner, deciding_step, evidence) for pairs (i, j), j in ``cols`` (all > i).

        ``cols`` is a slice or an index array into row i. Win totals are sums of
        half-integers, shown without a trailing .0; step II statistics as
        ``.3f`` percentages or ``+g`` differentials; ratings at 3 decimals.
        """
        teams, shown, spec, skip_singular = self.teams, self.shown, self.spec, self.config.skip_singular_co
        a, shown_a = teams[i], shown[i]
        rows = []
        for j, code, s, wins_a, wins_b, pool, stat_a, stat_b in zip(
            np.arange(len(teams))[cols].tolist(),
            step[i, cols].tolist(),
            sign[i, cols].tolist(),
            self.wins[i, cols].tolist(),
            self.wins[cols, i].tolist(),
            self.pool[i, cols].tolist(),
            self.stat[i, cols].tolist(),
            self.stat[cols, i].tolist(),
        ):
            b = teams[j]
            winner = a if s > 0 else b if s else None
            if code == 2:  # the step that decides most pairs
                if s > 0:
                    evidence = f"{a} rated higher ({shown_a} vs {shown[j]})"
                else:
                    evidence = f"{b} rated higher ({shown[j]} vs {shown_a})"
            elif code == 0:
                if s > 0:
                    evidence = f"{a} leads head-to-head {wins_a:g}-{wins_b:g}"
                else:
                    evidence = f"{b} leads head-to-head {wins_b:g}-{wins_a:g}"
            elif code == 1:
                x, y = (stat_a, stat_b) if s > 0 else (stat_b, stat_a)
                evidence = f"{winner} better against {_pool_label(pool)} ({x:{spec}} vs {y:{spec}})"
            else:  # unresolved: each step's even or silent verdict
                if not pool:
                    common = NO_COMMON_OPPONENTS
                elif pool == 1 and skip_singular:
                    opponent = teams[np.flatnonzero(self.adjacency[i] * self.adjacency[j])[0]]
                    common = f"single common opponent {opponent} skipped"
                else:
                    common = f"even against {_pool_label(pool)} ({stat_a:{spec}} vs {stat_b:{spec}})"
                series = f"head-to-head even {wins_a:g}-{wins_b:g}" if wins_a + wins_b else NO_MEETINGS
                connected = self.components[i] == self.components[j]
                rating = f"identical ratings ({shown_a})" if connected else NO_SCHEDULE_PATH
                evidence = f"{series}; {common}; {rating}"
            rows.append((a, b, winner, STEPS[code], evidence))
        return rows


class Outcomes(Sequence):
    """Every pair's PairwiseOutcome, (teams[i], teams[j]) for i < j row by row, each rendered when it is read."""

    def __init__(self, table: "PowerwiseTable"):
        self._table = table

    def __len__(self) -> int:
        n = len(self._table.teams)
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[PairwiseOutcome]:
        return map(PairwiseOutcome._make, self._table.rows())

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

    def _render(self, i: int, cols: slice | list[int] | np.ndarray) -> list[tuple]:
        return self.ladder.render(i, cols, self.step, self.sign)

    def _row_blocks(self) -> Iterator[list[tuple]]:
        """The rows of ``rows()``, one list per team i: its pairs (teams[i], teams[j]) for every j > i."""
        return (self._render(i, slice(i + 1, None)) for i in range(len(self.teams) - 1))

    def rows(self) -> Iterator[tuple]:
        """(team_a, team_b, winner, deciding_step, evidence) for every pair (teams[i], teams[j]), i < j, row by row."""
        return chain.from_iterable(self._row_blocks())

    def _outcome_at(self, i: int, j: int) -> PairwiseOutcome:
        """The outcome of teams ``teams[i]`` and ``teams[j]``, i < j."""
        return PairwiseOutcome(*self._render(i, [j])[0])

    def outcome_for(self, team_a: str, team_b: str) -> PairwiseOutcome:
        i, j = self.index.get(team_a), self.index.get(team_b)
        if i is None or j is None or i == j:
            raise ValidationError(f"no outcome recorded for {team_a!r} vs {team_b!r}")
        return self._outcome_at(min(i, j), max(i, j))

    def unresolved(self) -> tuple[PairwiseOutcome, ...]:
        open_pairs = np.triu(self.step == UNRESOLVED, 1)
        return tuple(
            PairwiseOutcome(*row)
            for i in np.flatnonzero(open_pairs.any(axis=1)).tolist()
            for row in self._render(i, np.flatnonzero(open_pairs[i]))
        )

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
