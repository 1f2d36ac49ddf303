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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ValidationError
from .ingest import SeasonDataset
from .power_rating import RATING_TOL, PowerRatingTable
from .rpi import win_value

STEP_HEAD_TO_HEAD = "head_to_head"
STEP_COMMON_OPPONENTS = "common_opponents"
STEP_POWER_RATING = "power_rating"
STEP_UNRESOLVED = "unresolved"
STEPS = (STEP_HEAD_TO_HEAD, STEP_COMMON_OPPONENTS, STEP_POWER_RATING, STEP_UNRESOLVED)

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


@dataclass(frozen=True)
class PairwiseOutcome:
    """Result of one pair's ladder walk. ``team_a`` < ``team_b`` lexicographically."""

    team_a: str
    team_b: str
    winner: str | None
    deciding_step: str
    evidence: str

    def loser(self) -> str | None:
        if self.winner is None:
            return None
        return self.team_b if self.winner == self.team_a else self.team_a


def _fmt(x: float) -> str:
    """Render half-integer win totals without a trailing .0."""
    return f"{x:g}"


def head_to_head(dataset: SeasonDataset, team_a: str, team_b: str) -> tuple[str | None, str]:
    """Step I: winner of the season series, or None with an explanation."""
    meetings = [g for g in dataset.games_of(team_a) if g.involves(team_b)]
    if not meetings:
        return None, "no meetings"
    wins_a = sum(win_value(g, team_a) for g in meetings)
    wins_b = len(meetings) - wins_a
    if wins_a > wins_b:
        return team_a, f"{team_a} leads head-to-head {_fmt(wins_a)}-{_fmt(wins_b)}"
    if wins_b > wins_a:
        return team_b, f"{team_b} leads head-to-head {_fmt(wins_b)}-{_fmt(wins_a)}"
    return None, f"head-to-head even {_fmt(wins_a)}-{_fmt(wins_b)}"


def common_opponent_pool(dataset: SeasonDataset, team_a: str, team_b: str) -> tuple[str, ...]:
    """Teams both a and b played, excluding a and b themselves."""
    opps_a = {opp for opp, _ in dataset.opponents_of[team_a]}
    opps_b = {opp for opp, _ in dataset.opponents_of[team_b]}
    return tuple(sorted((opps_a & opps_b) - {team_a, team_b}))


def _record_vs(dataset: SeasonDataset, team: str, pool) -> tuple[float, float, int]:
    """(wins, losses, games) for ``team`` against the opponent pool; ties split."""
    wins = 0.0
    n = 0
    for opp, g in dataset.opponents_of[team]:
        if opp in pool:
            wins += win_value(g, team)
            n += 1
    return wins, n - wins, n


def common_opponents(
    dataset: SeasonDataset, team_a: str, team_b: str, config: ComparisonConfig = ComparisonConfig()
) -> tuple[str | None, str]:
    """Step II: better record against the shared opponent pool, or None."""
    pool = common_opponent_pool(dataset, team_a, team_b)
    if not pool:
        return None, "no common opponents"
    if len(pool) == 1 and config.skip_singular_co:
        return None, f"single common opponent {pool[0]} skipped"
    wins_a, losses_a, n_a = _record_vs(dataset, team_a, pool)
    wins_b, losses_b, n_b = _record_vs(dataset, team_b, pool)
    label = f"{len(pool)} common opponent" + ("s" if len(pool) > 1 else "")
    if config.co_mode == "percentage":
        stat_a, stat_b = wins_a / n_a, wins_b / n_b
        detail = f"{stat_a:.3f} vs {stat_b:.3f}"
    else:
        stat_a, stat_b = wins_a - losses_a, wins_b - losses_b
        detail = f"{stat_a:+g} vs {stat_b:+g}"
    if stat_a > stat_b:
        return team_a, f"{team_a} better against {label} ({detail})"
    if stat_b > stat_a:
        detail = detail.split(" vs ")
        return team_b, f"{team_b} better against {label} ({detail[1]} vs {detail[0]})"
    return None, f"even against {label} ({detail})"


def power_rating_step(
    ratings: PowerRatingTable, team_a: str, team_b: str
) -> tuple[str | None, str]:
    """Step III: higher power rating by more than RATING_TOL; never decides across components."""
    if ratings.component_of(team_a) != ratings.component_of(team_b):
        return None, "no schedule path between teams"
    ra, rb = ratings.rating_of(team_a), ratings.rating_of(team_b)
    if abs(ra - rb) <= RATING_TOL:
        return None, f"identical ratings ({ra:.3f})"
    if ra > rb:
        return team_a, f"{team_a} rated higher ({ra:.3f} vs {rb:.3f})"
    return team_b, f"{team_b} rated higher ({rb:.3f} vs {ra:.3f})"


def compare(
    dataset: SeasonDataset,
    team_a: str,
    team_b: str,
    ratings: PowerRatingTable,
    config: ComparisonConfig = ComparisonConfig(),
) -> PairwiseOutcome:
    """Walk the ladder for one pair. Steps I and II never fall through once decisive."""
    if team_a == team_b:
        raise ValidationError(f"cannot compare {team_a!r} with itself")
    a, b = sorted((team_a, team_b))
    winner, evidence = head_to_head(dataset, a, b)
    if winner is not None:
        return PairwiseOutcome(a, b, winner, STEP_HEAD_TO_HEAD, evidence)
    trail = [evidence]
    winner, evidence = common_opponents(dataset, a, b, config)
    if winner is not None:
        return PairwiseOutcome(a, b, winner, STEP_COMMON_OPPONENTS, evidence)
    trail.append(evidence)
    winner, evidence = power_rating_step(ratings, a, b)
    if winner is not None:
        return PairwiseOutcome(a, b, winner, STEP_POWER_RATING, evidence)
    trail.append(evidence)
    return PairwiseOutcome(a, b, None, STEP_UNRESOLVED, "; ".join(trail))


@dataclass(frozen=True)
class PowerwiseTable:
    """Full tournament result: every pair's outcome plus per-team point totals."""

    season: int
    points: Mapping[str, int]
    outcomes: tuple[PairwiseOutcome, ...]
    h2h_wins: Mapping[str, int]
    co_wins: Mapping[str, int]
    pr_wins: Mapping[str, int]

    def outcome_for(self, team_a: str, team_b: str) -> PairwiseOutcome:
        a, b = sorted((team_a, team_b))
        for o in self.outcomes:
            if (o.team_a, o.team_b) == (a, b):
                return o
        raise ValidationError(f"no outcome recorded for {team_a!r} vs {team_b!r}")

    def unresolved(self) -> tuple[PairwiseOutcome, ...]:
        return tuple(o for o in self.outcomes if o.winner is None)

    def step_wins(self, team: str) -> tuple[int, int, int]:
        """(head-to-head, common-opponent, rating) wins making up ``team``'s points."""
        if team not in self.points:
            raise ValidationError(f"unknown team {team!r}")
        return self.h2h_wins[team], self.co_wins[team], self.pr_wins[team]

    def step_decomposition(self, team: str) -> dict[str, int]:
        """How each of ``team``'s comparisons was decided, win or lose."""
        if team not in self.points:
            raise ValidationError(f"unknown team {team!r}")
        counts = {step: 0 for step in STEPS}
        for o in self.outcomes:
            if team in (o.team_a, o.team_b):
                counts[o.deciding_step] += 1
        return counts


def all_pairs(teams) -> Iterator[tuple[str, str]]:
    ordered = sorted(teams)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            yield a, b


def run_tournament(
    dataset: SeasonDataset,
    ratings: PowerRatingTable,
    config: ComparisonConfig = ComparisonConfig(),
) -> PowerwiseTable:
    """Compare every pair of teams once and tally points by deciding step."""
    points = {t: 0 for t in dataset.teams}
    h2h = {t: 0 for t in dataset.teams}
    co = {t: 0 for t in dataset.teams}
    pr = {t: 0 for t in dataset.teams}
    by_step = {STEP_HEAD_TO_HEAD: h2h, STEP_COMMON_OPPONENTS: co, STEP_POWER_RATING: pr}
    outcomes = []
    for a, b in all_pairs(dataset.teams):
        outcome = compare(dataset, a, b, ratings, config)
        outcomes.append(outcome)
        if outcome.winner is not None:
            points[outcome.winner] += 1
            by_step[outcome.deciding_step][outcome.winner] += 1
    return PowerwiseTable(
        season=dataset.season,
        points=points,
        outcomes=tuple(outcomes),
        h2h_wins=h2h,
        co_wins=co,
        pr_wins=pr,
    )


def decisiveness_report(table: PowerwiseTable) -> dict[str, float]:
    """Share of all pairs each step decided, as percentages summing to 100."""
    total = len(table.outcomes)
    if total == 0:
        raise ValidationError("tournament has no pairs")
    counts = {step: 0 for step in STEPS}
    for o in table.outcomes:
        counts[o.deciding_step] += 1
    return {step: 100.0 * counts[step] / total for step in STEPS}
