"""Ranking construction: points order, then a tie-break ladder with an audit trail.

Teams are first grouped by pairwise points. Inside a tied group:

  * two teams fall back to their own pairwise outcome;
  * three or more play a mini round robin of the already-decided intra-group
    outcomes, splitting the group by wins and recursing on any sub-tie;
  * groups no step can split order by power rating, and teams whose ratings
    agree to 9 decimals share a rank.

Every entry carries an audit: the ordered (criterion, value) pairs that placed
it. Sorting entries by their audit value sequences, descending, reproduces the
ranking exactly; that makes any published table independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Mapping, NamedTuple

from .errors import ValidationError
from .ingest import SeasonDataset
from .pairwise import STEPS, ComparisonConfig, PowerwiseTable, run_tournament
from .power_rating import PowerRatingTable, SolverConfig, solve_power_ratings


class RankingEntry(NamedTuple):
    """One ranked team. ``tie_group`` numbers the tied point-groups, in rank order."""

    rank: int
    team: str
    points: float
    tie_group: int | None
    audit: tuple[tuple[str, float], ...]


# Entries are built by tuple's own constructor: RankingEntry(...) would run the generated Python __new__ per team.
_new = tuple.__new__


@dataclass(frozen=True)
class RankingList:
    season: int
    entries: tuple[RankingEntry, ...]

    def order(self) -> tuple[str, ...]:
        return tuple(e.team for e in self.entries)

    def ranks(self) -> dict[str, int]:
        return {e.team: e.rank for e in self.entries}

    def entry_for(self, team: str) -> RankingEntry:
        for e in self.entries:
            if e.team == team:
                return e
        raise ValidationError(f"unknown team {team!r}")

    @classmethod
    def from_scores(
        cls, season: int, scores: Mapping[str, float], higher_is_better: bool = True
    ) -> "RankingList":
        """Dense ranking of a plain score table; exact ties share a rank."""
        if not scores:
            raise ValidationError("empty score table")
        ordered = sorted(scores.items())  # by team, then stably by score: exact ties stay in name order
        ordered.sort(key=itemgetter(1), reverse=higher_is_better)
        entries = []
        rank = 0
        previous = None
        for team, score in ordered:
            if previous is None or score != previous:
                rank += 1
                previous = score
            entries.append(_new(RankingEntry, (rank, team, score, None, (("score", score),))))
        return cls(season=season, entries=tuple(entries))


# The audit criterion of a two-team tie its pairwise outcome decides, by deciding step.
_PAIR_CRITERIA = tuple(f"pair_{step}" for step in STEPS)


def _rating_audit(ratings: PowerRatingTable, group) -> list:
    """Last resort: rating descending at 9 decimals (RATING_TOL); equal values stay tied."""
    value = {t: round(ratings.rating_of(t), 9) + 0.0 for t in group}  # + 0.0 turns -0.0 into 0.0
    ordered = sorted(group, key=lambda t: (-value[t], t))
    return [(t, (("power_rating", value[t]),)) for t in ordered]


def _resolve_group(table: PowerwiseTable, ratings: PowerRatingTable, group: list) -> list:
    """Return [(team, audit_suffix)] in final order for one tied group, given in name order.

    Two teams fall back to their own pairwise outcome, then to rating.
    """
    if len(group) == 1:
        return [(group[0], ())]
    members = [table.index[t] for t in group]
    if len(group) == 2:
        (i, j), (a, b) = members, group
        won = table.sign[i, j]
        if not won:
            return _rating_audit(ratings, group)
        criterion = _PAIR_CRITERIA[table.step[i, j]]
        winner, loser = (a, b) if won > 0 else (b, a)
        return [(winner, ((criterion, 1.0),)), (loser, ((criterion, 0.0),))]
    won = (table.sign[members][:, members] > 0).sum(axis=1).astype(float).tolist()
    if len(set(won)) == 1:
        return _rating_audit(ratings, group)
    resolved = []
    for w in sorted(set(won), reverse=True):
        sub = [t for t, x in zip(group, won) if x == w]
        for team, suffix in _resolve_group(table, ratings, sub):
            resolved.append((team, (("mini_round_robin", w),) + suffix))
    return resolved


def break_ties(table: PowerwiseTable, ratings: PowerRatingTable) -> RankingList:
    """Rank every team in ``table`` 1..N densely, applying the tie-break ladder.

    One pass over the teams in points order (descending, names ascending on
    equal points) takes each run of equal points as one group. A lone team is
    ranked at once; any other group goes through ``_resolve_group``.
    """
    points = table.points
    ordered = sorted(points)
    ordered.sort(key=points.__getitem__, reverse=True)
    entries = []
    rank = 0
    tie_group = 0
    for p, run in groupby(ordered, key=points.__getitem__):
        group, value = list(run), float(p)
        head = (("points", value),)
        rank += 1  # a new points value always starts a new rank
        if len(group) == 1:
            entries.append(_new(RankingEntry, (rank, group[0], value, None, head)))
            continue
        tie_group += 1
        previous = None
        for team, suffix in _resolve_group(table, ratings, group):
            if previous is not None and suffix != previous:
                rank += 1
            previous = suffix
            entries.append(_new(RankingEntry, (rank, team, value, tie_group, head + suffix)))
    return RankingList(season=table.season, entries=tuple(entries))


def replay_order(ranking: RankingList) -> tuple[str, ...]:
    """Re-sort entries purely by their audit value sequences, descending.

    An honest ranking satisfies ``replay_order(r) == r.order()`` up to teams
    sharing identical audits, which hold identical ranks anyway.
    """
    def key(e: RankingEntry):
        return tuple(-v for _, v in e.audit)

    return tuple(e.team for e in sorted(ranking.entries, key=lambda e: (key(e), e.team)))


def rank_season(
    dataset: SeasonDataset,
    solver_config: SolverConfig = SolverConfig(),
    comparison_config: ComparisonConfig = ComparisonConfig(),
    *,
    strict: bool = False,
) -> tuple[PowerRatingTable, PowerwiseTable, RankingList]:
    """Full pipeline: solve ratings, run the tournament, break ties."""
    ratings = solve_power_ratings(dataset, solver_config, strict=strict)
    table = run_tournament(dataset, ratings, comparison_config)
    return ratings, table, break_ties(table, ratings)
