"""Ranking construction: points order, then a tie-break ladder with an audit trail.

Teams are first grouped by pairwise points. Inside a tied group:

  * two teams fall back to their own pairwise outcome;
  * three or more play a mini round robin of the already-decided intra-group
    outcomes, splitting the group by wins and recursing on any sub-tie;
  * groups no step can split order by power rating, and teams whose ratings
    agree to 9 decimals share a rank.

``break_ties`` does this in array passes over the whole season: one sort by
points, one gather of every group's intra-group signs for the wins. Most
groups need nothing more: a group whose wins all differ (every decided pair)
is ordered by them. Only a group whose wins are all equal (``_rating_audit``)
or split with a sub-tie (``_resolve_group``, recursing) is walked one by one.

Every entry carries an audit: the ordered (criterion, value) pairs that placed
it. Sorting entries by their audit value sequences, descending, reproduces the
ranking exactly; that makes any published table independently checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Mapping, NamedTuple

import numpy as np

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

    @classmethod
    def from_scores(cls, season: int, scores: Mapping[str, float]) -> "RankingList":
        """Dense ranking of a plain score table, higher first; exact ties share a rank."""
        if not scores:
            raise ValidationError("empty score table")
        ordered = sorted(scores.items())  # by team, then stably by score: exact ties stay in name order
        ordered.sort(key=itemgetter(1), reverse=True)
        entries = []
        rank = 0
        previous = None
        for team, score in ordered:
            if previous is None or score != previous:
                rank += 1
                previous = score
            entries.append(_new(RankingEntry, (rank, team, score, None, (("score", score),))))
        return cls(season=season, entries=tuple(entries))


# The audit suffixes of the winner and the loser of a two-team tie its pairwise outcome decides, by deciding step.
_PAIR_SUFFIXES = tuple((((f"pair_{step}", 1.0),), ((f"pair_{step}", 0.0),)) for step in STEPS)


def _rating_audit(ratings: PowerRatingTable, group) -> list:
    """Last resort: rating descending at 9 decimals (RATING_TOL); equal values stay tied."""
    value = {t: round(ratings.rating_of(t), 9) + 0.0 for t in group}  # + 0.0 turns -0.0 into 0.0
    ordered = sorted(group, key=lambda t: (-value[t], t))
    return [(t, (("power_rating", value[t]),)) for t in ordered]


def _resolve_group(table: PowerwiseTable, ratings: PowerRatingTable, group: list) -> list:
    """[(team, audit_suffix)] in final order for one tied group, given in name order; two teams play their pair."""
    if len(group) == 1:
        return [(group[0], ())]
    members = [table.index[t] for t in group]
    if len(group) == 2:
        (i, j), (a, b) = members, group
        won = table.sign[i, j]
        if not won:
            return _rating_audit(ratings, group)
        winner, loser = (a, b) if won > 0 else (b, a)
        return list(zip((winner, loser), _PAIR_SUFFIXES[table.step[i, j]]))
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

    A stable sort orders teams by points, descending; ``teams`` is in name
    order, so equal points stay so, and each run of equal points is a group.
    """
    teams, n = table.teams, len(table.teams)
    points = np.fromiter(map(table.points.__getitem__, teams), float, n)
    order = np.lexsort((-points,))
    points = points[order]
    first = np.concatenate(([True], points[1:] != points[:-1]))
    group = np.cumsum(first) - 1
    start = np.flatnonzero(first)
    sizes = np.diff(np.concatenate((start, [n])))
    at = np.flatnonzero(sizes[group] > 1)  # the tied positions
    reps = sizes[group[at]]
    rows = at.repeat(reps)  # each tied position once per member of its group, paired with that member
    cols = (start[group[at]] - np.cumsum(reps) + reps).repeat(reps) + np.arange(len(rows))
    won = np.bincount(rows, table.sign.take(order[rows] * n + order[cols]) > 0, n)
    by = np.lexsort((-won, group))  # inside each group by wins, descending, then by name
    won, ranked = won[by], order[by]
    even = np.concatenate(([False], (group[1:] == group[:-1]) & (won[1:] == won[:-1])))
    evens = np.bincount(group, even)
    names, values = [teams[t] for t in ranked.tolist()], points.tolist()
    # per entry: its audit after the points, its tie group, and 1 where its rank is one below the previous entry's
    suffixes, ties, steps = [()] * n, [None] * n, [1] * n
    tied = sizes > 1
    heads = start[tied]
    pair = table.step.take(ranked[heads] * n + ranked[heads + 1])  # a two-team group's deciding step
    groups = zip(heads.tolist(), sizes[tied].tolist(), evens[tied].tolist(), pair.tolist())
    for k, (a, z, e, code) in enumerate(groups, 1):
        ties[a : a + z] = [k] * z
        if not e and z == 2:
            suffixes[a : a + 2] = _PAIR_SUFFIXES[code]
        elif not e:
            suffixes[a : a + z] = [(("mini_round_robin", w),) for w in won[a : a + z].tolist()]
        else:
            members = [teams[t] for t in order[a : a + z].tolist()]
            resolved = _rating_audit(ratings, members) if e == z - 1 else _resolve_group(table, ratings, members)
            names[a : a + z], suffixes[a : a + z] = zip(*resolved)
            steps[a + 1 : a + z] = [int(x != y) for x, y in zip(suffixes[a : a + z - 1], suffixes[a + 1 : a + z])]
    audits = [(("points", p),) + x for p, x in zip(values, suffixes)]
    entries = tuple(map(_new, repeat(RankingEntry), zip(accumulate(steps), names, values, ties, audits)))
    return RankingList(season=table.season, entries=entries)


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
