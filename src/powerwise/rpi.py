"""Ratings Percentage Index: the win-percentage baseline the power ratings are compared against.

RPI(t) = w1 * WP(t) + w2 * OWP(t) + w3 * OOWP(t), defaults (0.25, 0.50, 0.25).

WP is t's own winning percentage (ties count half). OWP averages, over each of
t's games, the opponent's winning percentage with all games against t removed.
OOWP averages the opponents' OWP the same per-game way, so repeat meetings
count each time they occur.

``compute_rpi`` reads every team's wins and games off the season's matrix view
(W and G, float32, each row summed in float64), so each percentage is one exact
quotient. ``np.bincount`` adds the per-game terms of each average in array
order, over the games listed twice with (home, away) interleaved, so each
team's terms are summed in game order, as a loop over the games would; listing
all home sides first would change last bits.
What G alone fixes comes from ``ScheduleView.sides``, formed once per season and
shared by its flips. Only ``rpi`` is built as a dict; ``wp``, ``owp`` and
``oowp`` are kept as arrays and become dicts when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .ingest import GameLog, GameRecord, SeasonDataset, build_season
from .tiebreak import RankingList

DEFAULT_WEIGHTS = (0.25, 0.50, 0.25)


@dataclass(frozen=True)
class RpiConfig:
    """Weights for the three RPI terms, in (wp, owp, oowp) order."""

    weights: tuple[float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ValidationError(f"need exactly 3 weights, got {len(self.weights)}")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ValidationError(f"weights must be finite and non-negative, got {self.weights}")
        if sum(self.weights) <= 0:
            raise ValidationError("weights must not all be zero")


@dataclass(frozen=True)
class RpiTable:
    """Per-team RPI; its three components, (wp, owp, oowp) arrays in ``rpi``'s team order, become dicts when read."""

    season: int
    rpi: Mapping[str, float]
    components: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)
    wp = cached_property(lambda self: dict(zip(self.rpi, self.components[0].tolist())))
    owp = cached_property(lambda self: dict(zip(self.rpi, self.components[1].tolist())))
    oowp = cached_property(lambda self: dict(zip(self.rpi, self.components[2].tolist())))

    def order(self) -> tuple[str, ...]:
        """Teams sorted by RPI descending, name ascending on exact ties."""
        return RankingList.from_scores(self.season, self.rpi).order()

    def ranks(self) -> dict[str, int]:
        """Dense 1-based ranks; exactly equal RPI values share a rank."""
        return RankingList.from_scores(self.season, self.rpi).ranks()


def compute_rpi(dataset: SeasonDataset, config: RpiConfig = RpiConfig()) -> RpiTable:
    w1, w2, w3 = config.weights
    view = dataset.schedule
    team, opp, against, games, rest, alone = view.sides
    wins = view.wins.sum(axis=1, dtype=np.float64)
    wp = wins / games
    # each opponent's percentage without its games against the team, or its
    # whole percentage when the team was its only opponent
    opp_wp = np.where(alone, wp[opp], (wins[opp] - view.wins.take(against)) / rest)
    owp = np.bincount(team, opp_wp, len(games)) / games
    oowp = np.bincount(team, owp[opp], len(games)) / games
    rpi = w1 * wp + w2 * owp + w3 * oowp
    return RpiTable(dataset.season, dict(zip(dataset.teams, rpi.tolist())), (wp, owp, oowp))


@dataclass(frozen=True)
class ScheduleSwapReport:
    """Effect on one team's RPI of replacing its schedule wholesale."""

    team: str
    before: RpiTable
    after: RpiTable
    rpi_before: float
    rpi_after: float
    rank_before: int
    rank_after: int


def schedule_swap_experiment(
    dataset: SeasonDataset,
    team: str,
    replacement_games: list[GameRecord],
    config: RpiConfig = RpiConfig(),
) -> ScheduleSwapReport:
    """Replace every game involving ``team`` with ``replacement_games`` and re-run RPI.

    Used to demonstrate schedule-strength sensitivity: a bottom team that swaps
    its slate for losses against top teams can still climb the RPI table.
    """
    if team not in dataset.schedule.index:
        raise ValidationError(f"unknown team {team!r}")
    if not replacement_games:
        raise ValidationError("replacement schedule is empty")
    for g in replacement_games:
        if team not in (g.home_team, g.away_team):
            raise ValidationError(
                f"replacement game {g.home_team} vs {g.away_team} does not involve {team!r}"
            )
    log, i = dataset.log, dataset.schedule.index[team]
    kept = log.take((log.home != i) & (log.away != i))
    swapped = build_season(GameLog.from_records(replacement_games, dataset.season, onto=kept), dataset.season)

    before = compute_rpi(dataset, config)
    after = compute_rpi(swapped, config)
    return ScheduleSwapReport(
        team=team,
        before=before,
        after=after,
        rpi_before=before.rpi[team],
        rpi_after=after.rpi[team],
        rank_before=before.ranks()[team],
        rank_after=after.ranks()[team],
    )
