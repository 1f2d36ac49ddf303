"""Goal-differential power ratings.

Each team's rating is defined by the fixed point of

    rating[t] = mean over t's games of (adjusted margin of t in g + rating[opponent])

where the adjusted margin is the goal margin from t's perspective, capped at
``goal_cap`` before the home-field adjustment (subtract ``hfa`` when t is home,
add it when t is away, no change at neutral sites). Times t's game count, that
is the linear system ``L r = b`` (``L`` the game-count graph Laplacian, ``b``
the summed adjusted margins): Massey's least-squares rating, solved directly.
It is unique up to an additive constant per connected schedule component,
which the anchor policy pins down.

``b`` and the estimated HFA are read off the schedule view's per-game
``margin`` and ``neutral`` arrays with numpy, never by a loop over the games,
and the margins are capped once. ``L``, grounded in one team per component
(``grounded_laplacian``), depends only on G and the components. A season with
one game flipped (``SeasonDataset.with_flipped``) shares it with its parent,
so ``perturbation_experiment`` forms it once per parent and lends it to every
flipped view it ranks, where ``solve_power_ratings`` uses it in place of
forming its own: the same dense solve, so exactly a fresh season's ratings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ComputationError, DataWarning, ValidationError
from .ingest import ScheduleView, SeasonDataset

ANCHORS = ("mean-zero", "top-100")

# Ratings closer than this (in goals) are one rating: the bound on the solve
# residual, and the tie threshold of every rating comparison.
RATING_TOL = 1e-9


def check_goal_cap(cap) -> None:
    """Reject a margin cap that is not a positive ``int`` (a ``bool`` is not one) or None."""
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValidationError(f"goal_cap must be a positive int or None, got {cap!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the rating solve.

    ``hfa`` is either a numeric per-game home advantage in goals or the string
    ``"estimate"`` to fit it as the mean capped home margin of non-neutral
    games. ``goal_cap`` of None disables margin capping.
    """

    goal_cap: int | None = 7
    hfa: float | str = "estimate"
    anchor: str = "mean-zero"

    def __post_init__(self):
        check_goal_cap(self.goal_cap)
        if isinstance(self.hfa, str):
            if self.hfa != "estimate":
                raise ValidationError(f"hfa must be a number or 'estimate', got {self.hfa!r}")
        elif not isinstance(self.hfa, (int, float)):
            raise ValidationError(f"hfa must be a number or 'estimate', got {type(self.hfa).__name__}")
        elif not math.isfinite(self.hfa):
            raise ValidationError(f"hfa must be finite, got {self.hfa}")
        if self.anchor not in ANCHORS:
            raise ValidationError(f"anchor must be one of {ANCHORS}, got {self.anchor!r}")


@dataclass(frozen=True)
class PowerRatingTable:
    """Solved ratings plus the solve's residual ``||L r - b||inf`` in goals."""

    season: int
    ratings: Mapping[str, float]
    hfa_used: float
    residual: float
    components: tuple[tuple[str, ...], ...]
    config: SolverConfig = field(compare=False)

    @property
    def converged(self) -> bool:
        return self.residual <= RATING_TOL

    @property
    def iterations(self) -> int:
        """Always 0: the solve is direct."""
        return 0

    # Every rating in team-name order, the order of ``SeasonDataset.teams``; the solve hands on its own array.
    vector = cached_property(lambda self: np.array([self.ratings[t] for t in sorted(self.ratings)]))

    @cached_property
    def _component_index(self) -> dict[str, int]:
        return {t: i for i, comp in enumerate(self.components) for t in comp}

    def rating_of(self, team: str) -> float:
        try:
            return self.ratings[team]
        except KeyError:
            raise ValidationError(f"unknown team {team!r}") from None

    def component_of(self, team: str) -> int:
        try:
            return self._component_index[team]
        except KeyError:
            raise ValidationError(f"unknown team {team!r}") from None

    def order(self) -> tuple[str, ...]:
        """Teams sorted by rating descending, name ascending on exact ties."""
        return tuple(sorted(self.ratings, key=lambda t: (-self.ratings[t], t)))


def _capped_margins(view: ScheduleView, cap: int | None) -> np.ndarray:
    """Each game's home-perspective goal margin, clamped to [-cap, +cap]."""
    return view.margin if cap is None else np.minimum(np.maximum(view.margin, -cap), cap)


def estimate_hfa(dataset: SeasonDataset, cap: int | None) -> float:
    """Mean capped home margin over non-neutral games; 0.0 if none exist."""
    return _mean_home_margin(_capped_margins(dataset.schedule, cap), ~dataset.schedule.neutral)


def _mean_home_margin(capped: np.ndarray, at_home: np.ndarray) -> float:
    """The mean of ``capped`` over the games ``at_home`` marks with 1; 0.0, with a warning, if none."""
    count = np.count_nonzero(at_home)
    if not count:
        warnings.warn("no non-neutral games to estimate home advantage from; using 0.0", DataWarning, stacklevel=3)
        return 0.0
    return float(capped @ at_home) / count  # integer margins: an exact sum, rounded once by the division


def _per_team(view: ScheduleView, values: np.ndarray) -> np.ndarray:
    """Each team's sum of per-game home-perspective ``values``: home games added, away games subtracted."""
    n = len(view.index)
    return np.bincount(view.home, values, n) - np.bincount(view.away, values, n)


def _margin_sums(view: ScheduleView, cap: int | None, hfa: float, capped=None, at_home=None) -> np.ndarray:
    """``b``: each team's capped margins, ``hfa`` off at home and back on away; the solve passes its own inputs."""
    if capped is None:
        capped, at_home = _capped_margins(view, cap), ~view.neutral
    return _per_team(view, capped - hfa * at_home)


def grounded_laplacian(dataset: SeasonDataset) -> np.ndarray:
    """``L`` with 1 added to the diagonal entry of each schedule component's first team, read-only.

    The added 1 makes ``L`` nonsingular without changing the solution: that
    component's rows then sum to ``r[team] = sum(b) = 0``. It depends only on
    G and the components, which a flip leaves unchanged.
    """
    view = dataset.schedule
    laplacian = np.diag(view.games.sum(axis=1, dtype=np.float64)) - view.games
    grounded = [view.index[comp[0]] for comp in dataset.components()]
    laplacian[grounded, grounded] += 1.0
    laplacian.flags.writeable = False
    return laplacian


def solve_power_ratings(
    dataset: SeasonDataset, config: SolverConfig = SolverConfig(), *, strict: bool = False
) -> PowerRatingTable:
    """Solve ``L r = b`` for every team in ``dataset`` with one dense solve of its ``grounded_laplacian``.

    A flipped view that ``perturbation_experiment`` ranks holds its parent's
    matrix as ``laplacian``, used as it is. A residual ``||L r - b||inf``
    above ``RATING_TOL`` warns (or raises ComputationError when ``strict``).
    """
    view = dataset.schedule
    lent = vars(view)
    laplacian = lent["laplacian"] if "laplacian" in lent else grounded_laplacian(dataset)
    at_home = ~view.neutral
    capped = _capped_margins(view, config.goal_cap)
    hfa = _mean_home_margin(capped, at_home) if config.hfa == "estimate" else float(config.hfa)
    b = _margin_sums(view, config.goal_cap, hfa, capped, at_home)
    r = np.linalg.solve(laplacian, b)

    residual = float(np.max(np.abs(_per_team(view, r[view.home] - r[view.away]) - b)))
    if not residual <= RATING_TOL:  # a NaN residual fails too
        message = f"rating solve residual {residual:.3g} goals exceeds {RATING_TOL:g}"
        if strict:
            raise ComputationError(message)
        warnings.warn(message, DataWarning, stacklevel=2)

    # Anchor after the solve: per-component mean zero, then an optional single
    # global shift placing the top team at 100. Both leave residuals intact.
    component = dataset.component_labels
    r -= (np.bincount(component, r) / np.bincount(component))[component]
    if config.anchor == "top-100":
        r += 100.0 - r.max()

    ratings = dict(zip(dataset.teams, r.tolist()))
    table = PowerRatingTable(dataset.season, ratings, hfa, residual, dataset.components(), config)
    vars(table)["vector"] = r  # handed on: the ratings dict holds the same values
    return table


def rating_difference(table: PowerRatingTable, team_a: str, team_b: str) -> float:
    """rating(a) - rating(b); only meaningful within one schedule component."""
    ca = table.component_of(team_a)
    cb = table.component_of(team_b)
    if ca != cb:
        raise ValidationError(
            f"{team_a!r} (component {ca}) and {team_b!r} (component {cb}) share no "
            "schedule path; their rating difference is not anchored"
        )
    return table.rating_of(team_a) - table.rating_of(team_b)
