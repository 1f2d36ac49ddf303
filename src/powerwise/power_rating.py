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
(``grounded_laplacian``), depends only on the pairings, so a solve reads it
from the season's ``ingest.Pairings`` once the flip experiment has formed it
there for the season and its flips, and otherwise forms its own and keeps none.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ComputationError, DataWarning, ValidationError
from .ingest import Pairings, ScheduleView, SeasonDataset

ANCHORS = ("mean-zero", "top-100")

# Ratings closer than this (in goals) are one rating: the bound on the solve
# residual, and the tie threshold of every rating comparison.
RATING_TOL = 1e-9


def check_goal_cap(cap) -> None:
    """Reject a margin cap that is not a positive ``int`` (a ``bool`` is not one) or None, or that int64 cannot hold."""
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValidationError(f"goal_cap must be a positive int or None, got {cap!r}")
    if cap is not None and cap > 0x7FFFFFFFFFFFFFFF:  # margins are clamped as int64
        raise ValidationError(f"goal_cap {cap} does not fit in 64 bits")


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
    # The solve's ``ratings`` and the same values as an array in team-name order. ``vector`` reads the array only
    # while ``ratings`` is that mapping, so a copy given other ratings (``dataclasses.replace``) reads its own.
    solved: tuple[Mapping[str, float], np.ndarray] | None = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.residual <= RATING_TOL

    @property
    def iterations(self) -> int:
        """Always 0: the solve is direct."""
        return 0

    @property
    def vector(self) -> np.ndarray:
        """Every rating in team-name order, the order of ``SeasonDataset.teams``."""
        if self.solved is not None and self.solved[0] is self.ratings:
            return self.solved[1]
        return np.fromiter(map(self.ratings.get, sorted(self.ratings)), float, len(self.ratings))

    def rating_of(self, team: str) -> float:
        try:
            return self.ratings[team]
        except KeyError:
            raise ValidationError(f"unknown team {team!r}") from None


def _capped_margins(view: ScheduleView, cap: int | None) -> np.ndarray:
    """Each game's home-perspective goal margin, clamped to [-cap, +cap]."""
    return view.margin if cap is None else np.minimum(np.maximum(view.margin, -cap), cap)


def _mean_home_margin(capped: np.ndarray, at_home: np.ndarray) -> float:
    """The mean of ``capped`` over the games ``at_home`` marks with 1; 0.0, with a warning, if none."""
    count = np.count_nonzero(at_home)
    if not count:
        warnings.warn("no non-neutral games to estimate home advantage from; using 0.0", DataWarning, stacklevel=3)
        return 0.0
    return float(capped @ at_home) / count  # integer margins: an exact sum, rounded once by the division


def _per_team(pairings: Pairings, values: np.ndarray) -> np.ndarray:
    """Each team's sum of per-game home-perspective ``values``: home games added, away games subtracted."""
    n = len(pairings.index)
    return np.bincount(pairings.home, values, n) - np.bincount(pairings.away, values, n)


def _margin_sums(pairings: Pairings, capped: np.ndarray, at_home: np.ndarray, hfa: float) -> np.ndarray:
    """``b``: each team's ``capped`` margins, ``hfa`` off at home and back on away (the games ``at_home`` marks)."""
    return _per_team(pairings, capped - hfa * at_home)


def grounded_laplacian(dataset: SeasonDataset) -> np.ndarray:
    """``L`` with 1 added to the diagonal entry of each schedule component's first team, read-only.

    The added 1 makes ``L`` nonsingular without changing the solution: that
    component's rows then sum to ``r[team] = sum(b) = 0``. It depends only on
    G and the components, which a flip leaves unchanged.
    """
    pairings = dataset.schedule.pairings
    laplacian = np.diag(pairings.games.sum(axis=1, dtype=np.float64)) - pairings.games
    grounded = [pairings.index[comp[0]] for comp in pairings.components]
    laplacian[grounded, grounded] += 1.0
    laplacian.flags.writeable = False
    return laplacian


def solve_power_ratings(
    dataset: SeasonDataset, config: SolverConfig = SolverConfig(), *, strict: bool = False
) -> PowerRatingTable:
    """Solve ``L r = b`` for every team in ``dataset`` with one dense solve of its ``grounded_laplacian``.

    The pairings' ``laplacian`` is used if formed. A residual ``||L r - b||inf``
    above ``RATING_TOL`` warns (or raises ComputationError when ``strict``).
    """
    view = dataset.schedule
    pairings = view.pairings
    laplacian = grounded_laplacian(dataset) if pairings.laplacian is None else pairings.laplacian
    at_home = ~pairings.neutral
    capped = _capped_margins(view, config.goal_cap)
    hfa = _mean_home_margin(capped, at_home) if config.hfa == "estimate" else float(config.hfa)
    b = _margin_sums(pairings, capped, at_home, hfa)
    r = np.linalg.solve(laplacian, b)

    residual = float(np.max(np.abs(_per_team(pairings, r[pairings.home] - r[pairings.away]) - b)))
    if not residual <= RATING_TOL:  # a NaN residual fails too
        message = f"rating solve residual {residual:.3g} goals exceeds {RATING_TOL:g}"
        if strict:
            raise ComputationError(message)
        warnings.warn(message, DataWarning, stacklevel=2)

    # Anchor after the solve: per-component mean zero, then an optional single
    # global shift placing the top team at 100. Both leave residuals intact.
    component = pairings.component_labels
    r -= (np.bincount(component, r) / np.bincount(component))[component]
    if config.anchor == "top-100":
        r += 100.0 - r.max()

    ratings = dict(zip(dataset.teams, r.tolist()))
    return PowerRatingTable(dataset.season, ratings, hfa, residual, pairings.components, config, (ratings, r))
