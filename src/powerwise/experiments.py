"""Sensitivity, agreement, and strength-gap experiments.

Three instruments for interrogating a season:

  * flip one game's result and measure how far the rankings move,
  * Kendall tau-b agreement between two rankings (optionally windowed to a
    bubble band of the reference ranking),
  * an offset regression measuring how much better one group of teams performs
    than another against shared external opposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ComputationError, ValidationError
from .ingest import GameRecord, SeasonDataset
from .pairwise import ComparisonConfig, PowerwiseTable
from .power_rating import PowerRatingTable, SolverConfig, check_goal_cap, grounded_laplacian, season_inputs
from .rpi import RpiConfig, compute_rpi
from .tiebreak import RankingList, rank_season

RANKING_METHODS = ("power", "rpi")


def _rpi_ranking(dataset: SeasonDataset, config: RpiConfig) -> RankingList:
    return RankingList.from_scores(dataset.season, compute_rpi(dataset, config).rpi)


@dataclass(frozen=True)
class _Before:
    """One method's pre-flip ranking and the configs it was made under.

    For ``"power"`` it also holds the season's tournament, whose verdicts each
    flip starts from.
    """

    configs: tuple
    ranking: RankingList
    table: PowerwiseTable | None = None


class FlipParent:
    """What ``perturbation_experiment`` keeps of a season between flips: the parent of every flipped season.

    ``before`` maps a method to its ``_Before``; a call under other configs
    replaces it. ``laplacian`` is the season's ``grounded_laplacian`` and
    ``season_inputs`` its ``power_rating.season_inputs``, formed at the first
    power flip and lent to every flipped view after it: a flip changes
    neither G, the neutral sites nor the components. Each power table in
    ``before`` forms its kept step I/II verdicts once, on its first flip
    (``PowerwiseTable._kept``). ``last`` is the last game's (game, flipped
    season, index in ``games``), so the power and RPI calls for one game look
    it up once and build one flipped season, and the next game's replaces it.
    ``of(dataset)`` keeps the state in the season's ``__dict__``, so it dies
    with the season.
    """

    def __init__(self):
        self.before: dict[str, _Before] = {}
        self.laplacian: np.ndarray | None = None
        self.season_inputs: tuple[np.ndarray, ...] | None = None
        self.last: tuple[GameRecord, SeasonDataset | None, int] | None = None

    @classmethod
    def of(cls, dataset: SeasonDataset, game: GameRecord | None = None) -> FlipParent:
        """The season's state; ``game``, if given, is located first, so a game not in the season keeps nothing."""
        state = vars(dataset).get("_flip_parent") or cls()
        if game is not None:
            state.locate(dataset, game)
        vars(dataset)["_flip_parent"] = state
        return state

    def locate(self, dataset: SeasonDataset, game: GameRecord) -> int:
        """``dataset.position(game)``, bisected once for a run of calls on one game."""
        if self.last is None or self.last[0] != game:
            k = dataset.position(game)
            self.last = (game, None, k)  # dropping the last flipped season: two are never alive at once
        return self.last[2]

    def ranked(self, dataset: SeasonDataset, method: str, configs: tuple) -> _Before:
        """``dataset``'s own ranking by ``method``, under (solver, comparison) configs for power, (rpi,) for RPI."""
        before = self.before.get(method)
        if before is not None and before.configs == configs:
            return before
        if method == "power":
            _, table, ranking = rank_season(dataset, *configs)
            before = _Before(configs, ranking, table)
        else:
            before = _Before(configs, _rpi_ranking(dataset, *configs))
        self.before[method] = before
        return before

    def flipped(self, dataset: SeasonDataset, game: GameRecord) -> SeasonDataset:
        """``dataset.with_flipped(game)``, built once for a run of calls on one game."""
        k = self.locate(dataset, game)
        if self.last[1] is None:
            self.last = (game, dataset.with_flipped(game, k), k)
        return self.last[1]

    def rank_flipped(
        self, dataset: SeasonDataset, game: GameRecord, solver_config: SolverConfig, comparison_config: ComparisonConfig
    ) -> tuple[PowerRatingTable, PowerwiseTable, RankingList]:
        """``rank_season`` of the flipped season, lent what the parent keeps.

        On ``with_flipped``'s shared view path the flipped view is lent the
        parent's Laplacian, season inputs and tournament under these configs
        (see ``ScheduleView``), so the solve forms neither and the tournament
        re-decides only what the flip changes: the flipped pair's rows and
        columns in full and step III everywhere. A flip that fell back to
        ``build_season`` (a neighbour with the same date, home, away and
        game_index) shares nothing and is ranked afresh.
        """
        before = self.ranked(dataset, "power", (solver_config, comparison_config))
        flipped = self.flipped(dataset, game)
        view = flipped.schedule
        if view.games is dataset.schedule.games:
            if self.laplacian is None:
                self.laplacian, self.season_inputs = grounded_laplacian(dataset), season_inputs(dataset)
            pair = [view.index[game.home_team], view.index[game.away_team]]
            vars(view).update(laplacian=self.laplacian, season_inputs=self.season_inputs)
            vars(view)["parent_tournament"] = (before.table, pair)
        return rank_season(flipped, solver_config, comparison_config)


@dataclass(frozen=True)
class PerturbationReport:
    """Rank movement among the pre-flip top ``top_k`` after one result flips."""

    method: str
    flipped_game: GameRecord
    top_k: int
    rank_changes: tuple[tuple[str, int, int], ...]  # (team, before, after)
    before: RankingList
    after: RankingList

    @property
    def n_changed(self) -> int:
        return len(self.rank_changes)


def perturbation_experiment(
    dataset: SeasonDataset,
    game: GameRecord,
    method: str,
    *,
    solver_config: SolverConfig = SolverConfig(),
    rpi_config: RpiConfig = RpiConfig(),
    comparison_config: ComparisonConfig = ComparisonConfig(),
    top_k: int = 15,
) -> PerturbationReport:
    """Flip ``game`` and report which of the top ``top_k`` teams change rank.

    The season keeps one ``FlipParent`` with what every flip reuses: each
    method's pre-flip ranking under its last call's configs, ranked before the
    flipped season is built so that season inherits its step II products, and
    the last flipped season, so the power and RPI calls for one game build it
    once. The flipped season, ``dataset.with_flipped(game)``, is ranked by
    ``rank_season`` (lent what the parent keeps, see ``rank_flipped``) or by
    ``compute_rpi``; either way both rankings equal a fresh ranking of each
    season. The game is looked up once (``FlipParent.locate``), and a game
    not in the season raises ``ValidationError`` before anything is ranked
    or kept.
    """
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    if method not in RANKING_METHODS:
        raise ValidationError(f"method must be one of {RANKING_METHODS}, got {method!r}")
    state = FlipParent.of(dataset, game)
    if method == "power":
        before = state.ranked(dataset, method, (solver_config, comparison_config)).ranking
        after = state.rank_flipped(dataset, game, solver_config, comparison_config)[2]
    else:
        before = state.ranked(dataset, method, (rpi_config,)).ranking
        after = _rpi_ranking(state.flipped(dataset, game), rpi_config)
    after_ranks = after.ranks()
    changes = []
    for e in before.entries:
        if e.rank > top_k:
            break  # entries run in rank order
        if after_ranks[e.team] != e.rank:
            changes.append((e.team, e.rank, after_ranks[e.team]))
    return PerturbationReport(
        method=method,
        flipped_game=game,
        top_k=top_k,
        rank_changes=tuple(changes),
        before=before,
        after=after,
    )


def _as_ranks(ranking) -> dict[str, float]:
    if isinstance(ranking, RankingList):
        return {t: float(r) for t, r in ranking.ranks().items()}
    if isinstance(ranking, Mapping):
        return {t: float(r) for t, r in ranking.items()}
    return {t: float(i) for i, t in enumerate(ranking, start=1)}


def kendall_tau(
    ranking_a,
    ranking_b,
    window: tuple[int, int] | None = None,
) -> float:
    """Kendall tau-b between two rankings of the same teams.

    Rankings may be RankingLists, team-to-rank mappings, or ordered team
    sequences. ``window=(lo, hi)`` restricts to teams ranked lo..hi inclusive
    in ``ranking_a``, the reference side.
    """
    ranks_a = _as_ranks(ranking_a)
    ranks_b = _as_ranks(ranking_b)
    if set(ranks_a) != set(ranks_b):
        missing = sorted(set(ranks_a) ^ set(ranks_b))
        raise ValidationError(f"rankings cover different teams, e.g. {missing[:5]}")
    teams = sorted(ranks_a)
    if window is not None:
        lo, hi = window
        if lo > hi or lo < 1:
            raise ValidationError(f"bad rank window {window}")
        teams = [t for t in teams if lo <= ranks_a[t] <= hi]
    if len(teams) < 2:
        raise ValidationError(f"need at least 2 teams to correlate, got {len(teams)}")
    from scipy import stats  # imported here: scipy.stats alone costs ~1 s of CLI start-up
    tau = stats.kendalltau(
        [ranks_a[t] for t in teams], [ranks_b[t] for t in teams], variant="b"
    ).statistic
    if math.isnan(tau):
        raise ComputationError("tau undefined: a side has no rank variation in the window")
    return float(tau)


@dataclass(frozen=True)
class LineFit:
    """OLS line with enough sufficient statistics to draw a mean-response band."""

    slope: float
    intercept: float
    n: int
    x_mean: float
    sxx: float
    residual_var: float
    x_range: tuple[float, float]

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x

    def band_halfwidth(self, x: float, level: float = 0.95) -> float:
        """Half-width of the mean-response confidence interval at ``x``."""
        df = self.n - 2
        if df <= 0 or self.sxx == 0:
            return float("nan")
        from scipy import stats
        t_crit = float(stats.t.ppf(0.5 + level / 2, df))
        se = math.sqrt(self.residual_var * (1 / self.n + (x - self.x_mean) ** 2 / self.sxx))
        return t_crit * se


def _fit_line(samples: Sequence[tuple[float, float]]) -> LineFit:
    xs = np.array([x for x, _ in samples], dtype=float)
    ys = np.array([y for _, y in samples], dtype=float)
    if len(xs) < 3:
        raise ValidationError(f"need at least 3 samples per group to fit, got {len(xs)}")
    if np.ptp(xs) == 0:
        raise ValidationError("cannot fit a slope: all opponent strengths identical")
    design = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    residuals = ys - (intercept + slope * xs)
    df = len(xs) - 2
    return LineFit(
        slope=slope,
        intercept=intercept,
        n=len(xs),
        x_mean=float(xs.mean()),
        sxx=float(((xs - xs.mean()) ** 2).sum()),
        residual_var=float((residuals**2).sum() / df) if df > 0 else 0.0,
        x_range=(float(xs.min()), float(xs.max())),
    )


@dataclass(frozen=True)
class RegressionReport:
    """Two per-group fits of game margin against opponent strength.

    ``group_offset`` is the vertical gap (group A minus group B) between the
    two fitted lines at the midpoint of the shared opponent-strength range;
    ``p_value`` tests that gap with a common-slope dummy-variable model.
    """

    group_a: tuple[str, ...]
    group_b: tuple[str, ...]
    fit_a: LineFit
    fit_b: LineFit
    samples_a: tuple[tuple[float, float], ...]
    samples_b: tuple[tuple[float, float], ...]
    group_offset: float
    midpoint: float
    p_value: float

    @property
    def n_points(self) -> int:
        return len(self.samples_a) + len(self.samples_b)


def _group_samples(
    dataset: SeasonDataset,
    strengths: Mapping[str, float],
    group: Sequence[str],
    excluded: set,
    goal_cap: int | None,
) -> list[tuple[float, float]]:
    # Samples run by team in sorted-name order, then in game order: lstsq's last
    # bits depend on it. Each game is listed twice, (home, away) interleaved,
    # and sorted stably by team index.
    view = dataset.schedule
    team = np.column_stack([view.home, view.away]).ravel()
    opp = np.column_stack([view.away, view.home]).ravel()
    margin = np.column_stack([view.margin, -view.margin]).ravel()
    usable = np.array([t in strengths and t not in excluded for t in dataset.teams])
    keep = np.flatnonzero(np.isin(team, [view.index[t] for t in group]) & usable[opp])
    keep = keep[np.argsort(team[keep], kind="stable")]
    if goal_cap is not None:
        margin = np.clip(margin, -goal_cap, goal_cap)
    pairs = zip(opp[keep].tolist(), margin[keep].tolist())
    return [(float(strengths[dataset.teams[o]]), float(m)) for o, m in pairs]


def pooled_regression(
    samples_a: Sequence[tuple[float, float]],
    samples_b: Sequence[tuple[float, float]],
    *,
    group_a: tuple[str, ...] = (),
    group_b: tuple[str, ...] = (),
) -> RegressionReport:
    """Offset analysis of two raw (strength, margin) sample clouds.

    Useful directly when samples from several seasons are pooled; the labeled
    entry point below extracts one season's samples first.
    """
    samples_a = list(samples_a)
    samples_b = list(samples_b)
    if not samples_a or not samples_b:
        raise ValidationError("a group has no games against outside opposition")
    fit_a = _fit_line(samples_a)
    fit_b = _fit_line(samples_b)

    lo = max(fit_a.x_range[0], fit_b.x_range[0])
    hi = min(fit_a.x_range[1], fit_b.x_range[1])
    if lo > hi:
        raise ValidationError("groups share no opponent-strength range to compare at")
    midpoint = (lo + hi) / 2
    group_offset = fit_a.predict(midpoint) - fit_b.predict(midpoint)

    xs = np.array([x for x, _ in samples_a + samples_b])
    ys = np.array([y for _, y in samples_a + samples_b])
    dummy = np.array([1.0] * len(samples_a) + [0.0] * len(samples_b))
    design = np.column_stack([np.ones_like(xs), xs, dummy])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residuals = ys - design @ coef
    df = len(xs) - 3
    if df <= 0:
        raise ValidationError("too few samples for a significance test")
    sigma2 = float((residuals**2).sum() / df)
    try:
        cov = sigma2 * np.linalg.inv(design.T @ design)
    except np.linalg.LinAlgError:
        raise ComputationError("degenerate design: offset is not identifiable") from None
    se = math.sqrt(max(cov[2, 2], 0.0))
    offset_coef = float(coef[2])
    if se == 0.0:
        # Zero residual variance: the gap is either exactly absent or exact.
        p_value = 1.0 if abs(offset_coef) < 1e-12 else 0.0
    else:
        from scipy import stats
        t_stat = offset_coef / se
        p_value = float(2 * stats.t.sf(abs(t_stat), df))
    return RegressionReport(
        group_a=group_a,
        group_b=group_b,
        fit_a=fit_a,
        fit_b=fit_b,
        samples_a=tuple(samples_a),
        samples_b=tuple(samples_b),
        group_offset=group_offset,
        midpoint=midpoint,
        p_value=p_value,
    )


def strength_regression(
    dataset: SeasonDataset,
    strengths: Mapping[str, float],
    group_a: Iterable[str],
    group_b: Iterable[str],
    *,
    goal_cap: int | None = None,
) -> RegressionReport:
    """Quantify how much better group A fares than group B against shared opposition.

    Samples are (opponent strength, goal margin, clamped to a positive
    ``goal_cap``) points from each group's games against teams outside both
    groups. Each group gets an independent OLS line; the reported offset is
    their gap at the midpoint of the common strength range. The p-value comes
    from the pooled model ``margin ~ strength + is_group_a`` (identical groups
    give exactly 1.0).
    """
    check_goal_cap(goal_cap)
    group_a = tuple(sorted(set(group_a)))
    group_b = tuple(sorted(set(group_b)))
    if not group_a or not group_b:
        raise ValidationError("both groups must be non-empty")
    overlap = set(group_a) & set(group_b)
    if overlap:
        raise ValidationError(f"groups overlap: {', '.join(sorted(overlap))}")
    for t in group_a + group_b:
        if t not in dataset.schedule.index:
            raise ValidationError(f"unknown team {t!r}")
    excluded = set(group_a) | set(group_b)
    return pooled_regression(
        _group_samples(dataset, strengths, group_a, excluded, goal_cap),
        _group_samples(dataset, strengths, group_b, excluded, goal_cap),
        group_a=group_a,
        group_b=group_b,
    )
