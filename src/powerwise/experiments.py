"""Sensitivity, agreement, and strength-gap experiments.

Three instruments for interrogating a season:

  * flip one game's result and measure how far the rankings move (the season
    keeps what the next flip reuses); ``find_game`` finds the game by date and
    teams, and ``with_flipped`` builds the flipped season,
  * Kendall tau-b agreement between two rankings (optionally windowed to a
    bubble band of the reference ranking),
  * an offset regression measuring how much better one group of teams performs
    than another against shared external opposition.
"""

from __future__ import annotations

import bisect
import datetime
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ComputationError, ValidationError
from .ingest import _ORDER, GameRecord, ScheduleView, SeasonDataset, build_season
from .pairwise import ComparisonConfig
from .power_rating import SolverConfig, check_goal_cap, grounded_laplacian
from .rpi import RpiConfig, compute_rpi
from .tiebreak import RankingList, rank_season

RANKING_METHODS = ("power", "rpi")


def flip_game(game: GameRecord) -> GameRecord:
    """Swap the final score, turning the winner into the loser. Self-inverse."""
    return replace(game, home_score=game.away_score, away_score=game.home_score)


def _team(dataset: SeasonDataset, name) -> int:  # name's index in dataset.teams, or -1
    i = bisect.bisect_left(dataset.teams, name)
    return i if dataset.teams[i : i + 1] == (name,) else -1


def find_game(
    dataset: SeasonDataset, date: datetime.date, team_a: str, team_b: str, game_index: int | None = None
) -> GameRecord:
    """The one game between two teams (either home/away order) on ``date``, with ``game_index`` if given.

    ValidationError if there is none or more than one. Without ``game_index``
    the message lists each candidate's game_index and score and names
    ``--game-index``; with it, two games left are ones the log cannot tell apart.
    """
    log, a, b = dataset.log, _team(dataset, team_a), _team(dataset, team_b)
    found = (((log.home == a) & (log.away == b)) | ((log.home == b) & (log.away == a))) & (log.date == date.toordinal())
    where = f"between {team_a!r} and {team_b!r} on {date.isoformat()}"
    if game_index is not None:
        found &= log.game_index == game_index
        where += f" with game_index {game_index}"
    matches = np.flatnonzero(found).tolist()
    if not matches:
        raise ValidationError(f"no game {where}")
    if len(matches) > 1 and game_index is not None:
        raise ValidationError(f"{len(matches)} games {where}; the log cannot tell them apart")
    if len(matches) > 1:
        listed = ", ".join(
            f"game_index {g.game_index} ({g.home_team} {g.home_score}-{g.away_score} {g.away_team})"
            for g in map(log.__getitem__, matches)
        )
        raise ValidationError(f"{len(matches)} games {where}; pick one with --game-index: {listed}")
    return log[matches[0]]


def position(dataset: SeasonDataset, game: GameRecord) -> int:
    """``game``'s index in ``dataset.games``, found among its date's games; ValidationError if it is not there."""
    log, day = dataset.log, game.date.toordinal()
    lo, hi = log.date.searchsorted([day, day + 1]).tolist()  # the date is the first sort key
    keys = list(zip(*(getattr(log, name)[lo:hi].tolist() for name in _ORDER)))
    teams = _team(dataset, game.home_team), _team(dataset, game.away_team)
    key = (day, *teams, game.game_index, game.home_score, game.away_score, game.neutral_site)
    if game.season != dataset.season or key not in keys:
        raise ValidationError(f"game {game} is not in the season")
    return lo + keys.index(key)


def with_flipped(dataset: SeasonDataset, game: GameRecord) -> SeasonDataset:
    """``dataset`` with ``game``'s result flipped (``flip_game``), as ``build_season`` would index it.

    The game is looked up once (``position``), so a game not in the season
    raises ValidationError. Its scores are swapped in copies of the score
    columns; no record is built. A flip moves no team, pairing or game, so the
    new view holds this one's ``pairings``, new ``wins`` and ``margin``, and
    ``flip``, a link to this view. A flip next to a game with the same (date,
    home, away, game_index), which it could reorder or duplicate, goes through ``build_season``.
    """
    k, log = position(dataset, game), dataset.log
    home_score, away_score = log.home_score.copy(), log.away_score.copy()
    home_score[k], away_score[k] = log.away_score[k], log.home_score[k]
    log = log.replace(home_score=home_score, away_score=away_score)
    slot = [getattr(log, name) for name in _ORDER[:4]]  # (date, home, away, game_index): a flip keeps them
    if any(all(c[j] == c[k] for c in slot) for j in (k - 1, k + 1) if 0 <= j < len(log)):
        return build_season(log, dataset.season)
    view = dataset.schedule
    margin = view.margin.copy()
    margin[k] = -margin[k]
    wins = view.wins.copy()
    h, a, step = view.pairings.home[k], view.pairings.away[k], np.sign(view.margin[k])
    wins[h, a] -= step  # the home side's win value goes from 0.5 + step/2 to 0.5 - step/2
    wins[a, h] += step
    flipped = SeasonDataset(dataset.season, dataset.teams, log)
    flipped.derived.view = ScheduleView(view.pairings, margin, wins, flip=(view, np.array([h, a])))  # indexes faster
    return flipped


def _ranking(dataset: SeasonDataset, method: str, configs: tuple) -> RankingList:
    """``dataset``'s ranking by ``method``, under (solver, comparison) configs for power, (rpi,) for RPI."""
    if method == "power":
        return rank_season(dataset, *configs)[2]
    return RankingList.from_scores(dataset.season, compute_rpi(dataset, *configs).rpi)


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

    The season keeps what every flip reuses in ``dataset.derived.flips``:
    ``"last"``, the last game and its flipped season (``with_flipped``), which
    the next game's replaces; and ``"power"`` and ``"rpi"``, each method's
    pre-flip ranking and the configs it was made under. A power flip forms the
    Laplacian in the ``Pairings`` the season shares with its flips. A game not
    in the season raises ``ValidationError`` before anything is ranked or
    kept. Both rankings equal a fresh ranking of each season.
    """
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    if method not in RANKING_METHODS:
        raise ValidationError(f"method must be one of {RANKING_METHODS}, got {method!r}")
    memo = dataset.derived.flips
    if memo.get("last", (None,))[0] != game:
        memo.pop("last", None)  # dropped first: two flipped seasons are never alive at once
        memo["last"] = game, with_flipped(dataset, game)
    flipped = memo["last"][1]
    shared = dataset.schedule.pairings
    if method == "power" and shared.laplacian is None and flipped.schedule.pairings is shared:
        shared.laplacian = grounded_laplacian(dataset)
    configs = (solver_config, comparison_config) if method == "power" else (rpi_config,)
    if memo.get(method, (None,))[0] != configs:
        memo[method] = configs, _ranking(dataset, method, configs)
    before = memo[method][1]
    after = _ranking(flipped, method, configs)
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

    def band_halfwidth(self, x: float) -> float:
        """Half-width of the 95% mean-response confidence interval at ``x``."""
        df = self.n - 2
        if df <= 0 or self.sxx == 0:
            return float("nan")
        from scipy import stats
        t_crit = float(stats.t.ppf(0.975, df))
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
    pairings, margin = dataset.schedule.pairings, dataset.schedule.margin
    team = np.column_stack([pairings.home, pairings.away]).ravel()
    opp = np.column_stack([pairings.away, pairings.home]).ravel()
    margin = np.column_stack([margin, -margin]).ravel()
    usable = np.array([t in strengths and t not in excluded for t in dataset.teams])
    keep = np.flatnonzero(np.isin(team, [pairings.index[t] for t in group]) & usable[opp])
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
        if t not in dataset.schedule.pairings.index:
            raise ValidationError(f"unknown team {t!r}")
    excluded = set(group_a) | set(group_b)
    return pooled_regression(
        _group_samples(dataset, strengths, group_a, excluded, goal_cap),
        _group_samples(dataset, strengths, group_b, excluded, goal_cap),
        group_a=group_a,
        group_b=group_b,
    )
