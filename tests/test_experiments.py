"""Flip, correlation, and regression experiments against independent oracles."""

import dataclasses
import datetime
import gc
import hashlib
import itertools
import math
import random
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise import experiments, power_rating
from powerwise.errors import ComputationError, DataWarning, ValidationError
from powerwise.experiments import (
    RANKING_METHODS,
    FlipParent,
    _group_samples,
    kendall_tau,
    perturbation_experiment,
    pooled_regression,
    strength_regression,
)
from powerwise.ingest import GameRecord, SeasonDataset, build_season, flip_game
from powerwise.pairwise import CO_MODES, ComparisonConfig, run_tournament
from powerwise.power_rating import SolverConfig, grounded_laplacian, solve_power_ratings
from powerwise.rpi import compute_rpi
from powerwise.synthetic import random_schedule, synthetic_league
from powerwise.tiebreak import RankingList, rank_season
from reference import games_of, group_samples, opponent_of


def tau_b_oracle(xs, ys):
    """Textbook O(n^2) tau-b: count concordant/discordant pairs directly."""
    n = len(xs)
    nc = nd = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                tx += 1
                ty += 1
            elif dx == 0:
                tx += 1
            elif dy == 0:
                ty += 1
            elif dx * dy > 0:
                nc += 1
            else:
                nd += 1
    n0 = n * (n - 1) // 2
    return (nc - nd) / math.sqrt((n0 - tx) * (n0 - ty))


def ols_oracle(samples):
    """Closed-form simple regression: slope = Sxy/Sxx, intercept from the means."""
    n = len(samples)
    xbar = sum(x for x, _ in samples) / n
    ybar = sum(y for _, y in samples) / n
    sxx = sum((x - xbar) ** 2 for x, _ in samples)
    sxy = sum((x - xbar) * (y - ybar) for x, y in samples)
    slope = sxy / sxx
    return slope, ybar - slope * xbar


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def ancova_oracle(samples_a, samples_b):
    """Offset coefficient and its standard error for margin ~ 1 + x + group,
    solved from the normal equations with Cramer's rule (no numpy).
    """
    rows = [(1.0, x, 1.0, y) for x, y in samples_a] + [(1.0, x, 0.0, y) for x, y in samples_b]
    xtx = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    xty = [sum(r[i] * r[3] for r in rows) for i in range(3)]
    d = _det3(xtx)
    coef = []
    for k in range(3):
        mk = [row[:] for row in xtx]
        for i in range(3):
            mk[i][k] = xty[i]
        coef.append(_det3(mk) / d)
    rss = sum((r[3] - sum(c * v for c, v in zip(coef, r[:3]))) ** 2 for r in rows)
    df = len(rows) - 3
    sigma2 = rss / df
    minor22 = xtx[0][0] * xtx[1][1] - xtx[0][1] * xtx[1][0]
    se_offset = math.sqrt(sigma2 * minor22 / d)
    return coef[2], se_offset


def test_flip_game_is_an_involution():
    g = GameRecord(2024, datetime.date(2024, 2, 10), "Yale", "Brown", 12, 8, False, 1)
    f = flip_game(g)
    assert (f.home_score, f.away_score) == (8, 12)
    assert (f.home_team, f.away_team, f.date, f.game_index) == ("Yale", "Brown", g.date, 1)
    assert flip_game(f) == g


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=30, deadline=None)
def test_flip_involution_property(seed):
    ds = random_schedule(seed=seed, n_teams_range=(3, 6))
    for g in ds.games:
        assert flip_game(flip_game(g)) == g


def test_perturbation_matches_direct_rerank():
    league = synthetic_league(10, seed=11, games_per_team=8)
    ds = league.dataset
    game = ds.games[0]
    cfg = SolverConfig(hfa=1.0)
    report = perturbation_experiment(ds, game, "power", solver_config=cfg, top_k=5)

    rebuilt = build_season(
        [flip_game(g) if g == game else g for g in ds.games], ds.season
    )
    _, _, want_after = rank_season(rebuilt, cfg)
    assert report.after.order() == want_after.order()
    _, _, want_before = rank_season(ds, cfg)
    assert report.before.order() == want_before.order()

    before, after = report.before.ranks(), report.after.ranks()
    for team, old, new in report.rank_changes:
        assert before[team] == old and after[team] == new and old != new and old <= 5
    unchanged = [t for t in ds.teams if before[t] <= 5 and t not in {c[0] for c in report.rank_changes}]
    for t in unchanged:
        assert before[t] == after[t]
    assert report.n_changed == len(report.rank_changes)


def test_perturbation_rpi_method():
    league = synthetic_league(8, seed=3)
    ds = league.dataset
    report = perturbation_experiment(ds, ds.games[2], "rpi", top_k=8)
    want = RankingList.from_scores(2024, compute_rpi(ds).rpi)
    assert report.before.order() == want.order()


def test_perturbation_validation():
    league = synthetic_league(6, seed=1)
    ds = league.dataset
    fields = set(vars(ds))
    with pytest.raises(ValidationError, match="top_k"):
        perturbation_experiment(ds, ds.games[0], "power", top_k=0)
    with pytest.raises(ValidationError, match="method"):
        perturbation_experiment(ds, ds.games[0], "elo")
    assert set(vars(ds)) == fields  # checked before any work: no schedule, products or ranking cached
    outsider = GameRecord(2024, datetime.date(2024, 2, 2), "T01", "T02", 3, 1, False, 7)
    for method in RANKING_METHODS:
        with pytest.raises(ValidationError, match="not in the season"):
            perturbation_experiment(ds, outsider, method)
    assert set(vars(ds)) == fields  # the game is looked up before the pre-flip season is ranked


SCHEDULE_ARRAYS = (
    "index", "home", "away", "margin", "neutral", "wins", "games", "adjacency", "pool", "pool_games", "pool_wins"
)
PRODUCTS = ("pool", "pool_games", "pool_wins")


def assert_same_schedule(got, want):
    """Every array of two ScheduleViews, the step II products too, equal in dtype and in every bit."""
    for name in SCHEDULE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "index":
            assert a == b
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def flip_season(seed, close, split, clash):
    """A random season with both signs of margin, repeat meetings and neutral games.

    ``close`` margins of 0-2 goals (many tied scores); ``split`` adds a second,
    disconnected schedule; ``clash`` adds two games in the first game's
    (date, home, away, game_index) slot: one one goal apart, which a flip
    reorders, and one with the scores swapped, which a flip duplicates.
    """
    rng = random.Random(seed)
    shape = dict(margin_range=(0, 2) if close else (0, 9), n_teams_range=(3, 6))
    games = [flip_game(g) if rng.random() < 0.5 else g for g in random_schedule(seed=seed, **shape).games]
    if split:
        other = random_schedule(seed=seed + 1, **shape).games
        games += [dataclasses.replace(g, home_team="U" + g.home_team, away_team="U" + g.away_team) for g in other]
    if clash:
        first = games[0]
        games += [dataclasses.replace(first, home_score=first.home_score + 1), flip_game(first)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)  # a tied first game's swapped copy is a duplicate
        return build_season(games, 2024)


FLIP_SOLVER_CONFIGS = (SolverConfig(), SolverConfig(goal_cap=None, hfa=0.5))
FLIP_COMPARISON_CONFIGS = tuple(ComparisonConfig(m, s) for m, s in itertools.product(CO_MODES, (False, True)))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    close=st.booleans(),
    split=st.booleans(),
    clash=st.booleans(),
)
@example(seed=3, close=True, split=True, clash=True)
@settings(max_examples=20, deadline=None)
def test_flip_path_equals_a_fresh_rerank(seed, close, split, clash):
    """For every game, the flip path gives exactly what rebuilding and reranking the flipped season gives.

    The flipped view's step II products equal the rebuilt view's whether the
    parent had formed its products before the flip (and the flip inherits
    them) or not, and for a flip of a flipped season.
    """
    ds = flip_season(seed, close, split, clash)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        fresh = {}
        for game in ds.games:
            rebuilt = build_season([flip_game(g) if g == game else g for g in ds.games], ds.season)
            flipped = ds.with_flipped(game)
            assert flipped == rebuilt
            assert_same_schedule(flipped.schedule, rebuilt.schedule)  # formed by the flipped view itself
            assert flipped.components() == rebuilt.components()
            fresh[game] = rebuilt
        assert not set(PRODUCTS) & set(vars(ds.schedule))
        for name in PRODUCTS:
            getattr(ds.schedule, name)
        for k, game in enumerate(ds.games):
            flipped = ds.with_flipped(game)
            if "schedule" in vars(flipped):  # not rebuilt by build_season, so the products came from ds
                assert set(PRODUCTS) <= set(vars(flipped.schedule))
            assert_same_schedule(flipped.schedule, fresh[game].schedule)
            second = flipped.games[(k + 1) % len(flipped.games)]
            twice = build_season([flip_game(g) if g == second else g for g in flipped.games], ds.season)
            assert_same_schedule(flipped.with_flipped(second).schedule, twice.schedule)
        for solver, comparison in itertools.product(FLIP_SOLVER_CONFIGS, FLIP_COMPARISON_CONFIGS):
            want_before = rank_season(ds, solver, comparison)[2]
            for game in ds.games:
                report = perturbation_experiment(
                    ds, game, "power", solver_config=solver, comparison_config=comparison, top_k=4
                )
                want_after = rank_season(fresh[game], solver, comparison)[2]
                assert report.before == want_before and report.after == want_after
                assert report.rank_changes == rank_changes(want_before, want_after, 4)
        want_before = RankingList.from_scores(ds.season, compute_rpi(ds).rpi)
        for game in ds.games:
            report = perturbation_experiment(ds, game, "rpi", top_k=4)
            want_after = RankingList.from_scores(ds.season, compute_rpi(fresh[game]).rpi)
            assert report.before == want_before and report.after == want_after
            assert report.rank_changes == rank_changes(want_before, want_after, 4)


def rank_changes(before, after, top_k):
    old, new = before.ranks(), after.ranks()
    return tuple((t, old[t], new[t]) for t in before.order() if old[t] <= top_k and old[t] != new[t])


def test_flip_examples_cover_the_hard_cases():
    ds = flip_season(3, close=True, split=True, clash=True)
    view = ds.schedule
    assert (view.margin == 0).any() and (view.margin > 0).any() and (view.margin < 0).any()
    assert view.games.max() > 1 and view.neutral.any() and not view.neutral.all()
    assert len(ds.components()) == 2
    first = ds.games[0]
    clashing = [g for g in ds.games if (g.date, g.home_team, g.away_team, g.game_index) == (first.date, first.home_team, first.away_team, first.game_index)]
    assert len(clashing) == 3
    with pytest.warns(DataWarning, match="duplicate"):  # one clashing flip duplicates its neighbour
        assert len(ds.with_flipped(clashing[0]).games) == len(ds.games) - 1


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    close=st.booleans(),
    split=st.booleans(),
    clash=st.booleans(),
)
@example(seed=3, close=True, split=True, clash=True)
@settings(max_examples=15, deadline=None)
def test_flipped_tournament_equals_a_fresh_tournament(seed, close, split, clash):
    """For every game and config pair, the flip path's step and sign equal a fresh ``run_tournament``'s in every byte.

    The flip path lends the parent's tournament (its step I/II verdicts) and
    Laplacian on the shared view path, and lends nothing on the
    ``build_season`` fallback, which runs the whole tournament.
    """
    ds = flip_season(seed, close, split, clash)
    state = FlipParent.of(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        rebuilt = {g: build_season([flip_game(x) if x == g else x for x in ds.games], ds.season) for g in ds.games}
        for solver, comparison in itertools.product(FLIP_SOLVER_CONFIGS, FLIP_COMPARISON_CONFIGS):
            for game in ds.games:
                ratings, table, _ = state.rank_flipped(ds, game, solver, comparison)
                view = state.last[1].schedule
                lent = vars(view).get("parent_tournament")
                if view.games is ds.schedule.games:
                    assert lent[0] is state.before["power"].table and lent[0].ladder.config == comparison
                    assert vars(view)["laplacian"] is state.laplacian
                else:
                    assert lent is None and "laplacian" not in vars(view)
                want_ratings = solve_power_ratings(rebuilt[game], solver)
                want = run_tournament(rebuilt[game], want_ratings, comparison)
                assert ratings.ratings == want_ratings.ratings
                for got, expected in ((table.step, want.step), (table.sign, want.sign)):
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
                assert table.points == want.points


# sha256 of repr((wp, owp, oowp)) of compute_rpi on mini2024 and on synthetic_league(10, seed=4): the three RPI
# components pinned bit for bit, team order included
RPI_COMPONENT_DIGESTS = (
    "bec57629012bf338f61812f9cc1d5fbf2043d105422e92dc1d73635a056b377f",
    "be86200f039442fcf94bc673508804885533ca1082838cd392a08b68d877b01c",
)


def test_flipped_season_shares_what_a_flip_leaves_unchanged(monkeypatch, mini2024):
    ds = synthetic_league(10, seed=4).dataset
    game = ds.games[5]
    assert game.home_score != game.away_score
    perturbation_experiment(ds, game, "power")  # ranks the season, forming its products, then flips
    state = FlipParent.of(ds)
    view = ds.schedule
    assert set(PRODUCTS) <= set(vars(view))
    assert state.last[0] == game
    flipped = state.last[1]
    new = flipped.schedule
    assert flipped.games[5] == flip_game(game) and flipped.teams is ds.teams
    for name in ("index", "home", "away", "neutral", "games", "adjacency", "pool", "pool_games"):
        assert getattr(new, name) is getattr(view, name)
    assert flipped.components() is ds.components()
    assert flipped.component_labels is ds.component_labels
    assert new.wins is not view.wins and new.margin is not view.margin
    assert new.pool_wins is not view.pool_wins
    h, a = view.index[game.home_team], view.index[game.away_team]
    changed = np.flatnonzero((new.pool_wins != view.pool_wins).any(axis=1))
    assert changed.tolist() == sorted([h, a])
    # one grounded Laplacian serves the parent and every flip, and nothing can write to it
    assert state.laplacian.tobytes() == grounded_laplacian(flipped).tobytes() == grounded_laplacian(ds).tobytes()
    assert not state.laplacian.flags.writeable
    assert flipped.with_flipped(flipped.games[5]) == ds
    # RPI's season-fixed arrays and the solve's season inputs are the parent's own objects: a flip forms none
    perturbation_experiment(ds, game, "rpi")  # ranks the season by RPI, which forms its sides
    real, formed = power_rating.season_inputs, []
    monkeypatch.setattr(power_rating, "season_inputs", lambda season: formed.append(season) or real(season))
    second = ds.games[6]
    for method in RANKING_METHODS:
        perturbation_experiment(ds, second, method)
    assert formed == [] and state.last[0] == second
    new = state.last[1].schedule
    assert new.games is view.games and new.sides is view.sides
    assert vars(new)["laplacian"] is state.laplacian and vars(new)["season_inputs"] is state.season_inputs
    for got, want in zip(state.season_inputs, real(ds)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the RPI components, formed into dicts when read, hold their pinned values
    for season, digest in zip((mini2024, ds), RPI_COMPONENT_DIGESTS):
        table = compute_rpi(season)
        assert hashlib.sha256(repr((table.wp, table.owp, table.oowp)).encode()).hexdigest() == digest


def test_pre_flip_ranking_is_reused_only_under_the_same_configs():
    ds = synthetic_league(16, seed=1, games_per_team=6).dataset
    game = ds.games[7]
    calls = [
        dict(solver_config=SolverConfig(hfa=0.0)),
        dict(),
        dict(comparison_config=ComparisonConfig("numeric", True)),
        dict(solver_config=SolverConfig(hfa=0.0)),
    ]
    befores = []
    for kwargs in calls:
        report = perturbation_experiment(ds, game, "power", **kwargs)
        solver = kwargs.get("solver_config", SolverConfig())
        comparison = kwargs.get("comparison_config", ComparisonConfig())
        want = rank_season(ds, solver, comparison)
        assert report.before == want[2]
        kept = FlipParent.of(ds).before["power"]
        assert kept.configs == (solver, comparison) and kept.ranking is report.before
        befores.append(report.before)
        rpi = perturbation_experiment(ds, game, "rpi")
        assert rpi.before == RankingList.from_scores(ds.season, compute_rpi(ds).rpi)
        assert FlipParent.of(ds).before["rpi"].ranking is rpi.before
    # the three configs rank this season three ways, so a stale entry would show
    assert len({b.order() for b in befores[:3]}) == 3
    again = perturbation_experiment(ds, game, "power").before
    assert again == befores[1]
    assert perturbation_experiment(ds, ds.games[3], "power").before is again  # reused, not recomputed


def test_parent_tournament_is_kept_only_under_its_comparison_config():
    ds = synthetic_league(16, seed=1, games_per_team=6).dataset
    game = ds.games[7]
    state = FlipParent.of(ds)
    ratings = solve_power_ratings(ds)
    flipped = build_season([flip_game(g) if g == game else g for g in ds.games], ds.season)
    tables = []
    for comparison in FLIP_COMPARISON_CONFIGS + FLIP_COMPARISON_CONFIGS[:1]:
        report = perturbation_experiment(ds, game, "power", comparison_config=comparison)
        table = state.before["power"].table
        assert table.ladder.config == comparison
        fresh = run_tournament(ds, ratings, comparison)
        assert table.step.tobytes() == fresh.step.tobytes() and table.sign.tobytes() == fresh.sign.tobytes()
        assert report.after == rank_season(flipped, SolverConfig(), comparison)[2]
        tables.append(table)
    assert len({id(t) for t in tables}) == len(tables)  # a config change ranks again, a return to one too


def test_one_flipped_season_per_game(monkeypatch):
    ds = synthetic_league(10, seed=4).dataset
    built = []
    with_flipped = SeasonDataset.with_flipped
    monkeypatch.setattr(
        SeasonDataset, "with_flipped", lambda ds, game, *k: built.append(game) or with_flipped(ds, game, *k)
    )
    found = []
    position = SeasonDataset.position
    monkeypatch.setattr(SeasonDataset, "position", lambda ds, game: found.append(game) or position(ds, game))
    first, second = ds.games[3], ds.games[8]
    perturbation_experiment(ds, first, "power")
    perturbation_experiment(ds, first, "rpi")
    assert built == [first]  # the RPI call reuses the power call's flipped season
    assert found == [first]  # and the game is bisected once, its index handed on to with_flipped
    state = FlipParent.of(ds)
    gone = weakref.ref(state.last[1])
    perturbation_experiment(ds, second, "rpi")
    perturbation_experiment(ds, second, "power")
    assert built == found == [first, second]
    assert state.last[0] == second
    gc.collect()
    assert gone() is None  # the next game's flipped season replaced the first's: one is kept at most


def test_a_flip_is_ranked_by_rank_season(monkeypatch):
    """Both the pre-flip and the flipped season go through ``experiments.rank_season``, whatever is lent."""
    ds = synthetic_league(10, seed=4).dataset
    seen = []
    real = experiments.rank_season
    monkeypatch.setattr(experiments, "rank_season", lambda dataset, *a, **k: seen.append(dataset) or real(dataset, *a, **k))
    game = ds.games[5]
    report = perturbation_experiment(ds, game, "power")
    assert seen == [ds, FlipParent.of(ds).last[1]]
    assert seen[1].games[5] == flip_game(game) and "parent_tournament" in vars(seen[1].schedule)
    perturbation_experiment(ds, game, "power")
    assert len(seen) == 3 and seen[2] is seen[1]  # the kept pre-flip ranking and flipped season, ranked again
    assert report.after == real(build_season([flip_game(g) if g == game else g for g in ds.games], ds.season))[2]


def test_a_lent_tournament_is_kept_only_under_its_config():
    ds = synthetic_league(12, seed=2, games_per_team=5).dataset
    game = ds.games[4]
    flipped = ds.with_flipped(game)
    assert flipped.schedule.games is ds.schedule.games  # the shared view path
    ratings = solve_power_ratings(flipped)
    pair = [ds.schedule.index[game.home_team], ds.schedule.index[game.away_team]]
    for lent, used in itertools.product(FLIP_COMPARISON_CONFIGS, repeat=2):
        vars(flipped.schedule)["parent_tournament"] = (run_tournament(ds, solve_power_ratings(ds), lent), pair)
        got = run_tournament(flipped, ratings, used)
        want = run_tournament(build_season(flipped.games, ds.season), ratings, used)
        assert got.step.tobytes() == want.step.tobytes() and got.sign.tobytes() == want.sign.tobytes()


def test_rank_season_keeps_nothing_for_flips():
    ds = synthetic_league(10, seed=4).dataset
    fields = set(vars(ds))
    rank_season(ds)
    assert set(vars(ds)) - fields == {"schedule", "component_labels", "_components"} - fields
    arrays = {f.name for f in dataclasses.fields(ds.schedule)}
    assert set(vars(ds.schedule)) - arrays == set(PRODUCTS)  # no Laplacian, tournament or key matrix on the view
    perturbation_experiment(ds, ds.games[0], "power")
    assert set(vars(ds)) - fields == {"schedule", "component_labels", "_components", "_flip_parent"} - fields
    assert set(vars(ds.schedule)) - arrays == set(PRODUCTS)


def test_ranking_and_flips_build_no_outcome_strings(monkeypatch):
    """outcomes.csv's string tables are built on the first render, so ranking alone and every flip skip them."""
    ds = synthetic_league(10, seed=4).dataset
    ranked, real = [], experiments.rank_season
    monkeypatch.setattr(experiments, "rank_season", lambda *a, **k: ranked.append(real(*a, **k)) or ranked[-1])
    _, table, _ = rank_season(ds)
    perturbation_experiment(ds, ds.games[0], "power")
    tables = [table] + [t for _, t, _ in ranked]  # the season's, then the pre-flip and the flipped one's
    assert len(tables) == 3 and table.unresolved() == ()  # reading no pair renders nothing
    assert not any("strings" in vars(t.ladder) for t in tables)
    table.outcome_for(*ds.teams[:2])
    assert "strings" in vars(table.ladder)


def test_kendall_tau_extremes():
    a = {t: i for i, t in enumerate("ABCDEFGH", start=1)}
    assert kendall_tau(a, dict(a)) == pytest.approx(1.0)
    reversed_b = {t: len(a) + 1 - r for t, r in a.items()}
    assert kendall_tau(a, reversed_b) == pytest.approx(-1.0)


def test_kendall_tau_accepts_sequences_and_rankings():
    order = ["C", "A", "B"]
    assert kendall_tau(order, list(order)) == pytest.approx(1.0)
    ranking = RankingList.from_scores(2024, {"A": 3.0, "B": 2.0, "C": 1.0})
    assert kendall_tau(ranking, {"A": 1, "B": 2, "C": 3}) == pytest.approx(1.0)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=40),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_kendall_tau_matches_bruteforce(ranks_a, rng):
    teams = [f"t{i}" for i in range(len(ranks_a))]
    ranks_b = [rng.randint(1, 6) for _ in teams]
    a = dict(zip(teams, ranks_a))
    b = dict(zip(teams, ranks_b))
    try:
        got = kendall_tau(a, b)
    except ComputationError:
        n0 = len(teams) * (len(teams) - 1) // 2
        tied_a = sum(
            1 for i in range(len(teams)) for j in range(i + 1, len(teams)) if ranks_a[i] == ranks_a[j]
        )
        tied_b = sum(
            1 for i in range(len(teams)) for j in range(i + 1, len(teams)) if ranks_b[i] == ranks_b[j]
        )
        assert n0 in (tied_a, tied_b)  # undefined only when a side is fully tied
        return
    assert got == pytest.approx(tau_b_oracle(ranks_a, ranks_b), abs=1e-12)


def test_kendall_tau_window_restricts_to_reference_band():
    teams = [f"t{i:02d}" for i in range(1, 21)]
    a = {t: i for i, t in enumerate(teams, start=1)}
    b = dict(a)
    b["t02"], b["t19"] = b["t19"], b["t02"]  # swap outside the band
    assert kendall_tau(a, b, window=(6, 16)) == pytest.approx(1.0)
    full = kendall_tau(a, b)
    assert full < 1.0
    in_band = [t for t in teams if 6 <= a[t] <= 16]
    want = tau_b_oracle([a[t] for t in in_band], [b[t] for t in in_band])
    assert kendall_tau(a, b, window=(6, 16)) == pytest.approx(want)


def test_kendall_tau_validation():
    with pytest.raises(ValidationError, match="different teams"):
        kendall_tau({"A": 1}, {"B": 1})
    a = {t: i for i, t in enumerate("ABCD", start=1)}
    with pytest.raises(ValidationError, match="window"):
        kendall_tau(a, a, window=(3, 2))
    with pytest.raises(ValidationError, match="at least 2"):
        kendall_tau(a, a, window=(1, 1))
    with pytest.raises(ComputationError, match="no rank variation"):
        kendall_tau(a, {t: 1 for t in a})


def margin_game(day, team, opponent, margin):
    return GameRecord(
        2024, datetime.date(2024, 2, 1) + datetime.timedelta(days=day), team, opponent, 8 + margin, 8, False
    )


@pytest.fixture()
def tiered_league():
    """A1/A2 beat the same external slate by about four more goals than B1/B2."""
    strengths = {"E1": 1.0, "E2": 2.0, "E3": 3.0, "E4": 4.0}
    games = [
        margin_game(0, "A1", "E1", 5),
        margin_game(1, "A1", "E2", 4),
        margin_game(2, "A2", "E3", 4),
        margin_game(3, "A2", "E4", 2),
        margin_game(4, "B1", "E1", 1),
        margin_game(5, "B1", "E2", 1),
        margin_game(6, "B2", "E3", -1),
        margin_game(7, "B2", "E4", -2),
        margin_game(8, "A1", "B1", 2),  # intra-pair game, must be excluded
    ]
    return build_season(games, 2024), strengths


def test_regression_fits_match_closed_form(tiered_league):
    ds, strengths = tiered_league
    report = strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"])
    assert report.samples_a == ((1.0, 5.0), (2.0, 4.0), (3.0, 4.0), (4.0, 2.0))
    assert report.samples_b == ((1.0, 1.0), (2.0, 1.0), (3.0, -1.0), (4.0, -2.0))
    slope_a, intercept_a = ols_oracle(report.samples_a)
    slope_b, intercept_b = ols_oracle(report.samples_b)
    assert report.fit_a.slope == pytest.approx(slope_a)
    assert report.fit_a.intercept == pytest.approx(intercept_a)
    assert report.fit_b.slope == pytest.approx(slope_b)
    assert report.fit_b.intercept == pytest.approx(intercept_b)
    assert report.midpoint == pytest.approx(2.5)
    want_offset = (intercept_a + slope_a * 2.5) - (intercept_b + slope_b * 2.5)
    assert report.group_offset == pytest.approx(want_offset)
    assert report.group_offset > 0
    assert report.n_points == 8


def test_regression_p_value_matches_ancova_oracle(tiered_league):
    ds, strengths = tiered_league
    report = strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"])
    offset_coef, se = ancova_oracle(report.samples_a, report.samples_b)
    from scipy import stats

    want_p = 2 * stats.t.sf(abs(offset_coef / se), df=8 - 3)
    assert report.p_value == pytest.approx(want_p, rel=1e-9)
    assert report.p_value < 0.05


def test_pooled_regression_matches_labeled_entry_point(tiered_league):
    ds, strengths = tiered_league
    labeled = strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"])
    raw = pooled_regression(labeled.samples_a, labeled.samples_b)
    assert raw.group_offset == labeled.group_offset
    assert raw.p_value == labeled.p_value
    assert raw.fit_a == labeled.fit_a
    assert raw.fit_b == labeled.fit_b
    assert raw.group_a == ()


def test_pooled_regression_concatenates_multiple_sample_sets(tiered_league):
    """Pooling one season with a shifted copy keeps the gap, doubles the n."""
    ds, strengths = tiered_league
    one = strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"])
    again_a = [(x + 0.1, y) for x, y in one.samples_a]
    again_b = [(x + 0.1, y) for x, y in one.samples_b]
    pooled = pooled_regression(
        list(one.samples_a) + again_a, list(one.samples_b) + again_b
    )
    assert pooled.n_points == 2 * one.n_points
    assert pooled.group_offset == pytest.approx(one.group_offset, abs=0.2)
    assert pooled.p_value < one.p_value


def test_pooled_regression_rejects_empty_side():
    with pytest.raises(ValidationError):
        pooled_regression([], [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])


def test_regression_identical_groups_show_no_gap():
    strengths = {"E1": 1.0, "E2": 2.0, "E3": 3.0}
    games = []
    for i, team in enumerate(("A1", "B1")):
        games += [
            margin_game(3 * i + 0, team, "E1", 3),
            margin_game(3 * i + 1, team, "E2", 1),
            margin_game(3 * i + 2, team, "E3", 2),
        ]
    ds = build_season(games, 2024)
    report = strength_regression(ds, strengths, ["A1"], ["B1"])
    assert report.group_offset == pytest.approx(0.0, abs=1e-9)
    assert report.p_value == pytest.approx(1.0, abs=1e-6)


def test_regression_perfect_separation_zero_residuals():
    strengths = {"E1": 1.0, "E2": 2.0, "E3": 3.0}
    games = [
        margin_game(0, "A1", "E1", 6),
        margin_game(1, "A1", "E2", 5),
        margin_game(2, "A1", "E3", 4),
        margin_game(3, "B1", "E1", 2),
        margin_game(4, "B1", "E2", 1),
        margin_game(5, "B1", "E3", 0),
    ]
    ds = build_season(games, 2024)
    report = strength_regression(ds, strengths, ["A1"], ["B1"])
    assert report.group_offset == pytest.approx(4.0)
    assert report.p_value < 1e-30


def test_regression_goal_cap_clamps_samples(tiered_league):
    ds, strengths = tiered_league
    report = strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"], goal_cap=3)
    assert all(abs(y) <= 3 for _, y in report.samples_a + report.samples_b)
    assert report.samples_a[0] == (1.0, 3.0)


def test_regression_band_halfwidth_grows_from_center(tiered_league):
    ds, strengths = tiered_league
    fit = strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"]).fit_a
    center = fit.band_halfwidth(fit.x_mean)
    edge = fit.band_halfwidth(fit.x_mean + 2.0)
    assert 0 < center < edge


def test_regression_validation(tiered_league):
    ds, strengths = tiered_league
    with pytest.raises(ValidationError, match="non-empty"):
        strength_regression(ds, strengths, [], ["B1"])
    with pytest.raises(ValidationError, match="overlap"):
        strength_regression(ds, strengths, ["A1"], ["A1", "B1"])
    with pytest.raises(ValidationError, match="unknown team"):
        strength_regression(ds, strengths, ["A1", "Zed"], ["B1"])
    with pytest.raises(ValidationError, match="outside opposition"):
        strength_regression(ds, {}, ["A1", "A2"], ["B1", "B2"])
    for cap in (0, -2, 2.5, True):
        with pytest.raises(ValidationError, match="goal_cap must be a positive int or None"):
            strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"], goal_cap=cap)


@given(
    seed=st.integers(0, 10**6),
    goal_cap=st.one_of(st.none(), st.integers(1, 7)),
    extra=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_group_samples_match_the_per_game_oracle(seed, goal_cap, extra):
    """The sample list equals a walk over each group team's games, in order and in value.

    Group A holds a team whose every opponent is in one of the groups, so it
    adds no sample; some teams have no strength, so games against them add none.
    """
    ds = random_schedule(seed=seed)
    rng = random.Random(seed)
    strengths = {t: rng.gauss(0.0, 2.0) for t in ds.teams if rng.random() < 0.8}
    isolated = rng.choice(ds.teams)
    opponents = {opponent_of(g, isolated) for g in games_of(ds, isolated)}
    excluded = opponents | set(rng.sample(ds.teams, extra)) | {isolated}
    group_b = {t for t in excluded - {isolated} if rng.random() < 0.5}
    group_a = excluded - group_b
    for group in (group_a, group_b):
        assert _group_samples(ds, strengths, group, excluded, goal_cap) == group_samples(
            ds, strengths, group, excluded, goal_cap
        )
    assert _group_samples(ds, strengths, [isolated], excluded, goal_cap) == []
