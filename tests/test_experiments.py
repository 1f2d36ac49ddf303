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
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise import experiments, pairwise
from powerwise.errors import ComputationError, DataWarning, ValidationError
from powerwise.experiments import (
    RANKING_METHODS,
    _group_samples,
    flip_game,
    kendall_tau,
    perturbation_experiment,
    pooled_regression,
    strength_regression,
    with_flipped,
)
from powerwise.ingest import GameRecord, build_season
from powerwise.pairwise import CO_MODES, ComparisonConfig, PowerwiseTable, on_field, run_tournament
from powerwise.power_rating import SolverConfig, grounded_laplacian, solve_power_ratings
from powerwise.report import export_pairwise_csv
from powerwise.rpi import RpiConfig, compute_rpi
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
    with pytest.raises(ValidationError, match="top_k"):
        perturbation_experiment(ds, ds.games[0], "power", top_k=0)
    with pytest.raises(ValidationError, match="method"):
        perturbation_experiment(ds, ds.games[0], "elo")
    # checked before any work: no schedule, products or ranking cached
    assert ds.derived.view is None and ds.derived.flips == {}
    outsider = GameRecord(2024, datetime.date(2024, 2, 2), "T01", "T02", 3, 1, False, 7)
    for method in RANKING_METHODS:
        with pytest.raises(ValidationError, match="not in the season"):
            perturbation_experiment(ds, outsider, method)
    # the game is looked up before the pre-flip season is ranked
    assert ds.derived.view is None and ds.derived.flips == {}


SCHEDULE_ARRAYS = ("index", "home", "away", "margin", "neutral", "wins", "games", "adjacency")


def assert_same_schedule(got, want):
    """Every array of two ScheduleViews, and of their pairings, equal in dtype and in every bit."""
    for name in SCHEDULE_ARRAYS:
        a, b = (getattr(v if name in ("margin", "wins") else v.pairings, name) for v in (got, want))
        if name == "index":
            assert a == b
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_verdicts(got, want, config):
    """Two seasons' on-field verdicts under ``config``, the key and the decided pairs' evidence, equal in every bit."""
    a, b = on_field(got, config), on_field(want, config)
    for x, y in ((a.key, b.key), *zip(a.decided[:2], b.decided[:2])):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


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
FLIP_CONFIGS = ((SolverConfig(), ComparisonConfig()), (FLIP_SOLVER_CONFIGS[1], FLIP_COMPARISON_CONFIGS[3]))


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

    The flipped season's on-field verdicts equal the rebuilt season's under
    every config, whether the parent had formed its verdicts before the flip
    (and the flip re-keys them) or not, and for a flip of a flipped season.
    """
    ds = flip_season(seed, close, split, clash)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        fresh = {}
        for game in ds.games:
            rebuilt = build_season([flip_game(g) if g == game else g for g in ds.games], ds.season)
            flipped = with_flipped(ds, game)
            assert flipped == rebuilt
            assert_same_schedule(flipped.schedule, rebuilt.schedule)
            assert flipped.components() == rebuilt.components()
            assert_same_verdicts(flipped, rebuilt, FLIP_COMPARISON_CONFIGS[0])  # formed by the flipped season itself
            fresh[game] = rebuilt
        assert ds.schedule.on_field == {}
        for k, game in enumerate(ds.games):
            for config in FLIP_COMPARISON_CONFIGS:
                on_field(ds, config)
                flipped = with_flipped(ds, game)
                if flipped.derived.view is not None:  # not rebuilt by build_season, so linked to ds's view
                    assert flipped.schedule.flip[0] is ds.schedule
                assert_same_schedule(flipped.schedule, fresh[game].schedule)
                assert_same_verdicts(flipped, fresh[game], config)
                second = flipped.games[(k + 1) % len(flipped.games)]
                twice = build_season([flip_game(g) if g == second else g for g in flipped.games], ds.season)
                again = with_flipped(flipped, second)
                assert_same_schedule(again.schedule, twice.schedule)
                assert_same_verdicts(again, twice, config)
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
    assert view.pairings.games.max() > 1 and view.pairings.neutral.any() and not view.pairings.neutral.all()
    assert len(ds.components()) == 2
    first = ds.games[0]
    clashing = [g for g in ds.games if (g.date, g.home_team, g.away_team, g.game_index) == (first.date, first.home_team, first.away_team, first.game_index)]
    assert len(clashing) == 3
    with pytest.warns(DataWarning, match="duplicate"):  # one clashing flip duplicates its neighbour
        assert len(with_flipped(ds, clashing[0]).games) == len(ds.games) - 1


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    close=st.booleans(),
    split=st.booleans(),
    clash=st.booleans(),
    block_pairs=st.sampled_from([1, 40, pairwise._BLOCK_PAIRS]),
)
@example(seed=3, close=True, split=True, clash=True, block_pairs=pairwise._BLOCK_PAIRS)
@example(seed=3, close=True, split=True, clash=True, block_pairs=40)
@example(seed=3, close=False, split=False, clash=False, block_pairs=1)
@settings(max_examples=15, deadline=None)
def test_flipped_tournament_equals_a_fresh_tournament(seed, close, split, clash, block_pairs):
    """For every game and config pair, the flip path's step and sign equal a fresh ``run_tournament``'s in every byte.

    On the shared view path the flipped season, solving with the Laplacian in
    the pairings it shares with the parent, as ``perturbation_experiment``
    forms it, re-keys the parent's on-field verdicts in the flipped pair's
    rows; on the ``build_season`` fallback it has its own pairings, no parent
    link, and forms its verdicts afresh. Both form and decide a
    block of one row (1), a few rows (40 pairs: several blocks once a second
    schedule is added) or every row (the default) at a time, so the flipped
    pair's rows fall inside blocks and across their edges.
    """
    ds = flip_season(seed, close, split, clash)
    laplacian = grounded_laplacian(ds)
    rekeyed, rekey = [], pairwise._OnField.rekeyed
    spy = lambda verdicts, *args: rekeyed.append(verdicts.config) or rekey(verdicts, *args)  # noqa: E731
    with (
        warnings.catch_warnings(),
        mock.patch.object(pairwise, "_BLOCK_PAIRS", block_pairs),
        mock.patch.object(pairwise._OnField, "rekeyed", spy),
    ):
        warnings.simplefilter("ignore", DataWarning)
        rebuilt = {g: build_season([flip_game(x) if x == g else x for x in ds.games], ds.season) for g in ds.games}
        for solver, comparison in itertools.product(FLIP_SOLVER_CONFIGS, FLIP_COMPARISON_CONFIGS):
            on_field(ds, comparison)
            for game in ds.games:
                flipped = with_flipped(ds, game)
                view = flipped.schedule
                if view.pairings is ds.schedule.pairings:
                    view.pairings.laplacian = laplacian
                ratings, table, _ = rank_season(flipped, solver, comparison)
                assert view.flip is None  # the parent link, dropped once the flipped rows are keyed
                if view.pairings is ds.schedule.pairings:
                    assert rekeyed == [comparison]  # from the season's own verdicts under this config
                else:
                    assert rekeyed == [] and view.pairings.laplacian is None
                rekeyed.clear()
                want_ratings = solve_power_ratings(rebuilt[game], solver)
                want = run_tournament(rebuilt[game], want_ratings, comparison)
                assert ratings.ratings == want_ratings.ratings
                for got, expected in ((table.step, want.step), (table.sign, want.sign)):
                    assert got.dtype == expected.dtype and got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
                assert table.points == want.points
                assert export_pairwise_csv(table) == export_pairwise_csv(want)  # a re-keyed season's evidence too


# sha256 of repr((wp, owp, oowp)) of compute_rpi on mini2024 and on synthetic_league(10, seed=4): the three RPI
# components pinned bit for bit, team order included
RPI_COMPONENT_DIGESTS = (
    "bec57629012bf338f61812f9cc1d5fbf2043d105422e92dc1d73635a056b377f",
    "be86200f039442fcf94bc673508804885533ca1082838cd392a08b68d877b01c",
)


def test_flipped_season_shares_what_a_flip_leaves_unchanged(mini2024):
    ds = synthetic_league(10, seed=4).dataset
    game = ds.games[5]
    assert game.home_score != game.away_score
    perturbation_experiment(ds, game, "power")  # ranks the season, forming its verdicts, then the flip, re-keying them
    memo = ds.derived.flips
    view = ds.schedule
    assert memo["last"][0] == game
    flipped = memo["last"][1]
    new = flipped.schedule
    assert flipped.games[5] == flip_game(game) and flipped.teams is ds.teams
    assert new.pairings is view.pairings  # index, home, away, neutral, G, A, the components, sides and the Laplacian
    assert flipped.components() is ds.components()
    assert flipped.schedule.pairings.component_labels is ds.schedule.pairings.component_labels
    assert new.wins is not view.wins and new.margin is not view.margin
    assert new.flip is None  # the link to the parent view, dropped once the flipped rows were keyed
    # the flipped season's key is a new matrix, equal to the parent's outside the flipped pair's rows and columns
    before, after = (v.on_field[ComparisonConfig()].key for v in (view, new))
    h, a = view.pairings.index[game.home_team], view.pairings.index[game.away_team]
    outside = np.ones(before.shape, dtype=bool)
    outside[[h, a]] = outside[:, [h, a]] = False
    assert after is not before and np.array_equal(after[outside], before[outside])
    # one grounded Laplacian serves the parent and every flip, and nothing can write to it
    laplacian = view.pairings.laplacian
    assert laplacian.tobytes() == grounded_laplacian(flipped).tobytes() == grounded_laplacian(ds).tobytes()
    assert not laplacian.flags.writeable and new.pairings.laplacian is laplacian
    assert with_flipped(flipped, flipped.games[5]) == ds
    # a flip of the flip holds the root season's record too; a flip that build_season rebuilds gets its own
    assert with_flipped(flipped, flipped.games[7]).schedule.pairings is view.pairings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)  # a clashing flip may duplicate its neighbour
        clash = flip_season(3, close=True, split=False, clash=True)
        flips = [with_flipped(clash, g) for g in clash.games]
    rebuilt = [f.derived.view is None for f in flips]  # build_season forms no view
    assert 0 < sum(rebuilt) < len(flips)
    assert [f.schedule.pairings is clash.schedule.pairings for f in flips] == [not r for r in rebuilt]
    # RPI's season-fixed arrays and the grounded Laplacian are the parent's own objects: a flip forms neither
    perturbation_experiment(ds, game, "rpi")  # ranks the season by RPI, which forms its sides
    second = ds.games[6]
    for method in RANKING_METHODS:
        perturbation_experiment(ds, second, method)
    assert memo["last"][0] == second
    new = memo["last"][1].schedule
    assert new.pairings is view.pairings and new.pairings.sides is view.pairings.sides
    assert new.pairings.laplacian is laplacian
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
        configs, kept = ds.derived.flips["power"]
        assert configs == (solver, comparison) and kept is report.before
        befores.append(report.before)
        rpi = perturbation_experiment(ds, game, "rpi")
        assert rpi.before == RankingList.from_scores(ds.season, compute_rpi(ds).rpi)
        configs, kept = ds.derived.flips["rpi"]
        assert configs == (RpiConfig(),) and kept is rpi.before
    # the three configs rank this season three ways, so a stale entry would show
    assert len({b.order() for b in befores[:3]}) == 3
    again = perturbation_experiment(ds, game, "power").before
    assert again == befores[1]
    assert perturbation_experiment(ds, ds.games[3], "power").before is again  # reused, not recomputed


def test_the_seasons_verdicts_are_kept_per_comparison_config():
    """Each comparison config's on-field verdicts are formed once and kept with the season's view, a return to a
    config finding its own, and flips under each rank as a fresh flipped season does."""
    ds = synthetic_league(16, seed=1, games_per_team=6).dataset
    game = ds.games[7]
    ratings = solve_power_ratings(ds)
    flipped = build_season([flip_game(g) if g == game else g for g in ds.games], ds.season)
    kept = {}
    for comparison in FLIP_COMPARISON_CONFIGS + FLIP_COMPARISON_CONFIGS[:1]:
        report = perturbation_experiment(ds, game, "power", comparison_config=comparison)
        verdicts = ds.schedule.on_field[comparison]
        assert kept.setdefault(comparison, verdicts) is verdicts
        table, fresh = (run_tournament(x, ratings, comparison) for x in (ds, build_season(ds.log, ds.season)))
        assert table.step.tobytes() == fresh.step.tobytes() and table.sign.tobytes() == fresh.sign.tobytes()
        assert report.after == rank_season(flipped, SolverConfig(), comparison)[2]
    assert set(ds.schedule.on_field) == set(FLIP_COMPARISON_CONFIGS)


def test_one_flipped_season_per_game(monkeypatch):
    ds = synthetic_league(10, seed=4).dataset
    built = []
    monkeypatch.setattr(experiments, "with_flipped", lambda ds, game: built.append(game) or with_flipped(ds, game))
    found = []
    position = experiments.position
    monkeypatch.setattr(experiments, "position", lambda ds, game: found.append(game) or position(ds, game))
    first, second = ds.games[3], ds.games[8]
    perturbation_experiment(ds, first, "power")
    perturbation_experiment(ds, first, "rpi")
    assert built == [first]  # the RPI call reuses the power call's flipped season
    assert found == [first]  # and the game is bisected once, by with_flipped
    memo = ds.derived.flips
    gone = weakref.ref(memo["last"][1])
    perturbation_experiment(ds, second, "rpi")
    perturbation_experiment(ds, second, "power")
    assert built == found == [first, second]
    assert memo["last"][0] == second
    gc.collect()
    assert gone() is None  # the next game's flipped season replaced the first's: one is kept at most


FLIP_CALLS = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),  # None: a game that is not in the season
    st.sampled_from(RANKING_METHODS),
    st.sampled_from(FLIP_SOLVER_CONFIGS),
    st.sampled_from(FLIP_COMPARISON_CONFIGS),
)


@given(seed=st.integers(min_value=0, max_value=10_000), close=st.booleans(), calls=st.lists(FLIP_CALLS, max_size=12))
@example(seed=3, close=True, calls=[(0, "power", *FLIP_CONFIGS[0]), (None, "rpi", *FLIP_CONFIGS[0]),
                                    (0, "rpi", *FLIP_CONFIGS[1]), (0, "power", *FLIP_CONFIGS[1]),
                                    (1, "power", *FLIP_CONFIGS[1]), (1, "power", *FLIP_CONFIGS[0])])
@settings(max_examples=25, deadline=None)
def test_any_sequence_of_flips_ranks_as_fresh_seasons(seed, close, calls):
    """Whatever the order of games, methods and configs, each call's rankings equal fresh rankings of the season
    and of its flip, and at most one flipped season is alive. The season has two components and games that share
    a (date, home, away, game_index) slot, whose flips are rebuilt by ``build_season``; a game that is not in the
    season raises and leaves the memo answering as before."""
    ds = flip_season(seed, close, split=True, clash=True)
    outsider = GameRecord(ds.season, datetime.date(ds.season, 5, 31), "X1", "X2", 1, 0, False)
    flipped_seasons = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        for pick, method, solver, comparison in calls:
            if pick is None:
                with pytest.raises(ValidationError, match="not in the season"):
                    perturbation_experiment(ds, outsider, method, solver_config=solver, comparison_config=comparison)
                continue
            game = ds.games[pick % len(ds.games)]
            report = perturbation_experiment(
                ds, game, method, solver_config=solver, comparison_config=comparison, top_k=4
            )
            fresh = build_season(ds.log, ds.season)
            flipped = build_season([flip_game(g) if g == game else g for g in ds.games], ds.season)
            want_before, want_after = (
                rank_season(x, solver, comparison)[2] if method == "power"
                else RankingList.from_scores(x.season, compute_rpi(x).rpi)
                for x in (fresh, flipped)
            )
            assert report.before == want_before and report.after == want_after
            assert report.rank_changes == rank_changes(want_before, want_after, 4)
            flipped_seasons.append(weakref.ref(ds.derived.flips["last"][1]))
            del report, fresh, flipped
            gc.collect()
            alive = {id(season()) for season in flipped_seasons if season() is not None}
            assert len(alive) == 1  # the memo's, the last game's


def test_a_flip_is_ranked_by_rank_season(monkeypatch):
    """Both the pre-flip and the flipped season go through ``experiments.rank_season``, whatever is lent."""
    ds = synthetic_league(10, seed=4).dataset
    seen = []
    real = experiments.rank_season
    monkeypatch.setattr(experiments, "rank_season", lambda dataset, *a, **k: seen.append(dataset) or real(dataset, *a, **k))
    game = ds.games[5]
    report = perturbation_experiment(ds, game, "power")
    assert seen == [ds, ds.derived.flips["last"][1]]
    assert seen[1].games[5] == flip_game(game) and seen[1].schedule.flip is None  # its link used and dropped
    perturbation_experiment(ds, game, "power")
    assert len(seen) == 3 and seen[2] is seen[1]  # the kept pre-flip ranking and flipped season, ranked again
    assert report.after == real(build_season([flip_game(g) if g == game else g for g in ds.games], ds.season))[2]


def test_a_parents_verdicts_are_rekeyed_only_under_their_config(monkeypatch):
    ds = synthetic_league(12, seed=2, games_per_team=5).dataset
    game = ds.games[4]
    ratings = solve_power_ratings(with_flipped(ds, game))
    rekeyed, rekey = [], pairwise._OnField.rekeyed
    monkeypatch.setattr(pairwise._OnField, "rekeyed", lambda v, *args: rekeyed.append(v.config) or rekey(v, *args))
    for kept, used in itertools.product(FLIP_COMPARISON_CONFIGS, repeat=2):
        parent = build_season(ds.log, ds.season)
        on_field(parent, kept)
        flipped = with_flipped(parent, game)
        assert flipped.schedule.pairings is parent.schedule.pairings  # the shared view path
        got = run_tournament(flipped, ratings, used)
        want = run_tournament(build_season(flipped.games, ds.season), ratings, used)
        assert got.step.tobytes() == want.step.tobytes() and got.sign.tobytes() == want.sign.tobytes()
        assert rekeyed == ([used] if kept == used else []) and flipped.schedule.flip is None
        rekeyed.clear()


def test_a_chain_of_flips_keeps_no_ancestor_alive():
    """A flipped season links to its parent's view until it is ranked, then drops the link."""
    ds = synthetic_league(10, seed=4).dataset
    rank_season(ds)
    season, views = ds, []
    for k in range(4):
        parent = season.schedule
        season = with_flipped(season, season.games[k])
        assert season.schedule.flip[0] is parent
        del parent
        rank_season(season)
        views.append(weakref.ref(season.schedule))
    gc.collect()
    assert [view() is None for view in views] == [True, True, True, False]


def count_game_records(monkeypatch) -> list:
    """Every GameRecord built from here on, as its constructor's arguments."""
    built, init = [], GameRecord.__init__
    monkeypatch.setattr(GameRecord, "__init__", lambda self, *a, **k: built.append((a, k)) or init(self, *a, **k))
    return built


@pytest.mark.parametrize("clash", [False, True])
def test_a_flip_builds_no_game_record(monkeypatch, clash):
    """A flip swaps two score entries in the columns; neither method's flip, nor its lookup, builds a record.

    With ``clash`` the first game has neighbours in its (date, home, away,
    game_index) slot, so its flip goes through ``build_season``.
    """
    ds = flip_season(3, close=True, split=False, clash=clash)
    games = ds.games[:4]  # the caller's records, read before counting
    built = count_game_records(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        for game in games:
            for method in RANKING_METHODS:
                perturbation_experiment(ds, game, method, top_k=3)
    assert built == []


def test_rank_season_keeps_nothing_for_flips():
    ds = synthetic_league(10, seed=4).dataset
    rank_season(ds)
    assert ds.derived.flips == {}  # the season keeps its view, and no flip memo
    view = ds.schedule
    assert view.flip is None and view.pairings.laplacian is None  # its verdicts alone; no Laplacian on the view
    assert set(view.on_field) == {ComparisonConfig()}
    perturbation_experiment(ds, ds.games[0], "power")
    assert set(ds.derived.flips) == {"last", "power"} and ds.schedule is view
    assert view.flip is None and view.pairings.laplacian is not None  # formed by the flip path
    assert set(view.on_field) == {ComparisonConfig()}


def test_ranking_and_flips_build_no_outcome_strings(monkeypatch):
    """outcomes.csv's string tables are built on the first render, so ranking alone and every flip skip them."""
    ds = synthetic_league(10, seed=4).dataset
    ranked, real = [], experiments.rank_season
    monkeypatch.setattr(experiments, "rank_season", lambda *a, **k: ranked.append(real(*a, **k)) or ranked[-1])
    built, strings = [], PowerwiseTable.strings.func
    monkeypatch.setattr(PowerwiseTable.strings, "func", lambda t: built.append(t) or strings(t))
    _, table, _ = rank_season(ds)
    perturbation_experiment(ds, ds.games[0], "power")
    tables = [table] + [t for _, t, _ in ranked]  # the season's, then the pre-flip and the flipped one's
    assert len(tables) == 3 and table.unresolved() == ()  # reading no pair renders nothing
    assert built == []
    table.outcome_for(*ds.teams[:2])
    assert built == [table]


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
    assert len(report.samples_a) + len(report.samples_b) == 8


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
    assert (len(pooled.samples_a), len(pooled.samples_b)) == (2 * len(one.samples_a), 2 * len(one.samples_b))
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
    with pytest.raises(ValidationError, match="does not fit in 64 bits"):
        strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"], goal_cap=2**63)


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
