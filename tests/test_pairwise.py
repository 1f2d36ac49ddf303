"""Three-step pairwise ladder and the full tournament."""

import dataclasses
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise import ingest
from powerwise.errors import ComputationError, DataWarning, ValidationError
from powerwise.ingest import build_season, parse_games
from powerwise.pairwise import CO_MODES, STEPS, ComparisonConfig, _per_key, decisiveness_report, run_tournament
from powerwise.power_rating import SolverConfig, solve_power_ratings
from powerwise.rpi import compute_rpi
from powerwise.synthetic import random_schedule, synthetic_league
from reference import (
    all_pairs,
    common_opponent_pool,
    common_opponents,
    compare,
    head_to_head,
    power_rating_step,
    union_find_components,
)

HEADER = "season,date,home,away,home_score,away_score,neutral\n"


def season_of(text):
    return build_season(parse_games(HEADER + text), 2024)


@pytest.fixture(scope="module")
def mini_ratings(request):
    mini = request.getfixturevalue("mini2024")
    return solve_power_ratings(mini, SolverConfig(hfa=0.0))


def test_tournament_refuses_a_season_too_large_to_compare_exactly(mini2024, mini_ratings, monkeypatch):
    """Below MAX_GAMES games the float32 schedule view and its products are exact; at it, every layer raises.

    The view is cached, so each limit is tried on a season built after it is set.
    """
    def fresh():
        return build_season(mini2024.log, mini2024.season)

    monkeypatch.setattr(ingest, "MAX_GAMES", len(mini2024.games) + 1)
    assert run_tournament(fresh(), mini_ratings).points
    monkeypatch.setattr(ingest, "MAX_GAMES", len(mini2024.games))
    for layer in (lambda ds: run_tournament(ds, mini_ratings), solve_power_ratings, compute_rpi):
        with pytest.raises(ComputationError, match="too many to compare exactly"):
            layer(fresh())


def test_head_to_head_series(mini2024):
    winner, evidence = head_to_head(mini2024, "Brown", "Yale")
    assert winner == "Yale"
    assert "1-0" in evidence
    assert head_to_head(mini2024, "Yale", "Delaware") == (None, "no meetings")


def test_head_to_head_split_series_is_even():
    ds = season_of(
        "2024,2024-02-01,A,B,5,3,1,0\n"
        "2024,2024-02-02,A,B,2,4,1,0\n"
    )
    winner, evidence = head_to_head(ds, "A", "B")
    assert winner is None
    assert "even 1-1" in evidence


def test_head_to_head_counts_ties_half():
    with pytest.warns(DataWarning, match="tied"):
        ds = season_of(
            "2024,2024-02-01,A,B,4,4,1,0\n"
            "2024,2024-02-02,A,B,5,3,1,0\n"
        )
    winner, evidence = head_to_head(ds, "A", "B")
    assert winner == "A"
    assert "1.5-0.5" in evidence


def test_common_opponent_pool_excludes_the_pair(mini2024):
    assert common_opponent_pool(mini2024, "Yale", "Delaware") == ("Cornell", "Penn")
    assert common_opponent_pool(mini2024, "Yale", "Richmond") == ()
    # Brown and Penn both played Yale; Yale is a common opponent for them.
    assert common_opponent_pool(mini2024, "Brown", "Penn") == ("Yale",)


def test_common_opponents_percentage(mini2024):
    winner, evidence = common_opponents(mini2024, "Delaware", "Yale")
    assert winner == "Yale"
    assert "2 common opponents" in evidence
    assert "1.000 vs 0.500" in evidence


def test_common_opponents_numeric(mini2024):
    winner, evidence = common_opponents(
        mini2024, "Delaware", "Yale", ComparisonConfig(co_mode="numeric")
    )
    assert winner == "Yale"
    assert "+2 vs +0" in evidence


SINGULAR = (
    # One shared opponent: Y lost to P twice, C lost to P once, Y and C never met.
    "2024,2024-02-01,P,Y,10,5,0\n"
    "2024,2024-02-08,Y,P,4,8,0\n"
    "2024,2024-02-15,P,C,9,6,0\n"
)


def test_singular_common_opponent_modes():
    ds = season_of(SINGULAR)
    pct, _ = common_opponents(ds, "C", "Y")
    assert pct is None  # 0-1 vs 0-2 is 0% either way
    numeric, evidence = common_opponents(ds, "C", "Y", ComparisonConfig(co_mode="numeric"))
    assert numeric == "C"
    assert "-1 vs -2" in evidence
    skipped, evidence = common_opponents(
        ds, "C", "Y", ComparisonConfig(co_mode="numeric", skip_singular_co=True)
    )
    assert skipped is None
    assert "single common opponent P skipped" in evidence
    pct_skip, _ = common_opponents(ds, "C", "Y", ComparisonConfig(skip_singular_co=True))
    assert pct_skip is None


def test_power_rating_step_strict(mini_ratings):
    winner, _ = power_rating_step(mini_ratings, "Yale", "Richmond")
    want = max(("Yale", "Richmond"), key=mini_ratings.rating_of)
    assert winner == want
    tied = dataclasses.replace(
        mini_ratings, ratings={**mini_ratings.ratings, "Yale": 1.25, "Richmond": 1.25}
    )
    assert power_rating_step(tied, "Yale", "Richmond")[0] is None


def test_compare_walks_the_ladder(mini2024, mini_ratings):
    h2h = compare(mini2024, "Yale", "Brown", mini_ratings)
    assert (h2h.winner, h2h.deciding_step) == ("Yale", "head_to_head")
    co = compare(mini2024, "Delaware", "Yale", mini_ratings)
    assert (co.winner, co.deciding_step) == ("Yale", "common_opponents")
    pr = compare(mini2024, "Richmond", "Yale", mini_ratings)
    assert pr.deciding_step == "power_rating"
    assert (pr.team_a, pr.team_b) == ("Richmond", "Yale")
    with pytest.raises(ValidationError, match="itself"):
        compare(mini2024, "Yale", "Yale", mini_ratings)


def test_compare_is_orientation_independent(mini2024, mini_ratings):
    assert compare(mini2024, "Yale", "Delaware", mini_ratings) == compare(
        mini2024, "Delaware", "Yale", mini_ratings
    )


def test_unresolved_across_components():
    ds = season_of(
        "2024,2024-02-01,A,B,5,3,1,0\n"
        "2024,2024-02-02,X,Y,4,2,1,0\n"
    )
    ratings = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    outcome = run_tournament(ds, ratings).outcome_for("A", "X")
    assert outcome.winner is None
    assert outcome.deciding_step == "unresolved"
    assert "no schedule path" in outcome.evidence


def test_unresolved_on_identical_ratings():
    # Two teams that never meet, share no opponents, but are connected through
    # a symmetric middle pair: perfectly mirrored schedules, equal ratings.
    ds = season_of(
        "2024,2024-02-01,A,M,5,3,1,0\n"
        "2024,2024-02-02,N,A,2,4,1,0\n"
        "2024,2024-02-03,B,N,5,3,1,0\n"
        "2024,2024-02-04,M,B,2,4,1,0\n"
        "2024,2024-02-05,M,N,3,2,1,0\n"
        "2024,2024-02-06,N,M,3,2,1,0\n"
    )
    ratings = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    assert ratings.rating_of("A") == pytest.approx(ratings.rating_of("B"), abs=1e-9)
    outcome = run_tournament(ds, ratings).outcome_for("A", "B")
    assert outcome.deciding_step == "unresolved"
    assert "identical ratings" in outcome.evidence


def test_tournament_points_and_step_tallies(mini2024, mini_ratings):
    table = run_tournament(mini2024, mini_ratings)
    assert len(table.outcomes) == 7 * 6 // 2
    assert sum(table.points.values()) == len(table.outcomes) - len(table.unresolved())
    for t in mini2024.teams:
        assert table.points[t] == sum(table.step_wins(t))
    yale = table.outcome_for("Brown", "Yale")
    assert yale.winner == "Yale"
    with pytest.raises(ValidationError):
        table.outcome_for("Yale", "Nobody")
    with pytest.raises(ValidationError):
        table.step_wins("Nobody")


def test_step_decomposition_accounts_for_every_comparison(mini2024, mini_ratings):
    table = run_tournament(mini2024, mini_ratings)
    for t in mini2024.teams:
        decomp = table.step_decomposition(t)
        assert set(decomp) == set(STEPS)
        assert sum(decomp.values()) == len(mini2024.teams) - 1
        for step in STEPS:
            direct = sum(
                1
                for o in table.outcomes
                if t in (o.team_a, o.team_b) and o.deciding_step == step
            )
            assert decomp[step] == direct
    with pytest.raises(ValidationError):
        table.step_decomposition("Nobody")


def test_decisiveness_percentages(mini2024, mini_ratings):
    """Each share is its step's outcome count over all pairs; a split season's cross pairs count as unresolved."""
    split = season_of("2024,2024-02-01,A,B,5,3,1,0\n2024,2024-02-02,X,Y,4,2,1,0\n2024,2024-02-03,X,Z,2,1,1,0\n")
    split_ratings = solve_power_ratings(split, SolverConfig(hfa=0.0))
    for table in (run_tournament(mini2024, mini_ratings), run_tournament(split, split_ratings)):
        report = decisiveness_report(table)
        assert sum(report.values()) == pytest.approx(100.0)
        counts = {step: 0 for step in report}
        for o in table.outcomes:
            counts[o.deciding_step] += 1
        for step, pct in report.items():
            assert pct == 100.0 * counts[step] / len(table.outcomes)
    assert counts["unresolved"] == 6  # A and B against each of X, Y and Z


def test_tournament_peak_memory_is_below_one_float_matrix():
    """With the step II products formed, the tournament's traced peak stays below one float64 N×N matrix."""
    n = 800
    ds = synthetic_league(n, seed=1).dataset
    ratings = solve_power_ratings(ds)
    for name in ("pool", "pool_games", "pool_wins"):  # the view's products, formed before the trace starts
        getattr(ds.schedule, name)
    ds.component_labels
    tracemalloc.start()
    try:
        run_tournament(ds, ratings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_all_pairs_sorted():
    assert list(all_pairs(["C", "A", "B"])) == [("A", "B"), ("A", "C"), ("B", "C")]


@given(st.integers(min_value=0, max_value=3000), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_early_steps_ignore_rating_perturbations(seed, rng):
    """Pairs decided by steps I or II cannot move when ratings change."""
    ds = random_schedule(seed=seed, n_teams_range=(4, 8))
    ratings = solve_power_ratings(ds, SolverConfig(hfa=1.0))
    base = run_tournament(ds, ratings)
    shaken = dataclasses.replace(
        ratings, ratings={t: rng.uniform(-50, 50) for t in ds.teams}
    )
    after = run_tournament(ds, shaken)
    for before_o, after_o in zip(base.outcomes, after.outcomes):
        if before_o.deciding_step in ("head_to_head", "common_opponents"):
            assert after_o == before_o


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=25, deadline=None)
def test_handshake_total(seed):
    ds = random_schedule(seed=seed, n_teams_range=(4, 9))
    ratings = solve_power_ratings(ds, SolverConfig(hfa=1.0))
    table = run_tournament(ds, ratings)
    n = len(ds.teams)
    assert sum(table.points.values()) == n * (n - 1) // 2 - len(table.unresolved())


@pytest.mark.parametrize("big", [3, 2**40], ids=["int64 key", "rows too many for int64"])
def test_per_key_formats_each_distinct_row_once(big):
    """Step II evidence is formatted once per distinct row of its integer columns, however large their values."""
    columns = [np.array([0, 1, 0, 1, 0]), np.array([big, 2, big, 2, 2]), np.array([5, 5, 5, big, 5])]
    formatted = []
    texts = _per_key(columns, lambda *row: formatted.append(row) or repr(row))
    rows = list(zip(*(c.tolist() for c in columns)))
    assert texts.tolist() == [repr(row) for row in rows]
    assert sorted(formatted) == sorted(set(rows))


def test_config_validation():
    with pytest.raises(ValidationError, match="co_mode"):
        ComparisonConfig(co_mode="margin")


CONFIGS = [ComparisonConfig(mode, skip) for mode, skip in itertools.product(CO_MODES, (False, True))]


def oracle_season(seed, close, sparse, split):
    """A random schedule; ``close`` margins of 0-2 goals (many tied scores), ``sparse`` pairings
    (many single common opponents), ``split`` adds a second, disconnected schedule."""
    shape = dict(margin_range=(0, 2) if close else (0, 15), pair_fraction=0.15 if sparse else 0.5)
    games = list(random_schedule(seed=seed, n_teams_range=(3, 9), **shape).games)
    if split:
        other = random_schedule(seed=seed + 1, n_teams_range=(2, 6), **shape).games
        games += [dataclasses.replace(g, home_team="U" + g.home_team, away_team="U" + g.away_team) for g in other]
    return build_season(games, 2024)


def test_oracle_examples_cover_the_hard_cases():
    ds = oracle_season(3, close=True, sparse=True, split=True)
    view = ds.schedule
    assert any(g.home_score == g.away_score for g in ds.games)  # tied scores
    assert view.games.max() > 1  # repeat meetings
    assert ((view.adjacency @ view.adjacency) == 1).any()  # a single common opponent
    assert len(ds.components()) == 2


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    close=st.booleans(),
    sparse=st.booleans(),
    split=st.booleans(),
)
@example(seed=3, close=True, sparse=True, split=True)
@settings(max_examples=60, deadline=None)
def test_components_match_union_find(seed, close, sparse, split):
    ds = oracle_season(seed, close, sparse, split)
    assert ds.components() == union_find_components(ds)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    close=st.booleans(),
    sparse=st.booleans(),
    split=st.booleans(),
)
@example(seed=3, close=True, sparse=True, split=True)
@settings(max_examples=60, deadline=None)
def test_tournament_matches_per_pair_compare(seed, close, sparse, split):
    """The matrix tournament gives every pair exactly the outcome the reference ``compare`` walks to."""
    ds = oracle_season(seed, close, sparse, split)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        ratings = solve_power_ratings(ds, SolverConfig(hfa=0.0 if close else 1.0))
    pairs = list(all_pairs(ds.teams))
    for config in CONFIGS:
        table = run_tournament(ds, ratings, config)
        oracle = tuple(compare(ds, a, b, ratings, config) for a, b in pairs)
        assert table.outcomes == oracle
        assert [table.outcomes[k] for k in range(-len(oracle), len(oracle))] == list(oracle + oracle)
        for (a, b), want in zip(pairs, oracle):
            assert table.outcome_for(a, b) == table.outcome_for(b, a) == want
        assert table.unresolved() == tuple(o for o in oracle if o.winner is None)
        for t in ds.teams:
            assert table.points[t] == sum(table.step_wins(t))
