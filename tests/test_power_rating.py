"""Power rating solver, checked against an independent least-squares oracle."""

import datetime
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise.errors import ComputationError, DataWarning, ValidationError
from powerwise.cli import main
from powerwise.ingest import GameRecord, build_season, flip_game, load_games, parse_games
from powerwise.power_rating import (
    PowerRatingTable,
    SolverConfig,
    _margin_sums,
    estimate_hfa,
    rating_difference,
    solve_power_ratings,
)
from powerwise.synthetic import random_schedule
from reference import adjusted_margin, capped_margin, margin_sums, mean_home_margin

HEADER = "season,date,home,away,home_score,away_score,neutral\n"


def lstsq_oracle(dataset, cap, hfa):
    """Reference solution: stack one row per game (+1 home, -1 away) against the
    hfa-adjusted capped home margin, solve by SVD least squares, then shift each
    schedule component to mean zero. Shares no code with the solver.
    """
    teams = list(dataset.teams)
    idx = {t: i for i, t in enumerate(teams)}
    a = np.zeros((len(dataset.games), len(teams)))
    b = np.zeros(len(dataset.games))
    for k, g in enumerate(dataset.games):
        a[k, idx[g.home_team]] = 1.0
        a[k, idx[g.away_team]] = -1.0
        m = float(g.home_score - g.away_score)
        if cap is not None:
            m = max(-float(cap), min(float(cap), m))
        if not g.neutral_site:
            m -= hfa
        b[k] = m
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    out = {t: float(sol[idx[t]]) for t in teams}
    for comp in dataset.components():
        mean = sum(out[t] for t in comp) / len(comp)
        for t in comp:
            out[t] -= mean
    return out


def season_of(text):
    return build_season(parse_games(HEADER + text), 2024)


def test_capped_margin_clamps_before_anything_else():
    assert capped_margin(15, 0, 7) == 7
    assert capped_margin(0, 15, 7) == -7
    assert capped_margin(5, 3, 7) == 2
    assert capped_margin(15, 0, None) == 15


def test_adjusted_margin_perspectives():
    g = GameRecord(2024, datetime.date(2024, 2, 1), "H", "A", 12, 2, False)
    assert adjusted_margin(g, "H", 7, 1.5) == pytest.approx(7 - 1.5)
    assert adjusted_margin(g, "A", 7, 1.5) == pytest.approx(-7 + 1.5)
    neutral = GameRecord(2024, datetime.date(2024, 2, 1), "H", "A", 12, 2, True)
    assert adjusted_margin(neutral, "H", 7, 1.5) == 7
    with pytest.raises(ValidationError):
        adjusted_margin(g, "X", 7, 1.5)


def test_two_team_neutral_game_closed_form():
    ds = season_of("2024,2024-02-01,A,B,7,3,1\n")
    table = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    assert table.ratings["A"] == pytest.approx(2.0, abs=1e-9)
    assert table.ratings["B"] == pytest.approx(-2.0, abs=1e-9)
    assert table.converged


def test_home_win_fully_explained_by_hfa():
    ds = season_of("2024,2024-02-01,A,B,5,3,0\n")
    table = solve_power_ratings(ds, SolverConfig(hfa=2.0))
    assert table.ratings["A"] == pytest.approx(0.0, abs=1e-9)
    assert table.ratings["B"] == pytest.approx(0.0, abs=1e-9)


def test_blowout_capped_to_seven():
    ds = season_of("2024,2024-02-01,A,B,15,0,1\n")
    table = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    assert table.ratings["A"] == pytest.approx(3.5)
    assert table.ratings["B"] == pytest.approx(-3.5)


def test_estimate_hfa_mean_capped_home_margin():
    ds = season_of(
        "2024,2024-02-01,A,B,5,3,0\n"  # +2
        "2024,2024-02-02,B,A,1,2,0\n"  # -1
        "2024,2024-02-03,A,B,15,0,0\n"  # capped +7
        "2024,2024-02-04,B,A,9,2,1\n"  # neutral, excluded
    )
    assert estimate_hfa(ds, 7) == pytest.approx((2 - 1 + 7) / 3)


def test_estimate_hfa_all_neutral_warns_zero():
    ds = season_of("2024,2024-02-01,A,B,5,3,1\n")
    with pytest.warns(DataWarning, match="no non-neutral"):
        assert estimate_hfa(ds, 7) == 0.0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cap=st.none() | st.integers(min_value=1, max_value=7),
    hfa=st.just("estimate") | st.floats(min_value=-4, max_value=4, allow_nan=False),
    close=st.booleans(),
    neutral_fraction=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(seed=1, cap=3, hfa="estimate", close=True, neutral_fraction=1.0)
@settings(max_examples=80, deadline=None)
def test_margin_sums_and_hfa_equal_the_per_game_loop(seed, cap, hfa, close, neutral_fraction):
    """The solve's vectorized ``b`` and estimated HFA are exactly what the per-game loop adds up."""
    rng = random.Random(seed)
    schedule = random_schedule(
        seed=seed, margin_range=(0, 2) if close else (0, 15), neutral_fraction=neutral_fraction
    )
    ds = build_season([flip_game(g) if rng.random() < 0.5 else g for g in schedule.games], 2024)
    want_hfa = mean_home_margin(ds, cap)
    if want_hfa is None:
        with pytest.warns(DataWarning, match="no non-neutral"):
            assert estimate_hfa(ds, cap) == 0.0
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DataWarning)
            assert estimate_hfa(ds, cap) == want_hfa
    used = (want_hfa or 0.0) if hfa == "estimate" else hfa
    assert _margin_sums(ds.schedule, cap, used).tolist() == margin_sums(ds, cap, used)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        assert solve_power_ratings(ds, SolverConfig(goal_cap=cap, hfa=hfa)).hfa_used == used


def test_solver_matches_oracle_on_seeded_schedules():
    for seed in range(12):
        ds = random_schedule(seed=seed)
        cfg = SolverConfig(goal_cap=7, hfa=1.0)
        table = solve_power_ratings(ds, cfg)
        want = lstsq_oracle(ds, 7, 1.0)
        for t in ds.teams:
            assert table.ratings[t] == pytest.approx(want[t], abs=1e-6), (seed, t)


def test_solver_matches_oracle_with_estimated_hfa_and_no_cap():
    ds = random_schedule(seed=99)
    table = solve_power_ratings(ds, SolverConfig(goal_cap=None, hfa="estimate"))
    want = lstsq_oracle(ds, None, table.hfa_used)
    for t in ds.teams:
        assert table.ratings[t] == pytest.approx(want[t], abs=1e-6)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_solver_matches_oracle_property(seed):
    ds = random_schedule(seed=seed, n_teams_range=(3, 8), games_per_pair_range=(1, 3))
    table = solve_power_ratings(ds, SolverConfig(goal_cap=7, hfa=0.5))
    want = lstsq_oracle(ds, 7, 0.5)
    assert max(abs(table.ratings[t] - want[t]) for t in ds.teams) < 1e-6


def test_residual_bounded_by_tolerance():
    for seed in (3, 17, 41):
        ds = random_schedule(seed=seed)
        table = solve_power_ratings(ds, SolverConfig(hfa=1.0))
        assert table.converged
        assert table.residual <= 1e-9


def test_mean_zero_anchor_per_component():
    ds = season_of(
        "2024,2024-02-01,A,B,9,3,1\n"
        "2024,2024-02-02,X,Y,4,2,1\n"
    )
    table = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    assert table.components == (("A", "B"), ("X", "Y"))
    assert table.ratings["A"] + table.ratings["B"] == pytest.approx(0.0, abs=1e-9)
    assert table.ratings["X"] + table.ratings["Y"] == pytest.approx(0.0, abs=1e-9)


def test_top_100_anchor_is_global_shift():
    ds = random_schedule(seed=7)
    base = solve_power_ratings(ds, SolverConfig(hfa=1.0))
    top = solve_power_ratings(ds, SolverConfig(hfa=1.0, anchor="top-100"))
    assert max(top.ratings.values()) == pytest.approx(100.0)
    shift = 100.0 - max(base.ratings.values())
    for t in ds.teams:
        assert top.ratings[t] == pytest.approx(base.ratings[t] + shift, abs=1e-9)
    assert top.order() == base.order()


def test_rating_difference_within_and_across_components():
    ds = season_of(
        "2024,2024-02-01,A,B,9,3,1\n"
        "2024,2024-02-02,X,Y,4,2,1\n"
    )
    table = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    assert rating_difference(table, "A", "B") == pytest.approx(6.0)
    with pytest.raises(ValidationError, match="component"):
        rating_difference(table, "A", "X")


def conference_chain(n_conferences, size):
    """Round-robin conferences, each linked to the next by one game: a weakly
    connected schedule whose Laplacian is badly conditioned."""
    rng = random.Random(f"chain:{n_conferences}:{size}")
    conferences = [[f"C{c:02d}T{j}" for j in range(size)] for c in range(n_conferences)]
    pairs = [(m[i], m[j]) for m in conferences for i in range(size) for j in range(i + 1, size)]
    pairs += [(rng.choice(a), rng.choice(b)) for a, b in zip(conferences, conferences[1:])]
    rows = []
    for slot, (home, away) in enumerate(pairs):
        day = datetime.date(2024, 1, 10) + datetime.timedelta(days=slot % 110)
        loser = rng.randint(0, 10)
        scores = (loser + rng.randint(1, 9), loser)
        if rng.random() < 0.5:
            scores = scores[::-1]
        rows.append(f"2024,{day},{home},{away},{scores[0]},{scores[1]},{rng.randint(0, 1)}\n")
    return HEADER + "".join(rows)


def test_conference_chain_solves_under_strict(tmp_path, capsys):
    log = tmp_path / "chain.csv"
    log.write_text(conference_chain(16, 8))
    assert main(["rank", "--games", str(log), "--strict"]) == 0
    capsys.readouterr()
    ds = build_season(load_games(log), 2024)
    table = solve_power_ratings(ds, SolverConfig(hfa=1.0), strict=True)
    assert len(table.components) == 1
    assert table.residual <= 1e-9
    want = lstsq_oracle(ds, 7, 1.0)
    assert max(abs(table.ratings[t] - want[t]) for t in ds.teams) <= 1e-9


def test_bad_solve_warns_or_raises(monkeypatch):
    ds = random_schedule(seed=5)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.arange(len(b), dtype=float))
    with pytest.warns(DataWarning, match="residual"):
        table = solve_power_ratings(ds, SolverConfig(hfa=1.0))
    assert not table.converged
    assert table.residual > 1e-9
    with pytest.raises(ComputationError, match="residual"):
        solve_power_ratings(ds, SolverConfig(hfa=1.0), strict=True)


def test_solver_is_deterministic():
    ds = random_schedule(seed=123)
    a = solve_power_ratings(ds, SolverConfig(hfa="estimate"))
    b = solve_power_ratings(ds, SolverConfig(hfa="estimate"))
    assert a.ratings == b.ratings


def test_order_breaks_exact_ties_by_name():
    table = PowerRatingTable(
        season=2024,
        ratings={"B": 1.0, "A": 1.0, "C": 0.0},
        hfa_used=0.0,
        residual=0.0,
        components=(("A", "B", "C"),),
        config=SolverConfig(),
    )
    assert table.order() == ("A", "B", "C")


def test_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(goal_cap=0)
    with pytest.raises(ValidationError):
        SolverConfig(hfa="auto")
    with pytest.raises(ValidationError):
        SolverConfig(anchor="median")
    for hfa in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match="finite"):
            SolverConfig(hfa=hfa)
