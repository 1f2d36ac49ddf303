"""RPI components against a fully hand-worked example."""

import datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise.errors import ValidationError
from powerwise.ingest import GameRecord, build_season, parse_games
from powerwise.rpi import RpiConfig, compute_rpi, schedule_swap_experiment
from powerwise.synthetic import random_schedule, synthetic_league
from reference import games_of, win_value, winning_percentage

HEADER = "season,date,home,away,home_score,away_score,neutral\n"

# A 2-0, B 1-1, C 1-2, D 0-1. Worked by hand below:
#   WP:   A=1, B=1/2, C=1/3, D=0
#   OWP:  A=3/4 (B-excl-A=1, C-excl-A=1/2), B=3/4, C=1/3, D=0
#   OOWP: A=13/24, B=13/24, C=1/2, D=1/3
FOUR_TEAM = (
    "2024,2024-02-01,A,B,5,3,1\n"
    "2024,2024-02-02,A,C,4,1,1\n"
    "2024,2024-02-03,B,C,6,2,1\n"
    "2024,2024-02-04,C,D,3,2,1\n"
)


@pytest.fixture()
def four_team():
    return build_season(parse_games(HEADER + FOUR_TEAM), 2024)


def test_win_value_and_ties():
    win = GameRecord(2024, datetime.date(2024, 2, 1), "A", "B", 5, 3, False)
    assert win_value(win, "A") == 1.0
    assert win_value(win, "B") == 0.0
    tie = GameRecord(2024, datetime.date(2024, 2, 1), "A", "B", 4, 4, False)
    assert win_value(tie, "A") == 0.5
    assert win_value(tie, "B") == 0.5


def test_hand_worked_components(four_team):
    table = compute_rpi(four_team)
    assert table.wp == pytest.approx({"A": 1.0, "B": 0.5, "C": 1 / 3, "D": 0.0})
    assert table.owp == pytest.approx({"A": 0.75, "B": 0.75, "C": 1 / 3, "D": 0.0})
    assert table.oowp == pytest.approx({"A": 13 / 24, "B": 13 / 24, "C": 0.5, "D": 1 / 3})
    assert table.rpi == pytest.approx(
        {
            "A": 0.25 * 1.0 + 0.5 * 0.75 + 0.25 * 13 / 24,
            "B": 0.25 * 0.5 + 0.5 * 0.75 + 0.25 * 13 / 24,
            "C": 0.25 / 3 + 0.5 / 3 + 0.25 * 0.5,
            "D": 0.25 / 3,
        }
    )


def test_owp_excludes_games_against_rated_team(four_team):
    # B is 1-1 overall but 1-0 once the loss to A is removed.
    assert winning_percentage(four_team, "B") == 0.5
    assert winning_percentage(four_team, "B", excluding="A") == 1.0


def test_owp_fallback_when_opponent_only_played_us(four_team):
    # D's only game is vs C, so excluding C falls back to D's overall record.
    assert winning_percentage(four_team, "D", excluding="C") == 0.0


def test_owp_weights_per_game_not_per_opponent():
    # A meets B twice and C once: B's exclusion-WP must count twice.
    ds = build_season(
        parse_games(
            HEADER
            + "2024,2024-02-01,A,B,5,3,1,0\n"
            + "2024,2024-02-02,A,B,5,3,1,0\n"
            + "2024,2024-02-03,A,C,5,3,1,0\n"
            + "2024,2024-02-04,B,C,5,3,1,0\n"
        ),
        2024,
    )
    table = compute_rpi(ds)
    wpx_b = winning_percentage(ds, "B", excluding="A")  # 1.0
    wpx_c = winning_percentage(ds, "C", excluding="A")  # 0.0
    assert table.owp["A"] == pytest.approx((2 * wpx_b + wpx_c) / 3)


def test_custom_weights(four_team):
    pure_wp = compute_rpi(four_team, RpiConfig(weights=(1.0, 0.0, 0.0)))
    assert pure_wp.rpi == pytest.approx(pure_wp.wp)


def test_config_validation():
    with pytest.raises(ValidationError):
        RpiConfig(weights=(0.5, 0.5))
    with pytest.raises(ValidationError):
        RpiConfig(weights=(-0.1, 0.6, 0.5))
    with pytest.raises(ValidationError):
        RpiConfig(weights=(0.0, 0.0, 0.0))
    for weights in ((float("nan"), 1.0, 1.0), (float("inf"), 0.0, 0.0), (0.25, 0.5, float("-inf"))):
        with pytest.raises(ValidationError, match="finite"):
            RpiConfig(weights=weights)


def test_order_and_dense_ranks(four_team):
    table = compute_rpi(four_team)
    assert table.order() == ("A", "B", "C", "D")
    assert table.ranks() == {"A": 1, "B": 2, "C": 3, "D": 4}


def test_ranks_share_on_exact_ties():
    # Perfectly symmetric pair of pairs: everyone 1-1 against their own partner.
    ds = build_season(
        parse_games(
            HEADER
            + "2024,2024-02-01,A,B,5,3,1,0\n"
            + "2024,2024-02-02,B,A,5,3,1,0\n"
            + "2024,2024-02-03,C,D,5,3,1,0\n"
            + "2024,2024-02-04,D,C,5,3,1,0\n"
        ),
        2024,
    )
    ranks = compute_rpi(ds).ranks()
    assert set(ranks.values()) == {1}


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_rpi_bounded_for_convex_weights(seed):
    ds = random_schedule(seed=seed, n_teams_range=(3, 9))
    table = compute_rpi(ds)
    for t in ds.teams:
        assert 0.0 <= table.wp[t] <= 1.0
        assert 0.0 <= table.owp[t] <= 1.0
        assert 0.0 <= table.oowp[t] <= 1.0
        assert 0.0 <= table.rpi[t] <= 1.0


def test_schedule_swap_validates_inputs():
    league = synthetic_league(8, seed=1)
    ds = league.dataset
    stray = GameRecord(2024, datetime.date(2024, 2, 1), "T01", "T02", 5, 3, False)
    with pytest.raises(ValidationError, match="unknown team"):
        schedule_swap_experiment(ds, "Nope", [stray])
    with pytest.raises(ValidationError, match="does not involve"):
        schedule_swap_experiment(ds, "T03", [stray])
    with pytest.raises(ValidationError, match="empty"):
        schedule_swap_experiment(ds, "T03", [])


def test_schedule_swap_losses_to_elites_can_raise_rpi():
    league = synthetic_league(12, seed=42, games_per_team=8)
    ds = league.dataset
    table = compute_rpi(ds)
    weakest = table.order()[-1]
    top4 = [t for t in compute_rpi(ds).order() if t != weakest][:4]
    replacements = [
        GameRecord(2024, datetime.date(2024, 3, 1 + i), opp, weakest, 10, 2, False)
        for i, opp in enumerate(top4)
    ]
    report = schedule_swap_experiment(ds, weakest, replacements)
    assert report.rpi_after > report.rpi_before
    assert report.rank_after < report.rank_before
    # The swapped team went winless, so the gain is pure schedule strength.
    assert report.after.wp[weakest] == 0.0


def loop_rpi(dataset, weights):
    """The per-game loops compute_rpi replaced, kept as its exact oracle.

    Running totals are added left to right in game order, as ``sum`` did before
    Python 3.12 made it compensated.
    """

    def mean(values):
        total = 0.0
        for v in values:
            total += v
        return total / len(values)

    opponents = {t: [g.opponent_of(t) for g in games_of(dataset, t)] for t in dataset.teams}
    wp = {t: winning_percentage(dataset, t) for t in dataset.teams}
    owp = {t: mean([winning_percentage(dataset, opp, excluding=t) for opp in opponents[t]]) for t in dataset.teams}
    oowp = {t: mean([owp[opp] for opp in opponents[t]]) for t in dataset.teams}
    w1, w2, w3 = weights
    return {t: w1 * wp[t] + w2 * owp[t] + w3 * oowp[t] for t in dataset.teams}, wp, owp, oowp


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([(0, 2), (0, 15)]))
@example(seed=0, margins=(0, 2))  # adding a team's home games before its away games changes last bits here
@settings(max_examples=40, deadline=None)
def test_compute_rpi_equals_per_game_loops_exactly(seed, margins):
    ds = random_schedule(seed=seed, n_teams_range=(3, 14), margin_range=margins, pair_fraction=0.3)
    table = compute_rpi(ds, RpiConfig((0.3, 0.45, 0.25)))
    assert (table.rpi, table.wp, table.owp, table.oowp) == loop_rpi(ds, (0.3, 0.45, 0.25))
