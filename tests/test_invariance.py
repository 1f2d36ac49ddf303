"""A season's results depend only on its games: not on team names, row order or
which side of a neutral-site game is listed as home."""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise.ingest import build_season
from powerwise.power_rating import SolverConfig
from powerwise.synthetic import random_schedule
from powerwise.tiebreak import rank_season


def results(games, back=lambda t: t):
    """Every pair outcome, point total and rank, with names mapped through ``back``."""
    _, table, ranking = rank_season(build_season(games, 2024), SolverConfig(hfa=0.0))
    outcomes = {
        frozenset((back(o.team_a), back(o.team_b))): (o.winner and back(o.winner), o.deciding_step)
        for o in table.outcomes
    }
    points = {back(t): p for t, p in table.points.items()}
    ranks = {back(t): r for t, r in ranking.ranks().items()}
    return outcomes, points, ranks


def close_games(seed):
    """Margins of 0-3 goals leave many pairs to the rating step, and many near-equal ratings."""
    return list(random_schedule(seed=seed, margin_range=(0, 3)).games)


seeds = st.integers(min_value=0, max_value=10_000)


@given(seeds)
@example(49)
@example(127)
@example(137)
@example(190)
@settings(max_examples=60, deadline=None)
def test_renaming_teams_changes_nothing(seed):
    games = close_games(seed)
    teams = sorted({t for g in games for t in (g.home_team, g.away_team)})
    # reverse the name order, so any name-ordered computation runs backwards
    rename = {t: f"X{len(teams) - k:03d}" for k, t in enumerate(teams)}
    back = {v: k for k, v in rename.items()}
    renamed = [
        dataclasses.replace(g, home_team=rename[g.home_team], away_team=rename[g.away_team]) for g in games
    ]
    assert results(renamed, back.__getitem__) == results(games)


@given(seeds, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_permuting_game_rows_changes_nothing(seed, rng):
    games = close_games(seed)
    shuffled = games[:]
    rng.shuffle(shuffled)
    assert results(shuffled) == results(games)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_swapping_sides_of_neutral_games_changes_nothing(seed):
    games = close_games(seed)
    swapped = [
        dataclasses.replace(
            g, home_team=g.away_team, away_team=g.home_team, home_score=g.away_score, away_score=g.home_score
        )
        if g.neutral_site
        else g
        for g in games
    ]
    assert results(swapped) == results(games)
