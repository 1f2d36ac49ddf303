"""Tie-break ladder, dense ranks, and audit replay."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise.errors import ValidationError
from powerwise.ingest import build_season
from powerwise.pairwise import CO_MODES, STEPS, ComparisonConfig, PowerwiseTable, run_tournament
from powerwise.power_rating import PowerRatingTable, SolverConfig
from powerwise.synthetic import random_schedule
from powerwise.tiebreak import RankingEntry, RankingList, break_ties, rank_season, replay_order
from reference import score_entries, tie_break_entries


def make_table(points, decided=(), season=2024):
    """Fabricate a tournament table from points and (winner, loser, step) triples; other pairs are unresolved."""
    teams = tuple(sorted(points))
    index = {t: i for i, t in enumerate(teams)}
    step = np.full((len(teams), len(teams)), STEPS.index("unresolved"), dtype=np.int8)
    sign = np.zeros_like(step)
    for winner, loser, how in decided:
        w, l = index[winner], index[loser]
        step[w, l] = step[l, w] = STEPS.index(how)
        sign[w, l], sign[l, w] = 1, -1
    # break_ties renders no evidence, so the table holds no on-field verdicts, ratings or components
    return PowerwiseTable(season, teams, index, dict(points), step, sign, on_field=None, ratings=None, components=None)


def make_ratings(values, season=2024):
    return PowerRatingTable(
        season=season,
        ratings=dict(values),
        hfa_used=0.0,
        residual=0.0,
        components=(tuple(sorted(values)),),
        config=SolverConfig(),
    )


def test_distinct_points_rank_directly():
    table = make_table({"A": 3, "B": 2, "C": 1, "D": 0})
    ranking = break_ties(table, make_ratings({"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0}))
    assert ranking.order() == ("A", "B", "C", "D")
    assert [e.rank for e in ranking.entries] == [1, 2, 3, 4]
    assert all(e.tie_group is None for e in ranking.entries)
    assert [e.audit for e in ranking.entries] == [
        (("points", 3.0),),
        (("points", 2.0),),
        (("points", 1.0),),
        (("points", 0.0),),
    ]


def test_two_team_tie_uses_their_pair_outcome():
    # B holds the head-to-head over A despite A's higher rating.
    table = make_table({"A": 2, "B": 2, "C": 0}, [("B", "A", "head_to_head")])
    ranking = break_ties(table, make_ratings({"A": 5.0, "B": 1.0, "C": 0.0}))
    assert ranking.order() == ("B", "A", "C")
    assert [e.rank for e in ranking.entries] == [1, 2, 3]
    b, a, c = ranking.entries
    assert b.audit == (("points", 2.0), ("pair_head_to_head", 1.0))
    assert a.audit == (("points", 2.0), ("pair_head_to_head", 0.0))
    assert (b.tie_group, a.tie_group, c.tie_group) == (1, 1, None)


def test_two_team_tie_unresolved_pair_falls_to_rating():
    table = make_table({"A": 1, "B": 1})
    ranking = break_ties(table, make_ratings({"A": -2.0, "B": 3.5}))
    assert ranking.order() == ("B", "A")
    assert ranking.entries[0].audit == (("points", 1.0), ("power_rating", 3.5))


def test_two_team_tie_equal_ratings_share_rank():
    table = make_table({"A": 1, "B": 1, "C": 0})
    ranking = break_ties(table, make_ratings({"A": 1.25, "B": 1.25, "C": 0.0}))
    assert [e.rank for e in ranking.entries] == [1, 1, 2]
    assert ranking.order() == ("A", "B", "C")  # name order inside a shared rank
    assert ranking.ranks()["C"] == 2  # dense: no gap after the shared rank


def test_three_cycle_falls_to_rating():
    cycle = [("A", "B", "head_to_head"), ("B", "C", "head_to_head"), ("C", "A", "head_to_head")]
    table = make_table({"A": 2, "B": 2, "C": 2}, cycle)
    ranking = break_ties(table, make_ratings({"A": 1.0, "B": 3.0, "C": 2.0}))
    assert ranking.order() == ("B", "C", "A")
    assert ranking.entries[0].audit == (("points", 2.0), ("power_rating", 3.0))


def test_mini_round_robin_splits_then_recurses():
    decided = [
        ("A", "B", "head_to_head"),
        ("A", "C", "common_opponents"),
        ("B", "C", "head_to_head"),
    ]
    table = make_table({"A": 3, "B": 3, "C": 3, "D": 3}, decided)
    ranking = break_ties(table, make_ratings({"A": 0.0, "B": 0.0, "C": 4.0, "D": 9.0}))
    # Intra-group wins: A=2, B=1, C=0, D=0; C vs D is unresolved so rating orders it.
    assert ranking.order() == ("A", "B", "D", "C")
    a, b, d, c = ranking.entries
    assert a.audit == (("points", 3.0), ("mini_round_robin", 2.0))
    assert b.audit == (("points", 3.0), ("mini_round_robin", 1.0))
    assert d.audit == (("points", 3.0), ("mini_round_robin", 0.0), ("power_rating", 9.0))
    assert c.audit == (("points", 3.0), ("mini_round_robin", 0.0), ("power_rating", 4.0))
    assert [e.rank for e in ranking.entries] == [1, 2, 3, 4]
    assert all(e.tie_group == 1 for e in ranking.entries)


def test_nested_recursion_two_level():
    # Six-way tie: E and F beat everyone in-group except each other (E took the
    # pair), the other four split 2/2 into a sub-tie resolved by their pairs.
    decided = [
        ("E", "A", "head_to_head"), ("E", "B", "head_to_head"),
        ("E", "C", "head_to_head"), ("E", "F", "head_to_head"),
        ("F", "A", "head_to_head"), ("F", "C", "head_to_head"),
        ("F", "D", "head_to_head"),
        ("A", "C", "head_to_head"), ("A", "B", "head_to_head"),
        ("C", "B", "head_to_head"), ("C", "D", "head_to_head"),
        ("B", "D", "head_to_head"),
    ]
    points = {t: 7 for t in "ABCDEF"}
    table = make_table(points, decided)
    ranking = break_ties(table, make_ratings({t: float(i) for i, t in enumerate("ABCDEF")}))
    # wins: E=4, F=3, A=2, C=2, B=1, D=0 -> [E],[F],[A,C],[B],[D]; the A-C pair decides.
    assert ranking.order() == ("E", "F", "A", "C", "B", "D")
    assert ranking.entries[2].audit == (  # A's
        ("points", 7.0),
        ("mini_round_robin", 2.0),
        ("pair_head_to_head", 1.0),
    )


def test_replay_reproduces_order():
    decided = [("A", "B", "head_to_head"), ("B", "C", "head_to_head"), ("C", "A", "head_to_head")]
    table = make_table({"A": 2, "B": 2, "C": 2, "D": 0}, decided)
    ranking = break_ties(table, make_ratings({"A": 1.0, "B": 3.0, "C": 2.0, "D": 0.0}))
    assert replay_order(ranking) == ranking.order()


def test_from_scores_dense_with_ties():
    ranking = RankingList.from_scores(2024, {"A": 0.9, "B": 0.7, "C": 0.7, "D": 0.1})
    assert ranking.order() == ("A", "B", "C", "D")
    assert [e.rank for e in ranking.entries] == [1, 2, 2, 3]
    with pytest.raises(ValidationError, match="empty"):
        RankingList.from_scores(2024, {})


@given(st.integers(min_value=0, max_value=4000))
@settings(max_examples=30, deadline=None)
def test_rank_season_invariants(seed):
    ds = random_schedule(seed=seed, n_teams_range=(4, 9))
    ratings, table, ranking = rank_season(ds, SolverConfig(hfa=1.0))
    ranks = [e.rank for e in ranking.entries]
    assert ranks[0] == 1
    assert all(b - a in (0, 1) for a, b in zip(ranks, ranks[1:]))  # dense, descending order
    points = [e.points for e in ranking.entries]
    assert points == sorted(points, reverse=True)
    assert replay_order(ranking) == ranking.order()
    assert set(ranking.order()) == set(ds.teams)


@given(st.integers(min_value=0, max_value=4000), st.sampled_from([-100.0, 3.7, 100.0]))
@settings(max_examples=20, deadline=None)
def test_ranking_order_invariant_to_rating_shifts(seed, shift):
    ds = random_schedule(seed=seed, n_teams_range=(4, 8))
    ratings, table, ranking = rank_season(ds, SolverConfig(hfa=1.0))
    shifted = dataclasses.replace(
        ratings, ratings={t: r + shift for t, r in ratings.ratings.items()}
    )
    assert break_ties(table, shifted).order() == ranking.order()


def fields(entries) -> list[str]:
    """Each entry as the repr of its (rank, team, points, tie_group, audit), which tells 1 from 1.0 and -0.0 from 0.0."""
    return [repr(tuple(e)) for e in entries]


def tie_heavy_season(seed: int, split: bool):
    """3-6 teams with margins of 0-2 goals, so many tied scores and points; ``split`` adds a disconnected copy."""
    shape = dict(margin_range=(0, 2), n_teams_range=(3, 6))
    games = list(random_schedule(seed=seed, **shape).games)
    if split:
        other = random_schedule(seed=seed + 1, **shape).games
        games += [dataclasses.replace(g, home_team="U" + g.home_team, away_team="U" + g.away_team) for g in other]
    return build_season(games, 2024)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    split=st.booleans(),
    config=st.sampled_from([ComparisonConfig(m, s) for m in CO_MODES for s in (False, True)]),
    grid=st.sampled_from([0.5, 2.0, 1e9]),
)
@settings(max_examples=60, deadline=None)
def test_rankings_match_the_oracle_field_for_field(seed, split, config, grid):
    ds = tie_heavy_season(seed, split)
    ratings, table, ranking = rank_season(ds, SolverConfig(hfa=0.5), config)
    assert all(type(e) is RankingEntry for e in ranking.entries)
    assert fields(ranking.entries) == fields(tie_break_entries(table, ratings))
    # Ratings snapped to a grid tie many teams (a 1e9 grid ties them all): step III and the last resort see equal ratings.
    snapped = dataclasses.replace(ratings, ratings={t: round(r / grid) * grid for t, r in ratings.ratings.items()})
    table = run_tournament(ds, snapped, config)
    assert fields(break_ties(table, snapped).entries) == fields(tie_break_entries(table, snapped))


@given(
    scores=st.dictionaries(
        st.sampled_from("ABCDEFGH"), st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]), min_size=1
    ),
)
@settings(max_examples=60, deadline=None)
def test_from_scores_matches_the_oracle_field_for_field(scores):
    ranking = RankingList.from_scores(2024, scores)
    assert fields(ranking.entries) == fields(score_entries(scores))


def tie_heavy_league(seed: int, copies: int):
    """12-30 teams with margins of 0-2 goals, so one season holds many tied groups.

    One copy is a single connected schedule; more are renamed, disconnected
    copies of 3-6 teams each, whose cross-copy pairs are all unresolved.
    """
    shape = dict(margin_range=(0, 2), n_teams_range=(12, 30) if copies == 1 else (3, 6))
    games = []
    for k in range(copies):
        prefix = "" if copies == 1 else "UVWXYZ"[k]
        for g in random_schedule(seed=seed + k, **shape).games:
            games.append(dataclasses.replace(g, home_team=prefix + g.home_team, away_team=prefix + g.away_team))
    return build_season(games, 2024)


COMPARISON_CONFIGS = [ComparisonConfig(m, s) for m in CO_MODES for s in (False, True)]
# (seed, copies) examples that between them reach every kind of tied group (see the coverage test)
TIE_HEAVY_EXAMPLES = ((0, 1), (3, 1), (5, 5))


@given(seed=st.integers(min_value=0, max_value=10_000), copies=st.sampled_from([1, 4, 5, 6]))
@example(*TIE_HEAVY_EXAMPLES[0])
@example(*TIE_HEAVY_EXAMPLES[1])
@example(*TIE_HEAVY_EXAMPLES[2])
@settings(max_examples=25, deadline=None)
def test_many_tied_groups_match_the_oracle_field_for_field(seed, copies):
    """Seasons of many tied groups, under every comparison config and on snapped-rating grids."""
    ds = tie_heavy_league(seed, copies)
    for config in COMPARISON_CONFIGS:
        ratings, table, ranking = rank_season(ds, SolverConfig(hfa=0.5), config)
        assert fields(ranking.entries) == fields(tie_break_entries(table, ratings))
        for grid in (0.5, 2.0, 1e9):
            snapped = {t: round(r / grid) * grid for t, r in ratings.ratings.items()}
            snapped = dataclasses.replace(ratings, ratings=snapped)
            table = run_tournament(ds, snapped, config)
            assert fields(break_ties(table, snapped).entries) == fields(tie_break_entries(table, snapped))


def group_kinds(table, ranking) -> set[str]:
    """How each tied group of ``ranking`` is ordered, read off its intra-group wins."""
    groups = {}
    for e in ranking.entries:
        if e.tie_group is not None:
            groups.setdefault(e.tie_group, []).append(table.index[e.team])
    kinds = set()
    for members in groups.values():
        won = (table.sign[np.ix_(members, members)] > 0).sum(axis=1).tolist()
        if len(members) == 2:
            kinds.add("decided pair" if max(won) else "unresolved pair")
        else:
            kinds.add({len(members): "strict order", 1: "all even"}.get(len(set(won)), "partial sub-tie"))
    return kinds


def test_tie_heavy_examples_cover_every_group_path():
    seen = set()
    for seed, copies in TIE_HEAVY_EXAMPLES:
        _, table, ranking = rank_season(tie_heavy_league(seed, copies), SolverConfig(hfa=0.5))
        seen |= group_kinds(table, ranking)
    assert seen == {"decided pair", "strict order", "all even", "partial sub-tie", "unresolved pair"}
