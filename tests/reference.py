"""Plain-Python reference implementations, used by the tests as oracles.

Everything here reads ``dataset.games`` alone, never the matrix view, and
formats its own evidence text, so the library's matrix tournament, RPI and
component search are checked against an independent walk over the games:

- ``compare`` walks the three-step ladder for one pair, step by step;
- ``win_value`` and ``winning_percentage`` are RPI's per-game definitions;
- ``capped_margin`` and ``adjusted_margin`` are the rating solve's per-game
  margin rule, and ``margin_sums`` and ``mean_home_margin`` add them up game by
  game into the solve's ``b`` and its estimated home advantage;
- ``union_find_components`` groups teams with a union-find over the games;
- ``group_samples`` collects the regression's (opponent strength, margin)
  samples team by team, game by game;
- ``tie_break_entries`` and ``score_entries`` rank a tournament table and a
  score table group by group and team by team, each entry a plain
  ``(rank, team, points, tie_group, audit)`` tuple (they read the table's
  step and sign arrays, which the tournament oracle above checks);
- ``involves``, ``opponent_of``, ``margin_for`` and ``games_of`` read one
  team's side of its games.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from powerwise.errors import ValidationError
from powerwise.ingest import GameRecord, SeasonDataset
from powerwise.pairwise import STEPS, ComparisonConfig, PairwiseOutcome, PowerwiseTable
from powerwise.power_rating import RATING_TOL, PowerRatingTable


def all_pairs(teams) -> Iterator[tuple[str, str]]:
    ordered = sorted(teams)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            yield a, b


def involves(game: GameRecord, team: str) -> bool:
    return team in (game.home_team, game.away_team)


def opponent_of(game: GameRecord, team: str) -> str:
    if team == game.home_team:
        return game.away_team
    if team == game.away_team:
        return game.home_team
    raise ValidationError(f"{team!r} did not play in game {game}")


def margin_for(game: GameRecord, team: str) -> int:
    """Signed goal margin from ``team``'s perspective."""
    m = game.home_score - game.away_score
    return m if team == game.home_team else -m


def games_of(dataset: SeasonDataset, team: str) -> list[GameRecord]:
    return [g for g in dataset.games if involves(g, team)]


def win_value(game: GameRecord, team: str) -> float:
    """1.0 for a win, 0.0 for a loss, 0.5 for a tied score."""
    margin = margin_for(game, team)
    if margin > 0:
        return 1.0
    if margin < 0:
        return 0.0
    return 0.5


def winning_percentage(dataset: SeasonDataset, team: str, excluding: str | None = None) -> float:
    """Mean win value of ``team``'s games, optionally excluding one opponent.

    If excluding the opponent leaves no games (the opponent was the team's whole
    schedule), fall back to the unfiltered percentage so the average stays
    defined.
    """
    games = games_of(dataset, team)
    if excluding is not None:
        kept = [g for g in games if not involves(g, excluding)]
        if kept:
            games = kept
    return sum(win_value(g, team) for g in games) / len(games)


def capped_margin(home_score: int, away_score: int, cap: int | None) -> int:
    """Home-perspective goal margin clamped to [-cap, +cap]."""
    m = home_score - away_score
    if cap is None:
        return m
    return max(-cap, min(cap, m))


def adjusted_margin(game: GameRecord, team: str, cap: int | None, hfa: float) -> float:
    """Capped margin from ``team``'s perspective with home advantage removed.

    The cap applies to the raw margin before the hfa adjustment.
    """
    m = capped_margin(game.home_score, game.away_score, cap)
    if team == game.home_team:
        return m if game.neutral_site else m - hfa
    if team == game.away_team:
        return -m if game.neutral_site else -m + hfa
    raise ValidationError(f"{team!r} did not play in game {game}")


def margin_sums(dataset: SeasonDataset, cap: int | None, hfa: float) -> list[float]:
    """Each team's adjusted margins, its home games and its away games each summed in game order."""
    sums = []
    for team in dataset.teams:
        home = away = 0.0
        for g in dataset.games:
            if g.home_team == team:
                home += adjusted_margin(g, team, cap, hfa)
            elif g.away_team == team:
                away += adjusted_margin(g, team, cap, hfa)
        sums.append(home + away)
    return sums


def mean_home_margin(dataset: SeasonDataset, cap: int | None) -> float | None:
    """Mean capped home margin over non-neutral games, or None when every game is neutral."""
    margins = [capped_margin(g.home_score, g.away_score, cap) for g in dataset.games if not g.neutral_site]
    return sum(margins) / len(margins) if margins else None


def _fmt(x: float) -> str:
    return f"{x:g}"


def head_to_head(dataset: SeasonDataset, team_a: str, team_b: str) -> tuple[str | None, str]:
    """Step I: winner of the season series, or None with an explanation."""
    meetings = [g for g in games_of(dataset, team_a) if involves(g, team_b)]
    if not meetings:
        return None, "no meetings"
    wins_a = sum(win_value(g, team_a) for g in meetings)
    wins_b = len(meetings) - wins_a
    if wins_a > wins_b:
        return team_a, f"{team_a} leads head-to-head {_fmt(wins_a)}-{_fmt(wins_b)}"
    if wins_b > wins_a:
        return team_b, f"{team_b} leads head-to-head {_fmt(wins_b)}-{_fmt(wins_a)}"
    return None, f"head-to-head even {_fmt(wins_a)}-{_fmt(wins_b)}"


def common_opponent_pool(dataset: SeasonDataset, team_a: str, team_b: str) -> tuple[str, ...]:
    """Teams both a and b played, excluding a and b themselves."""
    opps_a = {opponent_of(g, team_a) for g in games_of(dataset, team_a)}
    opps_b = {opponent_of(g, team_b) for g in games_of(dataset, team_b)}
    return tuple(sorted((opps_a & opps_b) - {team_a, team_b}))


def record_vs(dataset: SeasonDataset, team: str, pool) -> tuple[float, float, int]:
    """(wins, losses, games) for ``team`` against the opponent pool; ties split."""
    against = [g for g in games_of(dataset, team) if opponent_of(g, team) in pool]
    wins = sum(win_value(g, team) for g in against)
    return wins, len(against) - wins, len(against)


def common_opponents(
    dataset: SeasonDataset, team_a: str, team_b: str, config: ComparisonConfig = ComparisonConfig()
) -> tuple[str | None, str]:
    """Step II: better record against the shared opponent pool, or None."""
    pool = common_opponent_pool(dataset, team_a, team_b)
    if not pool:
        return None, "no common opponents"
    if len(pool) == 1 and config.skip_singular_co:
        return None, f"single common opponent {pool[0]} skipped"
    wins_a, losses_a, n_a = record_vs(dataset, team_a, pool)
    wins_b, losses_b, n_b = record_vs(dataset, team_b, pool)
    if config.co_mode == "percentage":
        stat_a, stat_b = wins_a / n_a, wins_b / n_b
        shown_a, shown_b = f"{stat_a:.3f}", f"{stat_b:.3f}"
    else:
        stat_a, stat_b = wins_a - losses_a, wins_b - losses_b
        shown_a, shown_b = f"{stat_a:+g}", f"{stat_b:+g}"
    label = f"{len(pool)} common opponent" + ("s" if len(pool) > 1 else "")
    if stat_a > stat_b:
        return team_a, f"{team_a} better against {label} ({shown_a} vs {shown_b})"
    if stat_b > stat_a:
        return team_b, f"{team_b} better against {label} ({shown_b} vs {shown_a})"
    return None, f"even against {label} ({shown_a} vs {shown_b})"


def power_rating_step(ratings: PowerRatingTable, team_a: str, team_b: str) -> tuple[str | None, str]:
    """Step III: higher power rating by more than RATING_TOL; never decides across components."""
    if ratings.component_of(team_a) != ratings.component_of(team_b):
        return None, "no schedule path between teams"
    ra, rb = ratings.rating_of(team_a), ratings.rating_of(team_b)
    if abs(ra - rb) <= RATING_TOL:
        return None, f"identical ratings ({ra:.3f})"
    if ra > rb:
        return team_a, f"{team_a} rated higher ({ra:.3f} vs {rb:.3f})"
    return team_b, f"{team_b} rated higher ({rb:.3f} vs {ra:.3f})"


def compare(
    dataset: SeasonDataset,
    team_a: str,
    team_b: str,
    ratings: PowerRatingTable,
    config: ComparisonConfig = ComparisonConfig(),
) -> PairwiseOutcome:
    """Walk the ladder for one pair. Steps I and II never fall through once decisive."""
    if team_a == team_b:
        raise ValidationError(f"cannot compare {team_a!r} with itself")
    a, b = sorted((team_a, team_b))
    trail = []
    for step, walk in (
        ("head_to_head", lambda: head_to_head(dataset, a, b)),
        ("common_opponents", lambda: common_opponents(dataset, a, b, config)),
        ("power_rating", lambda: power_rating_step(ratings, a, b)),
    ):
        winner, evidence = walk()
        if winner is not None:
            return PairwiseOutcome(a, b, winner, step, evidence)
        trail.append(evidence)
    return PairwiseOutcome(a, b, None, "unresolved", "; ".join(trail))


def union_find_components(dataset: SeasonDataset) -> tuple[tuple[str, ...], ...]:
    """Teams joined by any game, each group sorted, groups ordered by first member."""
    parent = {t: t for g in dataset.games for t in (g.home_team, g.away_team)}

    def root(t: str) -> str:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for g in dataset.games:
        parent[root(g.home_team)] = root(g.away_team)
    groups: dict[str, list[str]] = {}
    for t in parent:
        groups.setdefault(root(t), []).append(t)
    return tuple(sorted(tuple(sorted(members)) for members in groups.values()))


def group_samples(
    dataset: SeasonDataset, strengths, group, excluded, goal_cap: int | None
) -> list[tuple[float, float]]:
    """(opponent strength, capped margin) per game: team by team in sorted order, each in game order.

    Games against a team in ``excluded`` or missing from ``strengths`` are skipped.
    """
    samples = []
    for team in sorted(group):
        for g in games_of(dataset, team):
            opp = opponent_of(g, team)
            if opp in excluded or opp not in strengths:
                continue
            margin = margin_for(g, team)
            if goal_cap is not None:
                margin = max(-goal_cap, min(goal_cap, margin))
            samples.append((float(strengths[opp]), float(margin)))
    return samples


def _pair_audit(table: PowerwiseTable, ratings: PowerRatingTable, a: str, b: str):
    """Order a two-team tie by its pairwise outcome; fall through to rating."""
    i, j = table.index[a], table.index[b]
    if table.sign[i, j]:
        step = f"pair_{STEPS[table.step[i, j]]}"
        winner, loser = (a, b) if table.sign[i, j] > 0 else (b, a)
        return [(winner, ((step, 1.0),)), (loser, ((step, 0.0),))]
    return _rating_audit(ratings, [a, b])


def _rating_audit(ratings: PowerRatingTable, group) -> list:
    """Last resort: rating descending at 9 decimals (RATING_TOL); equal values stay tied."""
    value = {t: round(ratings.rating_of(t), 9) + 0.0 for t in group}  # + 0.0 turns -0.0 into 0.0
    ordered = sorted(group, key=lambda t: (-value[t], t))
    return [(t, (("power_rating", value[t]),)) for t in ordered]


def _resolve_group(table: PowerwiseTable, ratings: PowerRatingTable, group: list) -> list:
    """Return [(team, audit_suffix)] in final order for one tied group."""
    if len(group) == 1:
        return [(group[0], ())]
    if len(group) == 2:
        return _pair_audit(table, ratings, *sorted(group))

    members = [table.index[t] for t in group]
    won = (table.sign[np.ix_(members, members)] > 0).sum(axis=1)
    wins = dict(zip(group, won.astype(float).tolist()))
    if len(set(wins.values())) == 1:
        return _rating_audit(ratings, group)
    resolved = []
    for w in sorted(set(wins.values()), reverse=True):
        sub = sorted(t for t in group if wins[t] == w)
        for team, suffix in _resolve_group(table, ratings, sub):
            resolved.append((team, (("mini_round_robin", w),) + suffix))
    return resolved


def tie_break_entries(table: PowerwiseTable, ratings: PowerRatingTable) -> list[tuple]:
    """The ranking's (rank, team, points, tie_group, audit) entries: every points group through the ladder."""
    by_points: dict[int, list] = {}
    for t, p in table.points.items():
        by_points.setdefault(p, []).append(t)

    entries = []
    rank = 0
    tie_group = 0
    previous_audit = None
    for p in sorted(by_points, reverse=True):
        group = sorted(by_points[p])
        group_id = None
        if len(group) > 1:
            tie_group += 1
            group_id = tie_group
        for team, suffix in _resolve_group(table, ratings, group):
            audit = (("points", float(p)),) + suffix
            if previous_audit is None or audit != previous_audit:
                rank += 1
                previous_audit = audit
            entries.append((rank, team, float(p), group_id, audit))
    return entries


def score_entries(scores: Mapping[str, float], higher_is_better: bool = True) -> list[tuple]:
    """A dense ranking's (rank, team, points, tie_group, audit) entries; exact ties share a rank."""
    sign = -1.0 if higher_is_better else 1.0
    ordered = sorted(scores, key=lambda t: (sign * scores[t], t))
    entries = []
    rank = 0
    previous = None
    for t in ordered:
        if previous is None or scores[t] != previous:
            rank += 1
            previous = scores[t]
        entries.append((rank, t, scores[t], None, (("score", scores[t]),)))
    return entries
