"""Plain-Python reference implementations, used by the tests as oracles.

Everything here reads ``dataset.games`` alone, never the matrix view, and
formats its own evidence text, so the library's matrix tournament, RPI and
component search are checked against an independent walk over the games:

- ``compare`` walks the three-step ladder for one pair, step by step;
- ``win_value`` and ``winning_percentage`` are RPI's per-game definitions;
- ``capped_margin`` and ``adjusted_margin`` are the rating solve's per-game
  margin rule, and ``margin_sums`` and ``mean_home_margin`` add them up game by
  game into the solve's ``b`` and its estimated home advantage;
- ``union_find_components`` groups teams with a union-find over the games.
"""

from __future__ import annotations

from typing import Iterator

from powerwise.errors import ValidationError
from powerwise.ingest import GameRecord, SeasonDataset
from powerwise.pairwise import ComparisonConfig, PairwiseOutcome
from powerwise.power_rating import RATING_TOL, PowerRatingTable


def all_pairs(teams) -> Iterator[tuple[str, str]]:
    ordered = sorted(teams)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            yield a, b


def games_of(dataset: SeasonDataset, team: str) -> list[GameRecord]:
    return [g for g in dataset.games if g.involves(team)]


def win_value(game: GameRecord, team: str) -> float:
    """1.0 for a win, 0.0 for a loss, 0.5 for a tied score."""
    margin = game.margin_for(team)
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
        kept = [g for g in games if not g.involves(excluding)]
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
    meetings = [g for g in games_of(dataset, team_a) if g.involves(team_b)]
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
    opps_a = {g.opponent_of(team_a) for g in games_of(dataset, team_a)}
    opps_b = {g.opponent_of(team_b) for g in games_of(dataset, team_b)}
    return tuple(sorted((opps_a & opps_b) - {team_a, team_b}))


def record_vs(dataset: SeasonDataset, team: str, pool) -> tuple[float, float, int]:
    """(wins, losses, games) for ``team`` against the opponent pool; ties split."""
    against = [g for g in games_of(dataset, team) if g.opponent_of(team) in pool]
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
