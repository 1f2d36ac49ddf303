"""Independent checks of powerwise's outputs.

Nothing here imports powerwise. The oracles read the generated CSV themselves
and recompute what the program must produce by a different method: ratings by
a dense least-squares solve of the game-count Laplacian, RPI by its textbook
definition, ranking order by re-sorting the published audit values.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

RATING_TOL = 1e-6  # goals, against ratings held in memory
RATING_CSV_TOL = 2e-6  # goals, against ratings.csv's six decimals
RPI_TOL = 1e-9
GOAL_CAP = 7  # the program's default margin cap


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Game:
    key: tuple  # (date, home, away, game_index): unique per row
    home: str
    away: str
    home_score: int
    away_score: int
    neutral: bool


def read_games(text: str) -> list[Game]:
    rows = csv.reader(io.StringIO(text))
    next(rows)
    return [
        Game((r[1], r[2], r[3], int(r[7])), r[2], r[3], int(r[4]), int(r[5]), r[6] == "1")
        for r in rows
    ]


def flipped(games: list[Game], key: tuple) -> list[Game]:
    """``games`` with the scores of the game ``key`` swapped."""
    return [
        Game(g.key, g.home, g.away, g.away_score, g.home_score, g.neutral) if g.key == key else g
        for g in games
    ]


def _components(teams: list[str], games: list[Game]) -> list[list[int]]:
    index = {t: i for i, t in enumerate(teams)}
    parent = list(range(len(teams)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in games:
        parent[root(index[g.home])] = root(index[g.away])
    groups: dict[int, list[int]] = {}
    for i in range(len(teams)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def massey_ratings(games: list[Game], goal_cap: int = GOAL_CAP) -> dict[str, float]:
    """Least-squares ratings, mean zero per schedule component.

    Solves ``L r = b`` per component with ``numpy.linalg.lstsq``, where ``L`` is
    the game-count Laplacian and ``b`` each team's summed adjusted margins. The
    home advantage is the mean capped home margin of non-neutral games.
    """
    def capped(g):
        return max(-goal_cap, min(goal_cap, g.home_score - g.away_score))

    home_margins = [capped(g) for g in games if not g.neutral]
    hfa = sum(home_margins) / len(home_margins) if home_margins else 0.0
    teams = sorted({t for g in games for t in (g.home, g.away)})
    index = {t: i for i, t in enumerate(teams)}
    lap = np.zeros((len(teams), len(teams)))
    rhs = np.zeros(len(teams))
    for g in games:
        h, a = index[g.home], index[g.away]
        adjusted = capped(g) - (0.0 if g.neutral else hfa)
        lap[h, h] += 1
        lap[a, a] += 1
        lap[h, a] -= 1
        lap[a, h] -= 1
        rhs[h] += adjusted
        rhs[a] -= adjusted
    ratings = np.zeros(len(teams))
    for comp in _components(teams, games):
        solution, *_ = np.linalg.lstsq(lap[np.ix_(comp, comp)], rhs[comp], rcond=None)
        ratings[comp] = solution - solution.mean()
    return {t: float(ratings[i]) for t, i in index.items()}


def rpi(games: list[Game], weights=(0.25, 0.50, 0.25)) -> dict[str, float]:
    """RPI = w1 WP + w2 OWP + w3 OOWP, ties counting half a win.

    OWP averages, per game, the opponent's winning percentage without its games
    against the team (all its games if none remain); OOWP averages the
    opponents' OWP per game.
    """
    results: dict[str, list[tuple[str, float]]] = {}
    for g in games:
        m = g.home_score - g.away_score
        value = 1.0 if m > 0 else 0.0 if m < 0 else 0.5
        results.setdefault(g.home, []).append((g.away, value))
        results.setdefault(g.away, []).append((g.home, 1.0 - value))

    def wp(team, without=None):
        values = [v for opp, v in results[team] if opp != without] or [v for _, v in results[team]]
        return sum(values) / len(values)

    owp = {t: sum(wp(o, t) for o, _ in res) / len(res) for t, res in results.items()}
    oowp = {t: sum(owp[o] for o, _ in res) / len(res) for t, res in results.items()}
    w1, w2, w3 = weights
    return {t: w1 * wp(t) + w2 * owp[t] + w3 * oowp[t] for t in results}


def max_rating_error(ratings, expected: dict[str, float]) -> float:
    require(set(ratings) == set(expected), "rated teams differ from the log's teams")
    return max(abs(ratings[t] - expected[t]) for t in expected)


def check_ratings(ratings, expected: dict[str, float], tol: float = RATING_TOL) -> float:
    err = max_rating_error(ratings, expected)
    require(err <= tol, f"ratings off the least-squares oracle by {err:.3g} goals (tol {tol:g})")
    return err


def check_rpi(values, expected: dict[str, float]) -> None:
    require(set(values) == set(expected), "RPI teams differ from the log's teams")
    err = max(abs(values[t] - expected[t]) for t in expected)
    require(err <= RPI_TOL, f"RPI off the oracle by {err:.3g}")


def check_pair_count(n_teams: int, points_total: int, unresolved: int, n_outcomes: int) -> None:
    pairs = n_teams * (n_teams - 1) // 2
    require(n_outcomes == pairs, f"{n_outcomes} outcomes for {pairs} pairs")
    require(
        points_total + unresolved == pairs,
        f"points {points_total} + unresolved {unresolved} != {pairs} pairs",
    )


def replayed(audits: list[tuple[str, tuple[float, ...]]]) -> list[str]:
    """Teams re-sorted by audit values descending, then name: the published order."""
    return [t for t, _ in sorted(audits, key=lambda ta: (tuple(-v for v in ta[1]), ta[0]))]


# --- the CLI's artifacts, read back from disk ---------------------------------


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def check_ratings_csv(text: str, expected: dict[str, float], games: list[Game]) -> float:
    rows = _csv_rows(text)
    played: dict[str, int] = {}
    for g in games:
        played[g.home] = played.get(g.home, 0) + 1
        played[g.away] = played.get(g.away, 0) + 1
    require(
        {r[0]: int(r[3]) for r in rows} == played, "ratings.csv games_played disagrees with the log"
    )
    return check_ratings({r[0]: float(r[1]) for r in rows}, expected, RATING_CSV_TOL)


def check_pairwise_csvs(outcomes_text: str, points_text: str, n_teams: int) -> None:
    outcomes = _csv_rows(outcomes_text)
    points = _csv_rows(points_text)
    require(len(points) == n_teams, f"points.csv has {len(points)} teams, expected {n_teams}")
    check_pair_count(
        n_teams, sum(int(r[1]) for r in points), sum(1 for r in outcomes if not r[2]), len(outcomes)
    )


def check_ranking_csv(text: str) -> None:
    rows = _csv_rows(text)
    audits = [
        (r[1], tuple(float(item.partition("=")[2]) for item in r[4].split(";")) if r[4] else ())
        for r in rows
    ]
    require(
        replayed(audits) == [r[1] for r in rows], "ranking.csv order does not replay from its audits"
    )
