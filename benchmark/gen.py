"""Seeded game logs for the benchmark workloads.

This generator shares no code with ``powerwise.synthetic``: a change under
``src/`` must not be able to change what a workload feeds the program. The same
arguments always give the same CSV bytes.
"""

from __future__ import annotations

import datetime
import hashlib
import random

SEASON = 2024
HEADER = "season,date,home,away,home_score,away_score,neutral,game_index"
FIRST_DAY = datetime.date(SEASON, 1, 5)
SEASON_DAYS = 140  # Jan 5 .. May 24, inside the program's default season window


def _score(rng: random.Random, latent: float) -> tuple[int, int]:
    """(home, away) goals for a game whose expected home margin is ``latent``.

    Margins are rounded away from zero, so no game ends tied.
    """
    margin = round(latent + rng.gauss(0.0, 2.0))
    if margin == 0:
        margin = 1 if rng.random() < 0.5 else -1
    away = rng.randint(2, 9)
    home = away + margin
    if home < 0:
        away -= home
        home = 0
    return home, away


def _rows(rng: random.Random, pairings, strength: dict[str, float]) -> list[str]:
    """One CSV line per pairing; home side and neutral site drawn from ``rng``."""
    rows, meetings = [], {}
    for slot, (a, b) in enumerate(pairings):
        home, away = (a, b) if rng.random() < 0.5 else (b, a)
        neutral = rng.random() < 0.2
        latent = strength[home] - strength[away] + (0.0 if neutral else 0.8)
        home_score, away_score = _score(rng, latent)
        date = FIRST_DAY + datetime.timedelta(days=slot % SEASON_DAYS)
        key = (date, frozenset((home, away)))
        index = meetings.get(key, 0)
        meetings[key] = index + 1
        rows.append(
            f"{SEASON},{date.isoformat()},{home},{away},{home_score},{away_score},{int(neutral)},{index}"
        )
    return rows


def strength_league(n_teams: int, games_per_team: int, seed: int) -> str:
    """A connected league whose margins follow normally drawn team strengths.

    A random path through all teams keeps the schedule in one component; the
    remaining ``n_teams * games_per_team / 2`` games pair random teams.
    """
    rng = random.Random(f"league:{n_teams}:{games_per_team}:{seed}")
    teams = [f"L{i:04d}" for i in range(n_teams)]
    strength = {t: rng.gauss(0.0, 3.0) for t in teams}
    path = teams[:]
    rng.shuffle(path)
    pairings = list(zip(path, path[1:]))
    while len(pairings) < n_teams * games_per_team // 2:
        pairings.append(tuple(rng.sample(teams, 2)))
    return "\n".join([HEADER, *_rows(rng, pairings, strength)]) + "\n"


def conference_chain(n_conferences: int, conference_size: int, seed: int) -> str:
    """Round-robin conferences, each linked to the next by a single game.

    The weak links make the schedule graph a long chain of dense blocks, the
    shape on which an iterative rating solve converges slowest.
    """
    rng = random.Random(f"chain:{n_conferences}:{conference_size}:{seed}")
    conferences = [
        [f"C{c:02d}T{j:02d}" for j in range(conference_size)] for c in range(n_conferences)
    ]
    strength = {}
    for members in conferences:
        level = rng.gauss(0.0, 2.0)
        for t in members:
            strength[t] = level + rng.gauss(0.0, 2.0)
    pairings = [
        (members[i], members[j])
        for members in conferences
        for i in range(conference_size)
        for j in range(i + 1, conference_size)
    ]
    pairings += [(rng.choice(a), rng.choice(b)) for a, b in zip(conferences, conferences[1:])]
    rng.shuffle(pairings)
    return "\n".join([HEADER, *_rows(rng, pairings, strength)]) + "\n"


# workload -> (generator, its arguments at full and at smoke-test size)
LOGS = {
    "season-cli": (strength_league, {"full": (120, 15), "tiny": (12, 4)}),
    "league-500": (strength_league, {"full": (500, 15), "tiny": (32, 6)}),
    "conference-chain": (conference_chain, {"full": (16, 8), "tiny": (3, 4)}),
    "flip-scan": (strength_league, {"full": (120, 15), "tiny": (12, 4)}),
}


def workload_log(workload: str, seed: int, scale: str = "full") -> str:
    make, sizes = LOGS[workload]
    return make(*sizes[scale], seed)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
