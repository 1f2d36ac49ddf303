"""Season game-log ingestion: parsing, validation, and indexing.

Game CSV format (UTF-8, ``#``-prefixed comment lines ignored)::

    season,date,home,away,home_score,away_score,neutral[,game_index]
    2024,2024-02-10,Yale,Brown,12,8,0

``neutral`` is 0 or 1. ``game_index`` is an optional disambiguator for two
otherwise-identical games (same teams, date, and score). Alias map CSV has
header ``alias,canonical``. Team names may not hold control characters
(Unicode category Cc, CR and LF among them), so every export can write a name
as one CSV field on one line.
"""

from __future__ import annotations

import bisect
import csv
import datetime
import io
import re
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DataWarning, ParseError, ValidationError

GAME_HEADER = ("season", "date", "home", "away", "home_score", "away_score", "neutral")
ALIAS_HEADER = ("alias", "canonical")

# (month, day) bounds of a season's calendar window, inclusive.
DEFAULT_SEASON_WINDOW = ((1, 1), (5, 31))

# Unicode category Cc: the C0 controls, DEL and the C1 controls.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f]")


@dataclass(frozen=True)
class GameRecord:
    """One played game. Scores are final goals; ``neutral_site`` marks no home team advantage."""

    season: int
    date: datetime.date
    home_team: str
    away_team: str
    home_score: int
    away_score: int
    neutral_site: bool
    game_index: int = 0

    def involves(self, team: str) -> bool:
        return team in (self.home_team, self.away_team)

    def opponent_of(self, team: str) -> str:
        if team == self.home_team:
            return self.away_team
        if team == self.away_team:
            return self.home_team
        raise ValidationError(f"{team!r} did not play in game {self}")

    def margin_for(self, team: str) -> int:
        """Signed goal margin from ``team``'s perspective."""
        m = self.home_score - self.away_score
        return m if team == self.home_team else -m


def flip_game(game: GameRecord) -> GameRecord:
    """Swap the final score, turning the winner into the loser. Self-inverse."""
    return replace(game, home_score=game.away_score, away_score=game.home_score)


def _sort_key(g: GameRecord):
    return (
        g.date,
        g.home_team,
        g.away_team,
        g.game_index,
        g.home_score,
        g.away_score,
        g.neutral_site,
    )


@dataclass(frozen=True, eq=False)
class ScheduleView:
    """The season as per-game and dense per-pair arrays, indexed like ``SeasonDataset.teams``.

    ``home``/``away`` hold each game's team indices, ``margin`` its integer
    home-minus-away goal margin and ``neutral`` its neutral-site flag, all in
    game order. ``wins[i, j]`` is i's win value against j summed over their
    meetings (ties count half), ``games[i, j]`` their number of meetings and
    ``adjacency`` is ``games > 0`` as 0/1. All three are float matrices with
    zero diagonals, so sums and products of them stay exact.

    A flipped season (``SeasonDataset.with_flipped``) shares every array but
    ``wins`` and ``margin`` with the season it came from; no array is ever
    changed in place.
    """

    index: Mapping[str, int]
    home: np.ndarray
    away: np.ndarray
    margin: np.ndarray
    neutral: np.ndarray
    wins: np.ndarray
    games: np.ndarray
    adjacency: np.ndarray


@dataclass(frozen=True)
class SeasonDataset:
    """Validated, deterministically ordered collection of one season's games.

    ``teams`` is lexicographically sorted; ``games`` is sorted by
    (date, home, away, game_index). ``schedule`` is the matrix view of the
    same games and ``components()`` its connected components, each built on
    first use. ``_pre_flip_rankings`` is where ``perturbation_experiment``
    keeps the season's own ranking, one per method, so it dies with the
    season.
    """

    season: int
    teams: tuple[str, ...]
    games: tuple[GameRecord, ...]

    def games_of(self, team: str) -> tuple[GameRecord, ...]:
        if team not in self.teams:
            raise ValidationError(f"unknown team {team!r}")
        return tuple(g for g in self.games if g.involves(team))

    @cached_property
    def schedule(self) -> ScheduleView:
        n = len(self.teams)
        index = {t: i for i, t in enumerate(self.teams)}
        home = np.array([index[g.home_team] for g in self.games], dtype=np.intp)
        away = np.array([index[g.away_team] for g in self.games], dtype=np.intp)
        margin = np.array([g.home_score - g.away_score for g in self.games])
        neutral = np.array([g.neutral_site for g in self.games], dtype=bool)
        home_value = 0.5 + 0.5 * np.sign(margin)
        wins = np.zeros((n, n))
        np.add.at(wins, (home, away), home_value)
        np.add.at(wins, (away, home), 1.0 - home_value)
        games = wins + wins.T
        return ScheduleView(index, home, away, margin, neutral, wins, games, (games > 0).astype(float))

    @cached_property
    def _pre_flip_rankings(self) -> dict:
        return {}

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the opponent graph, each sorted, ordered by first member."""
        return self._components

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        opponents = [np.flatnonzero(row).tolist() for row in self.schedule.adjacency]
        seen = [False] * len(self.teams)
        comps: list[tuple[str, ...]] = []
        for start in range(len(self.teams)):
            if seen[start]:
                continue
            seen[start] = True
            stack, members = [start], [start]
            while stack:
                for j in opponents[stack.pop()]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
                        members.append(j)
            comps.append(tuple(self.teams[k] for k in sorted(members)))
        return tuple(comps)

    def with_flipped(self, game: GameRecord) -> SeasonDataset:
        """This season with ``game``'s result flipped (``flip_game``), as ``build_season`` would index it.

        The game is found by bisection on the sort order and replaced in place:
        a flip changes no team, no pairing and no game's place in that order.
        So the new season shares ``teams``, the components and every schedule
        array but two with this one: ``wins`` differs in the pair's two
        entries and ``margin`` in the game's slot. If a neighbouring game
        shares the game's (date, home, away, game_index), the flipped scores
        could reorder or duplicate it; that case alone is rebuilt with
        ``build_season``.
        """
        key = _sort_key(game)
        k = bisect.bisect_left(self.games, key, key=_sort_key)
        if k == len(self.games) or self.games[k] != game:
            raise ValidationError(f"game {game} is not in the season")
        games = self.games[:k] + (flip_game(game),) + self.games[k + 1 :]
        neighbours = self.games[max(k - 1, 0) : k] + self.games[k + 1 : k + 2]
        if any(_sort_key(g)[:4] == key[:4] for g in neighbours):
            return build_season(games, self.season)
        view = self.schedule
        margin = view.margin.copy()
        margin[k] = -margin[k]
        wins = view.wins.copy()
        h, a, step = view.home[k], view.away[k], np.sign(view.margin[k])
        wins[h, a] -= step  # the home side's win value goes from 0.5 + step/2 to 0.5 - step/2
        wins[a, h] += step
        flipped = SeasonDataset(self.season, self.teams, games)
        vars(flipped).update(schedule=replace(view, margin=margin, wins=wins), _components=self._components)
        return flipped


def _clean_lines(source: Iterable[str]) -> Iterable[tuple[int, str]]:
    """Yield (1-based line number, line) with comments and blank lines dropped."""
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _parse_row(lineno: int, row: list[str], season_window) -> GameRecord:
    if len(row) not in (7, 8):
        raise ParseError(f"expected 7 or 8 columns, got {len(row)}", line=lineno)

    def intfield(name: str, value: str, minimum: int | None = None) -> int:
        try:
            n = int(value.strip())
        except ValueError:
            raise ParseError(f"not an integer: {value!r}", line=lineno, field=name) from None
        if minimum is not None and n < minimum:
            raise ParseError(f"must be >= {minimum}, got {n}", line=lineno, field=name)
        return n

    season = intfield("season", row[0])
    try:
        date = datetime.date.fromisoformat(row[1].strip())
    except ValueError:
        raise ParseError(f"not an ISO-8601 date: {row[1]!r}", line=lineno, field="date") from None
    home = row[2].strip()
    away = row[3].strip()
    if not home:
        raise ParseError("empty team name", line=lineno, field="home")
    if not away:
        raise ParseError("empty team name", line=lineno, field="away")
    if _CONTROL_CHARACTER.search(home + away):  # one search per row; then find the name that holds it
        field, name = ("home", home) if _CONTROL_CHARACTER.search(home) else ("away", away)
        raise ParseError(f"control character in team name {name!r}", line=lineno, field=field)
    if home == away:
        raise ParseError(f"home and away are both {home!r}", line=lineno, field="away")
    home_score = intfield("home_score", row[4], minimum=0)
    away_score = intfield("away_score", row[5], minimum=0)
    neutral_raw = row[6].strip()
    if neutral_raw not in ("0", "1"):
        raise ParseError(f"neutral must be 0 or 1, got {neutral_raw!r}", line=lineno, field="neutral")
    game_index = intfield("game_index", row[7]) if len(row) == 8 else 0

    if season_window is not None:
        (m0, d0), (m1, d1) = season_window
        lo = datetime.date(season, m0, d0)
        hi = datetime.date(season, m1, d1)
        if not lo <= date <= hi:
            raise ParseError(
                f"date {date.isoformat()} outside season {season} window "
                f"{lo.isoformat()}..{hi.isoformat()}",
                line=lineno,
                field="date",
            )

    if home_score == away_score:
        warnings.warn(
            f"line {lineno}: tied score {home_score}-{away_score} between {home} and {away}",
            DataWarning,
            stacklevel=3,
        )
    return GameRecord(season, date, home, away, home_score, away_score, neutral_raw == "1", game_index)


def parse_games(
    source: Iterable[str] | str,
    season_window=DEFAULT_SEASON_WINDOW,
) -> list[GameRecord]:
    """Parse a game log from a character stream (or string) into GameRecords.

    ``season_window`` is an inclusive ((month, day), (month, day)) bound on game
    dates within each record's season year; pass None to disable the check.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    records: list[GameRecord] = []
    saw_header = False
    for lineno, line in _clean_lines(source):
        row = next(csv.reader([line]))
        if not saw_header:
            names = tuple(c.strip().lower() for c in row)
            if names[:7] != GAME_HEADER:
                raise ParseError(
                    f"missing or malformed header, expected {','.join(GAME_HEADER)}", line=lineno
                )
            saw_header = True
            continue
        records.append(_parse_row(lineno, row, season_window))
    if not saw_header:
        raise ParseError(f"missing or malformed header, expected {','.join(GAME_HEADER)}")
    return records


def serialize_games(games: Iterable[GameRecord]) -> str:
    """Render games back to CSV; ``parse_games(serialize_games(gs)) == gs``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GAME_HEADER + ("game_index",))
    for g in games:
        writer.writerow(
            [
                g.season,
                g.date.isoformat(),
                g.home_team,
                g.away_team,
                g.home_score,
                g.away_score,
                int(g.neutral_site),
                g.game_index,
            ]
        )
    return out.getvalue()


def load_games(path, **kwargs) -> list[GameRecord]:
    with open(path, encoding="utf-8") as fh:
        return parse_games(fh, **kwargs)


def load_alias_map(source: Iterable[str] | str) -> dict[str, str]:
    """Parse an ``alias,canonical`` CSV into a mapping."""
    if isinstance(source, str):
        source = io.StringIO(source)
    aliases: dict[str, str] = {}
    saw_header = False
    for lineno, line in _clean_lines(source):
        row = next(csv.reader([line]))
        if not saw_header:
            if tuple(c.strip().lower() for c in row) != ALIAS_HEADER:
                raise ParseError("missing or malformed header, expected alias,canonical", line=lineno)
            saw_header = True
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line=lineno)
        alias, canonical = row[0].strip(), row[1].strip()
        if not alias or not canonical:
            raise ParseError("empty alias or canonical name", line=lineno)
        for field, name in (("alias", alias), ("canonical", canonical)):
            if _CONTROL_CHARACTER.search(name):
                raise ParseError(f"control character in team name {name!r}", line=lineno, field=field)
        if alias in aliases and aliases[alias] != canonical:
            raise ParseError(f"alias {alias!r} maps to both {aliases[alias]!r} and {canonical!r}", line=lineno)
        aliases[alias] = canonical
    return aliases


def apply_aliases(games: Iterable[GameRecord], aliases: Mapping[str, str]) -> list[GameRecord]:
    """Return a copy of ``games`` with team names mapped through ``aliases``."""
    out = []
    for g in games:
        home = aliases.get(g.home_team, g.home_team)
        away = aliases.get(g.away_team, g.away_team)
        if home == away:
            raise ValidationError(
                f"alias map collapses {g.home_team!r} and {g.away_team!r} into {home!r}"
            )
        if (home, away) != (g.home_team, g.away_team):
            g = GameRecord(g.season, g.date, home, away, g.home_score, g.away_score, g.neutral_site, g.game_index)
        out.append(g)
    return out


def build_season(games: Iterable[GameRecord], season: int) -> SeasonDataset:
    """Index a list of games into a SeasonDataset.

    Exact duplicate rows are dropped with a warning; the result is independent
    of input order. A game of a team against itself, an empty team name and a
    team name holding a control character are rejected.
    """
    unique: list[GameRecord] = []
    seen: set[GameRecord] = set()
    dupes = 0
    for g in games:
        if g.season != season:
            raise ValidationError(f"game dated {g.date.isoformat()} belongs to season {g.season}, not {season}")
        if g.home_team == g.away_team:
            raise ValidationError(f"game dated {g.date.isoformat()} has {g.home_team!r} as both home and away")
        if g in seen:
            dupes += 1
            continue
        seen.add(g)
        unique.append(g)
    if dupes:
        warnings.warn(f"dropped {dupes} duplicate game row(s)", DataWarning, stacklevel=2)
    if not unique:
        raise ValidationError("empty season")

    ordered = tuple(sorted(unique, key=_sort_key))
    teams = tuple(sorted({t for g in ordered for t in (g.home_team, g.away_team)}))
    if not teams[0]:  # the sort puts an empty name first
        raise ValidationError("empty team name")
    for team in teams:
        if _CONTROL_CHARACTER.search(team):
            raise ValidationError(f"control character in team name {team!r}")
    return SeasonDataset(season=season, teams=teams, games=ordered)


def find_game(dataset: SeasonDataset, date: datetime.date, team_a: str, team_b: str) -> GameRecord:
    """Locate the unique game between two teams on a date (either home/away order)."""
    matches = [
        g
        for g in dataset.games
        if g.date == date and {g.home_team, g.away_team} == {team_a, team_b}
    ]
    if not matches:
        raise ValidationError(f"no game between {team_a!r} and {team_b!r} on {date.isoformat()}")
    if len(matches) > 1:
        raise ValidationError(
            f"{len(matches)} games between {team_a!r} and {team_b!r} on {date.isoformat()}; "
            "disambiguate by game_index"
        )
    return matches[0]
