"""Season game-log ingestion: parsing, validation, and indexing.

Game CSV format (UTF-8, ``#``-prefixed comment lines ignored)::

    season,date,home,away,home_score,away_score,neutral[,game_index]
    2024,2024-02-10,Yale,Brown,12,8,0

``neutral`` is 0 or 1. ``game_index`` is an optional disambiguator for two
otherwise-identical games (same teams, date, and score). Alias map CSV has
header ``alias,canonical``. A valid game, parsed or built in code, has two
distinct teams whose names are non-empty, stripped ``str`` without control
characters (so an export writes a name as one CSV field on one line), ``int``
scores >= 0 (not ``bool``) and a ``bool`` neutral flag; ``_game_fault`` checks it.
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


def _csv_rows(source: Iterable[str] | str) -> Iterable[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) of each line, with comments and blank lines dropped."""
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            row = next(csv.reader([line]))
        except csv.Error as e:  # such as a bare CR inside an unquoted field
            raise ParseError(str(e), line=lineno) from None
        yield lineno, row


def _name_fault(name) -> str | None:
    """Why ``name`` is not a non-empty, stripped ``str`` free of control characters, or None."""
    if not isinstance(name, str):
        return f"team name must be a str, got {name!r}"
    if not name:
        return "empty team name"
    if _CONTROL_CHARACTER.search(name):
        return f"control character in team name {name!r}"
    if name != name.strip():
        return f"team name {name!r} has leading or trailing whitespace"
    return None


def _game_fault(game: GameRecord, named: set[str]) -> tuple[str, str] | None:
    """The first rule ``game`` breaks, as (CSV field, message), or None when it is valid.

    ``named`` holds names that passed ``_name_fault`` and gains each name that
    passes here, so a caller that keeps one set over a log checks a name once.
    """
    home, away = game.home_team, game.away_team
    if home not in named or away not in named:
        for field, name in (("home", home), ("away", away)):
            message = _name_fault(name)
            if message:
                return field, message
        named.update((home, away))
    if home == away:
        return "away", f"home and away are both {home!r}"
    for field, score in (("home_score", game.home_score), ("away_score", game.away_score)):
        if type(score) is not int:  # a bool is an int too, but not a score
            return field, f"must be an int, got {score!r}"
        if score < 0:
            return field, f"must be >= 0, got {score}"
    if type(game.neutral_site) is not bool:
        return "neutral", f"neutral must be a bool, got {game.neutral_site!r}"
    return None


def _int_field(value: str, lineno: int, field: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ParseError(f"not an integer: {value!r}", line=lineno, field=field) from None


def _parse_row(lineno: int, row: list[str], season_window, named: set[str]) -> GameRecord:
    if len(row) not in (7, 8):
        raise ParseError(f"expected 7 or 8 columns, got {len(row)}", line=lineno)
    season = _int_field(row[0], lineno, "season")
    try:
        date = datetime.date.fromisoformat(row[1].strip())
    except ValueError:
        raise ParseError(f"not an ISO-8601 date: {row[1]!r}", line=lineno, field="date") from None
    home_score = _int_field(row[4], lineno, "home_score")
    away_score = _int_field(row[5], lineno, "away_score")
    neutral_raw = row[6].strip()
    if neutral_raw not in ("0", "1"):
        raise ParseError(f"neutral must be 0 or 1, got {neutral_raw!r}", line=lineno, field="neutral")
    game_index = _int_field(row[7], lineno, "game_index") if len(row) == 8 else 0

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

    home, away = row[2].strip(), row[3].strip()
    game = GameRecord(season, date, home, away, home_score, away_score, neutral_raw == "1", game_index)
    fault = _game_fault(game, named)  # the game rules, once the row's syntax has parsed
    if fault:
        raise ParseError(fault[1], line=lineno, field=fault[0])
    if home_score == away_score:
        warnings.warn(
            f"line {lineno}: tied score {home_score}-{away_score} between {home} and {away}",
            DataWarning,
            stacklevel=3,
        )
    return game


def parse_games(
    source: Iterable[str] | str,
    season_window=DEFAULT_SEASON_WINDOW,
) -> list[GameRecord]:
    """Parse a game log from a character stream (or string) into GameRecords.

    ``season_window`` is an inclusive ((month, day), (month, day)) bound on game
    dates within each record's season year; pass None to disable the check.
    """
    records: list[GameRecord] = []
    named: set[str] = set()
    saw_header = False
    for lineno, row in _csv_rows(source):
        if not saw_header:
            names = tuple(c.strip().lower() for c in row)
            if names[:7] != GAME_HEADER:
                raise ParseError(
                    f"missing or malformed header, expected {','.join(GAME_HEADER)}", line=lineno
                )
            saw_header = True
            continue
        records.append(_parse_row(lineno, row, season_window, named))
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
    aliases: dict[str, str] = {}
    saw_header = False
    for lineno, row in _csv_rows(source):
        if not saw_header:
            if tuple(c.strip().lower() for c in row) != ALIAS_HEADER:
                raise ParseError("missing or malformed header, expected alias,canonical", line=lineno)
            saw_header = True
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line=lineno)
        alias, canonical = row[0].strip(), row[1].strip()
        for field, name in (("alias", alias), ("canonical", canonical)):
            message = _name_fault(name)
            if message:
                raise ParseError(message, line=lineno, field=field)
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
    of input order. Every game must belong to ``season`` and be valid (see the
    module docstring); the first game that is not raises ``ValidationError``
    with the message the parser would give its row.
    """
    games = list(games)
    named: set[str] = set()
    for g in games:
        if g.season != season:
            raise ValidationError(f"game dated {g.date.isoformat()} belongs to season {g.season}, not {season}")
        fault = _game_fault(g, named)
        if fault:
            raise ValidationError(fault[1])
    unique = dict.fromkeys(games)
    if len(unique) < len(games):
        warnings.warn(f"dropped {len(games) - len(unique)} duplicate game row(s)", DataWarning, stacklevel=2)
    if not unique:
        raise ValidationError("empty season")
    ordered = tuple(sorted(unique, key=_sort_key))
    return SeasonDataset(season=season, teams=tuple(sorted(named)), games=ordered)


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
