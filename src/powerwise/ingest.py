"""Season game-log ingestion: parsing, validation, and indexing, the games held as columns.

Game CSV format (UTF-8, ``#``-prefixed comment lines ignored)::

    season,date,home,away,home_score,away_score,neutral[,game_index]
    2024,2024-02-10,Yale,Brown,12,8,0

``date`` is exactly ``YYYY-MM-DD``, ``neutral`` 0 or 1 and ``game_index`` an
optional disambiguator for two otherwise-identical games. Alias map CSV has
header ``alias,canonical``. A valid game, parsed or built in code, has two
distinct teams whose names are non-empty, stripped ``str`` without control
characters (so an export writes a name as one CSV field on one line), ``int``
scores >= 0 (not ``bool``), a ``bool`` neutral flag and an ``int`` game_index
(not ``bool``); ``_game_fault`` checks all but the game_index, which only a
record built in code can get wrong. Games are held as columns (``GameLog``); a
``GameRecord`` is built only to be read.
"""

from __future__ import annotations

import bisect
import csv
import datetime
import io
import itertools
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import ComputationError, DataWarning, ParseError, ValidationError

GAME_HEADER = ("season", "date", "home", "away", "home_score", "away_score", "neutral")
ALIAS_HEADER = ("alias", "canonical")

# (month, day) bounds of a season's calendar window, inclusive.
DEFAULT_SEASON_WINDOW = ((1, 1), (5, 31))

# Unicode category Cc: the C0 controls, DEL and the C1 controls.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f]")
# The one date form accepted on every Python: date.fromisoformat also takes 20240210 and 2024-W06-6 from 3.11.
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")

# A season must have fewer games than this. float32 holds every multiple of 1/2 below 2**23 exactly, and every
# entry of W, G and A and of the step II products, and every partial sum of one in any order (a BLAS kernel's,
# or a team's row sum), is such a multiple no larger than one team's game count: below this many games, the
# schedule view's float32 matrices and products are exact.
MAX_GAMES = 2**23

# GameLog's columns, in GameRecord's field order; then a season's sort order, first key first.
_COLUMNS = ("season", "date", "home", "away", "home_score", "away_score", "neutral", "game_index")
_ORDER = ("date", "home", "away", "game_index", "home_score", "away_score", "neutral")


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


class GameLog(Sequence):
    """Valid games as columns: a read-only sequence of ``GameRecord``, equal to a list or tuple of the same records.

    Each column holds one ``GameRecord`` field as int64 (``neutral`` as bool, ``date`` as its ordinal, ``home`` and
    ``away`` as indices into ``teams``). Reading a game builds its record, unless ``records`` has built them all.
    Only this module makes a log.
    """

    def __init__(self, teams: tuple[str, ...], *columns: np.ndarray):  # a plain class: a dataclass costs import time
        self.teams = teams
        (self.season, self.date, self.home, self.away,
         self.home_score, self.away_score, self.neutral, self.game_index) = columns

    def replace(self, **changes) -> GameLog:
        return GameLog(*(changes.get(name, getattr(self, name)) for name in ("teams", *_COLUMNS)))

    @classmethod
    def of(cls, teams: Iterable[str], rows: list[tuple]) -> GameLog:  # each row one game's _COLUMNS values
        try:
            table = np.fromiter(itertools.chain.from_iterable(rows), np.int64, len(rows) * len(_COLUMNS))
        except OverflowError:  # the parser refuses such a number at its line; a record built in code gets here
            raise ValidationError("a season, score or game_index does not fit in 64 bits") from None
        *ints, neutral, game_index = table.reshape(-1, len(_COLUMNS)).T.copy()
        return cls(tuple(teams), *ints, neutral.astype(bool), game_index)

    @classmethod
    def from_records(cls, games: Iterable[GameRecord], season: int | None = None, onto: GameLog | None = None):
        """``games`` as a log, after ``onto``'s games if given, each checked in turn: the first not of ``season``
        (if given) or breaking ``_game_fault`` raises ``ValidationError`` with the parser's message for its row."""
        named = {} if onto is None else {t: i for i, t in enumerate(onto.teams)}
        rows = []
        for g in games:
            if season is not None and g.season != season:
                raise ValidationError(f"game dated {g.date.isoformat()} belongs to season {g.season}, not {season}")
            fault = _game_fault(g.home_team, g.away_team, g.home_score, g.away_score, g.neutral_site, named)
            if fault:
                raise ValidationError(fault[1])
            if type(g.game_index) is not int:  # the parser's is always an int
                raise ValidationError(f"game_index must be an int, got {g.game_index!r}")
            rows.append((g.season, g.date.toordinal(), named[g.home_team], named[g.away_team],
                         g.home_score, g.away_score, g.neutral_site, g.game_index))
        log = cls.of(named, rows)
        if onto is not None:
            log = log.replace(**{c: np.concatenate([getattr(onto, c), getattr(log, c)]) for c in _COLUMNS})
        return log

    def take(self, rows) -> GameLog:  # the games at rows, indices or a boolean mask
        return self.replace(**{c: getattr(self, c)[rows] for c in _COLUMNS})

    @cached_property
    def records(self) -> tuple[GameRecord, ...]:
        return tuple(map(self._record, *(getattr(self, c).tolist() for c in _COLUMNS)))

    def _record(self, season, day, home, away, *rest) -> GameRecord:
        return GameRecord(season, datetime.date.fromordinal(day), self.teams[home], self.teams[away], *rest)

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, k):
        if isinstance(k, slice) or "records" in vars(self):  # once all are built, reading one builds none
            return self.records[k]
        return self._record(*(getattr(self, c)[k].item() for c in _COLUMNS))

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other):
        return self.records == tuple(other) if isinstance(other, (GameLog, list, tuple)) else NotImplemented


@dataclass(frozen=True, eq=False)
class ScheduleView:
    """The season as per-game and dense per-pair arrays, indexed like ``SeasonDataset.teams``.

    ``home``/``away`` (the log's own columns), ``margin`` (home minus away
    goals) and ``neutral`` are per game, in game order. ``wins[i, j]`` is i's
    win value against j summed over their meetings (ties count half),
    ``games[i, j]`` their number of meetings and ``adjacency`` is ``games > 0``
    as 0/1: float32 matrices with zero diagonals. The step II products, formed
    from them on first use, are ``pool`` = A @ A (each pair's common opponents),
    ``pool_games`` = G @ A and ``pool_wins`` = W @ A, float32 too. Every entry
    and partial sum of these is a multiple of 1/2 no larger than a team's game
    count, so below ``MAX_GAMES`` games (which ``SeasonDataset.schedule``
    enforces) they are exact. A reader that does float64 arithmetic with a row
    sum takes it with ``dtype=np.float64``; comparisons and gathers read float32.

    A flipped season's view (``SeasonDataset.with_flipped``) shares every array
    but ``wins`` and ``margin`` with its parent's; no array is changed in place.
    One that ``perturbation_experiment`` ranks is also lent ``laplacian`` and
    ``parent_tournament`` (see ``FlipParent.rank_flipped``).
    """

    index: Mapping[str, int]
    home: np.ndarray
    away: np.ndarray
    margin: np.ndarray
    neutral: np.ndarray
    wins: np.ndarray
    games: np.ndarray
    adjacency: np.ndarray

    @cached_property
    def pool(self) -> np.ndarray:
        return self.adjacency @ self.adjacency

    @cached_property
    def pool_games(self) -> np.ndarray:
        return self.games @ self.adjacency

    @cached_property
    def pool_wins(self) -> np.ndarray:
        return self.wins @ self.adjacency

    @cached_property
    def sides(self) -> tuple[np.ndarray, ...]:
        """RPI's inputs that G alone fixes: (team, opp, against, games, rest, alone), for games listed twice.
        ``against`` is (opp, team) as a flat index; ``rest`` is opp's games against others than team, 1 if ``alone``."""
        team = np.column_stack([self.home, self.away]).ravel()
        opp = np.column_stack([self.away, self.home]).ravel()
        against = opp * len(self.index) + team
        games = self.games.sum(axis=1, dtype=np.float64)
        rest = games[opp] - self.games.take(against)
        return team, opp, against, games, np.where(rest > 0, rest, 1.0), rest == 0


@dataclass(frozen=True)
class SeasonDataset:
    """Validated, deterministically ordered collection of one season's games.

    ``teams`` is lexicographically sorted. ``log`` holds each game once, indexed
    like ``teams`` and sorted by ``_ORDER``; ``games`` is the log read as records
    (ranking and flipping never read it): one is built per game read, all once on iteration.
    ``schedule``, ``components()`` and ``component_labels`` are built on first
    use. ``perturbation_experiment`` keeps its ``FlipParent`` in ``__dict__``.
    """

    season: int
    teams: tuple[str, ...]
    log: GameLog

    @property
    def games(self) -> GameLog:
        return self.log

    @cached_property
    def schedule(self) -> ScheduleView:
        """The season's ``ScheduleView``; ComputationError for MAX_GAMES or more games, where it would not be exact."""
        n, log = len(self.teams), self.log
        if len(log) >= MAX_GAMES:
            raise ComputationError(f"{len(log)} games is too many to compare exactly; the limit is {MAX_GAMES - 1}")
        index = {t: i for i, t in enumerate(self.teams)}
        home, away, neutral = log.home, log.away, log.neutral
        margin = log.home_score - log.away_score
        home_value = 0.5 + 0.5 * np.sign(margin)
        # W, G and A share one allocation (3 MB at 500 teams), which glibc's malloc maps on its own rather than
        # placing in its heap. Three separate matrices there, live as long as the season, left repeated 500-team
        # runs more prone to a 9 MB step in peak RSS, when the heap grew for a block no free gap could hold.
        wins, games, adjacency = np.zeros((3, n, n), dtype=np.float32)
        np.add.at(wins, (home, away), home_value)
        np.add.at(wins, (away, home), 1.0 - home_value)
        np.add(wins, wins.T, out=games)
        np.greater(games, 0, out=adjacency)
        return ScheduleView(index, home, away, margin, neutral, wins, games, adjacency)

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the opponent graph, each sorted, ordered by first member."""
        return self._components

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Each team's component, numbered in order of its first member, indexed like ``teams``."""
        opponents = [np.flatnonzero(row).tolist() for row in self.schedule.adjacency]
        labels, count = [-1] * len(self.teams), 0
        for start in range(len(self.teams)):
            if labels[start] < 0:
                labels[start], stack = count, [start]
                while stack:
                    for j in opponents[stack.pop()]:
                        if labels[j] < 0:
                            labels[j] = count
                            stack.append(j)
                count += 1
        return np.array(labels, dtype=np.intp)

    @cached_property
    def _components(self) -> tuple[tuple[str, ...], ...]:
        members: list[list[str]] = [[] for _ in range(int(self.component_labels.max(initial=-1)) + 1)]
        for team, label in zip(self.teams, self.component_labels.tolist()):
            members[label].append(team)
        return tuple(map(tuple, members))

    def _team(self, name) -> int:  # name's index in teams, or -1
        i = bisect.bisect_left(self.teams, name)
        return i if self.teams[i : i + 1] == (name,) else -1

    def position(self, game: GameRecord) -> int:
        """``game``'s index in ``games``, found among its date's games; ValidationError if it is not in the season."""
        log, day = self.log, game.date.toordinal()
        lo, hi = log.date.searchsorted([day, day + 1]).tolist()  # the date is the first sort key
        keys = list(zip(*(getattr(log, name)[lo:hi].tolist() for name in _ORDER)))
        teams = self._team(game.home_team), self._team(game.away_team)
        key = (day, *teams, game.game_index, game.home_score, game.away_score, game.neutral_site)
        if game.season != self.season or key not in keys:
            raise ValidationError(f"game {game} is not in the season")
        return lo + keys.index(key)

    def with_flipped(self, game: GameRecord, k: int | None = None) -> SeasonDataset:
        """This season with ``game``'s result flipped (``flip_game``), as ``build_season`` would index it.

        Its scores are swapped in copies of the score columns; no record is built.
        A flip moves no team, pairing or game, so the new season shares ``teams``,
        the components and every schedule array but ``wins`` and ``margin``, and of
        the products formed here ``pool`` and ``pool_games``; ``pool_wins`` is copied
        with rows h and a, the only ones W's two changed entries reach, multiplied
        again. A flip next to a game with the same (date, home, away, game_index)
        could reorder or duplicate it, so it goes through ``build_season``.
        """
        if k is None:
            k = self.position(game)
        log = self.log
        home_score, away_score = log.home_score.copy(), log.away_score.copy()
        home_score[k], away_score[k] = log.away_score[k], log.home_score[k]
        log = log.replace(home_score=home_score, away_score=away_score)
        slot = [getattr(log, name) for name in _ORDER[:4]]  # (date, home, away, game_index): a flip keeps them
        if any(all(c[j] == c[k] for c in slot) for j in (k - 1, k + 1) if 0 <= j < len(log)):
            return build_season(log, self.season)
        view = self.schedule
        margin = view.margin.copy()
        margin[k] = -margin[k]
        wins = view.wins.copy()
        h, a, step = view.home[k], view.away[k], np.sign(view.margin[k])
        wins[h, a] -= step  # the home side's win value goes from 0.5 + step/2 to 0.5 - step/2
        wins[a, h] += step
        formed = vars(view)
        carried = {name: formed[name] for name in ("pool", "pool_games", "sides") if name in formed}
        if "pool_wins" in formed:
            carried["pool_wins"] = pool_wins = formed["pool_wins"].copy()
            pool_wins[[h, a]] = wins[[h, a]] @ view.adjacency  # exact in float32, as the whole product is
        new = replace(view, margin=margin, wins=wins)
        vars(new).update(carried)  # the cached products, given rather than formed
        flipped = SeasonDataset(self.season, self.teams, log)
        vars(flipped).update(schedule=new, component_labels=self.component_labels, _components=self._components)
        return flipped


def _csv_rows(source: Iterable[str] | str) -> Iterable[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) of each line, with comments and blank lines dropped."""
    if isinstance(source, str):
        source = io.StringIO(source)
    limit = csv.field_size_limit()
    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # A line without a quote, CR, LF or NUL (an error to csv.reader before Python 3.11), and too short to
        # hold a field over csv's size limit, is one record of unquoted fields: csv.reader splits it at each comma.
        if '"' not in line and "\r" not in line and "\n" not in line and "\0" not in line and len(line) <= limit:
            yield lineno, line.split(",")
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


def _game_fault(home, away, home_score, away_score, neutral, named: dict[str, int]) -> tuple[str, str] | None:
    """The first rule a game breaks, as (CSV field, message), or None when it is valid.

    ``named`` maps each name that passed ``_name_fault`` to an index and gains
    the names that pass here, so a caller keeping one over a log checks a name once.
    """
    if home not in named or away not in named:
        for field, name in (("home", home), ("away", away)):
            if _name_fault(name):
                return field, _name_fault(name)
        named.setdefault(home, len(named))
        named.setdefault(away, len(named))
    if home == away:
        return "away", f"home and away are both {home!r}"
    if type(home_score) is type(away_score) is int and home_score >= 0 and away_score >= 0 and type(neutral) is bool:
        return None  # the common case, at once
    for field, score in (("home_score", home_score), ("away_score", away_score)):
        if type(score) is not int:  # a bool is an int too, but not a score
            return field, f"must be an int, got {score!r}"
        if score < 0:
            return field, f"must be >= 0, got {score}"
    if type(neutral) is not bool:
        return "neutral", f"neutral must be a bool, got {neutral!r}"
    return None


def _int_field(value: str, lineno: int, field: str) -> int:
    try:
        number = int(value)
    except ValueError:
        try:  # int() ignores whitespace around a number but \x1c-\x1f, which str.strip() removes
            number = int(value.strip())
        except ValueError:
            raise ParseError(f"not an integer: {value!r}", line=lineno, field=field) from None
    if -0x8000000000000000 <= number <= 0x7FFFFFFFFFFFFFFF:  # a GameLog column holds int64
        return number
    raise ParseError(f"not a 64-bit integer: {value!r}", line=lineno, field=field)


def _date_field(value: str, lineno: int) -> int:
    """The ordinal of a ``YYYY-MM-DD`` date field, whitespace around it ignored."""
    try:
        return datetime.date.fromisoformat(_ISO_DATE.fullmatch(value.strip())[0]).toordinal()
    except (TypeError, ValueError):  # no match, or no such day
        raise ParseError(f"not an ISO-8601 date: {value!r}", line=lineno, field="date") from None


def parse_games(source: Iterable[str] | str, season_window=DEFAULT_SEASON_WINDOW) -> GameLog:
    """Parse a game log from a character stream (or string) into a ``GameLog``.

    ``season_window`` is an inclusive ((month, day), (month, day)) bound on game
    dates within each record's season year; pass None to disable the check.
    """
    rows: list[tuple] = []
    named: dict[str, int] = {}
    days: dict[str, int] = {}  # each date field's ordinal
    bounds: dict[int, tuple[int, int]] = {}  # each season's window, as ordinals
    lines = _csv_rows(source)
    lineno, header = next(lines, (None, ()))
    if tuple(c.strip().lower() for c in header)[:7] != GAME_HEADER:
        raise ParseError(f"missing or malformed header, expected {','.join(GAME_HEADER)}", line=lineno)
    for lineno, row in lines:
        if len(row) not in (7, 8):
            raise ParseError(f"expected 7 or 8 columns, got {len(row)}", line=lineno)
        season = _int_field(row[0], lineno, "season")
        day = days[row[1]] if row[1] in days else days.setdefault(row[1], _date_field(row[1], lineno))
        home_score = _int_field(row[4], lineno, "home_score")
        away_score = _int_field(row[5], lineno, "away_score")
        neutral = row[6].strip()
        if neutral not in ("0", "1"):
            raise ParseError(f"neutral must be 0 or 1, got {neutral!r}", line=lineno, field="neutral")
        game_index = _int_field(row[7], lineno, "game_index") if len(row) == 8 else 0
        if season_window is not None:
            if season not in bounds:
                if not datetime.MINYEAR <= season <= datetime.MAXYEAR:
                    message = f"season {season} is not a year in {datetime.MINYEAR}..{datetime.MAXYEAR}"
                    raise ParseError(message, line=lineno, field="season")
                bounds[season] = tuple(datetime.date(season, *md).toordinal() for md in season_window)
            lo, hi = bounds[season]
            if not lo <= day <= hi:
                lo, hi, date = (datetime.date.fromordinal(d).isoformat() for d in (lo, hi, day))
                raise ParseError(f"date {date} outside season {season} window {lo}..{hi}", line=lineno, field="date")
        home, away = row[2].strip(), row[3].strip()
        fault = _game_fault(home, away, home_score, away_score, neutral == "1", named)
        if fault:
            raise ParseError(fault[1], line=lineno, field=fault[0])
        if home_score == away_score:
            message = f"line {lineno}: tied score {home_score}-{away_score} between {home} and {away}"
            warnings.warn(message, DataWarning, stacklevel=2)
        rows.append((season, day, named[home], named[away], home_score, away_score, neutral == "1", game_index))
    return GameLog.of(named, rows)


def serialize_games(games: Iterable[GameRecord]) -> str:
    """Render games as CSV, ``parse_games(serialize_games(gs)) == gs``; a bad game raises as in ``build_season``."""
    games = games if isinstance(games, GameLog) else GameLog.from_records(games)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GAME_HEADER + ("game_index",))
    for g in games:
        row = [g.season, g.date.isoformat(), g.home_team, g.away_team, g.home_score, g.away_score, int(g.neutral_site)]
        writer.writerow(row + [g.game_index])
    return out.getvalue()


def load_games(path, **kwargs) -> GameLog:
    with open(path, encoding="utf-8") as fh:
        return parse_games(fh, **kwargs)


def load_alias_map(source: Iterable[str] | str) -> dict[str, str]:
    """Parse an ``alias,canonical`` CSV into a mapping."""
    aliases: dict[str, str] = {}
    lines = _csv_rows(source)
    lineno, header = next(lines, (None, ALIAS_HEADER))  # an empty file maps nothing
    if tuple(c.strip().lower() for c in header) != ALIAS_HEADER:
        raise ParseError("missing or malformed header, expected alias,canonical", line=lineno)
    for lineno, row in lines:
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", line=lineno)
        alias, canonical = row[0].strip(), row[1].strip()
        for field, name in (("alias", alias), ("canonical", canonical)):
            if _name_fault(name):
                raise ParseError(_name_fault(name), line=lineno, field=field)
        if alias in aliases and aliases[alias] != canonical:
            raise ParseError(f"alias {alias!r} maps to both {aliases[alias]!r} and {canonical!r}", line=lineno)
        aliases[alias] = canonical
    return aliases


def apply_aliases(games: Iterable[GameRecord], aliases: Mapping[str, str]) -> GameLog:
    """``games`` (a ``GameLog``, or records held to the game rules first) with team names mapped through ``aliases``."""
    log = games if isinstance(games, GameLog) else GameLog.from_records(games)
    named: dict[str, int] = {}
    mapped = np.array([named.setdefault(aliases.get(t, t), len(named)) for t in log.teams], dtype=np.int64)
    teams, home, away = tuple(named), mapped[log.home], mapped[log.away]
    for k in np.flatnonzero(home == away)[:1].tolist():
        g = log[k]
        raise ValidationError(f"alias map collapses {g.home_team!r} and {g.away_team!r} into {teams[home[k]]!r}")
    for message in filter(None, map(_name_fault, teams)):
        raise ValidationError(message)
    return log.replace(teams=teams, home=home, away=away)


def build_season(games: Iterable[GameRecord], season: int) -> SeasonDataset:
    """Index a ``GameLog``, or ``GameRecord``s made one by ``GameLog.from_records``, into a SeasonDataset.

    Every game must belong to ``season``. Teams are sorted and indexed in that
    order, the games sorted by one ``lexsort`` and exact duplicates, then
    adjacent, dropped with a warning; the result is independent of input order.
    """
    log = games if isinstance(games, GameLog) else GameLog.from_records(games, season)
    wrong = np.flatnonzero(log.season != season)
    if wrong.size:
        g = log[int(wrong[0])]
        raise ValidationError(f"game dated {g.date.isoformat()} belongs to season {g.season}, not {season}")
    used = np.zeros(len(log.teams), dtype=bool)
    used[log.home] = used[log.away] = True  # a log cut to one season may name others' teams
    order = sorted(np.flatnonzero(used).tolist(), key=log.teams.__getitem__)
    index = np.zeros(len(log.teams), dtype=np.int64)
    index[order] = np.arange(len(order))
    log = log.replace(teams=tuple(log.teams[i] for i in order), home=index[log.home], away=index[log.away])
    log = log.take(np.lexsort([getattr(log, name) for name in reversed(_ORDER)]))
    same = np.logical_and.reduce([np.diff(getattr(log, name)) == 0 for name in _ORDER])  # each row as its last
    if same.any():
        warnings.warn(f"dropped {int(same.sum())} duplicate game row(s)", DataWarning, stacklevel=2)
        log = log.take(np.append(True, ~same))
    if not len(log):
        raise ValidationError("empty season")
    return SeasonDataset(season=season, teams=log.teams, log=log)


def find_game(dataset: SeasonDataset, date: datetime.date, team_a: str, team_b: str) -> GameRecord:
    """Locate the unique game between two teams on a date (either home/away order)."""
    log, a, b = dataset.log, dataset._team(team_a), dataset._team(team_b)
    pair = ((log.home == a) & (log.away == b)) | ((log.home == b) & (log.away == a))
    matches = np.flatnonzero(pair & (log.date == date.toordinal()))
    if not matches.size:
        raise ValidationError(f"no game between {team_a!r} and {team_b!r} on {date.isoformat()}")
    if matches.size > 1:
        message = f"{matches.size} games between {team_a!r} and {team_b!r} on {date.isoformat()}"
        raise ValidationError(message + "; disambiguate by game_index")
    return log[int(matches[0])]
