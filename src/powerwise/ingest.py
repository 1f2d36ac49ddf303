"""Season game-log ingestion: parsing, validation, and indexing, the games held as columns.

Game CSV format (UTF-8, a leading byte-order mark skipped, ``#``-prefixed
comment lines ignored)::

    season,date,home,away,home_score,away_score,neutral[,game_index]
    2024,2024-02-10,Yale,Brown,12,8,0

The header is those seven names, or those and ``game_index``. ``date`` is
exactly ``YYYY-MM-DD``, ``neutral`` 0 or 1, the season, scores and
``game_index`` ASCII digits with an optional sign, and ``game_index`` an
optional disambiguator for two otherwise-identical games. A valid game, parsed
or built in code, has two distinct teams whose names are non-empty, stripped
``str`` without control characters (so ``_quote``, every export's one CSV
quoting rule, writes a name as one field on one line), ``int`` scores >= 0
(not ``bool``), a ``bool`` neutral flag and an ``int`` game_index (not
``bool``); ``_game_fault`` checks all but the game_index, which only a record
built in code can get wrong. Games are held as columns (``GameLog``); a
``GameRecord`` is built only to be read. A season keeps what it derives in
``Derived``; its view's ``Pairings`` hold what the pairings fix and flips share.

This module holds what a ``rank`` run calls. Games given as records
(``records.from_records``, which ``build_season`` imports when handed them),
a log written back as CSV and the alias map live in ``records``; finding a
game by date and teams and flipping one live in ``experiments``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import datetime
import io
import itertools
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import ComputationError, DataWarning, ParseError, PowerwiseError, ValidationError

GAME_HEADER = ("season", "date", "home", "away", "home_score", "away_score", "neutral")

# (month, day) bounds of a season's calendar window, inclusive.
DEFAULT_SEASON_WINDOW = ((1, 1), (5, 31))

# Unicode category Cc: the C0 controls, DEL and the C1 controls.
_CONTROL_CHARACTER = re.compile("[\x00-\x1f\x7f-\x9f]")
# The one date form accepted on every Python: date.fromisoformat also takes 20240210 and 2024-W06-6 from 3.11.
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")
# The one integer form: int() also takes 1_2 and non-ASCII digits such as ٣.
_INTEGER = re.compile("[+-]?[0-9]+")

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


class GameLog(Sequence):
    """Valid games as columns: a read-only sequence of ``GameRecord``, equal to a list or tuple of the same records.

    Each column holds one ``GameRecord`` field as int64 (``neutral`` as bool, ``date`` as its ordinal, ``home`` and
    ``away`` as indices into ``teams``). Reading a game builds its record, unless ``records`` has built them all
    (``built``). Only this module and ``records`` make one.
    """

    def __init__(self, teams: tuple[str, ...], *columns: np.ndarray):  # a plain class: a dataclass costs import time
        self.teams = teams
        (self.season, self.date, self.home, self.away,
         self.home_score, self.away_score, self.neutral, self.game_index) = columns
        self.built: tuple[GameRecord, ...] | None = None

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

    def take(self, rows) -> GameLog:  # the games at rows, indices or a boolean mask
        return self.replace(**{c: getattr(self, c)[rows] for c in _COLUMNS})

    @property
    def records(self) -> tuple[GameRecord, ...]:
        if self.built is None:
            self.built = tuple(map(self._record, *(getattr(self, c).tolist() for c in _COLUMNS)))
        return self.built

    def _record(self, season, day, home, away, *rest) -> GameRecord:
        return GameRecord(season, datetime.date.fromordinal(day), self.teams[home], self.teams[away], *rest)

    def __len__(self) -> int:
        return len(self.date)

    def __getitem__(self, k):
        if isinstance(k, slice) or self.built is not None:  # once all are built, reading one builds none
            return self.records[k]
        return self._record(*(getattr(self, c)[k].item() for c in _COLUMNS))

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other):
        return self.records == tuple(other) if isinstance(other, (GameLog, list, tuple)) else NotImplemented


@dataclass(eq=False)
class Pairings:
    """What a season's pairings alone fix, indexed like ``SeasonDataset.teams``, held by its view and every flip's.

    ``home``, ``away`` and ``neutral`` are the log's per-game columns; ``games[i, j]`` is i and j's number of
    meetings and ``adjacency`` is ``games > 0`` as 0/1, float32 with zero diagonals. ``laplacian`` is the grounded
    Laplacian once the flip experiment forms it; a solve without it forms its own and keeps none.
    """

    index: Mapping[str, int]  # each team's place in ``SeasonDataset.teams``, in that order
    home: np.ndarray
    away: np.ndarray
    neutral: np.ndarray
    games: np.ndarray
    adjacency: np.ndarray
    laplacian: np.ndarray | None = None

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Each team's component, numbered in order of its first member.

        Min-label propagation over the games: each round gives every team the
        smallest label among itself and its opponents, then points it at its
        label's label. Labels only fall and stay inside a component, so at the
        fixed point each team holds its component's first member, which alone
        holds its own index. Every team has a game, so each owns a run of the
        opponent slots sorted by team.
        """
        team = np.concatenate([self.home, self.away])
        # Stable, as build_season's lexsort is: a quicksort (or ufunc.at) would page in numpy code that ranking
        # does not otherwise run, about 0.13 MB of peak RSS each.
        by_team = np.argsort(team, kind="stable")
        opponent = np.concatenate([self.away, self.home])[by_team]
        runs = np.flatnonzero(np.diff(team[by_team], prepend=-1))
        label = index = np.arange(len(self.index))
        while True:
            hooked = np.minimum(label, np.minimum.reduceat(label[opponent], runs))
            hooked = hooked[hooked]
            if np.array_equal(hooked, label):
                return (np.cumsum(label == index) - 1)[label]
            label = hooked

    @cached_property
    def components(self) -> tuple[tuple[str, ...], ...]:
        members: list[list[str]] = [[] for _ in range(int(self.component_labels.max(initial=-1)) + 1)]
        for team, label in zip(self.index, self.component_labels.tolist()):
            members[label].append(team)
        return tuple(map(tuple, members))

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


@dataclass(eq=False)
class ScheduleView:
    """The season as arrays: its ``pairings``, and what its results fix, each game's ``margin`` (home minus away
    goals) and ``wins[i, j]``, i's win value against j over their meetings (ties count half, float32, zero diagonal).

    Step II reads products of W, G and A, A @ A (each pair's common opponents), G @ A and W @ A, a block of rows at
    a time. Every entry and partial sum of these is a multiple of 1/2 no larger than a team's game count, so below
    ``MAX_GAMES`` games (which ``SeasonDataset.schedule`` enforces) they are exact; a float64 reader takes row sums
    with ``dtype=np.float64``. ``on_field`` holds the verdicts per ``ComparisonConfig`` (``pairwise.on_field``); a
    flip's view holds ``flip``, its parent view and flipped pair, until they are formed. No array changes in place.
    """

    pairings: Pairings
    margin: np.ndarray
    wins: np.ndarray
    on_field: dict = field(default_factory=dict)  # ComparisonConfig -> pairwise._OnField
    flip: tuple[ScheduleView, np.ndarray] | None = field(default=None, repr=False)


class Derived:  # a plain class: a dataclass costs import time
    """What a season keeps of what it derives: its ``ScheduleView`` once formed, and the flip experiment's memo."""

    def __init__(self):
        self.view: ScheduleView | None = None
        self.flips: dict = {}


@dataclass(frozen=True)
class SeasonDataset:
    """Validated, deterministically ordered collection of one season's games.

    ``teams`` is lexicographically sorted. ``log`` holds each game once, indexed
    like ``teams`` and sorted by ``_ORDER``; ``games`` is the log read as records
    (ranking and flipping never read it): one is built per game read, all once on iteration.
    """

    season: int
    teams: tuple[str, ...]
    log: GameLog
    derived: Derived = field(default_factory=Derived, init=False, repr=False, compare=False)

    @property
    def games(self) -> GameLog:
        return self.log

    @property
    def schedule(self) -> ScheduleView:
        """The season's ``ScheduleView``; ComputationError for MAX_GAMES or more games, where it would not be exact."""
        if self.derived.view is not None:
            return self.derived.view
        n, log = len(self.teams), self.log
        if len(log) >= MAX_GAMES:
            raise ComputationError(f"{len(log)} games is too many to compare exactly; the limit is {MAX_GAMES - 1}")
        margin = log.home_score - log.away_score
        home_value = 0.5 + 0.5 * np.sign(margin)
        # W, G and A share one allocation (3 MB at 500 teams), which glibc's malloc maps on its own rather than
        # placing in its heap. Three separate matrices there, live as long as the season, left repeated 500-team
        # runs more prone to a 9 MB step in peak RSS, when the heap grew for a block no free gap could hold.
        wins, games, adjacency = np.zeros((3, n, n), dtype=np.float32)
        np.add.at(wins, (log.home, log.away), home_value)
        np.add.at(wins, (log.away, log.home), 1.0 - home_value)
        np.add(wins, wins.T, out=games)
        np.greater(games, 0, out=adjacency)
        index = {t: i for i, t in enumerate(self.teams)}
        pairings = Pairings(index, log.home, log.away, log.neutral, games, adjacency)
        self.derived.view = ScheduleView(pairings, margin, wins)
        return self.derived.view

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the opponent graph, each sorted, ordered by first member."""
        return self.schedule.pairings.components

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


def _quote(field: str) -> str:
    """``field`` as ``csv.writer(lineterminator="\\n")`` writes it, if it holds no CR: every export's one quoting rule.

    A team name holds no CR (``_name_fault``), and an export's other fields never hold ``,``, ``"`` or LF, so each
    export passes only its team names, and the evidence that names them, through this.
    """
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


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
    """``value``, stripped, as an int if it is ASCII digits with an optional sign that fit in int64, else ParseError."""
    text = value.strip()
    try:
        number = int(text) if _INTEGER.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        number = None
    if number is None:
        raise ParseError(f"not an integer: {value!r}", line=lineno, field=field)
    if -0x8000000000000000 <= number <= 0x7FFFFFFFFFFFFFFF:  # a GameLog column holds int64
        return number
    raise ParseError(f"not a 64-bit integer: {value!r}", line=lineno, field=field)


def iso_date(value: str) -> datetime.date:
    """``value`` as a date if it is exactly ``YYYY-MM-DD`` and names a day, else ValueError."""
    if not _ISO_DATE.fullmatch(value):
        raise ValueError(f"not YYYY-MM-DD: {value!r}")
    return datetime.date.fromisoformat(value)


def _date_field(value: str, lineno: int) -> int:
    """The ordinal of a ``YYYY-MM-DD`` date field, whitespace around it ignored."""
    try:
        return iso_date(value.strip()).toordinal()
    except ValueError:
        raise ParseError(f"not an ISO-8601 date: {value!r}", line=lineno, field="date") from None


def parse_games(source: Iterable[str] | str, season_window=DEFAULT_SEASON_WINDOW) -> GameLog:
    """Parse a game log from a character stream (or string) into a ``GameLog``.

    ``season_window`` is an inclusive ((month, day), (month, day)) bound on game
    dates within each record's season year; pass None to disable the check.
    """
    rows: list[tuple] = []
    named: dict[str, int] = {}
    days: dict[str, int] = {}  # each date field's ordinal
    ints: dict[str, int] = {}  # each integer field's value
    bounds: dict[int, tuple[int, int]] = {}  # each season's window, as ordinals
    lines = _csv_rows(source)
    lineno, header = next(lines, (None, ()))
    if tuple(c.strip().lower() for c in header) not in (GAME_HEADER, GAME_HEADER + ("game_index",)):
        raise ParseError(f"missing or malformed header, expected {','.join(GAME_HEADER)}[,game_index]", line=lineno)
    for lineno, row in lines:
        if len(row) not in (7, 8):
            raise ParseError(f"expected 7 or 8 columns, got {len(row)}", line=lineno)
        # Each distinct text is converted once: a fault raises at its first line, and a valid text is one number.
        s, h, a, g = row[0], row[4], row[5], row[7] if len(row) == 8 else "0"
        season = ints[s] if s in ints else ints.setdefault(s, _int_field(s, lineno, "season"))
        day = days[row[1]] if row[1] in days else days.setdefault(row[1], _date_field(row[1], lineno))
        home_score = ints[h] if h in ints else ints.setdefault(h, _int_field(h, lineno, "home_score"))
        away_score = ints[a] if a in ints else ints.setdefault(a, _int_field(a, lineno, "away_score"))
        neutral = row[6].strip()
        if neutral not in ("0", "1"):
            raise ParseError(f"neutral must be 0 or 1, got {neutral!r}", line=lineno, field="neutral")
        game_index = ints[g] if g in ints else ints.setdefault(g, _int_field(g, lineno, "game_index"))
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


@contextlib.contextmanager
def open_text(path):
    """``path`` read as UTF-8 text, a leading byte-order mark skipped, lines ending at LF, CRLF or CR.

    The first fault in line order is the one raised. A byte that is not UTF-8
    on line L (counted the same way) raises ParseError at L, after the reader
    has been handed only the lines before L: a ParseError it raises on one of
    those lines comes first, while any error of the package it raises for
    want of the later lines gives way to the decode error.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode("utf-8")
        fault = None
    except UnicodeDecodeError as e:
        head = data[: e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        fault = ParseError(f"cannot decode byte 0x{data[e.start]:02x} as UTF-8 ({e.reason})", line=line)
        data = head[: max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]  # the lines before L
    try:
        yield io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
    except PowerwiseError as exc:
        if fault is None or (isinstance(exc, ParseError) and exc.line is not None and exc.line < fault.line):
            raise
        raise fault from None
    if fault is not None:
        raise fault


def load_games(path, **kwargs) -> GameLog:
    with open_text(path) as fh:
        return parse_games(fh, **kwargs)


def build_season(games: Iterable[GameRecord], season: int) -> SeasonDataset:
    """Index a ``GameLog``, or ``GameRecord``s made one by ``records.from_records``, into a SeasonDataset.

    Every game must belong to ``season``. Teams are sorted and indexed in that
    order, the games sorted by one ``lexsort`` and exact duplicates, then
    adjacent, dropped with a warning; the result is independent of input order.
    """
    if isinstance(games, GameLog):
        log = games
    else:
        from .records import from_records

        log = from_records(games, season)
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
