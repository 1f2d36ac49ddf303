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

    The step II products are formed on first use and kept with the view, in
    float32: ``pool`` is A @ A (each pair's common opponents), ``pool_games``
    G @ A and ``pool_wins`` W @ A (each team's games and wins against them).
    Every entry, and every partial sum of one in any order, is a multiple of
    1/2 no larger than one team's game count, so below
    ``pairwise.MAX_GAMES`` games they are exact and equal the float64
    products bit for bit.

    A flipped season (``SeasonDataset.with_flipped``) shares every array but
    ``wins`` and ``margin`` with the season it came from, and whichever its
    parent has formed of ``pool``, ``pool_games`` and RPI's ``sides`` as they
    are, and ``pool_wins`` with the two rows of the flipped pair formed again. So
    its step I and II inputs differ from the parent's only in that pair's
    rows and columns. No array is ever changed in place.

    A flipped view that ``perturbation_experiment`` ranks is also lent what
    its parent keeps, as three more entries: ``laplacian``, the parent's
    ``power_rating.grounded_laplacian``, and ``season_inputs``, the rest the
    solve reads that a flip leaves unchanged (a flip changes neither G, the
    neutral sites nor the components); and ``parent_tournament``, the
    parent's ``PowerwiseTable`` with the flipped pair's two indices, whose
    other step I and II verdicts ``pairwise.run_tournament`` keeps. A view
    nothing lends to forms them afresh and keeps none.
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
        return _product(self.adjacency, self.adjacency)

    @cached_property
    def pool_games(self) -> np.ndarray:
        return _product(self.games, self.adjacency)

    @cached_property
    def pool_wins(self) -> np.ndarray:
        return _product(self.wins, self.adjacency)

    @cached_property
    def sides(self) -> tuple[np.ndarray, ...]:
        """RPI's inputs that G alone fixes: (team, opp, against, games, rest, alone), for games listed twice.

        ``against`` is (opp, team) as a flat index; ``rest`` is opp's games against others than team, 1 if ``alone``.
        """
        team = np.column_stack([self.home, self.away]).ravel()
        opp = np.column_stack([self.away, self.home]).ravel()
        against = opp * len(self.index) + team
        games = self.games.sum(axis=1)
        rest = games[opp] - self.games.take(against)
        return team, opp, against, games, np.where(rest > 0, rest, 1.0), rest == 0


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` of two schedule matrices in float32, exact (see ``ScheduleView``)."""
    return left.astype(np.float32) @ right.astype(np.float32)


@dataclass(frozen=True)
class SeasonDataset:
    """Validated, deterministically ordered collection of one season's games.

    ``teams`` is lexicographically sorted; ``games`` is sorted by
    (date, home, away, game_index). ``schedule`` is the matrix view of the
    same games, ``components()`` its connected components and
    ``component_labels`` each team's component as its index in
    ``components()``, each built on first use. ``perturbation_experiment``
    keeps its ``FlipParent`` (the season's own rankings and tournament, its
    grounded Laplacian and the last flipped season) in the season's
    ``__dict__``, so it dies with the season; nothing else adds to it.
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

    def components(self) -> tuple[tuple[str, ...], ...]:
        """Connected components of the opponent graph, each sorted, ordered by first member."""
        return self._components

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Each team's component, numbered in order of its first member, indexed like ``teams``."""
        opponents = [np.flatnonzero(row).tolist() for row in self.schedule.adjacency]
        labels = [-1] * len(self.teams)
        count = 0
        for start in range(len(self.teams)):
            if labels[start] >= 0:
                continue
            labels[start] = count
            stack = [start]
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

    def position(self, game: GameRecord) -> int:
        """``game``'s index in ``games``, found by bisection; ValidationError if it is not in the season."""
        k = bisect.bisect_left(self.games, _sort_key(game), key=_sort_key)
        if k == len(self.games) or self.games[k] != game:
            raise ValidationError(f"game {game} is not in the season")
        return k

    def with_flipped(self, game: GameRecord, k: int | None = None) -> SeasonDataset:
        """This season with ``game``'s result flipped (``flip_game``), as ``build_season`` would index it.

        The game is found by bisection on the sort order and replaced in place:
        a flip changes no team, no pairing and no game's place in that order.
        So the new season shares ``teams``, the components and every schedule
        array but two with this one: ``wins`` differs in the pair's two
        entries and ``margin`` in the game's slot. Of the step II products
        this season has formed, the new one shares ``pool`` and
        ``pool_games`` and copies ``pool_wins`` with rows h and a, the only
        ones W's two entries reach, multiplied again; the products are exact,
        so those rows equal a fresh product's. If a neighbouring game shares
        the game's (date, home, away, game_index), the flipped scores could
        reorder or duplicate it; that case alone is rebuilt with
        ``build_season``. A caller that has ``position(game)`` passes it as
        ``k``, and the game is not looked up again.
        """
        if k is None:
            k = self.position(game)
        key = _sort_key(game)
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
        formed = vars(view)
        carried = {name: formed[name] for name in ("pool", "pool_games", "sides") if name in formed}
        if "pool_wins" in formed:
            carried["pool_wins"] = pool_wins = formed["pool_wins"].copy()
            pool_wins[[h, a]] = wins[[h, a]] @ view.adjacency  # exact in float64, so exact in float32
        new = replace(view, margin=margin, wins=wins)
        vars(new).update(carried)  # the cached products, given rather than formed
        flipped = SeasonDataset(self.season, self.teams, games)
        vars(flipped).update(
            schedule=new, component_labels=self.component_labels, _components=self._components
        )
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
        # A line without a quote, CR, LF or NUL (an error to csv.reader before
        # Python 3.11), and too short to hold a field over csv's size limit,
        # is one record of unquoted fields: csv.reader would split it at each comma.
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
        return int(value)
    except ValueError:
        try:  # int() ignores whitespace around a number but \x1c-\x1f, which str.strip() removes
            return int(value.strip())
        except ValueError:
            raise ParseError(f"not an integer: {value!r}", line=lineno, field=field) from None


def _parse_row(lineno: int, row: list[str], season_window, bounds: dict, named: set[str]) -> GameRecord:
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
        if season not in bounds:
            if not datetime.MINYEAR <= season <= datetime.MAXYEAR:
                raise ParseError(
                    f"season {season} is not a year in {datetime.MINYEAR}..{datetime.MAXYEAR}",
                    line=lineno,
                    field="season",
                )
            (m0, d0), (m1, d1) = season_window
            bounds[season] = (datetime.date(season, m0, d0), datetime.date(season, m1, d1))
        lo, hi = bounds[season]
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
    bounds: dict[int, tuple[datetime.date, datetime.date]] = {}  # each season's window dates, formed once
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
        records.append(_parse_row(lineno, row, season_window, bounds, named))
    if not saw_header:
        raise ParseError(f"missing or malformed header, expected {','.join(GAME_HEADER)}")
    return records


def serialize_games(games: Iterable[GameRecord]) -> str:
    """Render games back to CSV; ``parse_games(serialize_games(gs)) == gs``.

    The first invalid game (see the module docstring) raises ``ValidationError``
    with the message the parser would give its row.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GAME_HEADER + ("game_index",))
    named: set[str] = set()
    for g in games:
        fault = _game_fault(g, named)
        if fault:
            raise ValidationError(fault[1])
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
