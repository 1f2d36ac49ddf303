"""Games given as records, a log written back as CSV, and team names mapped through an alias map.

A ``rank`` run reads its log as columns and builds no record, so it loads
this module only under ``--aliases``; ``build_season`` imports
``from_records`` only when it is handed ``GameRecord``s. Each record is held
to the game rules that ``ingest`` states, with the parser's messages. Alias
map CSV has header ``alias,canonical``; its names follow the same name rule.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .ingest import GAME_HEADER, GameLog, GameRecord, _csv_rows, _game_fault, _name_fault, _quote

ALIAS_HEADER = ("alias", "canonical")


def from_records(games: Iterable[GameRecord], season: int | None = None) -> GameLog:
    """``games`` as a log, each checked in turn: the first not of ``season`` (if given) or breaking
    ``_game_fault`` raises ``ValidationError`` with the parser's message for its row."""
    named: dict[str, int] = {}
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
    return GameLog.of(named, rows)


def serialize_games(games: Iterable[GameRecord]) -> str:
    """Render games as CSV, ``parse_games(serialize_games(gs)) == gs``; a bad game raises as in ``build_season``."""
    games = games if isinstance(games, GameLog) else from_records(games)
    lines = [",".join(GAME_HEADER + ("game_index",)) + "\n"]
    for g in games:
        home, away, neutral = _quote(g.home_team), _quote(g.away_team), int(g.neutral_site)
        lines.append(f"{g.season},{g.date},{home},{away},{g.home_score},{g.away_score},{neutral},{g.game_index}\n")
    return "".join(lines)


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
    log = games if isinstance(games, GameLog) else from_records(games)
    named: dict[str, int] = {}
    mapped = np.array([named.setdefault(aliases.get(t, t), len(named)) for t in log.teams], dtype=np.int64)
    teams, home, away = tuple(named), mapped[log.home], mapped[log.away]
    for k in np.flatnonzero(home == away)[:1].tolist():
        g = log[k]
        raise ValidationError(f"alias map collapses {g.home_team!r} and {g.away_team!r} into {teams[home[k]]!r}")
    for message in filter(None, map(_name_fault, teams)):
        raise ValidationError(message)
    return log.replace(teams=teams, home=home, away=away)
