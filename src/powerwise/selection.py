"""Tournament field selection and comparison against published fields.

At-large selection takes the top ``bid_count`` ranked teams after removing
automatic qualifiers. A shared rank straddling the cutoff is refused rather
than silently broken: the ranking itself declared those teams inseparable.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ComputationError, ParseError, ValidationError
from .ingest import open_text
from .tiebreak import RankingList


@dataclass(frozen=True)
class SelectionResult:
    season: int
    bid_count: int
    auto_qualifiers: tuple[str, ...]
    at_large: tuple[str, ...]
    first_out: str | None
    ranking: RankingList


def read_team_list(source: Iterable[str] | str) -> tuple[str, ...]:
    """One team per line; ``#`` comments and blank lines ignored; duplicates rejected."""
    if isinstance(source, str):
        source = io.StringIO(source)
    teams: list[str] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in teams:
            raise ParseError(f"duplicate team {line!r}", line=lineno)
        teams.append(line)
    return tuple(teams)


def load_team_list(path) -> tuple[str, ...]:
    with open_text(path) as fh:
        return read_team_list(fh)


def select_at_large(
    ranking: RankingList, auto_qualifiers: Iterable[str], bid_count: int
) -> SelectionResult:
    """Pick the ``bid_count`` best-ranked teams not already in on an automatic bid."""
    if bid_count < 0:
        raise ValidationError(f"bid_count must be non-negative, got {bid_count}")
    aq = tuple(sorted(set(auto_qualifiers)))
    known = set(ranking.order())
    unknown = [t for t in aq if t not in known]
    if unknown:
        raise ValidationError(f"automatic qualifier(s) not in ranking: {', '.join(unknown)}")

    candidates = [e for e in ranking.entries if e.team not in aq]
    if bid_count > len(candidates):
        raise ValidationError(
            f"cannot award {bid_count} at-large bids: only {len(candidates)} candidates"
        )
    selected = candidates[:bid_count]
    excluded = candidates[bid_count:]
    if selected and excluded and selected[-1].rank == excluded[0].rank:
        tied = [e.team for e in candidates if e.rank == selected[-1].rank]
        raise ComputationError(
            f"unresolved bubble tie at rank {selected[-1].rank}: {', '.join(tied)} "
            f"straddle the final at-large spot"
        )
    return SelectionResult(
        season=ranking.season,
        bid_count=bid_count,
        auto_qualifiers=aq,
        at_large=tuple(e.team for e in selected),
        first_out=excluded[0].team if excluded else None,
        ranking=ranking,
    )


@dataclass(frozen=True)
class SelectionDiff:
    """Set difference between a computed at-large field and a published one."""

    season: int
    only_mine: tuple[str, ...]
    only_official: tuple[str, ...]
    common: tuple[str, ...]
    my_ranks: Mapping[str, int]

    def agreement(self) -> float:
        total = len(self.common) + len(self.only_mine) + len(self.only_official)
        return 1.0 if total == 0 else len(self.common) / total


def diff_selections(result: SelectionResult, official: Iterable[str]) -> SelectionDiff:
    """Compare computed at-large picks with an official list of the same size."""
    official = tuple(official)
    if len(set(official)) != len(official):
        raise ValidationError("official selection list contains duplicates")
    mine = set(result.at_large)
    other = set(official)
    ranks = result.ranking.ranks()
    my_ranks = {t: ranks[t] for t in sorted(mine | other) if t in ranks}
    return SelectionDiff(
        season=result.season,
        only_mine=tuple(sorted(mine - other)),
        only_official=tuple(sorted(other - mine)),
        common=tuple(sorted(mine & other)),
        my_ranks=my_ranks,
    )
