"""Hierarchical pairwise comparisons and the full round-robin tournament.

Every pair of teams is compared by a three-step ladder, stopping at the first
decisive step:

  I.   head-to-head record (strictly more wins; tied scores count half),
  II.  record against common opponents, by win percentage or by win-minus-loss
       differential depending on configuration,
  III. power rating comparison, ratings within RATING_TOL counting as equal.

A pair no step can decide (identical ratings, or teams whose schedules never
connect) is reported unresolved and awards no point. Decided pairs award one
point to the winner; a team's season score is its total points.

``run_tournament`` walks the ladder for all pairs at once on the season's
matrix view (``SeasonDataset.schedule``): win values W, game counts G and the
symmetric adjacency A = (G > 0), float32 with zero diagonals, so neither team
of a pair is ever in its own common pool. Each step gives a sign in {-1, 0, +1}:

  I.   sign(W - Wᵀ); it is 0 where the teams never met.
  II.  W @ A is each team's win total against the pair's common pool, G @ A
       its games against it and A @ A the pool size. Percentage is
       wins / games, numeric is wins - (games - wins), and the sign of the
       statistic minus its transpose counts where the pool is not empty (and,
       with ``skip_singular_co``, has more than one team); elsewhere it is 0.
  III. +1 where r_i - r_j > RATING_TOL, -1 where it is below -RATING_TOL,
       counted only inside one component.

Steps I and II read the games alone, so ``on_field`` forms them once per
schedule view and ``ComparisonConfig`` and keeps them in the view's
``on_field`` (``_OnField``): an int8 key 3·I + II per pair, whose sign is the
winner's and whose size names the step (2-4 step I, 1 step II, 0 neither),
with the step II evidence of the pairs it decides. It is formed from blocks of
rows over the upper triangle, each block's float32 products taken against the
columns from its first row on and mirrored, so no N×N product is formed; the
products are exact below ``ingest.MAX_GAMES`` games. A flipped season's view
re-keys its ``flip`` parent's key in the flipped pair's rows and columns. Each
tournament decides step III alone (``_decide``) and keeps two int8 matrices,
deciding step and winner sign; each pair is decided exactly as a walk over its
games would.

A pair's outcome has one rendered form, its outcomes.csv line of four pieces
(``PowerwiseTable.render``): the two teams as leading fields (``ingest._quote``
quotes each field), a head and a tail. Heads and step III tails come from
string tables built on a table's first render, step I and II tails from the
verdicts (``_OnField.tails``); only the rare unresolved pairs are formatted
one by one. A block of whole team rows gathers its pieces with ``take`` and
joins them. The export joins the blocks; the readers (``outcomes``, iterated
but not indexed, ``outcome_for``, ``unresolved()``) run ``csv.reader`` over the
lines.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import ValidationError
from .ingest import SeasonDataset, _quote
from .power_rating import RATING_TOL, PowerRatingTable

STEP_HEAD_TO_HEAD = "head_to_head"
STEP_COMMON_OPPONENTS = "common_opponents"
STEP_POWER_RATING = "power_rating"
STEP_UNRESOLVED = "unresolved"
STEPS = (STEP_HEAD_TO_HEAD, STEP_COMMON_OPPONENTS, STEP_POWER_RATING, STEP_UNRESOLVED)
UNRESOLVED = STEPS.index(STEP_UNRESOLVED)

# Pairs per block of team rows that the renderer gathers and joins at once, and the most ordered pairs ``decide``
# reads at once. Any fixed size bounds the memory a block needs; on a 500-team league, peak RSS varied with how
# blocks met the allocator (the traced Python peak did not) and was lowest for blocks of 24k-48k pairs.
_BLOCK_PAIRS = 32768

CO_MODES = ("percentage", "numeric")


@dataclass(frozen=True)
class ComparisonConfig:
    """Step II behavior: comparison statistic and singular-opponent handling.

    ``skip_singular_co`` skips step II when exactly one common opponent exists,
    since a single opponent played an unequal number of times can flip the
    numeric differential on schedule length alone.
    """

    co_mode: str = "percentage"
    skip_singular_co: bool = False

    def __post_init__(self):
        if self.co_mode not in CO_MODES:
            raise ValidationError(f"co_mode must be one of {CO_MODES}, got {self.co_mode!r}")


class PairwiseOutcome(NamedTuple):
    """Result of one pair's ladder walk. ``team_a`` < ``team_b`` lexicographically."""

    team_a: str
    team_b: str
    winner: str | None
    deciding_step: str
    evidence: str


NO_MEETINGS = "no meetings"
NO_COMMON_OPPONENTS = "no common opponents"
NO_SCHEDULE_PATH = "no schedule path between teams"


def _pool_label(pool: float) -> str:
    return f"{pool:.0f} common opponent" + ("s" if pool > 1 else "")


def _read(lines: Iterable[str]) -> Iterator[PairwiseOutcome]:
    """The outcomes that outcomes.csv ``lines`` hold, as csv.reader reads them; an empty winner is None."""
    for row in csv.reader(lines):
        row[2] = row[2] or None
        yield PairwiseOutcome._make(row)


def _per_key(columns: list[np.ndarray], text: Callable[..., str]) -> np.ndarray:
    """``text(*row)`` for each row of ``columns`` (whole numbers >= 0), formatted once per distinct row.

    A row's key is its index in the grid the columns' maxima span, or, where
    that grid is too large for int64, the row itself.
    """
    table = np.array(columns, dtype=np.int64)
    dims = (table.max(axis=1, initial=0) + 1).tolist()
    if prod(dims) < 2**63:
        keys, at = np.unique(np.ravel_multi_index(table, dims), return_inverse=True)
        rows = np.unravel_index(keys, dims)
    else:
        rows, at = np.unique(table, axis=1, return_inverse=True)
    return np.array([text(*row) for row in zip(*(r.tolist() for r in rows))], dtype=object)[at]


# The words that follow the winner's name in the evidence of each deciding step.
_PHRASES = (" leads head-to-head ", " better against ", " rated higher (")

_ENDS = ("\n", '"\n')  # what closes a line, by whether its evidence is quoted


def _series(e: int, a: int, b: int) -> str:
    """A step I tail from its quoting and the winner's, then the loser's, twice its win total against the other."""
    return f"{a / 2:g}-{b / 2:g}{_ENDS[e]}"


def _sign(above: np.ndarray, below: np.ndarray) -> np.ndarray:
    """+1 where ``above`` holds, -1 where ``below`` does, else 0, as int8; the two never both hold."""
    return above.view(np.int8) - below


def _stat(wins: np.ndarray, games: np.ndarray, config: ComparisonConfig) -> np.ndarray:
    """The step II statistic in float64, from float32 wins and games against a pool (exact below ``MAX_GAMES``).

    Percentage is wins / games, numeric wins - (games - wins). Off the pool it is NaN or 0, never read.
    """
    wins = wins.astype(np.float64)
    if config.co_mode == "numeric":
        wins *= 2  # exact, as is every sum and difference here: 2·wins - games is wins - (games - wins)
        return np.subtract(wins, games, out=wins)
    with np.errstate(invalid="ignore"):  # 0 / 0
        return np.divide(wins, games, out=wins)


def _key_block(arrays: tuple[np.ndarray, ...], config: ComparisonConfig, rows, cols) -> tuple[np.ndarray, ...]:
    """The int8 key 3·I + II of each pair (i, j), i in ``rows`` and j in ``cols``, then the products it is read from.

    The products, float32, exact and laid out (rows, cols), are each pair's
    pool size, i's wins and games against the pool, and j's: X[rows] @ A[:, cols]
    for X = A, W, G, as one product of the stacked rows, then A[rows] @ Wᵀ[:, cols]
    and A[rows] @ G[:, cols], which A and G being symmetric make j's. Wᵀ is
    read as G - W, which multiplies faster than a transposed matrix.
    """
    wins, games, adjacency = arrays
    near = adjacency[rows]
    stacked = np.concatenate([near, wins[rows], games[rows]]) @ adjacency[:, cols]
    theirs = near @ games[:, cols]
    products = (*stacked.reshape(3, -1, stacked.shape[1]), theirs - near @ wins[:, cols], theirs)
    stat, stat_t = _stat(products[1], products[2], config), _stat(products[3], products[4], config)
    floor = 1 if config.skip_singular_co else 0  # step II needs a pool larger than this
    by_pool = _sign(stat > stat_t, stat < stat_t) * (products[0] > floor)
    del stat, stat_t  # freed before the int8 key is formed
    series, met = 2 * wins[rows, cols], games[rows, cols]  # W > Wᵀ exactly where 2·W > W + Wᵀ = G
    return (3 * _sign(series > met, series < met) + by_pool, *products)


class _OnField:
    """Steps I and II's verdicts on every pair of one season under one ``ComparisonConfig``.

    ``key`` is the int8 N×N key 3·I + II, the row team's sign (``key[j, i] ==
    -key[i, j]``). ``decided`` holds the pairs i < j it decides, as flat
    indices i·N + j in row-major order; their float32 step II products (pool
    size, then i's and j's wins and games against the pool) as a (5, m) array;
    and an object array for their tails. ``arrays`` is the view's (W, G, A).
    """

    def __init__(self, teams: tuple[str, ...], arrays: tuple[np.ndarray, ...], config: ComparisonConfig, key, decided):
        self.teams, self.arrays, self.config, self.key = teams, arrays, config, key
        self.spec = ".3f" if config.co_mode == "percentage" else "+g"  # the step II statistic's format
        if decided is not None:  # else formed on first read
            self.decided = decided

    @classmethod
    def form(cls, teams: tuple[str, ...], arrays: tuple[np.ndarray, ...], config: ComparisonConfig) -> _OnField:
        """Every pair's verdict, a block of rows at a time against the columns from its first row on, mirrored below.

        A block is at least a sixteenth of the rows, tall enough for its
        products to run near the speed of whole ones, and a quarter of
        _BLOCK_PAIRS pairs, so a small season takes few blocks. Its products
        and statistics take about 40 bytes per pair.
        """
        n = len(teams)
        height = max(1, n // 16, _BLOCK_PAIRS // max(4 * n, 1))
        key = np.empty((n, n), dtype=np.int8)
        pairs, evidence = [], []
        for s in range(0, n, height):
            e = min(s + height, n)
            block, *products = _key_block(arrays, config, slice(s, e), slice(s, None))
            key[s:e, s:] = block
            key[s:, s:e] = -block.T
            r, c = block.nonzero()
            r, c = r[c > r], c[c > r]  # the decided pairs above the diagonal, row by row
            pairs.append((r + s) * n + (c + s))
            evidence.append([x.take(r * (n - s) + c) for x in products])
        pairs = np.concatenate(pairs)
        # The tails' array is made here, beside the other kept arrays: made at the first render, among the export's
        # blocks, it raised a 500-team league's peak RSS by 2.5 MB.
        return cls(teams, arrays, config, key, (pairs, np.concatenate(evidence, axis=1), np.empty(len(pairs), object)))

    def rekeyed(self, arrays: tuple[np.ndarray, ...], rows: np.ndarray) -> _OnField:
        """These verdicts for a season whose W differs from this one's only between ``rows``' two teams.

        Only their pool wins change, so only their rows and columns of the key,
        which are keyed again. ``decided`` is formed afresh if it is read.
        """
        key = self.key.copy()
        block = _key_block(arrays, self.config, rows, slice(None))[0]
        key[rows] = block
        key[:, rows] = -block.T
        return _OnField(self.teams, arrays, self.config, key, None)

    @cached_property
    def decided(self) -> tuple[np.ndarray, ...]:
        """(pairs, evidence, tails), which ``form`` sets; ``rekeyed`` verdicts form them on first read."""
        return _OnField.form(self.teams, self.arrays, self.config).decided

    @cached_property
    def wins_by_step(self) -> list[list[int]]:
        """Each team's (step I, step II) wins, in ``teams`` order."""
        counts = np.count_nonzero(self.key >= 2, axis=1), np.count_nonzero(self.key == 1, axis=1)
        return np.stack(counts, axis=1).tolist()

    @cached_property
    def tails(self) -> np.ndarray:
        """Each decided pair's outcomes.csv tail, in ``decided`` order, formatted on first read and kept.

        Formatted once per distinct key (``_per_key``): quoting and the
        winner's, then the loser's, doubled wins against the other (step I);
        quoting, then ``_pooled``'s evidence (step II).
        """
        (pairs, evidence, tails), n, wins = self.decided, len(self.teams), self.arrays[0]
        key = self.key.take(pairs)
        i, j = np.divmod(pairs, n)
        w = np.where(key > 0, i, j)  # the winner, and l the loser
        l, q = i + j - w, np.array([_quote(t) != t for t in self.teams], dtype=np.intp).take(w)
        at = (np.abs(key) >= 2).nonzero()[0]
        sides = w[at] * n + l[at], l[at] * n + w[at]
        tails[at] = _per_key([q[at], *(2 * wins.take(s) for s in sides)], _series)
        at = (np.abs(key) == 1).nonzero()[0]
        pool, mine, theirs, won = evidence[0, at], evidence[1:3, at], evidence[3:, at], key[at] > 0
        winner, loser = np.where(won, mine, theirs), np.where(won, theirs, mine)
        sides = [q[at], pool, 2 * winner[0], winner[1], 2 * loser[0], loser[1]]
        tails[at] = _per_key(sides, lambda e, *pooled: self._pooled(*pooled) + _ENDS[e])
        return tails

    def _pooled(self, pool: int, *sides: int) -> str:
        """Step II's evidence from the pool size and one team's, then the other's, twice wins and games against it."""
        # With w twice the wins, w / 2 / g and w - g are ``_stat``'s float64 wins / games and wins - (games - wins).
        numeric, spec = self.config.co_mode == "numeric", self.spec
        a, b = (w - g if numeric else w / 2 / g for w, g in zip(sides[::2], sides[1::2]))
        return f"{_pool_label(pool)} ({a:{spec}} vs {b:{spec}})"


def on_field(dataset: SeasonDataset, config: ComparisonConfig) -> _OnField:
    """The season's on-field verdicts under ``config``, formed once and kept in its view's ``on_field``.

    A flipped view's first verdicts are its ``flip`` parent's under ``config``
    ``rekeyed``, if the parent has them, else formed afresh. The link is then
    cleared, so a chain of flips keeps no ancestor alive.
    """
    view = dataset.schedule
    if config not in view.on_field:
        arrays = view.wins, view.pairings.games, view.pairings.adjacency
        kept = view.flip and view.flip[0].on_field.get(config)  # the parent's verdicts under config, if any
        formed = _OnField.form(dataset.teams, arrays, config) if kept is None else kept.rekeyed(arrays, view.flip[1])
        view.on_field[config], view.flip = formed, None
    return view.on_field[config]


def _decide(key: np.ndarray, ratings: np.ndarray, components: np.ndarray) -> tuple[np.ndarray, ...]:
    """(step, sign): each pair's deciding step as an index into STEPS, and its winner's sign.

    Blocks of at most _BLOCK_PAIRS pairs (or one row) of team rows blend step III's sign, from ``ratings`` and
    ``components`` (indexed like the teams), into the pairs ``key`` leaves silent inside one component; a pair step
    III leaves silent too is unresolved.
    """
    n = len(ratings)
    height = max(1, _BLOCK_PAIRS // max(n, 1))
    step, sign = np.empty((n, n), dtype=np.int8), np.empty((n, n), dtype=np.int8)
    for a in range(0, n, height):
        block = slice(a, min(a + height, n))
        verdict = key[block]
        silent = (verdict == 0).view(np.int8)
        gap = ratings[block, None] - ratings
        # step III's sign where it decides. Blended by arithmetic: np.where on int8 is several times slower here.
        rated = silent * (components[block, None] == components)
        rated *= _sign(gap > RATING_TOL, gap < -RATING_TOL)
        sign[block] = np.sign(verdict) + rated
        step[block] = UNRESOLVED * silent + (np.abs(verdict) == 1) - np.abs(rated)  # 0 (step I) 1 (step II) 2 or 3
    return step, sign


class Outcomes:
    """Every pair's PairwiseOutcome, (teams[i], teams[j]) for i < j row by row, rendered a block at a time."""

    def __init__(self, table: "PowerwiseTable"):
        self._table = table

    def __len__(self) -> int:
        n = len(self._table.teams)
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[PairwiseOutcome]:
        return _read(chain.from_iterable(map(io.StringIO, self._table.csv_blocks())))


@dataclass(frozen=True, eq=False)
class PowerwiseTable:
    """Full tournament result as per-pair arrays indexed like ``teams``.

    ``step[i, j]`` indexes STEPS with the step that decided teams i and j
    (symmetric; the diagonal reads unresolved). ``sign[i, j]`` is +1 when i won
    the pair, -1 when j won and 0 when it is unresolved (antisymmetric).
    ``index`` maps each team to its position in ``teams`` (the schedule view's
    mapping) and ``points`` holds each team's total. The outcomes.csv lines,
    which every outcome is read from, are rendered from steps I and II's
    verdicts (``on_field``), the ratings and the component labels, indexed
    like ``teams``.
    """

    season: int
    teams: tuple[str, ...]
    index: Mapping[str, int] = field(repr=False)
    points: Mapping[str, int]
    step: np.ndarray
    sign: np.ndarray
    on_field: _OnField = field(repr=False)
    ratings: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)

    def _index_of(self, team: str) -> int:
        try:
            return self.index[team]
        except KeyError:
            raise ValidationError(f"unknown team {team!r}") from None

    @property
    def outcomes(self) -> Outcomes:
        return Outcomes(self)

    @cached_property
    def strings(self) -> tuple[np.ndarray, ...]:
        """(lead, head, rated, quoted): the string tables of outcomes.csv lines, built on first render.

        Per team t: ``lead[t]`` is t as a leading field; ``head[step·N + t]``
        t's field as winner, the step and the evidence up to its numbers (for
        step III, up to the loser's rating); ``rated[q·N + t]`` step III's tail
        " vs {t's rating})" and the line end. The evidence holds ``,`` or ``"``
        only through the winner's name, so it is quoted exactly when that name
        is (q = ``quoted[w]``).
        """
        names = [_quote(t) for t in self.teams]
        quoted = [q != t for q, t in zip(names, self.teams)]
        opening = [q[:-1] if f else q for q, f in zip(names, quoted)]  # a quoted evidence's opening quote
        shown = [f"{r:.3f}" for r in self.ratings.tolist()]
        held = ([""] * len(names), [""] * len(names), shown)  # step III's head ends with the winner's rating
        head = [f"{q},{st},{o}{p}{r}" for st, p, x in zip(STEPS, _PHRASES, held) for q, o, r in zip(names, opening, x)]
        return (
            np.array([q + "," for q in names], dtype=object),
            np.array(head, dtype=object),
            np.array([f" vs {r}){end}" for end in _ENDS for r in shown], dtype=object),
            np.array(quoted, dtype=np.intp),
        )

    def render(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The pieces of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k], as an (m, 4) object array.

        Row k joined is the pair's line: ``lead[i]``, ``lead[j]``, a head and
        a tail. Step I and II tails are the on-field verdicts' own
        (``_OnField.tails``); only unresolved pairs, which are rare, are
        formatted one by one.
        """
        (lead, heads, rated, quoted), n = self.strings, len(self.teams)
        flat = i * n + j  # matrices are read through flat indices: ``take`` is several times faster than [i, j]
        code, won = self.step.take(flat).astype(np.intp), self.sign.take(flat) > 0
        w = np.where(won, i, j)  # the winner, and l the loser; (a, b) when unresolved
        l, q = i + j - w, quoted.take(w)
        head = heads.take(np.minimum(code, 2) * n + w)
        # Step III decides most pairs: give every pair its tail, then overwrite the pairs the other steps decide.
        tail = rated.take(q * n + l)
        at = (code < 2).nonzero()[0]
        if at.size:
            tail[at] = self.on_field.tails.take(self.on_field.decided[0].searchsorted(flat[at]))
        for k in (code == UNRESOLVED).nonzero()[0].tolist():
            head[k], tail[k] = f",{STEP_UNRESOLVED},{_quote(self._unresolved_evidence(int(i[k]), int(j[k])))}\n", ""
        return np.stack([lead.take(i), lead.take(j), head, tail], axis=1)

    def _unresolved_evidence(self, i: int, j: int) -> str:
        """Each step's even or silent verdict on teams i and j, its pool read from exact float32 dot products."""
        wins, games, adjacency = self.on_field.arrays
        pool, (wins_a, wins_b) = int(adjacency[i] @ adjacency[j]), wins[[i, j], [j, i]].tolist()
        if not pool:
            common = NO_COMMON_OPPONENTS
        elif pool == 1 and self.on_field.config.skip_singular_co:
            opponent = self.teams[np.flatnonzero(adjacency[i] * adjacency[j])[0]]
            common = f"single common opponent {opponent} skipped"
        else:
            sides = [int(row @ adjacency[y]) for x, y in ((i, j), (j, i)) for row in (2 * wins[x], games[x])]
            common = f"even against {self.on_field._pooled(pool, *sides)}"
        series = f"head-to-head even {wins_a:g}-{wins_b:g}" if wins_a + wins_b else NO_MEETINGS
        connected = self.components[i] == self.components[j]
        rating = f"identical ratings ({self.ratings[i]:.3f})" if connected else NO_SCHEDULE_PATH
        return f"{series}; {common}; {rating}"

    def _row_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(i, j) index arrays of every pair i < j, row by row, cut into blocks of whole team rows.

        A block holds at most _BLOCK_PAIRS pairs, or one row when that row alone
        holds more, so no reader holds every pair's pieces at once.
        """
        n, first = len(self.teams), 0
        while first < n - 1:
            stop, pairs = first + 1, n - 1 - first  # row r pairs team r with the n - 1 - r teams after it
            while stop < n - 1 and pairs + n - 1 - stop <= _BLOCK_PAIRS:
                pairs, stop = pairs + n - 1 - stop, stop + 1
            rows = np.arange(first, stop)
            counts = n - 1 - rows  # row r's last pair, j = n - 1, is the block's pair cumsum(counts)[r - first] - 1
            yield np.repeat(rows, counts), np.arange(pairs) - np.repeat(np.cumsum(counts) - n, counts)
            first = stop

    def _lines(self, i: np.ndarray, j: np.ndarray) -> str:
        """The outcomes.csv lines of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k]."""
        if not len(i):
            return ""  # before any string table is built
        # Joined once ``render``'s index arrays are freed, which lowers a block's peak memory.
        return "".join(self.render(i, j).ravel().tolist())

    def csv_blocks(self) -> Iterator[str]:
        """The lines of outcomes.csv after its header, in ``outcomes`` order, one string per block of team rows."""
        return (self._lines(i, j) for i, j in self._row_blocks())

    def _outcomes(self, i: np.ndarray, j: np.ndarray) -> list[PairwiseOutcome]:
        """The outcomes of pairs (teams[i[k]], teams[j[k]]), each i[k] < j[k], read from their lines."""
        return list(_read(io.StringIO(self._lines(i, j))))

    def outcome_for(self, team_a: str, team_b: str) -> PairwiseOutcome:
        i, j = self.index.get(team_a), self.index.get(team_b)
        if i is None or j is None or i == j:
            raise ValidationError(f"no outcome recorded for {team_a!r} vs {team_b!r}")
        return self._outcomes(np.array([min(i, j)]), np.array([max(i, j)]))[0]

    def unresolved(self) -> tuple[PairwiseOutcome, ...]:
        i, j = np.nonzero(self.step == UNRESOLVED)  # the diagonal, and each unresolved pair both ways
        return tuple(self._outcomes(i[i < j], j[i < j]))

    def step_wins(self, team: str) -> tuple[int, int, int]:
        """(head-to-head, common-opponent, rating) wins making up ``team``'s points."""
        series, pooled = self.on_field.wins_by_step[self._index_of(team)]
        return series, pooled, self.points[team] - series - pooled

    def step_decomposition(self, team: str) -> dict[str, int]:
        """How each of ``team``'s comparisons was decided, win or lose."""
        i = self._index_of(team)
        counts = np.bincount(np.delete(self.step[i], i), minlength=len(STEPS))
        return dict(zip(STEPS, counts.tolist()))


def run_tournament(
    dataset: SeasonDataset,
    ratings: PowerRatingTable,
    config: ComparisonConfig = ComparisonConfig(),
) -> PowerwiseTable:
    """Compare every pair of teams once, on the season's matrix view, and total the points.

    Steps I and II's verdicts are the season's under ``config``, formed on its
    first tournament and kept (``on_field``); each tournament decides step III.
    """
    verdicts, vector, pairings = on_field(dataset, config), ratings.vector, dataset.schedule.pairings
    labels = pairings.component_labels
    step, sign = _decide(verdicts.key, vector, labels)
    points = dict(zip(dataset.teams, np.count_nonzero(sign > 0, axis=1).tolist()))
    return PowerwiseTable(dataset.season, dataset.teams, pairings.index, points, step, sign, verdicts, vector, labels)


def decisiveness_report(table: PowerwiseTable) -> dict[str, float]:
    """Share of all pairs each step decided, as percentages summing to 100."""
    n = len(table.teams)
    total = n * (n - 1) // 2
    if total == 0:
        raise ValidationError("tournament has no pairs")
    # ``step`` is symmetric with an unresolved diagonal: count it whole, drop the diagonal, halve.
    counts = np.bincount(table.step.ravel(), minlength=len(STEPS))
    counts[UNRESOLVED] -= n
    return {step: 100.0 * count / total for step, count in zip(STEPS, (counts // 2).tolist())}
