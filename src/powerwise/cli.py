"""Command-line driver.

Subcommands: rank, rpi, pairwise, select, perturb, tau, regress. Every run
takes one path through ``main``: it loads the season from ``--games`` and, when
``--out`` (or the POWERWISE_OUT environment variable) names a directory, opens
the run's ``RunReport`` there. The subcommand returns its stdout text and, only
when there is a report, adds its artifacts (ratings/, pairwise/, experiments/),
each under a temporary name, and summary; ``main`` prints the text, then
renames the artifacts into place and writes report.txt last, deleting the
artifacts a previous report.txt there listed and this run did not write. A run
that fails removes its temporaries, so every file there stays as the previous
run left it. Every text input is read through ``ingest.open_text``. Outputs are
byte-deterministic unless ``--timestamps`` is given. Each data warning goes to
stderr as one ``warning: <message>`` line.

Exit codes: 0 success, 1 bad input or usage, 2 computation failure (for
example, under ``--strict``, a rating solve residual above 1e-9 goals).

``main`` is the in-process entry and leaves the process as it found it: the
garbage collector, the warning filters and the environment. The process entry,
``powerwise.__main__.run`` (``python -m powerwise`` and the ``powerwise``
script), pins each unset BLAS thread-count variable to 1, loads this module
with the collector paused, freezes what the load built, and then calls ``main``.

This module holds ``rank``'s own code: the parser, the season's loading, the
run path and ``cmd_rank``. The other commands' handlers are in ``commands``,
which ``main`` imports only when one of them runs, and each imports the
modules beyond ``rank``'s when it runs, so a run loads (and, without cached
bytecode, compiles) only what it calls. ``rank`` loads errors, ingest,
power_rating, pairwise, tiebreak, report and this module; ``--format svg``
adds svg and ``--aliases`` records. ``pairwise`` adds commands; ``rpi`` adds
commands and rpi, ``select`` commands and selection, ``perturb`` commands,
experiments and rpi, ``tau`` commands, experiments, rpi and selection, and
``regress`` those four and svg.
"""

from __future__ import annotations

import argparse
import datetime
import os
import pathlib
import sys
import warnings

from .errors import ComputationError, DataWarning, PowerwiseError, ValidationError
from .ingest import DEFAULT_SEASON_WINDOW, build_season, load_games, open_text
from .pairwise import CO_MODES, ComparisonConfig
from .power_rating import ANCHORS, RATING_TOL, SolverConfig
from .report import (
    RunReport,
    export_pairwise_csv,
    export_points_csv,
    export_ranking_csv,
    export_ratings_csv,
    render_ranking,
)
from .tiebreak import rank_season

OUT_ENV = "POWERWISE_OUT"


class UsageError(Exception):
    """Raised instead of argparse's SystemExit so bad flags exit with code 1."""


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_goal_cap(value: str) -> int | None:
    if value.lower() == "none":
        return None
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"--goal-cap must be an integer or 'none', got {value!r}") from None


def _parse_hfa(value: str):
    if value == "estimate":
        return "estimate"
    try:
        return float(value)
    except ValueError:
        raise ValidationError(f"--hfa must be a number or 'estimate', got {value!r}") from None


def _io_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--games", required=True, help="game-log CSV")
    p.add_argument("--aliases", help="alias,canonical CSV to normalize team names")
    p.add_argument("--season", type=int, help="season to load (default: the file's only season)")
    p.add_argument("--out", help=f"artifact directory (default: ${OUT_ENV} if set)")
    p.add_argument("--strict", action="store_true", help="exit 2 if the rating solve residual exceeds 1e-9 goals")
    p.add_argument("--timestamps", action="store_true", help="include wall-clock time in report.txt")
    p.add_argument(
        "--no-season-window", action="store_true", help="accept game dates outside the usual January-May window"
    )
    return p


def _solver_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--goal-cap", metavar="N|none", help="margin cap in goals (default 7)")
    p.add_argument("--hfa", default="estimate", metavar="V|estimate", help="home advantage in goals")
    p.add_argument("--anchor", default="mean-zero", choices=ANCHORS, help="rating anchor policy")
    return p


def _comparison_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--co-mode", default="percentage", choices=CO_MODES, help="common-opponent statistic")
    p.add_argument("--skip-singular-co", action="store_true", help="treat a single common opponent as inconclusive")
    return p


def build_parser() -> CliParser:
    parser = CliParser(prog="powerwise", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)
    io, solver, comparison = _io_parent(), _solver_parent(), _comparison_parent()

    rank = sub.add_parser("rank", parents=[io, solver, comparison], help="full ranking pipeline")
    rank.add_argument("--format", default="text", choices=("text", "csv", "svg"))

    rpi = sub.add_parser("rpi", parents=[io], help="RPI table")
    rpi.add_argument("--rpi-weights", default=None, metavar="WP,OWP,OOWP")

    sub.add_parser("pairwise", parents=[io, solver, comparison], help="pairwise tournament")

    sel = sub.add_parser("select", parents=[io, solver, comparison], help="at-large selection")
    sel.add_argument("--aq", required=True, help="automatic qualifiers, one team per line")
    sel.add_argument("--bids", required=True, type=int, help="number of at-large bids")
    sel.add_argument("--official", help="published at-large field to diff against")

    pert = sub.add_parser("perturb", parents=[io, solver, comparison], help="flip one game")
    pert.add_argument("--date", required=True, help="game date (ISO)")
    pert.add_argument("--teams", required=True, metavar="A,B", help="the two teams")
    pert.add_argument("--game-index", type=int, metavar="K", help="the game's game_index (two games that day)")
    pert.add_argument("--method", default="power", choices=("power", "rpi"))
    pert.add_argument("--top-k", type=int, default=15)
    pert.add_argument("--rpi-weights", default=None, metavar="WP,OWP,OOWP")

    tau = sub.add_parser("tau", parents=[io, solver, comparison], help="rank agreement")
    tau.add_argument("--against", required=True, help="ranking CSV or ordered team list")
    tau.add_argument("--window", metavar="LO,HI", help="restrict to reference ranks LO..HI")

    reg = sub.add_parser("regress", parents=[io, solver, comparison], help="group strength gap")
    reg.add_argument("--group-a", required=True, help="team list file")
    reg.add_argument("--group-b", required=True, help="team list file")
    reg.add_argument("--strength", default="power", choices=("power", "rpi"))
    reg.add_argument("--rpi-weights", default=None, metavar="WP,OWP,OOWP")
    return parser


def load_dataset(args):
    games = load_games(args.games, season_window=None if args.no_season_window else DEFAULT_SEASON_WINDOW)
    if args.aliases:
        from .records import apply_aliases, load_alias_map

        with open_text(args.aliases) as fh:
            games = apply_aliases(games, load_alias_map(fh))
    seasons = sorted(set(games.season.tolist()))
    if not seasons:
        raise ValidationError("file holds no games")
    if args.season is None:
        if len(seasons) != 1:
            raise ValidationError(f"file holds seasons {seasons}; pick one with --season")
        return build_season(games, seasons[0])
    if args.season not in seasons:
        raise ValidationError(f"file holds no games of season {args.season}; it holds seasons {seasons}")
    return build_season(games.take(games.season == args.season), args.season)


def solver_config(args) -> SolverConfig:
    cap = _parse_goal_cap(args.goal_cap) if args.goal_cap is not None else 7
    return SolverConfig(goal_cap=cap, hfa=_parse_hfa(args.hfa), anchor=args.anchor)


def comparison_config(args) -> ComparisonConfig:
    return ComparisonConfig(co_mode=args.co_mode, skip_singular_co=args.skip_singular_co)


def _rank(args, dataset):
    return rank_season(dataset, solver_config(args), comparison_config(args), strict=args.strict)


def cmd_rank(args, dataset, report) -> str:
    ratings, table, ranking = _rank(args, dataset)
    text = render_ranking(ranking, args.format)
    if report:
        report.add_artifact("ratings/ratings.csv", export_ratings_csv(ratings, dataset))
        report.add_artifact("pairwise/outcomes.csv", export_pairwise_csv(table))
        report.add_artifact("pairwise/points.csv", export_points_csv(table))
        report.add_artifact("ranking.csv", export_ranking_csv(ranking))
        if args.format == "svg":
            report.add_artifact("ranking.svg", text)
        report.summary = [
            f"teams: {len(dataset.teams)}",
            f"games: {len(dataset.log)}",
            f"hfa: {ratings.hfa_used:.6f}",
            f"solve residual: {'<=' if ratings.converged else '>'} {RATING_TOL:g} goals",
            f"unresolved pairs: {len(table.outcomes) - sum(table.points.values())}",  # a decided pair gives one point
        ]
    return text


def _handler(command: str):
    """``command``'s handler: ``cmd_rank``, or another command's from ``commands``, which only then loads."""
    if command == "rank":
        return cmd_rank
    from . import commands

    return getattr(commands, f"cmd_{command}")


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code in (0, None) else 1
    with warnings.catch_warnings():
        warnings.simplefilter("always", DataWarning)
        warnings.showwarning = _print_warning
        report = None
        try:
            dataset = load_dataset(args)
            out = args.out or os.environ.get(OUT_ENV)
            if out:
                stamp = datetime.datetime.now().isoformat(timespec="seconds") if args.timestamps else None
                report = RunReport(pathlib.Path(out), dataset.season, args.command, timestamp=stamp)
            sys.stdout.write(_handler(args.command)(args, dataset, report))
            if report:
                report.write()
                report = None  # written: nothing to discard
        except ComputationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (PowerwiseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            if report:
                report.discard()
    return 0
