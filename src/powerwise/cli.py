"""Command-line driver.

Subcommands: rank, rpi, pairwise, select, perturb, tau, regress. Every run
takes one path through ``main``: it loads the season from ``--games`` and, when
``--out`` (or the POWERWISE_OUT environment variable) names a directory, opens
the run's ``RunReport`` there. The subcommand returns its stdout text and, only
when there is a report, adds its artifacts (ratings/, pairwise/, experiments/)
and summary; ``main`` prints the text, then writes report.txt last, deleting
the artifacts a previous report.txt there listed and this run did not write. Outputs are
byte-deterministic unless ``--timestamps`` is given. Each data warning goes to
stderr as one ``warning: <message>`` line.

Exit codes: 0 success, 1 bad input or usage, 2 computation failure (for
example, under ``--strict``, a rating solve residual above 1e-9 goals).

``main`` is the in-process entry and leaves the process as it found it: the
garbage collector, the warning filters and the environment. The process entry,
``powerwise.__main__.run`` (``python -m powerwise`` and the ``powerwise``
script), pins each unset BLAS thread-count variable to 1, loads this module
with the collector paused, freezes what the load built, and then calls ``main``.

A subcommand imports the modules beyond ``rank``'s when it runs, so a run
loads (and, without cached bytecode, compiles) only what it calls. ``rank``
and ``pairwise`` load errors, ingest, power_rating, pairwise, tiebreak, report
and this module; ``rpi`` adds rpi, ``select`` selection, ``perturb``
experiments and rpi, and ``tau`` and ``regress`` experiments, rpi and
selection.
"""

from __future__ import annotations

import argparse
import datetime
import os
import pathlib
import sys
import warnings
from typing import TYPE_CHECKING

from .errors import ComputationError, DataWarning, PowerwiseError, ValidationError
from .ingest import (
    DEFAULT_SEASON_WINDOW,
    apply_aliases,
    build_season,
    find_game,
    load_alias_map,
    load_games,
)
from .pairwise import CO_MODES, ComparisonConfig, run_tournament
from .power_rating import ANCHORS, RATING_TOL, SolverConfig, solve_power_ratings
from .report import (
    RunReport,
    export_pairwise_csv,
    export_points_csv,
    export_ranking_csv,
    export_ratings_csv,
    export_rpi_csv,
    parse_ranking_csv,
    render_decisiveness_text,
    render_perturbation_text,
    render_ranking,
    render_regression_svg,
    render_regression_text,
)
from .tiebreak import rank_season

if TYPE_CHECKING:
    from .rpi import RpiConfig

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


def _parse_weights(value: str) -> tuple[float, float, float]:
    parts = value.split(",")
    try:
        weights = tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--rpi-weights must be three comma-separated numbers, got {value!r}") from None
    if len(weights) != 3:
        raise ValidationError(f"--rpi-weights needs exactly 3 values, got {len(weights)}")
    return weights


def _parse_window(value: str) -> tuple[int, int]:
    try:
        lo, hi = (int(p) for p in value.split(","))
    except ValueError:
        raise ValidationError(f"--window must be LO,HI rank bounds, got {value!r}") from None
    return lo, hi


def _parse_date(value: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(value)
    except ValueError:
        raise ValidationError(f"not an ISO date: {value!r}") from None


def _parse_pair(value: str) -> tuple[str, str]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ValidationError(f"expected TEAM_A,TEAM_B, got {value!r}")
    return parts[0], parts[1]


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
    rank.set_defaults(func=cmd_rank)

    rpi = sub.add_parser("rpi", parents=[io], help="RPI table")
    rpi.add_argument("--rpi-weights", default=None, metavar="WP,OWP,OOWP")
    rpi.set_defaults(func=cmd_rpi)

    pw = sub.add_parser("pairwise", parents=[io, solver, comparison], help="pairwise tournament")
    pw.set_defaults(func=cmd_pairwise)

    sel = sub.add_parser("select", parents=[io, solver, comparison], help="at-large selection")
    sel.add_argument("--aq", required=True, help="automatic qualifiers, one team per line")
    sel.add_argument("--bids", required=True, type=int, help="number of at-large bids")
    sel.add_argument("--official", help="published at-large field to diff against")
    sel.set_defaults(func=cmd_select)

    pert = sub.add_parser("perturb", parents=[io, solver, comparison], help="flip one game")
    pert.add_argument("--date", required=True, help="game date (ISO)")
    pert.add_argument("--teams", required=True, metavar="A,B", help="the two teams")
    pert.add_argument("--method", default="power", choices=("power", "rpi"))
    pert.add_argument("--top-k", type=int, default=15)
    pert.add_argument("--rpi-weights", default=None, metavar="WP,OWP,OOWP")
    pert.set_defaults(func=cmd_perturb)

    tau = sub.add_parser("tau", parents=[io, solver, comparison], help="rank agreement")
    tau.add_argument("--against", required=True, help="ranking CSV or ordered team list")
    tau.add_argument("--window", metavar="LO,HI", help="restrict to reference ranks LO..HI")
    tau.set_defaults(func=cmd_tau)

    reg = sub.add_parser("regress", parents=[io, solver, comparison], help="group strength gap")
    reg.add_argument("--group-a", required=True, help="team list file")
    reg.add_argument("--group-b", required=True, help="team list file")
    reg.add_argument("--strength", default="power", choices=("power", "rpi"))
    reg.add_argument("--rpi-weights", default=None, metavar="WP,OWP,OOWP")
    reg.set_defaults(func=cmd_regress)
    return parser


def load_dataset(args):
    games = load_games(args.games, season_window=None if args.no_season_window else DEFAULT_SEASON_WINDOW)
    if args.aliases:
        with open(args.aliases, encoding="utf-8") as fh:
            games = apply_aliases(games, load_alias_map(fh))
    if args.season is not None:
        games = games.take(games.season == args.season)
        season = args.season
    else:
        seasons = sorted(set(games.season.tolist()))
        if len(seasons) != 1:
            raise ValidationError(f"file holds seasons {seasons or 'none'}; pick one with --season")
        season = seasons[0]
    return build_season(games, season)


def solver_config(args) -> SolverConfig:
    cap = _parse_goal_cap(args.goal_cap) if args.goal_cap is not None else 7
    return SolverConfig(goal_cap=cap, hfa=_parse_hfa(args.hfa), anchor=args.anchor)


def comparison_config(args) -> ComparisonConfig:
    return ComparisonConfig(co_mode=args.co_mode, skip_singular_co=args.skip_singular_co)


def _rank(args, dataset):
    return rank_season(dataset, solver_config(args), comparison_config(args), strict=args.strict)


def rpi_config(args) -> RpiConfig:
    from .rpi import RpiConfig

    if args.rpi_weights is None:
        return RpiConfig()
    return RpiConfig(weights=_parse_weights(args.rpi_weights))


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


def cmd_rpi(args, dataset, report) -> str:
    from .rpi import compute_rpi

    text = export_rpi_csv(compute_rpi(dataset, rpi_config(args)))
    if report:
        report.add_artifact("ratings/rpi.csv", text)
        report.summary = [f"teams: {len(dataset.teams)}"]
    return text


def cmd_pairwise(args, dataset, report) -> str:
    ratings = solve_power_ratings(dataset, solver_config(args), strict=args.strict)
    table = run_tournament(dataset, ratings, comparison_config(args))
    text = render_decisiveness_text(table)
    if report:
        report.add_artifact("pairwise/outcomes.csv", export_pairwise_csv(table))
        report.add_artifact("pairwise/points.csv", export_points_csv(table))
        report.summary = text.splitlines()
    return text


def cmd_select(args, dataset, report) -> str:
    from .selection import diff_selections, load_team_list, select_at_large

    _, _, ranking = _rank(args, dataset)
    aq = load_team_list(args.aq)
    result = select_at_large(ranking, aq, args.bids)
    lines = [f"at-large ({len(result.at_large)}):"]
    lines += [f"  {t}" for t in result.at_large]
    if result.first_out is not None:
        lines.append(f"first out: {result.first_out}")
    if args.official:
        official = load_team_list(args.official)
        diff = diff_selections(result, official)
        lines.append(f"agreement with official field: {diff.agreement():.3f}")
        for t in diff.only_mine:
            lines.append(f"  only mine: {t} (rank {diff.my_ranks[t]})")
        for t in diff.only_official:
            rank = diff.my_ranks.get(t)
            where = f"rank {rank}" if rank is not None else "unranked"
            lines.append(f"  only official: {t} ({where})")
    text = "\n".join(lines) + "\n"
    if report:
        report.add_artifact("ranking.csv", export_ranking_csv(ranking))
        report.add_artifact("selection.txt", text)
        report.summary = [f"bids: {args.bids}", f"auto-qualifiers: {len(result.auto_qualifiers)}"]
    return text


def cmd_perturb(args, dataset, report) -> str:
    from .experiments import perturbation_experiment

    team_a, team_b = _parse_pair(args.teams)
    game = find_game(dataset, _parse_date(args.date), team_a, team_b)
    result = perturbation_experiment(
        dataset,
        game,
        args.method,
        solver_config=solver_config(args),
        rpi_config=rpi_config(args),
        comparison_config=comparison_config(args),
        top_k=args.top_k,
    )
    text = render_perturbation_text(result)
    if report:
        report.add_artifact("experiments/perturbation.txt", text)
        report.summary = [f"rank changes in top {args.top_k}: {result.n_changed}"]
    return text


def _load_reference_ranks(path: str) -> dict[str, int]:
    """Each team's rank in a ranking CSV, or its 1-based position in an ordered team list."""
    from .selection import read_team_list

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = [l.strip() for l in text.splitlines() if l.strip()]
    if any(l.startswith("# season=") for l in stripped) or (
        stripped and stripped[0].lower().startswith("rank,team")
    ):
        return parse_ranking_csv(text).ranks()
    return {t: i for i, t in enumerate(read_team_list(text), start=1)}


def cmd_tau(args, dataset, report) -> str:
    from .experiments import kendall_tau

    _, _, ranking = _rank(args, dataset)
    reference = _load_reference_ranks(args.against)
    mine = ranking.ranks()
    unknown = sorted(set(reference) - set(mine))
    if unknown:
        raise ValidationError(f"reference ranking has unknown team(s): {', '.join(unknown[:5])}")
    # The reference may cover only a published subset (say, a top 20); compare
    # our ranks of exactly those teams.
    mine = {t: mine[t] for t in reference}
    window = _parse_window(args.window) if args.window else None
    tau = kendall_tau(reference, mine, window=window)
    label = f"ranks {window[0]}..{window[1]}" if window else "all teams"
    text = f"kendall tau-b ({label}): {tau:.4f}\n"
    if report:
        report.add_artifact("experiments/tau.txt", text)
        report.summary = [text.strip()]
    return text


def cmd_regress(args, dataset, report) -> str:
    from .experiments import strength_regression
    from .rpi import compute_rpi
    from .selection import load_team_list

    group_a = load_team_list(args.group_a)
    group_b = load_team_list(args.group_b)
    if args.strength == "power":
        strengths = solve_power_ratings(dataset, solver_config(args), strict=args.strict).ratings
    else:
        strengths = compute_rpi(dataset, rpi_config(args)).rpi
    # An explicit cap restricts the regressed margins too; by default only the
    # rating solve caps and the regression sees raw margins.
    margin_cap = _parse_goal_cap(args.goal_cap) if args.goal_cap is not None else None
    result = strength_regression(dataset, strengths, group_a, group_b, goal_cap=margin_cap)
    text = render_regression_text(result)
    if report:
        report.add_artifact("experiments/regression.txt", text)
        report.add_artifact("experiments/regression.svg", render_regression_svg(result))
        report.summary = [
            f"offset: {result.group_offset:+.3f}",
            f"p-value: {result.p_value:.3g}",
        ]
    return text


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
        try:
            dataset = load_dataset(args)
            out = args.out or os.environ.get(OUT_ENV)
            report = None
            if out:
                stamp = datetime.datetime.now().isoformat(timespec="seconds") if args.timestamps else None
                report = RunReport(pathlib.Path(out), dataset.season, args.command, timestamp=stamp)
            sys.stdout.write(args.func(args, dataset, report))
            if report:
                report.write()
        except ComputationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (PowerwiseError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0
