"""The commands other than ``rank``: rpi, pairwise, select, perturb, tau and regress.

``cli.main`` imports this module only when one of them runs, so a ``rank``
run neither loads nor compiles it. Each ``cmd_*`` takes the parsed arguments,
the loaded season and the run's ``RunReport`` (or None) and returns its
stdout text; when there is a report it adds its artifacts and summary, as
``cli.cmd_rank`` does. A handler imports the modules beyond ``rank``'s when it
runs: ``rpi`` loads rpi, ``select`` selection, ``perturb`` experiments and
rpi, ``tau`` experiments, rpi and selection, and ``regress`` those three and
svg. The renderers of these commands' results are here too (``export_rpi_csv``
and the texts), and so is ``parse_ranking_csv``, which reads ``tau
--against``'s ranking CSV.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
import re
from typing import TYPE_CHECKING

from .cli import _parse_goal_cap, _rank, comparison_config, solver_config
from .errors import ParseError, ValidationError
from .ingest import _int_field, _quote, iso_date, open_text
from .pairwise import PowerwiseTable, decisiveness_report, run_tournament
from .power_rating import solve_power_ratings
from .report import export_pairwise_csv, export_points_csv, export_ranking_csv
from .tiebreak import RankingEntry, RankingList

if TYPE_CHECKING:
    from .experiments import PerturbationReport, RegressionReport
    from .rpi import RpiConfig, RpiTable

# A number as ``repr`` writes a finite float (or an int), in ASCII: float() also takes 1_0, ٣, inf and nan.
_NUMBER = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")


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
        return iso_date(value)  # the game log's rule, the same on every Python
    except ValueError:
        raise ValidationError(f"not an ISO date: {value!r}") from None


def _parse_pair(value: str) -> tuple[str, str]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ValidationError(f"expected TEAM_A,TEAM_B, got {value!r}")
    return parts[0], parts[1]


def rpi_config(args) -> RpiConfig:
    from .rpi import RpiConfig

    if args.rpi_weights is None:
        return RpiConfig()
    return RpiConfig(weights=_parse_weights(args.rpi_weights))


def _number_field(value: str, lineno: int, field: str) -> float:
    """``value``, stripped, as a float if it is a finite ``_NUMBER``, else ParseError."""
    text = value.strip()
    if _NUMBER.fullmatch(text) and math.isfinite(float(text)):
        return float(text)
    raise ParseError(f"not a number: {value!r}", line=lineno, field=field)


def _parse_audit(text: str, lineno: int):
    if not text:
        return ()
    pairs = []
    for chunk in text.split(";"):
        name, sep, value = chunk.partition("=")
        if not sep or not name:
            raise ParseError(f"malformed audit entry {chunk!r}", line=lineno, field="audit")
        pairs.append((name, _number_field(value, lineno, "audit")))
    return tuple(pairs)


def parse_ranking_csv(text: str) -> RankingList:
    """The ranking that ``report.export_ranking_csv`` wrote as ``text``, exactly; ParseError at a bad line."""
    season = None
    entries = []
    saw_header = False
    # Lines end only at LF, CRLF or CR: str.splitlines would also split a team
    # name at a separator such as U+2028.
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("season="):
                season = _int_field(body.removeprefix("season="), lineno, "season")
            continue
        row = next(csv.reader([line]))
        if not saw_header:
            if [c.strip().lower() for c in row] != ["rank", "team", "points", "tie_group", "audit"]:
                raise ParseError("missing or malformed ranking header", line=lineno)
            saw_header = True
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", line=lineno)
        entries.append(
            RankingEntry(
                rank=_int_field(row[0], lineno, "rank"),
                team=row[1],
                points=_number_field(row[2], lineno, "points"),
                tie_group=_int_field(row[3], lineno, "tie_group") if row[3] else None,
                audit=_parse_audit(row[4], lineno),
            )
        )
    if not saw_header:
        raise ParseError("missing or malformed ranking header")
    if season is None:
        raise ParseError("missing '# season=' comment")
    return RankingList(season=season, entries=tuple(entries))


def export_rpi_csv(table: RpiTable) -> str:
    """rpi.csv: each team's RPI, its three components and its rank, by team."""
    rpi, wp, owp, oowp, ranks = table.rpi, table.wp, table.owp, table.oowp, table.ranks()
    rows = (f"{_quote(t)},{rpi[t]:.6f},{wp[t]:.6f},{owp[t]:.6f},{oowp[t]:.6f},{ranks[t]}\n" for t in sorted(rpi))
    return "".join(["team,rpi,wp,owp,oowp,rank\n", *rows])


def render_decisiveness_text(table: PowerwiseTable) -> str:
    shares = decisiveness_report(table)
    lines = [f"pairs compared: {len(table.outcomes)}"]
    for step, pct in shares.items():
        lines.append(f"{step:>16}: {pct:5.1f}%")
    return "\n".join(lines) + "\n"


def render_perturbation_text(report: PerturbationReport) -> str:
    g = report.flipped_game
    lines = [
        f"method: {report.method}",
        f"flipped: {g.date.isoformat()} {g.home_team} {g.home_score}-{g.away_score} {g.away_team}",
        f"teams in top {report.top_k} changing rank: {report.n_changed}",
    ]
    for team, old, new in report.rank_changes:
        arrow = "up" if new < old else "down"
        lines.append(f"  {team}: {old} -> {new} ({arrow})")
    return "\n".join(lines) + "\n"


def render_regression_text(report: RegressionReport) -> str:
    from .svg import fixed  # the charts' number format: a slope that rounds to zero prints without a minus

    lines = [
        f"group A ({len(report.group_a)} teams): "
        f"margin = {fixed(report.fit_a.intercept, 3, '+')} {fixed(report.fit_a.slope, 3, '+')} * strength "
        f"[n={report.fit_a.n}]",
        f"group B ({len(report.group_b)} teams): "
        f"margin = {fixed(report.fit_b.intercept, 3, '+')} {fixed(report.fit_b.slope, 3, '+')} * strength "
        f"[n={report.fit_b.n}]",
        f"offset (A - B) at strength {fixed(report.midpoint, 3)}: {fixed(report.group_offset, 3, '+')} goals",
        f"p-value (common-slope offset test): {report.p_value:.3g}",
    ]
    return "\n".join(lines) + "\n"


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
    from .experiments import find_game, perturbation_experiment

    team_a, team_b = _parse_pair(args.teams)
    game = find_game(dataset, _parse_date(args.date), team_a, team_b, args.game_index)
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

    with open_text(path) as fh:  # parsed inside, so a fault on a line before an undecodable byte comes first
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
    from .svg import render_regression_svg

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
