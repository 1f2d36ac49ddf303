"""Deterministic rendering: CSV exports, text tables, SVG charts, run reports.

Every renderer is a pure function of its inputs; identical inputs produce
identical bytes. Wall-clock timestamps only appear when explicitly requested.

CSV files are written as ``csv.writer(lineterminator="\\n")`` writes them.
outcomes.csv, one line per pair of teams, has the same bytes but is built
without csv.writer: its lines are the one rendered form of a pair's outcome,
each four pieces gathered from string tables (``PowerwiseTable.csv_blocks``,
one string per block of team rows), which the export joins and the table's
readers parse back. A field (team name or evidence) is quoted only when it
holds ``,``, ``"`` or LF, with each ``"`` doubled. Team names hold no control
characters (ingest rejects them), so no field holds a CR.
"""

from __future__ import annotations

import csv
import io
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ParseError, ValidationError
from .ingest import SeasonDataset
from .pairwise import PowerwiseTable, decisiveness_report
from .power_rating import PowerRatingTable
from .tiebreak import RankingEntry, RankingList

if TYPE_CHECKING:  # the experiment and RPI renderers' inputs; rank and pairwise load neither module
    from .experiments import PerturbationReport, RegressionReport
    from .rpi import RpiTable

RANKING_FORMATS = ("text", "csv", "svg")


def _csv_writer():
    out = io.StringIO()
    return out, csv.writer(out, lineterminator="\n")


def export_ratings_csv(table: PowerRatingTable, dataset: SeasonDataset) -> str:
    out, writer = _csv_writer()
    writer.writerow(["team", "rating", "component", "games_played"])
    view, component = dataset.schedule, dataset.component_labels
    played = view.games.sum(axis=1)
    for team in sorted(table.ratings):
        i = view.index[team]
        writer.writerow([team, f"{table.ratings[team]:.6f}", int(component[i]), int(played[i])])
    return out.getvalue()


def export_rpi_csv(table: RpiTable) -> str:
    out, writer = _csv_writer()
    writer.writerow(["team", "rpi", "wp", "owp", "oowp", "rank"])
    ranks = table.ranks()
    for team in sorted(table.rpi):
        writer.writerow(
            [
                team,
                f"{table.rpi[team]:.6f}",
                f"{table.wp[team]:.6f}",
                f"{table.owp[team]:.6f}",
                f"{table.oowp[team]:.6f}",
                ranks[team],
            ]
        )
    return out.getvalue()


def export_pairwise_csv(table: PowerwiseTable) -> str:
    """outcomes.csv: the header, then one line per pair in ``table.outcomes`` order.

    The lines come joined one block of team rows at a time
    (``PowerwiseTable.csv_blocks``), so the export never holds every pair's
    pieces at once. An unresolved pair's winner is empty.
    """
    return "".join(["team_a,team_b,winner,deciding_step,evidence\n", *table.csv_blocks()])


def export_points_csv(table: PowerwiseTable) -> str:
    out, writer = _csv_writer()
    writer.writerow(["team", "points", "h2h_wins", "co_wins", "pr_wins"])
    for team in sorted(table.points):
        h2h, co, pr = table.step_wins(team)
        writer.writerow([team, table.points[team], h2h, co, pr])
    return out.getvalue()


def _audit_str(audit) -> str:
    return ";".join(f"{name}={value!r}" for name, value in audit)


def _parse_audit(text: str, lineno: int):
    if not text:
        return ()
    pairs = []
    for chunk in text.split(";"):
        name, sep, value = chunk.partition("=")
        if not sep or not name:
            raise ParseError(f"malformed audit entry {chunk!r}", line=lineno, field="audit")
        try:
            pairs.append((name, float(value)))
        except ValueError:
            raise ParseError(f"bad audit value {value!r}", line=lineno, field="audit") from None
    return tuple(pairs)


def export_ranking_csv(ranking: RankingList) -> str:
    """Ranking CSV with a season comment; parse_ranking_csv inverts it exactly."""
    out = io.StringIO()
    out.write(f"# season={ranking.season}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "team", "points", "tie_group", "audit"])
    for e in ranking.entries:
        writer.writerow(
            [e.rank, e.team, repr(e.points), "" if e.tie_group is None else e.tie_group, _audit_str(e.audit)]
        )
    return out.getvalue()


def parse_ranking_csv(text: str) -> RankingList:
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
                try:
                    season = int(body.removeprefix("season="))
                except ValueError:
                    raise ParseError(f"bad season comment {body!r}", line=lineno) from None
            continue
        row = next(csv.reader([line]))
        if not saw_header:
            if [c.strip().lower() for c in row] != ["rank", "team", "points", "tie_group", "audit"]:
                raise ParseError("missing or malformed ranking header", line=lineno)
            saw_header = True
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", line=lineno)
        try:
            rank = int(row[0])
            points = float(row[2])
        except ValueError:
            raise ParseError("bad rank or points", line=lineno) from None
        tie_group = int(row[3]) if row[3] else None
        entries.append(
            RankingEntry(
                rank=rank,
                team=row[1],
                points=points,
                tie_group=tie_group,
                audit=_parse_audit(row[4], lineno),
            )
        )
    if not saw_header:
        raise ParseError("missing or malformed ranking header")
    if season is None:
        raise ParseError("missing '# season=' comment")
    return RankingList(season=season, entries=tuple(entries))


def _fmt_points(p: float) -> str:
    return f"{p:g}"


def render_ranking_text(ranking: RankingList) -> str:
    rows = [
        (
            str(e.rank),
            e.team,
            _fmt_points(e.points),
            "" if e.tie_group is None else f"T{e.tie_group}",
            _audit_str(e.audit),
        )
        for e in ranking.entries
    ]
    header = ("rank", "team", "points", "tie", "audit")
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    lines = [f"season {ranking.season}"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
    for r in rows:
        lines.append(
            "  ".join(
                r[i].rjust(widths[i]) if i in (0, 2) else r[i].ljust(widths[i])
                for i in range(len(header))
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def _fixed(x: float, digits: int, sign: str = "") -> str:
    """``x`` to ``digits`` decimals, ``sign`` a format sign flag; a value that rounds to zero prints without a minus.

    Rounded first and then added to 0.0, which turns -0.0 into 0.0: a fit's slope of about ±1e-16, whose sign
    depends on the BLAS kernel that summed it, reads the same either way.
    """
    return f"{round(x, digits) + 0.0:{sign}.{digits}f}"


class SvgCanvas:
    """Tiny append-only SVG document builder with fixed numeric formatting."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.elements: list[str] = []

    @staticmethod
    def _n(x: float) -> str:
        return _fixed(x, 2).rstrip("0").rstrip(".")

    def rect(self, x, y, w, h, fill):
        self.elements.append(
            f'<rect x="{self._n(x)}" y="{self._n(y)}" width="{self._n(w)}" height="{self._n(h)}" fill="{fill}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke, width=1.0):
        self.elements.append(
            f'<line x1="{self._n(x1)}" y1="{self._n(y1)}" x2="{self._n(x2)}" '
            f'y2="{self._n(y2)}" stroke="{stroke}" stroke-width="{self._n(width)}"/>'
        )

    def circle(self, cx, cy, r, fill):
        self.elements.append(
            f'<circle cx="{self._n(cx)}" cy="{self._n(cy)}" r="{self._n(r)}" fill="{fill}"/>'
        )

    def polygon(self, points, fill, opacity=1.0):
        coords = " ".join(f"{self._n(x)},{self._n(y)}" for x, y in points)
        self.elements.append(f'<polygon points="{coords}" fill="{fill}" opacity="{self._n(opacity)}"/>')

    def text(self, x, y, content, size=12, anchor="start"):
        safe = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.elements.append(
            f'<text x="{self._n(x)}" y="{self._n(y)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}" fill="#000">{safe}</text>'
        )

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        return "\n".join([head, *self.elements, "</svg>"]) + "\n"


def render_ranking_svg(ranking: RankingList) -> str:
    """Horizontal bar chart of points, best team on top."""
    row_h = 22
    left = 150
    width = 640
    height = 40 + row_h * len(ranking.entries)
    canvas = SvgCanvas(width, height)
    canvas.text(10, 24, f"season {ranking.season} pairwise points", size=14)
    max_points = max((e.points for e in ranking.entries), default=1.0) or 1.0
    scale = (width - left - 60) / max_points
    for i, e in enumerate(ranking.entries):
        y = 36 + i * row_h
        canvas.text(left - 8, y + 14, f"{e.rank:>3} {e.team}"[:24], anchor="end")
        canvas.rect(left, y + 3, e.points * scale, row_h - 8, fill="#4477aa")
        canvas.text(left + e.points * scale + 6, y + 14, _fmt_points(e.points))
    return canvas.render()


def render_ranking(ranking: RankingList, format: str = "text") -> str:
    if format == "text":
        return render_ranking_text(ranking)
    if format == "csv":
        return export_ranking_csv(ranking)
    if format == "svg":
        return render_ranking_svg(ranking)
    raise ValidationError(f"unknown ranking format {format!r}, expected one of {RANKING_FORMATS}")


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


def render_regression_svg(report: RegressionReport) -> str:
    """Scatter of both groups with fitted lines and 95% mean-response bands."""
    width, height, pad = 640, 420, 50
    xs = [x for x, _ in report.samples_a + report.samples_b]
    ys = [y for _, y in report.samples_a + report.samples_b]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys) - 1, max(ys) + 1
    for fit in (report.fit_a, report.fit_b):
        for x in fit.x_range:
            y = fit.predict(x)
            half = fit.band_halfwidth(x)
            y_lo = min(y_lo, y - half)
            y_hi = max(y_hi, y + half)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    canvas = SvgCanvas(width, height)
    canvas.line(pad, height - pad, width - pad, height - pad, stroke="#000")
    canvas.line(pad, pad, pad, height - pad, stroke="#000")
    canvas.text(width // 2, height - 12, "opponent strength", anchor="middle")
    canvas.text(12, pad - 10, "goal margin")
    if y_lo < 0 < y_hi:
        canvas.line(pad, sy(0), width - pad, sy(0), stroke="#bbb")

    steps = 24
    for fit, color in ((report.fit_a, "#4477aa"), (report.fit_b, "#cc6677")):
        lo, hi = fit.x_range
        grid = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
        upper = [(sx(x), sy(fit.predict(x) + fit.band_halfwidth(x))) for x in grid]
        lower = [(sx(x), sy(fit.predict(x) - fit.band_halfwidth(x))) for x in reversed(grid)]
        canvas.polygon(upper + lower, fill=color, opacity=0.15)
        canvas.line(sx(lo), sy(fit.predict(lo)), sx(hi), sy(fit.predict(hi)), stroke=color, width=2)
    for samples, color in ((report.samples_a, "#4477aa"), (report.samples_b, "#cc6677")):
        for x, y in samples:
            canvas.circle(sx(x), sy(y), 3, fill=color)
    canvas.text(
        width - pad,
        pad - 10,
        f"offset {_fixed(report.group_offset, 2, '+')} at {_fixed(report.midpoint, 2)} (p={report.p_value:.3g})",
        anchor="end",
    )
    return canvas.render()


def render_regression_text(report: RegressionReport) -> str:
    lines = [
        f"group A ({len(report.group_a)} teams): "
        f"margin = {_fixed(report.fit_a.intercept, 3, '+')} {_fixed(report.fit_a.slope, 3, '+')} * strength "
        f"[n={report.fit_a.n}]",
        f"group B ({len(report.group_b)} teams): "
        f"margin = {_fixed(report.fit_b.intercept, 3, '+')} {_fixed(report.fit_b.slope, 3, '+')} * strength "
        f"[n={report.fit_b.n}]",
        f"offset (A - B) at strength {_fixed(report.midpoint, 3)}: {_fixed(report.group_offset, 3, '+')} goals",
        f"p-value (common-slope offset test): {report.p_value:.3g}",
    ]
    return "\n".join(lines) + "\n"


@dataclass
class RunReport:
    """A run's artifacts under ``root``, summarized in report.txt once they are all on disk.

    ``add_artifact`` writes each file under a temporary name beside it
    (``.NAME.tmp``), and ``write`` renames them all into place. It then
    replaces the previous run's report: every file that an existing report.txt
    lists under ``artifacts:`` and this run did not write is deleted, and so is
    each directory that this leaves empty. An entry is deleted only if it is a
    relative path with no ``..`` part that resolves inside ``root`` to a
    regular file (not a symlink); nothing else is touched. ``discard``, which
    the CLI calls when a run fails before ``write``, removes the run's
    temporaries and the directories it made, so the previous report and its
    artifacts stay as they were.
    """

    root: pathlib.Path
    season: int
    command: str
    summary: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    timestamp: str | None = None
    _made: list[pathlib.Path] = field(default_factory=list, init=False, repr=False)  # directories this run created

    def _temporary(self, relative: str) -> pathlib.Path:
        path = self.root / relative
        return path.with_name(f".{path.name}.tmp")

    def add_artifact(self, relative: str, content: str) -> None:
        """Write one output file under its temporary name in its directory under ``root``, and record it."""
        path = self._temporary(relative)
        self._made += [d for d in (path.parent, *path.parent.parents) if not d.exists()]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
        self.artifacts.append(relative)

    def discard(self) -> None:
        """Remove what a failed run wrote: each artifact's temporary, then each directory it made, if empty."""
        for relative in self.artifacts:
            self._temporary(relative).unlink(missing_ok=True)
        for directory in sorted(self._made, key=lambda d: len(d.parts), reverse=True):
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()

    def render(self) -> str:
        lines = [f"command: {self.command}", f"season: {self.season}"]
        if self.timestamp is not None:
            lines.append(f"generated: {self.timestamp}")
        lines.extend(self.summary)
        lines.append("artifacts:")
        lines.extend(f"  {a}" for a in self.artifacts)
        return "\n".join(lines) + "\n"

    def write(self) -> pathlib.Path:
        """Verify every artifact, rename each into place, clear the previous run's other artifacts, write report.txt."""
        missing = [a for a in self.artifacts if not self._temporary(a).is_file()]
        if missing:
            raise ValidationError(f"artifacts missing before report: {', '.join(missing)}")
        blocked = [a for a in self.artifacts if (self.root / a).is_dir()]
        if blocked:
            raise ValidationError(f"artifact paths are directories: {', '.join(blocked)}")
        for relative in self.artifacts:
            self._temporary(relative).replace(self.root / relative)
        path = self.root / "report.txt"
        if path.is_file():
            self._clear_previous(path.read_text(encoding="utf-8", errors="replace").splitlines())
        path.write_text(self.render(), encoding="utf-8")
        return path

    def _clear_previous(self, lines: list[str]) -> None:
        """Delete what a previous report.txt's ``lines`` list and this run did not write (see the class docstring)."""
        if "artifacts:" not in lines:
            return
        root = self.root.resolve()
        written = {(root / a).resolve() for a in self.artifacts}
        for entry in (line.removeprefix("  ") for line in lines[lines.index("artifacts:") + 1 :]):
            relative = pathlib.Path(entry)
            if not entry or relative.is_absolute() or ".." in relative.parts:
                continue
            path = root / relative
            target = path.resolve()
            if path.is_symlink() or target in written or not target.is_file() or root not in target.parents:
                continue
            target.unlink()
            for parent in target.parents:
                if parent == root or any(parent.iterdir()):
                    break
                parent.rmdir()
