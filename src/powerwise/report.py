"""What ``rank`` writes: the ratings, outcomes, points and ranking CSVs, the ranking as text, and the run report.

Every renderer is a pure function of its inputs; identical inputs produce
identical bytes. Wall-clock timestamps only appear when explicitly requested.
The other commands' renderers live beside the code that uses them, so a
``rank`` run does not compile them: the SVG charts (``render_ranking_svg``,
which ``render_ranking`` imports only for ``svg``, and
``render_regression_svg``) in ``svg``, and ``export_rpi_csv``, the
decisiveness, perturbation and regression texts and ``parse_ranking_csv``, the
ranking CSV's reader, in ``commands``.

Every CSV, here and in ``commands`` and ``records``, is joined from f-string
lines. Its team names, and outcomes.csv's evidence, which names teams, pass
through one quoting rule, ``ingest._quote``; the other fields are numbers,
dates, step names and audits, which never need quoting. So the bytes are what
``csv.writer(lineterminator="\\n")`` writes, which the tests check. outcomes.csv
is joined from string tables (``PowerwiseTable.csv_blocks``, one string per
block of team rows), and the table's readers parse its lines back.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from .errors import ValidationError
from .ingest import SeasonDataset, _quote
from .pairwise import PowerwiseTable
from .power_rating import PowerRatingTable
from .tiebreak import RankingList

RANKING_FORMATS = ("text", "csv", "svg")


def export_ratings_csv(table: PowerRatingTable, dataset: SeasonDataset) -> str:
    pairings = dataset.schedule.pairings
    index, component = pairings.index, pairings.component_labels.tolist()
    played = pairings.games.sum(axis=1).astype(int).tolist()
    rows = (f"{_quote(t)},{r:.6f},{component[index[t]]},{played[index[t]]}\n" for t, r in sorted(table.ratings.items()))
    return "".join(["team,rating,component,games_played\n", *rows])


def export_pairwise_csv(table: PowerwiseTable) -> str:
    """outcomes.csv: the header, then one line per pair in ``table.outcomes`` order.

    The lines come joined one block of team rows at a time
    (``PowerwiseTable.csv_blocks``), so the export never holds every pair's
    pieces at once. An unresolved pair's winner is empty.
    """
    return "".join(["team_a,team_b,winner,deciding_step,evidence\n", *table.csv_blocks()])


def export_points_csv(table: PowerwiseTable) -> str:
    points, wins = map(table.points.__getitem__, table.teams), table.on_field.wins_by_step  # teams are sorted
    rows = (f"{_quote(t)},{p},{h},{c},{p - h - c}\n" for t, p, (h, c) in zip(table.teams, points, wins))
    return "".join(["team,points,h2h_wins,co_wins,pr_wins\n", *rows])


def _audit_str(audit) -> str:
    return ";".join(f"{name}={value!r}" for name, value in audit)


def export_ranking_csv(ranking: RankingList) -> str:
    """Ranking CSV with a season comment; ``commands.parse_ranking_csv`` inverts it exactly."""
    rows = (
        f"{rank},{_quote(team)},{points!r},{'' if tie is None else tie},{_audit_str(audit)}\n"
        for rank, team, points, tie, audit in ranking.entries
    )
    return "".join([f"# season={ranking.season}\nrank,team,points,tie_group,audit\n", *rows])


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


def render_ranking(ranking: RankingList, format: str = "text") -> str:
    if format == "text":
        return render_ranking_text(ranking)
    if format == "csv":
        return export_ranking_csv(ranking)
    if format == "svg":
        from .svg import render_ranking_svg

        return render_ranking_svg(ranking)
    raise ValidationError(f"unknown ranking format {format!r}, expected one of {RANKING_FORMATS}")


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
