"""Exports, text tables, SVG charts, and the run report."""

import csv
import dataclasses
import io
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerwise import pairwise
from powerwise.errors import DataWarning, ParseError, ValidationError
from powerwise.commands import (
    export_rpi_csv,
    parse_ranking_csv,
    render_decisiveness_text,
    render_perturbation_text,
    render_regression_text,
)
from powerwise.experiments import perturbation_experiment, strength_regression
from powerwise.ingest import GAME_HEADER, build_season, parse_games
from powerwise.pairwise import CO_MODES, STEPS, ComparisonConfig, run_tournament
from powerwise.power_rating import SolverConfig, solve_power_ratings
from powerwise.records import serialize_games
from powerwise.report import (
    RunReport,
    export_pairwise_csv,
    export_points_csv,
    export_ranking_csv,
    export_ratings_csv,
    render_ranking,
)
from powerwise.rpi import compute_rpi
from powerwise.svg import SvgCanvas, render_regression_svg
from powerwise.synthetic import random_schedule
from powerwise.tiebreak import RankingEntry, RankingList, break_ties, rank_season
from reference import all_pairs, compare


@pytest.fixture(scope="module")
def pipeline(request):
    mini = request.getfixturevalue("mini2024")
    ratings, table, ranking = rank_season(mini, SolverConfig(hfa=0.0))
    return mini, ratings, table, ranking


def test_ratings_csv(pipeline):
    mini, ratings, _, _ = pipeline
    text = export_ratings_csv(ratings, mini)
    lines = text.splitlines()
    assert lines[0] == "team,rating,component,games_played"
    assert len(lines) == 1 + len(mini.teams)
    yale = next(l for l in lines if l.startswith("Yale,"))
    _, rating, component, games = yale.split(",")
    assert float(rating) == pytest.approx(ratings.ratings["Yale"], abs=1e-6)
    assert component == "0"
    assert games == "3"


def test_rpi_csv(pipeline):
    mini, *_ = pipeline
    table = compute_rpi(mini)
    lines = export_rpi_csv(table).splitlines()
    assert lines[0] == "team,rpi,wp,owp,oowp,rank"
    ranks = table.ranks()
    for line in lines[1:]:
        team, rpi, wp, owp, oowp, rank = line.split(",")
        assert float(rpi) == pytest.approx(table.rpi[team], abs=1e-6)
        assert int(rank) == ranks[team]


def test_pairwise_csv(pipeline):
    _, _, table, _ = pipeline
    lines = export_pairwise_csv(table).splitlines()
    assert lines[0] == "team_a,team_b,winner,deciding_step,evidence"
    assert len(lines) == 1 + len(table.outcomes)
    assert any(",head_to_head," in l for l in lines)


OUTCOMES_HEADER = ["team_a", "team_b", "winner", "deciding_step", "evidence"]


def csv_writer_text(rows, header=OUTCOMES_HEADER) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def walk(ds, ratings, config):
    """The reference ladder walk of every pair, in outcomes.csv order."""
    return [compare(ds, a, b, ratings, config) for a, b in all_pairs(ds.teams)]


def assert_readers_give(table, walked):
    """Every reader of ``table`` gives the walk's outcomes: ``outcomes`` iterated and measured, ``outcome_for`` in
    either argument order, and ``unresolved()``."""
    assert len(table.outcomes) == len(walked) and list(table.outcomes) == walked
    for want in walked:
        assert table.outcome_for(want.team_a, want.team_b) == table.outcome_for(want.team_b, want.team_a) == want
    assert table.unresolved() == tuple(o for o in walked if o.winner is None)


def season_and_ratings(games):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)  # tied scores, split schedules
        ds = build_season(games, 2024)
        return ds, solve_power_ratings(ds, SolverConfig(hfa=0.0))


def renamed_games(seed, names, n_teams_range=(3, 8), schedules=1):
    """The games of close, sparse ``random_schedule``s (tied scores, single common opponents), teams renamed in
    order; several schedules never meet one another, so each pair across two of them is unresolved."""
    games, names = [], iter(names)
    for k in range(schedules):
        ds = random_schedule(seed=seed + k, n_teams_range=n_teams_range, margin_range=(0, 2), pair_fraction=0.3)
        rename = dict(zip(ds.teams, names))
        games += [
            dataclasses.replace(g, home_team=rename[g.home_team], away_team=rename[g.away_team]) for g in ds.games
        ]
    return games


def team_names(size, alphabet='ab ,"éßŁЖ'):
    return st.lists(
        st.text(alphabet=alphabet, min_size=1, max_size=6).map(str.strip).filter(bool),
        min_size=size,
        max_size=size,
        unique=True,
    )


TEAM_NAMES = team_names(8)


def export_and_oracles(seed, names, config, **season):
    """The table and outcomes.csv of renamed ``random_schedule``s read through the CSV ingest, and the
    reference ladder walk of every pair, which the export (through csv.writer) and every reader must give."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        games = parse_games(serialize_games(renamed_games(seed, names, **season)))
    ds, ratings = season_and_ratings(games)
    table = run_tournament(ds, ratings, config)
    return table, export_pairwise_csv(table), walk(ds, ratings, config)


AWKWARD_NAMES = ['a, "b"', "ß a", '"', ",", "Łé", "a,b,", 'Ж "a"', "b"]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    names=TEAM_NAMES,
    co_mode=st.sampled_from(CO_MODES),
    skip_singular_co=st.booleans(),
)
@example(seed=3, names=AWKWARD_NAMES, co_mode="percentage", skip_singular_co=True)
@example(seed=297, names=AWKWARD_NAMES, co_mode="numeric", skip_singular_co=True)  # see the test below
@settings(max_examples=60, deadline=None)
def test_outcomes_csv_is_what_csv_writer_writes(seed, names, co_mode, skip_singular_co):
    """Names with commas, quotes, inner spaces and non-ASCII letters, read through the CSV ingest."""
    table, text, walked = export_and_oracles(seed, names, ComparisonConfig(co_mode, skip_singular_co))
    assert text == csv_writer_text(walked)
    assert_readers_give(table, walked)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    names=team_names(30),
    co_mode=st.sampled_from(CO_MODES),
    skip_singular_co=st.booleans(),
    block_pairs=st.sampled_from([1, 40, pairwise._BLOCK_PAIRS]),
)
@example(seed=5, names=[f"{a} {k}" for k in range(4) for a in AWKWARD_NAMES], co_mode="numeric",
         skip_singular_co=True, block_pairs=40)
@settings(max_examples=20, deadline=None)
def test_outcomes_csv_is_what_csv_writer_writes_in_many_blocks(seed, names, co_mode, skip_singular_co, block_pairs):
    """Two schedules of 6-15 teams that never meet, rendered and decided one row (1), a few rows (40) or all
    rows (the default) at a time; the pairs across them are unresolved."""
    with mock.patch.object(pairwise, "_BLOCK_PAIRS", block_pairs):
        config = ComparisonConfig(co_mode, skip_singular_co)
        table, text, walked = export_and_oracles(seed, names, config, n_teams_range=(6, 15), schedules=2)
        assert any(o.winner is None for o in walked)
        assert text == csv_writer_text(walked)
        assert_readers_give(table, walked)

def test_numeric_example_shows_half_wins_a_skipped_opponent_and_a_negative_differential():
    """The seed-297 example above renders every numeric-only piece of evidence text."""
    _, text, walked = export_and_oracles(297, AWKWARD_NAMES, ComparisonConfig("numeric", skip_singular_co=True))
    assert text == csv_writer_text(walked)
    assert "Łé leads head-to-head 1.5-0.5\n" in text
    assert "; single common opponent Łé skipped; " in text
    assert "ß a better against 2 common opponents (+0 vs -1)\n" in text


def test_outcomes_csv_quotes_a_name_inside_unresolved_evidence():
    """X and Y never met and each beat their one common opponent C by the same score at a neutral site:
    with the single-opponent skip, step II is silent, their ratings are equal, and the evidence names C."""
    games = parse_games(
        "season,date,home,away,home_score,away_score,neutral\n"
        '2024,2024-02-01,"Xeno, Inc","C, ""Co"" Club",2,1,1\n'
        '2024,2024-02-02,"Yak ""Y""","C, ""Co"" Club",2,1,1\n'
    )
    ds, ratings = season_and_ratings(games)
    config = ComparisonConfig(skip_singular_co=True)
    table = run_tournament(ds, ratings, config)
    text = export_pairwise_csv(table)
    assert text == (
        "team_a,team_b,winner,deciding_step,evidence\n"
        '"C, ""Co"" Club","Xeno, Inc","Xeno, Inc",head_to_head,"Xeno, Inc leads head-to-head 1-0"\n'
        '"C, ""Co"" Club","Yak ""Y""","Yak ""Y""",head_to_head,"Yak ""Y"" leads head-to-head 1-0"\n'
        '"Xeno, Inc","Yak ""Y""",,unresolved,'
        '"no meetings; single common opponent C, ""Co"" Club skipped; identical ratings (0.333)"\n'
    )
    walked = walk(ds, ratings, config)
    assert text == csv_writer_text(walked)
    assert_readers_give(table, walked)
    assert [o.evidence for o in table.unresolved()] == [
        'no meetings; single common opponent C, "Co" Club skipped; identical ratings (0.333)'
    ]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    names=team_names(8, alphabet='ab ,"#éßŁЖ\u2028'),
    schedules=st.sampled_from([1, 2]),
)
@example(seed=5, names=['a, "b"', "#a", "ß\u2028a", '"', "#,", "Łé", 'Ж "a"', "b"], schedules=2)
@settings(max_examples=40, deadline=None)
def test_every_csv_is_what_csv_writer_writes(seed, names, schedules):
    """ratings.csv, points.csv, ranking.csv, rpi.csv and a serialized log equal csv.writer's output of the same rows;
    names hold commas, quotes, ``#``, inner spaces, non-ASCII letters and U+2028. Two schedules never meet."""
    games = renamed_games(seed, names, n_teams_range=(3, 8 // schedules), schedules=schedules)
    text = serialize_games(games)
    rows = [
        (g.season, g.date.isoformat(), g.home_team, g.away_team, g.home_score, g.away_score, int(g.neutral_site),
         g.game_index)
        for g in games
    ]
    assert text == csv_writer_text(rows, header=GAME_HEADER + ("game_index",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)  # tied scores
        ds, ratings = season_and_ratings(parse_games(text))
    table = run_tournament(ds, ratings, ComparisonConfig())
    ranking, rpi = break_ties(table, ratings), compute_rpi(ds)

    played = {t: sum(t in (g.home_team, g.away_team) for g in ds.games) for t in ds.teams}
    component = {t: k for k, members in enumerate(ds.components()) for t in members}
    rows = [(t, f"{ratings.ratings[t]:.6f}", component[t], played[t]) for t in sorted(ds.teams)]
    header = ("team", "rating", "component", "games_played")
    assert export_ratings_csv(ratings, ds) == csv_writer_text(rows, header=header)

    wins = Counter((o.winner, o.deciding_step) for o in walk(ds, ratings, ComparisonConfig()))
    rows = [(t, table.points[t], *(wins[t, step] for step in STEPS[:3])) for t in sorted(ds.teams)]
    header = ("team", "points", "h2h_wins", "co_wins", "pr_wins")
    assert export_points_csv(table) == csv_writer_text(rows, header=header)

    rows = [
        (e.rank, e.team, repr(e.points), "" if e.tie_group is None else e.tie_group,
         ";".join(f"{name}={value!r}" for name, value in e.audit))
        for e in ranking.entries
    ]
    header = ("rank", "team", "points", "tie_group", "audit")
    assert export_ranking_csv(ranking) == "# season=2024\n" + csv_writer_text(rows, header=header)

    ranks = rpi.ranks()
    rows = [(t, *(f"{x[t]:.6f}" for x in (rpi.rpi, rpi.wp, rpi.owp, rpi.oowp)), ranks[t]) for t in sorted(ds.teams)]
    assert export_rpi_csv(rpi) == csv_writer_text(rows, header=("team", "rpi", "wp", "owp", "oowp", "rank"))


def test_points_csv(pipeline):
    _, _, table, _ = pipeline
    lines = export_points_csv(table).splitlines()
    assert lines[0] == "team,points,h2h_wins,co_wins,pr_wins"
    for line in lines[1:]:
        team, points, h2h, co, pr = line.split(",")
        assert int(points) == table.points[team] == int(h2h) + int(co) + int(pr)


def test_ranking_csv_round_trip(pipeline):
    *_, ranking = pipeline
    text = export_ranking_csv(ranking)
    assert text.startswith("# season=2024\n")
    assert parse_ranking_csv(text) == ranking


def test_ranking_csv_round_trip_awkward_floats():
    entries = (
        RankingEntry(1, "A", 0.1 + 0.2, None, (("score", 0.1 + 0.2),)),
        RankingEntry(1, "B", 0.1 + 0.2, 1, (("score", 0.1 + 0.2), ("power_rating", -1.5))),
        RankingEntry(2, "C", -3.0, 1, ()),
    )
    ranking = RankingList(season=1999, entries=entries)
    assert parse_ranking_csv(export_ranking_csv(ranking)) == ranking


def test_ranking_csv_round_trip_names_with_line_separators():
    """str.splitlines would split these names; a ranking file's lines end only at LF, CRLF or CR."""
    ranking = RankingList.from_scores(2024, {"A\u2028a": 3.0, "B\x0bb": 2.0, "C\x1cc": 1.0, 'D, "d"': 0.0})
    text = export_ranking_csv(ranking)
    assert parse_ranking_csv(text) == ranking
    assert parse_ranking_csv(text.replace("\n", "\r\n")) == ranking


def test_parse_ranking_csv_errors():
    with pytest.raises(ParseError, match="season"):
        parse_ranking_csv("rank,team,points,tie_group,audit\n1,A,1.0,,points=1.0\n")
    with pytest.raises(ParseError, match="header"):
        parse_ranking_csv("# season=2024\n1,A,1.0,,points=1.0\n")
    with pytest.raises(ParseError, match="audit"):
        parse_ranking_csv("# season=2024\nrank,team,points,tie_group,audit\n1,A,1.0,,junk\n")
    with pytest.raises(ParseError, match="header"):
        parse_ranking_csv("")


def ranking_text(season="2024", rank="1", points="3.0", tie_group="", audit="points=3.0") -> str:
    return f"# season={season}\nrank,team,points,tie_group,audit\n{rank},A,{points},{tie_group},{audit}\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("season", "2_024"), ("season", "\u0663"), ("season", "2024.0"),
        ("rank", "1_0"), ("rank", "\uff11"), ("rank", "1.0"),
        ("points", "\u0663"), ("points", "3_0.0"), ("points", "inf"), ("points", "nan"), ("points", "1e999"),
        ("points", ".5"), ("tie_group", "x"), ("tie_group", "1_0"), ("tie_group", "\u0663"),
        ("audit", "points=\u0663"), ("audit", "points=inf"),
    ],
)
def test_ranking_csv_numbers_are_ascii_and_each_bad_one_fails_at_its_line_and_field(field, value):
    """int() and float() also take 1_0, non-ASCII digits, inf and nan; each ranking field takes what the export
    writes (an int, or a finite float as repr writes it) and fails at its line and field otherwise."""
    assert parse_ranking_csv(ranking_text()) == RankingList(2024, (RankingEntry(1, "A", 3.0, None, (("points", 3.0),)),))
    with pytest.raises(ParseError) as caught:
        parse_ranking_csv(ranking_text(**{field: value}))
    assert (caught.value.line, caught.value.field) == (1 if field == "season" else 3, field)


def test_render_ranking_text(pipeline):
    *_, ranking = pipeline
    text = render_ranking(ranking, "text")
    lines = text.splitlines()
    assert lines[0] == "season 2024"
    assert lines[1].startswith("rank  team")
    assert len(lines) == 2 + len(ranking.entries)
    assert lines[2].lstrip().startswith("1")


def test_render_ranking_formats_dispatch(pipeline):
    *_, ranking = pipeline
    assert render_ranking(ranking, "csv") == export_ranking_csv(ranking)
    assert render_ranking(ranking, "svg").startswith("<svg")
    with pytest.raises(ValidationError, match="unknown ranking format"):
        render_ranking(ranking, "pdf")


def test_render_ranking_svg_well_formed(pipeline):
    *_, ranking = pipeline
    svg = render_ranking(ranking, "svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    bars = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(bars) == len(ranking.entries)


def test_renders_are_byte_deterministic(pipeline):
    mini, _, table, ranking = pipeline
    again_ratings, again_table, again_ranking = rank_season(mini, SolverConfig(hfa=0.0))
    assert render_ranking(ranking, "svg") == render_ranking(again_ranking, "svg")
    assert export_pairwise_csv(table) == export_pairwise_csv(again_table)
    assert render_ranking(ranking, "text") == render_ranking(again_ranking, "text")


def test_decisiveness_text(pipeline):
    _, _, table, _ = pipeline
    text = render_decisiveness_text(table)
    assert "pairs compared: 21" in text
    assert "head_to_head" in text and "%" in text


def test_perturbation_text(pipeline):
    mini, *_ = pipeline
    report = perturbation_experiment(
        mini, mini.games[0], "power", solver_config=SolverConfig(hfa=0.0), top_k=7
    )
    text = render_perturbation_text(report)
    assert "method: power" in text
    assert f"teams in top 7 changing rank: {report.n_changed}" in text


def regression_report():
    import datetime

    from powerwise.ingest import GameRecord, build_season

    def game(day, team, opp, margin):
        return GameRecord(
            2024, datetime.date(2024, 2, 1 + day), team, opp, 8 + margin, 8, False
        )

    games = [
        game(0, "A1", "E1", 5), game(1, "A1", "E2", 4),
        game(2, "A2", "E2", 4), game(3, "A2", "E3", 2),
        game(4, "B1", "E1", 1), game(5, "B1", "E2", 0),
        game(6, "B2", "E2", -1), game(7, "B2", "E3", -2),
    ]
    ds = build_season(games, 2024)
    strengths = {"E1": 1.0, "E2": 2.0, "E3": 3.0}
    return strength_regression(ds, strengths, ["A1", "A2"], ["B1", "B2"])


def test_regression_svg_well_formed():
    report = regression_report()
    svg = render_regression_svg(report)
    root = ET.fromstring(svg)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == len(report.samples_a) + len(report.samples_b)
    polygons = [el for el in root.iter() if el.tag.endswith("polygon")]
    assert len(polygons) == 2  # one confidence band per group
    assert render_regression_svg(report) == svg


def test_regression_text():
    text = render_regression_text(regression_report())
    assert "offset (A - B)" in text
    assert "p-value" in text


@pytest.mark.parametrize("tiny", [1e-16, -1e-16, 0.0, -0.0])
def test_regression_prints_a_value_that_rounds_to_zero_without_a_minus(tiny):
    """A slope or offset of about ±1e-16, whose sign the BLAS kernel decides, reads the same either way."""
    report = regression_report()
    report = dataclasses.replace(report, fit_a=dataclasses.replace(report.fit_a, slope=tiny), group_offset=tiny)
    text = render_regression_text(report)
    assert " +0.000 * strength" in text.splitlines()[0]
    assert text.splitlines()[2].endswith(": +0.000 goals")
    assert "offset +0.00 at " in render_regression_svg(report)
    assert SvgCanvas._n(-0.001) == SvgCanvas._n(-0.0) == "0"


def test_run_report_writes_last_and_verifies(tmp_path):
    report = RunReport(tmp_path, season=2024, command="rank")
    report.add_artifact("ratings/ratings.csv", "team,rating\n")
    report.add_artifact("pairwise/points.csv", "team,points\n")
    report.summary.append("teams: 7")
    out = report.write()
    assert out.name == "report.txt"
    text = out.read_text()
    assert "command: rank" in text
    assert "ratings/ratings.csv" in text
    assert "generated:" not in text

    stamped = RunReport(tmp_path, season=2024, command="rank", timestamp="2024-05-01T10:00:00")
    assert "generated: 2024-05-01T10:00:00" in stamped.render()


def test_run_report_refuses_missing_artifact(tmp_path):
    report = RunReport(tmp_path, season=2024, command="rank", artifacts=["nowhere.csv"])
    with pytest.raises(ValidationError, match="missing"):
        report.write()
    assert not (tmp_path / "report.txt").exists()


def test_run_report_clears_what_the_previous_report_lists(tmp_path):
    root = tmp_path / "out"
    first = RunReport(root, season=2024, command="rank")
    first.add_artifact("pairwise/outcomes.csv", "x\n")
    first.add_artifact("deep/er/a.csv", "x\n")
    first.add_artifact("ranking.csv", "x\n")
    first.write()
    (root / "deep" / "keep.txt").write_text("not listed\n")
    (root / "unlisted.csv").write_text("not listed\n")

    def tree():
        return sorted(str(p.relative_to(root)) for p in root.rglob("*"))

    before = tree()
    second = RunReport(root, season=2024, command="rpi")
    second.add_artifact("ratings/rpi.csv", "x\n")
    second.add_artifact("ranking.csv", "y\n")
    # each artifact waits under a temporary name: nothing is replaced or deleted before write
    assert tree() == sorted([*before, "ratings", "ratings/.rpi.csv.tmp", ".ranking.csv.tmp"])
    second.write()
    assert tree() == ["deep", "deep/keep.txt", "ranking.csv", "ratings", "ratings/rpi.csv", "report.txt", "unlisted.csv"]
    assert (root / "ranking.csv").read_text() == "y\n"  # rewritten by this run, so kept
    assert (root / "report.txt").read_text().endswith("artifacts:\n  ratings/rpi.csv\n  ranking.csv\n")


def test_run_report_discard_removes_what_the_failed_run_wrote(tmp_path):
    """A run that fails before ``write`` leaves the tree as it found it: no temporary, no directory it made."""
    root = tmp_path / "out"
    first = RunReport(root, season=2024, command="rank")
    first.add_artifact("ranking.csv", "x\n")
    first.add_artifact("pairwise/points.csv", "x\n")
    first.write()
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    failed = RunReport(root, season=2024, command="rank")
    failed.add_artifact("ranking.csv", "y\n")
    failed.add_artifact("pairwise/points.csv", "y\n")
    failed.add_artifact("deep/er/a.csv", "y\n")
    failed.discard()
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before
    fresh = RunReport(tmp_path / "new" / "out", season=2024, command="rank")
    fresh.add_artifact("ratings/ratings.csv", "y\n")
    fresh.discard()
    assert not (tmp_path / "new").exists()


def test_run_report_renames_nothing_when_an_artifact_path_is_a_directory(tmp_path):
    report = RunReport(tmp_path, season=2024, command="rank")
    report.add_artifact("a.csv", "x\n")
    report.add_artifact("b.csv", "x\n")
    (tmp_path / "b.csv").mkdir()
    with pytest.raises(ValidationError, match="directories: b.csv"):
        report.write()
    assert sorted(p.name for p in tmp_path.iterdir()) == [".a.csv.tmp", ".b.csv.tmp", "b.csv"]


def test_run_report_deletes_nothing_outside_its_root(tmp_path):
    root = tmp_path / "out"
    (root / "sub").mkdir(parents=True)
    outside = tmp_path / "x"
    outside.write_text("keep\n")
    (root / "inside.csv").write_text("keep\n")
    (root / "link.csv").symlink_to(outside)
    (root / "sub" / "dirlink").symlink_to(tmp_path)
    listed = [
        "../x",
        str(outside),
        "sub/../../x",
        "sub/../inside.csv",
        "link.csv",
        "sub/dirlink/x",
        "sub",
        "",
        ".",
        "missing.csv",
    ]
    (root / "report.txt").write_text("command: rank\nseason: 2024\nartifacts:\n" + "".join(f"  {e}\n" for e in listed))
    RunReport(root, season=2024, command="rank").write()
    assert outside.read_text() == "keep\n"
    assert (root / "inside.csv").read_text() == "keep\n"
    assert (root / "link.csv").is_symlink() and (root / "sub" / "dirlink").is_symlink()
    assert (root / "report.txt").read_text() == "command: rank\nseason: 2024\nartifacts:\n"
