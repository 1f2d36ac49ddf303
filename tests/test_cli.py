"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import gc
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import powerwise
from powerwise import ingest
from powerwise.__main__ import BLAS_THREAD_VARS
from powerwise.cli import main
from powerwise.ingest import GameRecord, serialize_games
from powerwise.report import parse_ranking_csv
from powerwise.synthetic import synthetic_league

MINI = str(pathlib.Path(__file__).parent / "data" / "mini2024.csv")
SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_stdout(capsys):
    code, out, err = run(capsys, "rank", "--games", MINI, "--hfa", "0")
    assert code == 0
    assert out.startswith("season 2024\n")
    assert "Yale" in out


def test_rank_csv_format(capsys):
    code, out, _ = run(capsys, "rank", "--games", MINI, "--hfa", "0", "--format", "csv")
    assert code == 0
    ranking = parse_ranking_csv(out)
    assert ranking.season == 2024
    assert len(ranking.entries) == 7


def importable_env() -> dict[str, str]:
    """The environment with this ``powerwise`` first on PYTHONPATH, for child interpreters."""
    src = str(pathlib.Path(powerwise.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes about a second to import; only the statistics that need it load it."""
    probe = "import sys, powerwise.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=importable_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_import_powerwise_loads_no_submodule():
    """``import powerwise`` resolves its public names on first use; loading a log needs only ingest and errors."""
    probe = (
        "import sys, powerwise\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('powerwise'))\n"
        "print(loaded()); powerwise.load_games; print(loaded())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=importable_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines() == [
        "['powerwise']",
        "['powerwise', 'powerwise.errors', 'powerwise.ingest']",
    ]


def test_each_command_loads_only_the_modules_it_runs():
    """rank and pairwise load neither experiments, rpi nor selection; perturb loads experiments (and so rpi)."""
    probe = (
        "import contextlib, io, sys\n"
        "from powerwise import cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main([*argv, '--games', sys.argv[1]]) == 0\n"
        "    print(sorted(m[len('powerwise.'):] for m in sys.modules if m.startswith('powerwise.')))\n"
        "run('rank'); run('pairwise'); run('perturb', '--date', '2024-02-10', '--teams', 'Yale,Brown')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, MINI], env=importable_env(), capture_output=True, text=True, check=True
    )
    ranked = ["cli", "errors", "ingest", "pairwise", "power_rating", "report", "tiebreak"]
    assert proc.stdout.splitlines() == [
        str(ranked),
        str(ranked),
        str(sorted(ranked + ["experiments", "rpi"])),
    ]


def test_rank_run_builds_no_game_record(tmp_path, monkeypatch, capsys):
    """``powerwise rank`` reads the season's columns from the log to the artifacts: no GameRecord is built."""
    built, init = [], GameRecord.__init__
    monkeypatch.setattr(GameRecord, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    for argv in (["rank", "--out", str(tmp_path)], ["pairwise"], ["rank", "--season", "2024", "--format", "csv"]):
        assert run(capsys, *argv, "--games", MINI)[0] == 0
    assert built == []


def test_too_many_games_to_compare_exactly_exits_2(mini2024, monkeypatch, capsys):
    """The schedule view refuses the season, so every command that reads it exits 2: ``rank`` and ``rpi`` alike."""
    games = len(mini2024.games)
    monkeypatch.setattr(ingest, "MAX_GAMES", games)
    for command in ("rank", "rpi"):
        code, _, err = run(capsys, command, "--games", MINI)
        assert code == 2
        assert f"{games} games is too many to compare exactly; the limit is {games - 1}" in err


def test_main_leaves_the_warning_filters_unchanged(capsys):
    before, show = list(warnings.filters), warnings.showwarning
    code, _, _ = run(capsys, "rank", "--games", MINI)
    assert code == 0
    assert warnings.filters == before
    assert warnings.showwarning is show


def test_main_leaves_the_collector_unchanged(capsys):
    """``main`` is the in-process entry: only ``run``, the process entry, pauses or freezes the collector."""
    before = gc.isenabled(), gc.get_freeze_count()
    code, _, _ = run(capsys, "rank", "--games", MINI)
    assert code == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def entry_env(**blas_threads) -> dict[str, str]:
    """``importable_env`` with only the given BLAS thread-count variables set."""
    env = {k: v for k, v in importable_env().items() if k not in BLAS_THREAD_VARS}
    return {**env, **blas_threads}


def test_entry_freezes_the_import_time_heap_and_collects_again_before_main():
    """``run`` hands ``main`` a running collector and a frozen heap that holds the CLI's and numpy's modules."""
    probe = (
        "import gc, json, sys\n"
        "import numpy, powerwise.cli as cli\n"
        "from powerwise.__main__ import run\n"
        "def report(argv=None):\n"
        "    live = {id(o) for o in gc.get_objects()}\n"
        "    unfrozen = [m.__name__ for m in (cli, numpy) if id(vars(m)) in live]\n"
        "    print(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0, unfrozen]))\n"
        "    return 3\n"
        "cli.main = report\n"
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))\n"
        "sys.exit(run())\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=entry_env(), capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [[True, 0], [True, True, []]]


def run_entry(env: dict[str, str]) -> dict:
    """``run`` of ``rank`` on the mini log in a fresh interpreter, watched from outside ``main``.

    Reports whether numpy had loaded before ``run``, the freeze count at the start of each
    collection from the moment ``powerwise.cli`` began to load, and the BLAS thread-count
    variables ``run`` left. Collections are made frequent, so a load they could reach is seen.
    """
    probe = (
        "import contextlib, gc, io, json, os, sys\n"
        "from powerwise.__main__ import BLAS_THREAD_VARS, run\n"
        "numpy_before = 'numpy' in sys.modules\n"
        "frozen = []\n"
        "def watch(phase, info):\n"
        "    if phase == 'start' and 'powerwise.cli' in sys.modules:\n"
        "        frozen.append(gc.get_freeze_count())\n"
        "gc.callbacks.append(watch)\n"
        "gc.set_threshold(10)\n"
        "sys.argv = ['powerwise', 'rank', '--games', sys.argv[1]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run()\n"
        "gc.callbacks.clear()\n"
        "threads = [os.environ.get(v) for v in BLAS_THREAD_VARS]\n"
        "print(json.dumps({'code': code, 'numpy_before': numpy_before, 'frozen': frozen, 'threads': threads}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, MINI], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_entry_runs_no_collection_while_the_cli_loads():
    """No collection starts while the CLI loads; ``main``'s own garbage is still collected."""
    seen = run_entry(entry_env())
    assert seen["code"] == 0
    assert not seen["numpy_before"]
    assert seen["frozen"] and min(seen["frozen"]) > 0


@pytest.mark.parametrize(
    "given, threads", [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])]
)
def test_entry_runs_blas_on_one_thread_unless_the_user_set_a_count(given, threads):
    """``run`` sets each unset BLAS thread-count variable to 1 before numpy loads, and keeps one the user set."""
    seen = run_entry(entry_env(**given))
    assert not seen["numpy_before"]
    assert seen["threads"] == threads


def test_data_warnings_are_one_stable_line_each(tmp_path, capsys):
    games = tmp_path / "games.csv"
    games.write_text(
        "season,date,home,away,home_score,away_score,neutral\n"
        "2024,2024-02-01,A,B,3,3,0\n"
        "2024,2024-02-02,B,C,4,2,0\n"
        "2024,2024-02-02,B,C,4,2,0\n"
    )
    code, _, err = run(capsys, "rank", "--games", str(games), "--hfa", "0")
    assert code == 0
    assert err == "warning: line 2: tied score 3-3 between A and B\nwarning: dropped 1 duplicate game row(s)\n"


@pytest.mark.parametrize(
    "script, argv, expected",
    [
        ("make_synthetic_season.py", ["--teams", "8"], "season,date,home,away,home_score,away_score,neutral,game_index"),
        ("run_sensitivity.py", ["--trials", "2"], "median top-15 rank changes over 2 trials: "),
    ],
)
def test_script_runs(script, argv, expected):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv], env=importable_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "rank", "--games", MINI, "--frobnicate")
    assert code == 1
    assert "error:" in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "rank", "--games", "/nonexistent/league.csv")
    assert code == 1
    assert "error:" in err


def test_malformed_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("season,date,home,away,home_score,away_score,neutral\n2024,junk,A,B,1,2,0\n")
    code, _, err = run(capsys, "rank", "--games", str(bad))
    assert code == 1
    assert "date" in err


@pytest.mark.parametrize("season", ["0", "-1", "10000"])
def test_season_outside_the_calendar_exits_1(tmp_path, capsys, season):
    games = tmp_path / "games.csv"
    games.write_text(f"season,date,home,away,home_score,away_score,neutral\n{season},2024-02-10,Yale,Brown,3,1,0\n")
    code, out, err = run(capsys, "rank", "--games", str(games))
    assert (code, out) == (1, "")
    assert err == f"error: line 2, field 'season': season {season} is not a year in 1..9999\n"


def test_control_character_in_team_name_exits_1(tmp_path, capsys):
    games = tmp_path / "games.csv"
    games.write_text("season,date,home,away,home_score,away_score,neutral\n2024,2024-02-10,Yale,Br\town,12,8,0\n")
    code, out, err = run(capsys, "rank", "--games", str(games))
    assert code == 1
    assert out == ""
    assert err == "error: line 2, field 'away': control character in team name 'Br\\town'\n"


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "rank" in out


def test_rank_artifacts_and_report(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, *_ = run(capsys, "rank", "--games", MINI, "--hfa", "0", "--out", str(out_dir))
    assert code == 0
    for rel in ("ratings/ratings.csv", "pairwise/outcomes.csv", "pairwise/points.csv", "ranking.csv", "report.txt"):
        assert (out_dir / rel).is_file(), rel
    report = (out_dir / "report.txt").read_text()
    assert "command: rank" in report
    assert "generated:" not in report
    assert "ranking.csv" in report


def test_report_counts_unresolved_pairs(tmp_path, capsys):
    """Leagues {A, B} and {C, D, E, F} never meet, so their 8 pairs are unresolved; so is D-E, who tied
    their one game, share no opponent and end with identical ratings."""
    games = tmp_path / "games.csv"
    games.write_text(
        "season,date,home,away,home_score,away_score,neutral\n"
        "2024,2024-02-01,A,B,3,1,0\n"
        "2024,2024-02-02,C,D,2,0,0\n"
        "2024,2024-02-03,D,E,1,1,0\n"
        "2024,2024-02-04,E,F,0,4,0\n"
    )
    out_dir = tmp_path / "out"
    code, *_ = run(capsys, "rank", "--games", str(games), "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "pairwise" / "outcomes.csv").read_text().splitlines()[1:]
    unresolved = [row for row in rows if row.split(",")[2] == ""]
    assert len(unresolved) == 9
    assert "unresolved pairs: 9\n" in (out_dir / "report.txt").read_text()


def test_rank_artifacts_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "rank", "--games", MINI, "--out", str(a))
    run(capsys, "rank", "--games", MINI, "--out", str(b))
    for rel in ("ratings/ratings.csv", "pairwise/outcomes.csv", "ranking.csv", "report.txt"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_second_run_clears_the_first_runs_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(capsys, "rank", "--games", MINI, "--format", "svg", "--out", str(out_dir))[0] == 0
    assert (out_dir / "ranking.svg").is_file() and (out_dir / "pairwise" / "outcomes.csv").is_file()
    assert run(capsys, "rpi", "--games", MINI, "--out", str(out_dir))[0] == 0
    files = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*"))
    assert files == ["ratings", "ratings/rpi.csv", "report.txt"]  # the emptied pairwise/ is gone too
    report = (out_dir / "report.txt").read_text()
    assert report.endswith("artifacts:\n  ratings/rpi.csv\n")


def test_failed_run_leaves_the_previous_runs_output(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run(capsys, "rank", "--games", MINI, "--out", str(out_dir))[0] == 0
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    assert len(before) == 5
    code, _, err = run(
        capsys, "perturb", "--games", MINI, "--date", "2024-02-10", "--teams", "Yale,Nowhere", "--out", str(out_dir)
    )
    assert code == 1 and "no game between" in err
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before


def test_timestamps_only_behind_flag(tmp_path, capsys):
    out_dir = tmp_path / "stamped"
    code, *_ = run(capsys, "rank", "--games", MINI, "--out", str(out_dir), "--timestamps")
    assert code == 0
    assert "generated:" in (out_dir / "report.txt").read_text()


def test_out_env_fallback(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("POWERWISE_OUT", str(env_dir))
    code, *_ = run(capsys, "rank", "--games", MINI, "--hfa", "0")
    assert code == 0
    assert (env_dir / "report.txt").is_file()


def test_rpi_stdout(capsys):
    code, out, _ = run(capsys, "rpi", "--games", MINI)
    assert code == 0
    assert out.startswith("team,rpi,wp,owp,oowp,rank\n")
    assert len(out.splitlines()) == 8


def test_rpi_weights_flag(capsys):
    code, out, _ = run(capsys, "rpi", "--games", MINI, "--rpi-weights", "1,0,0")
    assert code == 0
    for line in out.splitlines()[1:]:
        team, rpi, wp, *_ = line.split(",")
        assert rpi == wp
    code, _, err = run(capsys, "rpi", "--games", MINI, "--rpi-weights", "1,0")
    assert code == 1
    for weights in ("nan,1,1", "inf,0,0"):
        code, out, err = run(capsys, "rpi", "--games", MINI, "--rpi-weights", weights)
        assert (code, out) == (1, "")
        assert "weights must be finite" in err


@pytest.mark.parametrize("hfa", ["nan", "inf"])
def test_non_finite_hfa_exits_1(capsys, hfa):
    code, out, err = run(capsys, "rank", "--games", MINI, "--hfa", hfa)
    assert (code, out) == (1, "")
    assert "hfa must be finite" in err


def test_pairwise_stdout(tmp_path, capsys):
    out_dir = tmp_path / "pw"
    code, out, _ = run(capsys, "pairwise", "--games", MINI, "--hfa", "0", "--out", str(out_dir))
    assert code == 0
    assert "pairs compared: 21" in out
    assert (out_dir / "pairwise" / "outcomes.csv").is_file()


def test_select_with_diff(tmp_path, capsys):
    aq = tmp_path / "aq.txt"
    aq.write_text("Richmond\n")
    official = tmp_path / "official.txt"
    official.write_text("Yale\nBrown\n")
    code, out, _ = run(
        capsys,
        "select", "--games", MINI, "--hfa", "0",
        "--aq", str(aq), "--bids", "2", "--official", str(official),
    )
    assert code == 0
    assert "at-large (2):" in out
    assert "agreement with official field:" in out


def test_select_bubble_tie_exits_2(tmp_path, capsys):
    games = tmp_path / "square.csv"
    games.write_text(
        "season,date,home,away,home_score,away_score,neutral\n"
        "2024,2024-02-01,A,M,5,3,1\n"
        "2024,2024-02-02,N,A,2,4,1\n"
        "2024,2024-02-03,B,N,5,3,1\n"
        "2024,2024-02-04,M,B,2,4,1\n"
        "2024,2024-02-05,M,N,3,2,1\n"
        "2024,2024-02-06,N,M,3,2,1\n"
    )
    aq = tmp_path / "aq.txt"
    aq.write_text("")
    code, _, err = run(
        capsys, "select", "--games", str(games), "--hfa", "0", "--aq", str(aq), "--bids", "1"
    )
    assert code == 2
    assert "unresolved bubble tie" in err


def test_perturb(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code, out, _ = run(
        capsys,
        "perturb", "--games", MINI, "--hfa", "0",
        "--date", "2024-02-10", "--teams", "Yale,Brown",
        "--method", "power", "--top-k", "7", "--out", str(out_dir),
    )
    assert code == 0
    assert "method: power" in out
    assert (out_dir / "experiments" / "perturbation.txt").is_file()


def test_perturb_unknown_game_exits_1(capsys):
    code, _, err = run(
        capsys,
        "perturb", "--games", MINI, "--date", "2024-02-11", "--teams", "Yale,Brown",
    )
    assert code == 1
    assert "no game" in err


def test_tau_against_own_order(tmp_path, capsys):
    # Reference file listing our own output order must give tau = 1.
    code, out, _ = run(capsys, "rank", "--games", MINI, "--hfa", "0", "--format", "csv")
    ranking = parse_ranking_csv(out)
    ref = tmp_path / "ref.txt"
    ref.write_text("\n".join(ranking.order()) + "\n")
    code, out, _ = run(capsys, "tau", "--games", MINI, "--hfa", "0", "--against", str(ref))
    assert code == 0
    assert "1.0000" in out


def test_tau_window_and_subset(tmp_path, capsys):
    code, out, _ = run(capsys, "rank", "--games", MINI, "--hfa", "0", "--format", "csv")
    order = parse_ranking_csv(out).order()
    ref = tmp_path / "ref.txt"
    ref.write_text("\n".join([order[1], order[0], order[2], order[3]]) + "\n")
    code, out, _ = run(
        capsys, "tau", "--games", MINI, "--hfa", "0", "--against", str(ref), "--window", "3,4"
    )
    assert code == 0
    assert "ranks 3..4" in out
    assert "1.0000" in out


def test_tau_unknown_reference_team_exits_1(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("Yale\nNowhere State\n")
    code, _, err = run(capsys, "tau", "--games", MINI, "--against", str(ref))
    assert code == 1
    assert "unknown team" in err


def test_tau_duplicate_reference_team_names_its_line(tmp_path, capsys):
    """Lines of a team list end at LF, CRLF or CR; comments and blank lines count."""
    ref = tmp_path / "ref.txt"
    ref.write_bytes(b"Yale\r\n# note\r\n\rBrown\rYale\n")
    code, _, err = run(capsys, "tau", "--games", MINI, "--against", str(ref))
    assert code == 1
    assert "line 5: duplicate team 'Yale'" in err


def test_regress(tmp_path, capsys):
    league = synthetic_league(14, seed=9, games_per_team=10)
    games = tmp_path / "league.csv"
    games.write_text(serialize_games(league.dataset.games))
    order = sorted(league.strengths, key=league.strengths.get, reverse=True)
    (tmp_path / "top.txt").write_text("\n".join(order[:3]) + "\n")
    (tmp_path / "bottom.txt").write_text("\n".join(order[-3:]) + "\n")
    out_dir = tmp_path / "exp"
    code, out, _ = run(
        capsys,
        "regress", "--games", str(games), "--hfa", "1",
        "--group-a", str(tmp_path / "top.txt"), "--group-b", str(tmp_path / "bottom.txt"),
        "--out", str(out_dir),
    )
    assert code == 0
    assert "offset (A - B)" in out
    assert (out_dir / "experiments" / "regression.svg").is_file()
    assert (out_dir / "experiments" / "regression.txt").is_file()
    for cap in ("0", "-2"):
        code, _, err = run(
            capsys,
            "regress", "--games", str(games), "--strength", "rpi", "--goal-cap", cap,
            "--group-a", str(tmp_path / "top.txt"), "--group-b", str(tmp_path / "bottom.txt"),
        )
        assert (code, err) == (1, f"error: goal_cap must be a positive int or None, got {cap}\n")


def test_aliases_flag(tmp_path, capsys):
    games = tmp_path / "games.csv"
    games.write_text(
        "season,date,home,away,home_score,away_score,neutral\n"
        "2024,2024-02-10,Yale Univ.,Brown,12,8,0\n"
        "2024,2024-02-11,Brown,Harvard,9,7,0\n"
    )
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("alias,canonical\nYale Univ.,Yale\n")
    code, out, _ = run(
        capsys, "rank", "--games", str(games), "--hfa", "0", "--aliases", str(aliases)
    )
    assert code == 0
    assert "Yale" in out and "Yale Univ." not in out


def test_multi_season_needs_flag(tmp_path, capsys):
    games = tmp_path / "two.csv"
    games.write_text(
        "season,date,home,away,home_score,away_score,neutral\n"
        "2023,2023-02-10,A,B,5,3,0\n"
        "2024,2024-02-10,A,B,3,5,0\n"
    )
    code, _, err = run(capsys, "rank", "--games", str(games))
    assert code == 1
    assert "--season" in err
    code, out, _ = run(capsys, "rank", "--games", str(games), "--season", "2023", "--hfa", "0")
    assert code == 0
    assert "season 2023" in out


def test_season_window_flag(tmp_path, capsys):
    games = tmp_path / "summer.csv"
    games.write_text(
        "season,date,home,away,home_score,away_score,neutral\n"
        "2024,2024-08-01,A,B,5,3,0\n"
    )
    code, _, err = run(capsys, "rank", "--games", str(games))
    assert code == 1
    assert "window" in err
    code, _, _ = run(capsys, "rank", "--games", str(games), "--no-season-window", "--hfa", "0")
    assert code == 0


def test_goal_cap_flag(capsys):
    code, out_capped, _ = run(capsys, "rank", "--games", MINI, "--hfa", "0", "--goal-cap", "1")
    assert code == 0
    code, out_none, _ = run(capsys, "rank", "--games", MINI, "--hfa", "0", "--goal-cap", "none")
    assert code == 0
    code, _, err = run(capsys, "rank", "--games", MINI, "--goal-cap", "seven")
    assert code == 1
    assert "--goal-cap" in err
