"""The benchmark's own tests: smoke runs at tiny size, and checks that catch bad output.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Build a workload on its smoke-size log; CLI children import ``src``."""
    monkeypatch.setenv("PYTHONPATH", str(SRC))

    def make(name: str, seed: int = 3):
        log = tmp_path / f"{name}.csv"
        log.write_text(gen.workload_log(name, seed, "tiny"), encoding="utf-8")
        return workloads.WORKLOADS[name](log, seed, tmp_path)

    return make


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(gen.LOGS)


@pytest.mark.parametrize("name", sorted(gen.LOGS))
def test_logs_repeat_per_seed_and_have_no_ties(name):
    text = gen.workload_log(name, 7)
    assert text == gen.workload_log(name, 7)
    assert text != gen.workload_log(name, 8)
    games = oracle.read_games(text)
    assert len({g.key for g in games}) == len(games)
    assert all(g.home_score != g.away_score for g in games)


def test_full_size_logs_match_the_workload_definitions():
    assert len(oracle.read_games(gen.workload_log("league-500", 1))) == 3750
    assert len(oracle.read_games(gen.workload_log("season-cli", 1))) == 900
    assert gen.workload_log("flip-scan", 1) == gen.workload_log("season-cli", 1)
    chain = oracle.read_games(gen.workload_log("conference-chain", 1))
    assert len(chain) == 16 * 28 + 15
    assert len({t for g in chain for t in (g.home, g.away)}) == 128


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(gen.LOGS))
def test_smoke_every_workload(tiny, name, trace):
    result = workloads.measure(tiny(name), seconds=0.0, trace=trace)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == len(result["records"]) >= 1
    if trace:
        layers = result["layers"]
        assert layers["trace.span_coverage"] >= 0.9
        assert layers["pairwise.pairs"] > 0


def test_counts_repeat_exactly(tiny):
    first = workloads.measure(tiny("flip-scan"), seconds=0.0, trace=True)
    second = workloads.measure(tiny("flip-scan"), seconds=0.0, trace=True)
    for name in workloads.COUNT_METRICS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["records"] == second["records"]


def test_oracle_rejects_a_corrupted_rating_table(tiny):
    load = tiny("league-500")
    ratings, table, ranking = workloads.tiebreak.rank_season(load.dataset)
    load.check_season(ratings, table, ranking)
    team = ranking.order()[0]
    bad = dict(ratings.ratings, **{team: ratings.ratings[team] + 1e-5})
    with pytest.raises(oracle.CheckFailed, match="least-squares oracle"):
        load.check_season(dataclasses.replace(ratings, ratings=bad), table, ranking)


def test_oracle_rejects_a_corrupted_ratings_csv(tiny):
    load = tiny("season-cli")
    played = Counter(t for g in load.games for t in (g.home, g.away))

    def ratings_csv(shift: float) -> str:
        rows = [f"{t},{r + shift * (i == 0):.6f},0,{played[t]}" for i, (t, r) in enumerate(sorted(load.expected.items()))]
        return "team,rating,component,games_played\n" + "\n".join(rows) + "\n"

    oracle.check_ratings_csv(ratings_csv(0.0), load.expected, load.games)
    with pytest.raises(oracle.CheckFailed, match="least-squares oracle"):
        oracle.check_ratings_csv(ratings_csv(1e-5), load.expected, load.games)


def test_a_corrupted_solver_fails_every_op(tiny, monkeypatch):
    solve = workloads.tiebreak.solve_power_ratings

    def off_by_a_little(*args, **kwargs):
        table = solve(*args, **kwargs)
        first = min(table.ratings)
        return dataclasses.replace(table, ratings={**table.ratings, first: table.ratings[first] + 1e-5})

    monkeypatch.setattr(workloads.tiebreak, "solve_power_ratings", off_by_a_little)
    result = workloads.measure(tiny("league-500"), seconds=0.2, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "least-squares oracle" in result["failures"][0]["error"]


def test_a_stale_post_flip_ranking_fails_flip_scan(tiny, monkeypatch):
    rank = workloads.experiments.rank_season
    cache = {}

    def cached(dataset, *args, **kwargs):  # keyed on the season alone, so the flip is ignored
        if dataset.season not in cache:
            cache[dataset.season] = rank(dataset, *args, **kwargs)
        return cache[dataset.season]

    monkeypatch.setattr(workloads.experiments, "rank_season", cached)
    result = workloads.measure(tiny("flip-scan"), seconds=0.5, trace=False)
    assert result["failed"] >= 1
    assert any("fresh ranking" in f["error"] for f in result["failures"])


def test_speed_gauge_scales_with_work_and_leaves_out_its_samples():
    gauge = speed.Gauge()

    def work(loops: int) -> None:
        for _ in range(loops):
            speed.reference_loop()

    with gauge.timed() as one:
        work(1000)
    with gauge.timed() as two:
        work(2000)
    assert one.samples >= 4 and two.samples > one.samples
    assert 1.5 < two.ref_s / one.ref_s < 2.5
    with pytest.raises(ZeroDivisionError), gauge.timed() as failed:
        work(300)
        1 / 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert failed.wall_s > 0 and failed.samples >= 2


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "flip-scan", "--seed", "2", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {m: v["unit"] for m, v in last["metrics"].items()} == run.END_TO_END


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "flip-scan", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
