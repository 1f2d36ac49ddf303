"""Acceptance gate: one test per numbered engine guarantee.

Criteria 1-10 run on generated data and must always pass. Criteria 11-16
re-derive historical season results and are skipped unless real game logs
are installed under ``tests/data/real/`` (or the directory named by
``POWERWISE_DATA_DIR``), laid out as:

    games_<year>.csv              full season game log, standard CSV format
    aliases.csv                   optional ``alias,canonical`` name fixes
    aliases_<year>.csv            optional per-year override of the above
    aq_<year>.txt                 automatic qualifiers, one team per line
    official_atlarge_<year>.txt   official at-large picks, one team per line

Each test prints one ``criterion NN PASS|FAIL`` line (run with ``-s`` to see
them live) and carries its criterion number in the test name so a plain
``pytest -v`` run also yields one verdict line per criterion.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import math
import os
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from powerwise.experiments import (
    flip_game,
    kendall_tau,
    perturbation_experiment,
    pooled_regression,
    strength_regression,
)
from powerwise.ingest import GameRecord, SeasonDataset, build_season, load_games, parse_games
from powerwise.pairwise import (
    STEP_COMMON_OPPONENTS,
    STEP_HEAD_TO_HEAD,
    STEP_POWER_RATING,
    STEP_UNRESOLVED,
    ComparisonConfig,
    decisiveness_report,
    run_tournament,
)
from powerwise.power_rating import SolverConfig, solve_power_ratings
from powerwise.records import apply_aliases, load_alias_map, serialize_games
from powerwise.rpi import compute_rpi, schedule_swap_experiment
from powerwise.selection import diff_selections, load_team_list, select_at_large
from powerwise.synthetic import random_schedule, synthetic_league
from powerwise.tiebreak import break_ties, rank_season
from reference import games_of, opponent_of


def verdict(num: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:02d} {status}: {description}")
    assert not failures, f"criterion {num:02d}: " + " | ".join(failures[:8])


# --- independent oracles -----------------------------------------------------


def massey_lstsq(
    dataset: SeasonDataset, hfa: float, goal_cap: int | None = 7
) -> dict[str, float]:
    """Dense least-squares solve of the margin equations, anchored mean-zero.

    One equation per game: rating(home) - rating(away) = capped margin, less
    the home advantage for non-neutral games. Deliberately shares no code with
    the iterative solver.
    """
    index = {t: i for i, t in enumerate(dataset.teams)}
    rows, rhs = [], []
    for g in dataset.games:
        margin = g.home_score - g.away_score
        if goal_cap is not None:
            margin = max(-goal_cap, min(goal_cap, margin))
        row = [0.0] * len(index)
        row[index[g.home_team]] = 1.0
        row[index[g.away_team]] = -1.0
        rows.append(row)
        rhs.append(margin - (0.0 if g.neutral_site else hfa))
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    ratings = {t: float(solution[i]) for t, i in index.items()}
    for comp in dataset.components():
        shift = sum(ratings[t] for t in comp) / len(comp)
        for t in comp:
            ratings[t] -= shift
    return ratings


def tau_b_oracle(xs: list[float], ys: list[float]) -> float:
    """Tie-corrected rank correlation by direct pair counting, O(n^2)."""
    nc = nd = x_only = y_only = 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                x_only += 1
            elif dy == 0:
                y_only += 1
            elif (dx > 0) == (dy > 0):
                nc += 1
            else:
                nd += 1
    return (nc - nd) / math.sqrt((nc + nd + y_only) * (nc + nd + x_only))


# --- part A: always runnable -------------------------------------------------


def test_criterion_01_solver_matches_least_squares():
    rng = random.Random(101)
    failures = []
    start = time.perf_counter()
    for trial in range(200):
        ds = random_schedule(seed=rng.randrange(10**9))
        hfa = rng.uniform(0.0, 2.0)
        table = solve_power_ratings(ds, SolverConfig(hfa=hfa))
        want = massey_lstsq(ds, hfa)
        worst = max(abs(table.ratings[t] - want[t]) for t in ds.teams)
        if worst > 1e-6:
            failures.append(f"trial {trial}: max deviation {worst:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, budget is 10 s")
    verdict(
        1,
        "200 random schedules: solver matches least squares within 1e-6/team, <10 s",
        failures,
    )


def test_criterion_02_converged_solves_have_vanishing_residual():
    """Each converged rating equals its games' mean implied rating to 1e-6."""
    rng = random.Random(202)
    failures = []
    checked = 0
    for trial in range(100):
        ds = random_schedule(seed=rng.randrange(10**9))
        hfa = rng.uniform(0.0, 2.0)
        table = solve_power_ratings(ds, SolverConfig(hfa=hfa))
        if not table.converged:
            continue
        checked += 1
        total = 0.0
        for t in ds.teams:
            implied = 0.0
            games = games_of(ds, t)
            for g in games:
                margin = max(-7, min(7, g.home_score - g.away_score))
                adjusted = margin - (0.0 if g.neutral_site else hfa)
                if t == g.away_team:
                    adjusted = -adjusted
                implied += adjusted + table.ratings[opponent_of(g, t)]
            total += abs(implied / len(games) - table.ratings[t])
        mean_residual = total / len(ds.teams)
        if mean_residual > 1e-6:
            failures.append(f"trial {trial}: mean residual {mean_residual:.3e}")
    if checked < 90:
        failures.append(f"only {checked}/100 solves converged")
    verdict(2, "converged solves leave mean absolute residual <= 1e-6", failures)


def test_criterion_03_on_field_outcomes_ignore_rating_changes():
    """Across 1000 seasons, steps I and II never move under rating perturbation."""
    rng = random.Random(303)
    failures = []
    early = (STEP_HEAD_TO_HEAD, STEP_COMMON_OPPONENTS)
    witnessed = 0
    for trial in range(1000):
        ds = random_schedule(seed=rng.randrange(10**9), n_teams_range=(4, 7))
        ratings = solve_power_ratings(ds, SolverConfig(hfa=1.0))
        base = run_tournament(ds, ratings)
        shaken = dataclasses.replace(
            ratings, ratings={t: rng.uniform(-50.0, 50.0) for t in ds.teams}
        )
        after = run_tournament(ds, shaken)
        for o in base.outcomes:
            if o.deciding_step not in early:
                continue
            witnessed += 1
            n = after.outcome_for(o.team_a, o.team_b)
            if (n.winner, n.deciding_step) != (o.winner, o.deciding_step):
                failures.append(
                    f"trial {trial}: {o.team_a} vs {o.team_b} moved from "
                    f"{o.winner}/{o.deciding_step} to {n.winner}/{n.deciding_step}"
                )
        if len(failures) > 5:
            break
    # make sure the property was exercised, not vacuously true
    if witnessed < 1000:
        failures.append(f"only {witnessed} step I/II outcomes seen across 1000 seasons")
    verdict(3, "1000 seasons, zero step I/II outcomes moved by rating changes", failures)


def test_criterion_04_fully_decided_seasons_hand_out_every_point():
    rng = random.Random(404)
    failures = []
    complete = 0
    for trial in range(300):
        ds = random_schedule(seed=rng.randrange(10**9), n_teams_range=(4, 6))
        ratings = solve_power_ratings(ds, SolverConfig(hfa=1.0))
        table = run_tournament(ds, ratings)
        if table.unresolved():
            continue
        complete += 1
        n = len(ds.teams)
        total = sum(table.points.values())
        if total != n * (n - 1) / 2:
            failures.append(f"trial {trial}: {total} points for {n} teams")
    # the property is vacuous unless plenty of seasons resolve completely
    if complete < 50:
        failures.append(f"only {complete}/300 seasons had no unresolved pair")
    verdict(4, "seasons with no unresolved pairs award exactly N(N-1)/2 points", failures)


def test_criterion_05_constant_rating_shifts_change_nothing():
    rng = random.Random(505)
    failures = []
    for trial in range(10):
        ds = random_schedule(seed=rng.randrange(10**9), n_teams_range=(5, 9))
        ratings = solve_power_ratings(ds, SolverConfig(hfa=1.0))
        base_table = run_tournament(ds, ratings)
        base_order = break_ties(base_table, ratings).order()
        for c in (-100.0, 3.7, 100.0):
            shifted = dataclasses.replace(
                ratings, ratings={t: r + c for t, r in ratings.ratings.items()}
            )
            table = run_tournament(ds, shifted)
            for o, n in zip(base_table.outcomes, table.outcomes):
                if (o.winner, o.deciding_step) != (n.winner, n.deciding_step):
                    failures.append(
                        f"trial {trial} shift {c}: {o.team_a} vs {o.team_b} changed"
                    )
            order = break_ties(table, shifted).order()
            if order != base_order:
                failures.append(f"trial {trial} shift {c}: ranking order changed")
    verdict(5, "adding -100, 3.7, or 100 to all ratings changes no outcome or order", failures)


def test_criterion_06_single_common_opponent_percentage_vs_numeric():
    """Two close losses vs one loss to the only shared opponent.

    Percentage comparison sees 0% on both sides and stays silent, letting the
    higher rating carry the pair; the numeric variant hands the win to the
    team with the shallower losing record.
    """
    games = [
        GameRecord(2024, datetime.date(2024, 3, 2), "Princeton", "Yale", 10, 9, False),
        GameRecord(2024, datetime.date(2024, 3, 16), "Princeton", "Yale", 11, 10, False),
        GameRecord(2024, datetime.date(2024, 3, 23), "Princeton", "Canisius", 12, 8, False),
    ]
    ds = build_season(games, 2024)
    ratings = solve_power_ratings(ds, SolverConfig(hfa=0.0))
    failures = []

    # Yale winning on rating shows step II stayed silent in percentage mode.
    pct = run_tournament(ds, ratings, ComparisonConfig()).outcome_for("Canisius", "Yale")
    if (pct.winner, pct.deciding_step) != ("Yale", STEP_POWER_RATING):
        failures.append(
            f"percentage mode gave {pct.winner} at {pct.deciding_step}, "
            "expected Yale on rating"
        )
    numeric = run_tournament(ds, ratings, ComparisonConfig(co_mode="numeric")).outcome_for("Canisius", "Yale")
    if (numeric.winner, numeric.deciding_step) != ("Canisius", STEP_COMMON_OPPONENTS):
        failures.append(
            f"numeric mode gave {numeric.winner} at {numeric.deciding_step}, "
            "expected Canisius at step II"
        )
    verdict(6, "single-common-opponent pair: percentage silent, numeric flips it", failures)


def test_criterion_07_losing_to_giants_still_lifts_rpi():
    """Swap the weakest team's slate for four losses to the best teams."""
    league = synthetic_league(12, seed=7)
    ds = league.dataset
    weakest = min(ds.teams, key=lambda t: league.strengths[t])
    giants = sorted(ds.teams, key=lambda t: league.strengths[t], reverse=True)[:4]
    replacements = [
        GameRecord(ds.season, datetime.date(ds.season, 4, 1 + i), g, weakest, 12, 8, False)
        for i, g in enumerate(giants)
    ]
    report = schedule_swap_experiment(ds, weakest, replacements)
    failures = []
    if not report.rpi_after > report.rpi_before:
        failures.append(f"RPI fell: {report.rpi_before:.4f} -> {report.rpi_after:.4f}")
    if not report.rank_after < report.rank_before:
        failures.append(f"rank did not improve: {report.rank_before} -> {report.rank_after}")
    verdict(7, "all-loss schedule against the top 4 raises the weakest team's RPI and rank", failures)


def test_criterion_08_rpi_shuffles_at_least_as_much_as_ratings():
    """Flip one game between bottom teams; watch the top 15 of each list."""
    rpi_changes = []
    pr_changes = []
    seed = 0
    while len(rpi_changes) < 100:
        seed += 1
        league = synthetic_league(18, seed=seed, games_per_team=8)
        ds = league.dataset
        weak = set(sorted(ds.teams, key=lambda t: league.strengths[t])[:6])
        low_stakes = [g for g in ds.games if {g.home_team, g.away_team} <= weak]
        if not low_stakes:
            continue
        game = low_stakes[0]
        rpi_changes.append(perturbation_experiment(ds, game, "rpi", top_k=15).n_changed)
        pr_changes.append(perturbation_experiment(ds, game, "power", top_k=15).n_changed)
    failures = []
    median_rpi = statistics.median(rpi_changes)
    median_pr = statistics.median(pr_changes)
    if median_rpi < median_pr:
        failures.append(f"median churn: rpi {median_rpi} < ratings {median_pr}")
    verdict(
        8,
        "100 low-stakes flips: median top-15 churn under RPI >= under ratings "
        f"({median_rpi} vs {median_pr})",
        failures,
    )


def test_criterion_09_kendall_tau_extremes_and_brute_force():
    failures = []
    teams = [f"T{i:02d}" for i in range(12)]
    straight = {t: float(r) for r, t in enumerate(teams, start=1)}
    reverse = {t: float(len(teams) + 1 - r) for r, t in enumerate(teams, start=1)}
    tied = {t: float(i // 3 + 1) for i, t in enumerate(teams)}
    if abs(kendall_tau(straight, dict(straight)) - 1.0) > 1e-12:
        failures.append("identical lists not at +1")
    if abs(kendall_tau(tied, dict(tied)) - 1.0) > 1e-12:
        failures.append("identical tied lists not at +1")
    if abs(kendall_tau(straight, reverse) + 1.0) > 1e-12:
        failures.append("reversed list not at -1")
    if abs(kendall_tau(tied, {t: -v for t, v in tied.items()}) + 1.0) > 1e-12:
        failures.append("reversed tied list not at -1")

    rng = random.Random(909)
    done = 0
    while done < 100:
        names = [f"N{i}" for i in range(rng.randrange(5, 30))]
        a = {t: float(rng.randrange(1, 8)) for t in names}
        b = {t: float(rng.randrange(1, 8)) for t in names}
        if len(set(a.values())) < 2 or len(set(b.values())) < 2:
            continue
        done += 1
        want = tau_b_oracle([a[t] for t in names], [b[t] for t in names])
        got = kendall_tau(a, b)
        if abs(got - want) > 1e-12:
            failures.append(f"list {done}: {got!r} vs oracle {want!r}")
    verdict(9, "tau: +1 identical, -1 reversed, matches pair counting to 1e-12", failures)


def test_criterion_10_flip_involution_and_round_trip_on_fixtures():
    fixtures = [
        p
        for p in sorted(Path(__file__).parent.glob("data/**/*.csv"))
        if not p.name.startswith("aliases")
    ]
    failures = []
    if not fixtures:
        failures.append("no CSV fixtures found")
    for path in fixtures:
        games = load_games(path)
        for g in games:
            if flip_game(flip_game(g)) != g:
                failures.append(f"{path.name}: double flip altered {g}")
                break
        canonical = serialize_games(games)
        reparsed = parse_games(canonical)
        if reparsed != games:
            failures.append(f"{path.name}: serialize/parse changed the records")
        elif serialize_games(reparsed) != canonical:
            failures.append(f"{path.name}: canonical form is not a fixed point")
    verdict(10, "flip is an involution and serialize/parse round-trips all fixtures", failures)


# --- part B: historical reproductions (skipped without real game logs) -------

DATA_ENV = "POWERWISE_DATA_DIR"

# bold tie groups of the 2024 points table, keyed by the shared point count
TIE_GROUPS_2024 = {
    69: ("Johns Hopkins", "Penn State"),
    67: ("Denver", "Georgetown"),
    66: ("Cornell", "Princeton"),
    61: ("Army", "Towson"),
    51: ("Colgate", "Loyola", "Rutgers"),
    50: ("Boston Univ", "Lehigh"),
    43: ("Bryant", "High Point"),
    35: ("Lafayette", "Quinnipiac", "Sacred Heart"),
    32: ("Air Force", "Stony Brook"),
    28: ("Dartmouth", "Marquette"),
    21: ("Manhattan", "Marist", "Merrimack", "Siena"),
    18: ("Bellarmine", "St Johns"),
    12: ("Holy Cross", "Le Moyne"),
    8: ("Detroit Mercy", "St Bonaventure"),
    4: ("Queens", "Wagner"),
}

# seasons where this engine and the official committee picked different
# at-large fields, as (our extra picks, their extra picks)
AT_LARGE_DIFFS = {
    2022: ({"Notre Dame", "Duke"}, {"Cornell", "Brown"}),
    2019: ({"Cornell", "Denver"}, {"Notre Dame", "Johns Hopkins"}),
    2018: ({"Rutgers", "Penn State", "Bucknell"}, {"Syracuse", "Virginia", "Villanova"}),
    2017: ({"Duke"}, {"North Carolina"}),
    2016: ({"Villanova", "Stony Brook"}, {"Johns Hopkins", "Navy"}),
    2015: ({"Cornell", "Hofstra"}, {"Ohio State", "Brown"}),
    2014: ({"Yale"}, {"Harvard"}),
}

# 2020 and 2021 seasons were cut short and are excluded from correlations
TAU_SEASONS = tuple(y for y in range(2012, 2025) if y not in (2020, 2021))


def real_data_dir() -> Path | None:
    override = os.environ.get(DATA_ENV)
    root = Path(override) if override else Path(__file__).parent / "data" / "real"
    return root if root.is_dir() else None


def optional_file(name: str) -> Path | None:
    root = real_data_dir()
    if root is None:
        return None
    path = root / name
    return path if path.is_file() else None


def real_season(year: int) -> SeasonDataset:
    path = optional_file(f"games_{year}.csv")
    if path is None:
        pytest.skip(f"no game log installed for {year} (games_{year}.csv)")
    games = load_games(path)
    for alias_name in (f"aliases_{year}.csv", "aliases.csv"):
        alias_path = optional_file(alias_name)
        if alias_path is not None:
            games = apply_aliases(games, load_alias_map(alias_path.read_text()))
            break
    return build_season(games, year)


@functools.lru_cache(maxsize=None)
def real_pipeline(year: int):
    """Dataset plus the full (ratings, points table, ranking) run for a year."""
    ds = real_season(year)
    return ds, rank_season(ds)


def test_criterion_11_2024_points_and_tie_groups():
    _, (_, table, _) = real_pipeline(2024)
    failures = []
    for team, want in (("Notre Dame", 74.0), ("Hampton", 0.0)):
        got = table.points.get(team)
        if got != want:
            failures.append(f"{team}: {got} points, expected {want:g}")
    for points, group in sorted(TIE_GROUPS_2024.items(), reverse=True):
        for team in group:
            got = table.points.get(team)
            if got != float(points):
                failures.append(f"{team}: {got} points, expected {points}")
    verdict(11, "2024 points: Notre Dame 74, Hampton 0, and every known tie group exact", failures)


def test_criterion_12_2024_yale_step_decomposition():
    _, (_, table, _) = real_pipeline(2024)
    decomposition = table.step_decomposition("Yale")
    want = {
        STEP_HEAD_TO_HEAD: 14,
        STEP_COMMON_OPPONENTS: 37,
        STEP_POWER_RATING: 25,
        STEP_UNRESOLVED: 0,
    }
    failures = [
        f"{step}: {decomposition.get(step)}, expected {count}"
        for step, count in want.items()
        if decomposition.get(step) != count
    ]
    verdict(12, "2024 Yale matchups: 14 head-to-head, 37 common opponents, 25 by rating", failures)


def test_criterion_13_2013_on_field_decisiveness():
    _, (_, table, _) = real_pipeline(2013)
    report = decisiveness_report(table)
    failures = []
    if abs(report[STEP_HEAD_TO_HEAD] - 21.5) > 1.0:
        failures.append(f"head-to-head decided {report[STEP_HEAD_TO_HEAD]:.1f}%, expected 21.5")
    if abs(report[STEP_COMMON_OPPONENTS] - 62.5) > 1.0:
        failures.append(f"common opponents decided {report[STEP_COMMON_OPPONENTS]:.1f}%, expected 62.5")
    verdict(13, "2013 decisiveness: 21.5% head-to-head, 62.5% common opponents, within 1 pt", failures)


def test_criterion_14_at_large_differences_by_season():
    failures = []
    checked = []
    for year in sorted(AT_LARGE_DIFFS):
        needed = (f"games_{year}.csv", f"aq_{year}.txt", f"official_atlarge_{year}.txt")
        if any(optional_file(name) is None for name in needed):
            continue
        checked.append(year)
        _, (_, _, ranking) = real_pipeline(year)
        aq = load_team_list(optional_file(f"aq_{year}.txt"))
        official = load_team_list(optional_file(f"official_atlarge_{year}.txt"))
        result = select_at_large(ranking, aq, len(official))
        diff = diff_selections(result, official)
        ours, theirs = AT_LARGE_DIFFS[year]
        if set(diff.only_mine) != ours:
            failures.append(f"{year}: picked {sorted(diff.only_mine)}, expected {sorted(ours)}")
        if set(diff.only_official) != theirs:
            failures.append(
                f"{year}: displaced {sorted(diff.only_official)}, expected {sorted(theirs)}"
            )
    if not checked:
        pytest.skip("no season has game log, qualifier list, and official picks installed")
    verdict(
        14,
        f"at-large pick differences exact for seasons {checked}",
        failures,
    )


def test_criterion_15_rating_vs_rpi_rank_agreement():
    full = []
    bubble = []
    for year in TAU_SEASONS:
        if optional_file(f"games_{year}.csv") is None:
            continue
        ds, (_, _, ranking) = real_pipeline(year)
        rpi_ranks = compute_rpi(ds).ranks()
        full.append(kendall_tau(ranking, rpi_ranks))
        bubble.append(kendall_tau(ranking, rpi_ranks, window=(6, 16)))
    if not full:
        pytest.skip("no historical game logs installed")
    failures = []
    mean_full = statistics.mean(full)
    mean_bubble = statistics.mean(bubble)
    if abs(mean_full - 0.8566) > 0.01:
        failures.append(f"full-list tau {mean_full:.4f}, expected 0.8566 +/- 0.01")
    if abs(mean_bubble - 0.7334) > 0.02:
        failures.append(f"ranks 6-16 tau {mean_bubble:.4f}, expected 0.7334 +/- 0.02")
    verdict(
        15,
        f"rank agreement over {len(full)} seasons: full 0.8566 +/- 0.01, bubble 0.7334 +/- 0.02",
        failures,
    )


def test_criterion_16_our_picks_outperform_official_picks():
    """Pooled margin-vs-strength regression across all discrepancy seasons."""
    plain_a, plain_b = [], []
    capped_a, capped_b = [], []
    used = []
    for year in sorted(AT_LARGE_DIFFS):
        if optional_file(f"games_{year}.csv") is None:
            continue
        used.append(year)
        ds, (ratings, _, _) = real_pipeline(year)
        ours, theirs = AT_LARGE_DIFFS[year]
        plain = strength_regression(ds, ratings.ratings, ours, theirs)
        plain_a += list(plain.samples_a)
        plain_b += list(plain.samples_b)
        capped = strength_regression(ds, ratings.ratings, ours, theirs, goal_cap=7)
        capped_a += list(capped.samples_a)
        capped_b += list(capped.samples_b)
    if not plain_a:
        pytest.skip("no discrepancy-season game logs installed")
    failures = []
    pooled = pooled_regression(plain_a, plain_b)
    if not pooled.group_offset > 0:
        failures.append(f"offset {pooled.group_offset:.3f} not positive")
    if not pooled.p_value < 0.05:
        failures.append(f"p = {pooled.p_value:.3g}, expected < 0.05")
    with_cap = pooled_regression(capped_a, capped_b)
    if not with_cap.group_offset > 0:
        failures.append(f"direction lost under 7-goal cap (offset {with_cap.group_offset:.3f})")
    verdict(
        16,
        f"our picks outscore official picks (p < 0.05), pooled over seasons {used}",
        failures,
    )
