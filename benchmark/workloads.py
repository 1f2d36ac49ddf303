"""The workloads and the loop that measures one of them.

``run.py`` starts this file as a fresh child process per workload, with
``src`` on PYTHONPATH and BLAS/OpenMP pinned to one thread. It prints one JSON
object as its last line. All ops are sequential: one closed-loop client.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import powerwise
import powerwise.cli as cli
import powerwise.experiments as experiments
import powerwise.ingest as ingest
import powerwise.report as report
import powerwise.rpi as rpi
import powerwise.selection as selection
import powerwise.tiebreak as tiebreak

import gen
import oracle
import speed
from oracle import require
from spans import Tracer, self_times

SRC = Path(__file__).resolve().parent.parent / "src"
TOP_K = 15
ARTIFACTS = ("ratings/ratings.csv", "pairwise/outcomes.csv", "pairwise/points.csv", "ranking.csv")


def digest_of(texts: dict[str, str]) -> dict[str, str]:
    return {name: gen.sha256(text) for name, text in texts.items()}


def oracle_games(dataset) -> list[oracle.Game]:
    return [
        oracle.Game(
            (g.date.isoformat(), g.home_team, g.away_team, g.game_index),
            g.home_team,
            g.away_team,
            g.home_score,
            g.away_score,
            g.neutral_site,
        )
        for g in dataset.games
    ]


class Workload:
    """A prepared season, one operation on it, and that operation's checks.

    ``op`` holds only the calls into powerwise and is what gets timed;
    ``check`` compares its output with the oracles and returns the output
    digests. ``same_output`` marks workloads whose every op must give
    identical digests.
    """

    in_process = True
    same_output = True

    def __init__(self, log: Path, seed: int, work: Path):
        self.log, self.work = log, work
        self.games = oracle.read_games(log.read_text(encoding="utf-8"))
        self.n_teams = len({t for g in self.games for t in (g.home, g.away)})
        self.expected = oracle.massey_ratings(self.games)
        self.dataset = ingest.build_season(ingest.load_games(log), gen.SEASON) if self.in_process else None

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int, tracer: Tracer):
        return self.op(i)

    def check(self, out) -> dict:
        raise NotImplementedError

    def check_season(self, ratings, table, ranking, expected=None) -> None:
        """The invariants every ``rank_season`` result must meet; ``expected`` defaults to the log's ratings."""
        oracle.check_pair_count(
            self.n_teams, sum(table.points.values()), len(table.unresolved()), len(table.outcomes)
        )
        require(tiebreak.replay_order(ranking) == ranking.order(), "ranking does not replay from its audits")
        oracle.check_ratings(ratings.ratings, self.expected if expected is None else expected)


class SeasonCli(Workload):
    """``python -m powerwise rank --games LOG --out DIR``, one subprocess per op."""

    in_process = False

    def _argv(self, i: int) -> tuple[list[str], Path]:
        out = self.work / f"out-{i}"
        return ["rank", "--games", str(self.log), "--out", str(out)], out

    def op(self, i):
        argv, out = self._argv(i)
        proc = subprocess.run(
            [sys.executable, "-m", "powerwise", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        return proc.returncode, proc.stderr, out

    def traced_op(self, i, tracer):
        """The same run split in two: a fresh interpreter's import, then ``main`` in-process."""
        argv, out = self._argv(i)
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import powerwise.cli"], check=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, "", out

    def check(self, out):
        code, stderr, root = out
        try:
            require(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
            texts = {name: (root / name).read_text(encoding="utf-8") for name in ARTIFACTS}
            oracle.check_pairwise_csvs(texts["pairwise/outcomes.csv"], texts["pairwise/points.csv"], self.n_teams)
            oracle.check_ranking_csv(texts["ranking.csv"])
            oracle.check_ratings_csv(texts["ratings/ratings.csv"], self.expected, self.games)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return digest_of({name.rpartition("/")[2]: texts[name] for name in ARTIFACTS[1:]})


class League500(Workload):
    """Rank, RPI, at-large selection and the three exports, in-process."""

    def __init__(self, log, seed, work):
        super().__init__(log, seed, work)
        self.expected_rpi = oracle.rpi(self.games)
        n_aq = max(1, self.n_teams // 16)
        self.aq = tuple(sorted(random.Random(f"aq:{seed}").sample(self.dataset.teams, n_aq)))
        self.bids = n_aq

    def op(self, i):
        ratings, table, ranking = tiebreak.rank_season(self.dataset)
        rpi_table = rpi.compute_rpi(self.dataset)
        field = selection.select_at_large(ranking, self.aq, self.bids)
        texts = {
            "outcomes.csv": report.export_pairwise_csv(table),
            "points.csv": report.export_points_csv(table),
            "ranking.csv": report.export_ranking_csv(ranking),
        }
        return ratings, table, ranking, rpi_table, field, texts

    def check(self, out):
        ratings, table, ranking, rpi_table, field, texts = out
        self.check_season(ratings, table, ranking)
        oracle.check_rpi(rpi_table.rpi, self.expected_rpi)
        candidates = [t for t in ranking.order() if t not in self.aq]
        require(field.at_large == tuple(candidates[: self.bids]), "at-large field is not the top non-AQ teams")
        require(field.first_out == candidates[self.bids], "first team out is not the next non-AQ team")
        return digest_of(texts)


class ConferenceChain(Workload):
    """``rank_season`` on weakly linked conferences, where the solve is the cost."""

    def op(self, i):
        return tiebreak.rank_season(self.dataset)

    def check(self, out):
        ratings, table, ranking = out
        digests = digest_of(
            {"outcomes.csv": report.export_pairwise_csv(table), "ranking.csv": report.export_ranking_csv(ranking)}
        )
        self.check_season(ratings, table, ranking)
        return digests


class FlipScan(Workload):
    """Flip the next game of a seeded order and rerun the paper's sensitivity experiment."""

    same_output = False

    def __init__(self, log, seed, work):
        super().__init__(log, seed, work)
        self.order = random.Random(f"flips:{seed}").sample(range(len(self.games)), len(self.games))
        self.expected_rpi = oracle.rpi(self.games)
        self.season = tiebreak.rank_season(self.dataset)
        try:  # checked once here; every op's check repeats the verdict
            self.check_season(*self.season)
            self.season_error = None
        except oracle.CheckFailed as exc:
            self.season_error = str(exc)

    def op(self, i):
        game = self.dataset.games[self.order[i % len(self.order)]]
        return game, [
            experiments.perturbation_experiment(self.dataset, game, method, top_k=TOP_K)
            for method in ("power", "rpi")
        ]

    def check(self, out):
        game, (power, by_rpi) = out
        key = (game.date.isoformat(), game.home_team, game.away_team, game.game_index)
        after_games = oracle.flipped(self.games, key)
        require(after_games != self.games, f"flipped game {key} is not in the log")
        for rep in (power, by_rpi):
            for ranking in (rep.before, rep.after):
                require(tiebreak.replay_order(ranking) == ranking.order(), "ranking does not replay from its audits")
            before, after = rep.before.ranks(), rep.after.ranks()
            moves = tuple(
                (e.team, before[e.team], after[e.team])
                for e in rep.before.entries
                if e.rank <= TOP_K and after[e.team] != before[e.team]
            )
            require(rep.rank_changes == moves, f"{rep.method}: reported rank changes disagree with the rankings")
        require(self.season_error is None, f"pre-flip season: {self.season_error}")
        require(power.before == self.season[2], "pre-flip ranking differs from the season's ranking")
        # rank the flipped season afresh, check it in full, and require the experiment's ranking to equal it
        flip = dataclasses.replace(game, home_score=game.away_score, away_score=game.home_score)
        flipped_records = [flip if g == game else g for g in self.dataset.games]
        after_season = tiebreak.rank_season(ingest.build_season(flipped_records, self.dataset.season))
        self.check_season(*after_season, expected=oracle.massey_ratings(after_games))
        require(power.after == after_season[2], "post-flip ranking differs from a fresh ranking of the flipped season")
        oracle.check_rpi({e.team: e.points for e in by_rpi.before.entries}, self.expected_rpi)
        oracle.check_rpi({e.team: e.points for e in by_rpi.after.entries}, oracle.rpi(after_games))
        moves = json.dumps([power.rank_changes, by_rpi.rank_changes])
        return {"moves": gen.sha256(moves), "moves_power": power.n_changed, "moves_rpi": by_rpi.n_changed}


WORKLOADS = {
    "season-cli": SeasonCli,
    "league-500": League500,
    "conference-chain": ConferenceChain,
    "flip-scan": FlipScan,
}

# span name -> per-layer time metric that sums its self time
TIME_METRICS = {
    "ingest.load_games": "ingest.parse_s",
    "ingest.build_season": "ingest.build_s",
    "power_rating.solve_power_ratings": "power_rating.solve_s",
    "pairwise.run_tournament": "pairwise.tournament_s",
    "tiebreak.break_ties": "tiebreak.break_ties_s",
    "rpi.compute_rpi": "rpi.compute_s",
    "selection.select_at_large": "selection.select_s",
    "experiments.perturbation_experiment[power]": "experiments.perturb_power_s",
    "experiments.perturbation_experiment[rpi]": "experiments.perturb_rpi_s",
}
COUNT_METRICS = (
    "power_rating.sweeps",
    "power_rating.converged",
    "power_rating.max_err_goals",
    "power_rating.components",
    "pairwise.pairs",
    "pairwise.decided_head_to_head",
    "pairwise.decided_common_opponents",
    "pairwise.decided_power_rating",
    "pairwise.unresolved",
    "tiebreak.tie_groups",
    "tiebreak.largest_group",
    "experiments.top15_moves_power",
    "experiments.top15_moves_rpi",
    "report.outcomes_bytes",
)


def count_calls(calls) -> dict[str, float]:
    """Work counts of one traced op, read from the results its layer calls returned."""
    c = dict.fromkeys(COUNT_METRICS, 0)
    solves = [(args[0], result) for name, args, result in calls if name == "power_rating.solve_power_ratings"]
    if solves:
        c["power_rating.converged"] = int(all(r.converged for _, r in solves))
    for dataset, result in solves:
        c["power_rating.sweeps"] += result.iterations
        c["power_rating.components"] = max(c["power_rating.components"], len(result.components))
        err = oracle.max_rating_error(result.ratings, oracle.massey_ratings(oracle_games(dataset)))
        c["power_rating.max_err_goals"] = max(c["power_rating.max_err_goals"], err)
    for name, args, result in calls:
        if name == "pairwise.run_tournament":
            c["pairwise.pairs"] += len(result.outcomes)
            for o in result.outcomes:
                step = "unresolved" if o.deciding_step == "unresolved" else f"decided_{o.deciding_step}"
                c[f"pairwise.{step}"] += 1
        elif name == "tiebreak.break_ties":
            sizes = Counter(e.tie_group for e in result.entries if e.tie_group is not None)
            c["tiebreak.tie_groups"] += len(sizes)
            c["tiebreak.largest_group"] = max(c["tiebreak.largest_group"], *sizes.values(), 0)
        elif name.startswith("experiments.perturbation_experiment["):
            c[f"experiments.top15_moves_{result.method}"] += result.n_changed
        elif name == "report.export_pairwise_csv":
            c["report.outcomes_bytes"] += len(result.encode("utf-8"))
    return c


def time_metric(span_name: str) -> str | None:
    if span_name.startswith("report."):
        return "report.export_s"
    return TIME_METRICS.get(span_name)


def layer_metrics(tracer: Tracer, counts: dict, traced_times: list, untraced_times: list) -> dict:
    """Per-layer self times as medians over the traced ops; counts from the first traced op."""
    keys = (*TIME_METRICS.values(), "report.export_s")
    ops = {s["op"]: s for s in tracer.spans if s["name"] == "op"}
    per_op = {op: dict.fromkeys(keys, 0.0) for op in ops}
    # covered: self time that a reported metric accounts for. The self time of
    # wrappers such as cli.main or tiebreak.rank_season, and of the op span, is not.
    covered = dict.fromkeys(ops, 0.0)
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        metric = time_metric(span["name"])
        if metric is not None:
            per_op[span["op"]][metric] += t
        if metric is not None or span["name"] == "cli.import":
            covered[span["op"]] += t
    coverage = [covered[op] / (s["end"] - s["start"]) for op, s in ops.items()]
    metrics = {m: statistics.median(op[m] for op in per_op.values()) for m in keys}
    metrics.update(counts)
    pairs = counts["pairwise.pairs"]
    metrics["pairwise.us_per_pair"] = 1e6 * metrics["pairwise.tournament_s"] / pairs if pairs else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(untraced_times) - 1
    metrics["trace.span_coverage"] = min(coverage)
    return metrics


def span_table(tracer: Tracer) -> dict:
    """Total and self seconds per span name, summed over the run."""
    table: dict = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
    return table


def warm_up(name: str, seed: int, work: Path) -> None:
    """One untimed op on a smoke-size log, so first-call costs stay out of the timings."""
    log = work / "warmup.csv"
    log.write_text(gen.workload_log(name, seed, "tiny"), encoding="utf-8")
    WORKLOADS[name](log, seed, work).op(0)


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run ops back to back until ``seconds`` have passed; with ``trace``, every other op is traced.

    Untraced ops are timed by a ``speed.Gauge``: wall time without its sampling, and time at the
    reference host speed. Traced ops run without it.
    """
    tracer = Tracer() if trace else None
    gauge = speed.Gauge()
    times = {False: [], True: []}
    ref_times = []
    records, failures = [], []
    counts = None
    attempted = 0
    start = time.perf_counter()
    while attempted < (2 if trace else 1) or time.perf_counter() - start < seconds:
        i = attempted
        attempted += 1
        traced = trace and i % 2 == 0
        out = None  # drop the last op's output, so peak RSS is one op's
        try:
            if traced:
                t0 = time.perf_counter()
                tracer.op = i
                with tracer.installed(), tracer.span("op"):
                    out = workload.traced_op(i, tracer)
                times[True].append(time.perf_counter() - t0)
            else:
                with gauge.timed() as timing:
                    out = workload.op(i)
                times[False].append(timing.wall_s)
                ref_times.append(timing.ref_s)
            if traced and counts is None:
                counts = count_calls(tracer.calls)
            record = workload.check(out)
            if workload.same_output and records:
                require(record == records[0]["digests"], f"op {i} output digests differ from op {records[0]['op']}'s")
            records.append({"op": i, "digests": record})
        except Exception as exc:  # a failed op is counted, and the run goes on
            failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}"})
        finally:
            if tracer:
                tracer.calls.clear()
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "op_times_s": times[False],
        "op_ref_times_s": ref_times,
        "failures": failures[:10],
        "records": records,
    }
    if trace:
        result["traced_op_times_s"] = times[True]
        result["layers"] = layer_metrics(tracer, counts, times[True], times[False]) if counts and times[False] else {}
        result["span_table"] = span_table(tracer)
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--log", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    args = p.parse_args(argv)
    if not Path(powerwise.__file__).resolve().is_relative_to(SRC):
        print(f"error: powerwise imported from {powerwise.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if cls.in_process:
        warm_up(args.workload, args.seed, args.work)
    result = measure(cls(args.log, args.seed, args.work), args.seconds, bool(args.trace))
    who = resource.RUSAGE_SELF if cls.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
