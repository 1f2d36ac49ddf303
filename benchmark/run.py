"""Benchmark for powerwise: one workload, or all of them, per invocation.

    python3 benchmark/run.py --workload season-cli --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. Each workload runs in a fresh child process
against the sources in ``src/``, pinned to one CPU. ``op_p50_s`` and
``setup_s`` are times at the reference host speed (see ``speed.py``); the wall
times are printed beside them. Every metric is printed on its own line with its
unit and sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``). The full record of
a run (environment, log digest, per-op digests, failures, spans) is written to
``.bench_build/benchmark/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "benchmark"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150  # a set-up probe's limit; a workload child gets this beyond --seconds
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "ingest.parse_s": "s",
    "ingest.build_s": "s",
    "ingest.teams": "count",
    "ingest.games": "count",
    "power_rating.solve_s": "s",
    "power_rating.sweeps": "count",
    "power_rating.converged": "bool",
    "power_rating.max_err_goals": "goals",
    "power_rating.components": "count",
    "pairwise.tournament_s": "s",
    "pairwise.pairs": "count",
    "pairwise.us_per_pair": "us",
    "pairwise.decided_head_to_head": "count",
    "pairwise.decided_common_opponents": "count",
    "pairwise.decided_power_rating": "count",
    "pairwise.unresolved": "count",
    "tiebreak.break_ties_s": "s",
    "tiebreak.tie_groups": "count",
    "tiebreak.largest_group": "teams",
    "rpi.compute_s": "s",
    "selection.select_s": "s",
    "experiments.perturb_power_s": "s",
    "experiments.perturb_rpi_s": "s",
    "experiments.top15_moves_power": "count",
    "experiments.top15_moves_rpi": "count",
    "report.export_s": "s",
    "report.outcomes_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    env.update(dict.fromkeys(THREAD_VARS, THREADS))
    return env


def run_child(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a Python child to completion and parse the JSON on its last stdout line."""
    with subprocess.Popen(
        [sys.executable, *argv],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:  # timeout or interrupt: stop the child and every process it started
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(argv[0]).name} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "powerwise").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: THREADS for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def tail_percentile(values: list[float]) -> str:
    """The highest of p50/p75/p90/p99 with at least ten samples above it."""
    best = None
    for p in (50, 75, 90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100)[p - 1])
    return "no percentile has 10 samples beyond it" if best is None else f"p{best[0]}={best[1]:.4f} s"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        text = gen.workload_log(name, seed)
        log = run_dir / "games.csv"
        log.write_text(text, encoding="utf-8")
        env = child_env(run_dir)
        setups = [run_child([str(HERE / "probe.py"), str(log)], env) for _ in range(SETUP_REPEATS)]
        for s in setups:
            if not Path(s["module"]).resolve().is_relative_to(SRC):
                raise BenchError(f"powerwise was imported from {s['module']}, not from {SRC}")
        argv = [str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        argv += ["--trace", str(int(trace)), "--log", str(log), "--work", str(run_dir)]
        child = run_child(argv, env, timeout=seconds + CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setup_s = statistics.median(s["ref_s"] for s in setups)
    setup_wall = statistics.median(s["wall_s"] for s in setups)
    if trace:
        if not child["layers"]:
            raise BenchError(f"{name}: no traced op completed: {child['failures'][:3]}")
        layers = dict(child["layers"])
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["ingest.teams"] = setups[0]["teams"]
        layers["ingest.games"] = setups[0]["games"]
        metrics = {m: (layers[m], unit) for m, unit in PER_LAYER.items()}
        n_traced = len(child["traced_op_times_s"])
        samples = {
            m: f"self time, median of {n_traced} traced ops" if unit == "s" else "first traced op"
            for m, unit in PER_LAYER.items()
        }
        samples.update(
            {
                "cli.import_s": f"median of {len(setups)} fresh interpreters",
                "ingest.teams": "the log",
                "ingest.games": "the log",
                "pairwise.us_per_pair": "median tournament self time / pairs",
                "trace.overhead_frac": f"median of {n_traced} traced / {len(child['op_times_s'])} untraced ops - 1",
                "trace.span_coverage": f"least of {n_traced} traced ops",
            }
        )
    else:
        if not child["op_times_s"]:
            raise BenchError(f"{name}: no op completed: {child['failures'][:3]}")
        ops = child["op_ref_times_s"]
        values = {"op_p50_s": statistics.median(ops), "setup_s": setup_s, "peak_rss_mb": child["peak_rss_mb"]}
        metrics = {m: (values[m], unit) for m, unit in END_TO_END.items()}
        samples = {
            "op_p50_s": f"n={len(ops)} ops, {tail_percentile(ops)}; wall p50 {statistics.median(child['op_times_s']):.4f} s",
            "setup_s": f"median of {len(setups)} fresh interpreters; wall {setup_wall:.4f} s",
            "peak_rss_mb": "CLI children" if name == "season-cli" else "ops process",
        }
    spans = child.pop("spans", None)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "log": {"sha256": gen.sha256(text), "teams": setups[0]["teams"], "games": setups[0]["games"]},
        "environment": environment(),
        "setups": setups,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "ops_failed_frac": child["failed"] / child["attempted"],
        **child,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        (WORK / "spans" / f"{stem}.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"[{name}] seed {seed}, log sha256 {record['log']['sha256'][:16]}, "
          f"{record['log']['teams']} teams, {record['log']['games']} games")
    for m, (value, unit) in metrics.items():
        print(f"  {m:<36} {value:>14.6g} {unit:<6} {samples[m]}")
    print(f"  {'ops_failed_frac':<36} {record['ops_failed_frac']:>14.6g} {'ratio':<6} "
          f"{child['failed']} of {child['attempted']} ops")
    for failure in child["failures"][:3]:
        print(f"    op {failure['op']} failed: {failure['error']}")
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*gen.LOGS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "powerwise" / "__init__.py").is_file():
        print(f"error: no powerwise sources under {SRC}", file=sys.stderr)
        return 2
    names = list(gen.LOGS) if args.workload == "all" else [args.workload]
    # one CPU for the ops, the speed samples and every child, so the samples see the ops' CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    print(
        json.dumps(
            {
                "correct": all(r["failed"] == 0 for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {
                    (f"{r['workload']}.{m}" if prefix else m): v for r in records for m, v in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
