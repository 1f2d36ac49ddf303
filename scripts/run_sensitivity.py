#!/usr/bin/env python3
"""Compare how hard one flipped low-stakes game shakes RPI vs power-rating ranks.

For each trial: build a synthetic league, flip the first game played between
two bottom-tier teams, and count how many of the top K teams change rank under
each method. Prints per-trial counts and the medians.
"""

import argparse
import statistics

from powerwise.experiments import perturbation_experiment
from powerwise.synthetic import synthetic_league


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--teams", type=int, default=18)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first trial")
    parser.add_argument("--top-k", type=int, default=15, help="watched slice of the table")
    parser.add_argument("--weak-pool", type=int, default=6, help="bottom teams eligible to flip")
    args = parser.parse_args(argv)

    rpi_counts = []
    power_counts = []
    seed = args.seed - 1
    print(f"{'trial':>5} {'flipped game':<30} {'rpi':>4} {'power':>6}")
    while len(rpi_counts) < args.trials:
        seed += 1
        league = synthetic_league(args.teams, seed=seed)
        ds = league.dataset
        weak = set(sorted(ds.teams, key=lambda t: league.strengths[t])[: args.weak_pool])
        low_stakes = [g for g in ds.games if {g.home_team, g.away_team} <= weak]
        if not low_stakes:
            continue
        game = low_stakes[0]
        rpi = perturbation_experiment(ds, game, "rpi", top_k=args.top_k).n_changed
        power = perturbation_experiment(ds, game, "power", top_k=args.top_k).n_changed
        rpi_counts.append(rpi)
        power_counts.append(power)
        label = f"{game.away_team} at {game.home_team}"
        print(f"{len(rpi_counts):>5} {label:<30} {rpi:>4} {power:>6}")

    print(
        f"\nmedian top-{args.top_k} rank changes over {args.trials} trials: "
        f"rpi {statistics.median(rpi_counts)}, power {statistics.median(power_counts)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
