#!/usr/bin/env python3
"""Generate a synthetic season game log for demos and benchmarks.

Writes the standard game CSV to stdout (or --out) and, on request, the true
team strengths the generator sampled, so downstream experiments can compare
recovered ratings against ground truth.
"""

import argparse
import sys
from pathlib import Path

from powerwise.ingest import serialize_games
from powerwise.synthetic import synthetic_league


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--teams", type=int, default=16, help="league size (default 16)")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    parser.add_argument("--season", type=int, default=2024)
    parser.add_argument("--games-per-team", type=int, default=10)
    parser.add_argument("--hfa", type=float, default=1.0, help="true home advantage in goals")
    parser.add_argument("--noise", type=float, default=1.5, help="per-game margin noise sd")
    parser.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    parser.add_argument("--strengths", type=Path, help="also dump true strengths CSV here")
    args = parser.parse_args(argv)

    league = synthetic_league(
        args.teams,
        seed=args.seed,
        season=args.season,
        games_per_team=args.games_per_team,
        noise_sd=args.noise,
        hfa=args.hfa,
    )
    text = serialize_games(league.dataset.games)
    if args.out:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {len(league.dataset.games)} games to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if args.strengths:
        lines = ["team,strength"]
        for team in sorted(league.strengths):
            lines.append(f"{team},{league.strengths[team]:.6f}")
        args.strengths.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
