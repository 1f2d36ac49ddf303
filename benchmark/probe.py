"""Set-up cost a user pays before the first operation, in a fresh interpreter.

    python3 benchmark/probe.py GAMES.csv

Times ``import powerwise``, ``load_games`` and ``build_season`` of the log and
prints them as one JSON object: each step's wall time, and the whole set-up at
the reference host speed (see ``speed.py``).
"""

import json
import sys
import time

import speed


def main(path: str) -> None:
    gauge = speed.Gauge()
    with gauge.timed() as setup:
        t0 = time.perf_counter()
        import powerwise

        t1 = time.perf_counter()
        games = powerwise.load_games(path)
        t2 = time.perf_counter()
        dataset = powerwise.build_season(games, games[0].season)
        t3 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t1 - t0 - gauge.sampling_s(t0, t1),
                "parse_s": t2 - t1 - gauge.sampling_s(t1, t2),
                "build_s": t3 - t2 - gauge.sampling_s(t2, t3),
                "wall_s": setup.wall_s,
                "ref_s": setup.ref_s,
                "teams": len(dataset.teams),
                "games": len(dataset.games),
                "module": powerwise.__file__,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
