"""Byte identity of the published artifacts, pinned as SHA-256 digests.

The digests were taken from the per-pair implementation of the tournament and
RPI that the matrix forms replaced. Any change to the bytes of these files, or
to the ranking order, on either season must be deliberate: update the digest
and say why.
"""

import hashlib

import pytest

from powerwise.report import export_pairwise_csv, export_points_csv, export_rpi_csv
from powerwise.rpi import compute_rpi
from powerwise.synthetic import synthetic_league
from powerwise.tiebreak import rank_season

GOLDEN = {
    "mini2024": {
        "outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "rpi.csv": "d924f650b57174f1ab0ffc9f87cf29ad252efab19cde8060e1469b11dc484514",
        "order": "5ab8bc17cae1287f7d9c348cde1455c9df5e5633465b89c90680c530ff843189",
    },
    "synthetic_league(120, seed=1)": {
        "outcomes.csv": "7086b56588c24571c934d400df9588920c9504d5a3dc0bfd6606fd298c62d5fa",
        "points.csv": "4694225ac23145c69b4b609fc6bb4c7549a4ebe2c59915521b8190d6174ed3bc",
        "rpi.csv": "45dd3f1ddc6c65d9b802c6b0140374f36392f4c50fe79aeca415f0c81a348fb6",
        "order": "90e94fd516456a6657033d946c0f3819ab9f7d77acefb5644b8589ec8692b705",
    },
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def seasons(mini2024):
    return {"mini2024": mini2024, "synthetic_league(120, seed=1)": synthetic_league(120, seed=1).dataset}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(seasons, name):
    dataset = seasons[name]
    _, table, ranking = rank_season(dataset)
    got = {
        "outcomes.csv": sha256(export_pairwise_csv(table)),
        "points.csv": sha256(export_points_csv(table)),
        "rpi.csv": sha256(export_rpi_csv(compute_rpi(dataset))),
        "order": sha256(",".join(ranking.order())),
    }
    assert got == GOLDEN[name]


def test_mini2024_ranking_order(mini2024):
    _, _, ranking = rank_season(mini2024)
    assert ranking.order() == ("Yale", "Brown", "Cornell", "Penn", "Richmond", "Delaware", "Lehigh")
