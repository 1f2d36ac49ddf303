"""Byte identity of the published artifacts, pinned as SHA-256 digests.

The library digests were taken from the per-pair implementation of the
tournament and RPI that the matrix forms replaced; the CLI digests (stdout and
every file under ``--out``, report.txt included) from the CLI before every
subcommand shared one run path; the numeric outcomes.csv digest from the
per-pair evidence loop that table-and-gather rendering replaced; the 500-team digests from the tournament
whose step II products were float64 and whose decide ran on whole N×N matrices. Any change to the bytes of these
outputs, or to the ranking order, must be deliberate: update the digest and say why.
"""

import csv
import hashlib
import io
import pathlib

import numpy as np
import pytest

from powerwise import pairwise
from powerwise.cli import main
from powerwise.ingest import serialize_games
from powerwise.pairwise import ComparisonConfig
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


# outcomes.csv of synthetic_league(120, seed=1) with numeric step II and the single-opponent skip: pins the
# "+g" differentials, which the default percentage runs above never show
GOLDEN_NUMERIC_OUTCOMES = "638c0d4ea76d75f52bb652a0cb251689fe081a095a2aa50f96386d4694b51e73"


def test_numeric_outcomes_csv_matches_golden_digest(seasons):
    config = ComparisonConfig(co_mode="numeric", skip_singular_co=True)
    _, table, _ = rank_season(seasons["synthetic_league(120, seed=1)"], comparison_config=config)
    assert sha256(export_pairwise_csv(table)) == GOLDEN_NUMERIC_OUTCOMES


# outcomes.csv and points.csv of synthetic_league(500, seed=1), where step III decides 113,232 of the 124,750
# pairs and the tournament decides in eight row blocks
GOLDEN_500 = {
    ComparisonConfig(): (
        "a873c8252baff4f59aac6621bed9cd59660dae82b93be77036a05a161bdb8680",
        "f19bc2cf2d8025742e44de1cb96b0c3cf7e0ac70a529228726b0b8f242e9d4e8",
    ),
    ComparisonConfig(co_mode="numeric", skip_singular_co=True): (
        "510bbe739be06431a31e940df8f94100219a7935e29cdf70be353376d61289ab",
        "a84593525edbda830977b80dca7c14ceee34731c353ee7dfed90a2ea48e3d45c",
    ),
}


@pytest.fixture(scope="module")
def league500():
    return synthetic_league(500, seed=1).dataset


@pytest.mark.parametrize("config", list(GOLDEN_500), ids=repr)
def test_500_team_outputs_match_golden_digests(league500, config):
    _, table, _ = rank_season(league500, comparison_config=config)
    assert (sha256(export_pairwise_csv(table)), sha256(export_points_csv(table))) == GOLDEN_500[config]


@pytest.mark.parametrize("block_pairs", [1, 150, 1000, 5000])
def test_outcomes_csv_is_the_same_in_smaller_blocks(seasons, monkeypatch, block_pairs):
    """A block is one team row (block_pairs < 240) or several, the last one shorter at 5000 (41 + 41 + 38 rows
    to decide); the default block holds all 7,140 pairs to render and all 120 rows to decide."""
    _, table, _ = rank_season(seasons["synthetic_league(120, seed=1)"])
    monkeypatch.setattr(pairwise, "_BLOCK_PAIRS", block_pairs)
    _, blocked, _ = rank_season(seasons["synthetic_league(120, seed=1)"])
    assert np.array_equal(blocked.step, table.step) and np.array_equal(blocked.sign, table.sign)
    assert sha256(export_pairwise_csv(table)) == GOLDEN["synthetic_league(120, seed=1)"]["outcomes.csv"]
    assert [list(o) for o in table.outcomes] == list(csv.reader(io.StringIO(export_pairwise_csv(table))))[1:]


def test_mini2024_ranking_order(mini2024):
    _, _, ranking = rank_season(mini2024)
    assert ranking.order() == ("Yale", "Brown", "Cornell", "Penn", "Richmond", "Delaware", "Lehigh")


def league120_log(tmp_path):
    path = tmp_path / "league120.csv"
    path.write_text(serialize_games(synthetic_league(120, seed=1).dataset.games), encoding="utf-8")
    return path


# name -> (game log, argv after --games); every run also gets --out
CLI_RUNS = {
    "rank": ("mini", ["rank"]),
    "rank --format svg": ("mini", ["rank", "--format", "svg"]),
    "rpi": ("mini", ["rpi"]),
    "pairwise": ("mini", ["pairwise"]),
    "select": ("mini", ["select", "--aq", "{aq}", "--bids", "2", "--official", "{official}"]),
    "perturb": ("mini", ["perturb", "--date", "2024-02-10", "--teams", "Yale,Brown", "--top-k", "7"]),
    "tau": ("mini", ["tau", "--against", "{reference}", "--window", "1,4"]),
    "regress": ("mini", ["regress", "--group-a", "{group_a}", "--group-b", "{group_b}"]),
    "rank league120": ("league120", ["rank"]),
}

# SHA-256 of stdout and of every file under --out, report.txt included
GOLDEN_CLI = {
    "pairwise": {
        "stdout": "675d14c519993630493914cf539e3f234cfc9729c1c5a254eeb91ad4fe0e7e88",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "report.txt": "80a48e39e9253b3469ba7b84982317d4755996e02f1c89e5dc7833335d80affc",
    },
    "perturb": {
        "stdout": "ee4912e6e567d66dbe247bfd4c60403ef78fda8df1f967d0a744cce59232f5e7",
        "experiments/perturbation.txt": "ee4912e6e567d66dbe247bfd4c60403ef78fda8df1f967d0a744cce59232f5e7",
        "report.txt": "7026952f3a7e6a0e13fe2b34cd056745909fe21ac618d57767ff18312255a95c",
    },
    "rank": {
        "stdout": "a4feb68d3c710f144441b0c533790c458743379b8e5d09ec276ba8cb7430572e",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "ratings/ratings.csv": "868868df93a7fe328d46047c1ec734944b1362de94ee767ec885ca94e639fdea",
        "report.txt": "d004a6eed1b5163bad12f73657581892bac8195e98537d6c3d5c25a5fe8c8eee",
    },
    "rank --format svg": {
        "stdout": "33e7d705191cec48bddb15a75d9eb68a05359544266204c9d0e0aae949089c72",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "ranking.svg": "33e7d705191cec48bddb15a75d9eb68a05359544266204c9d0e0aae949089c72",
        "ratings/ratings.csv": "868868df93a7fe328d46047c1ec734944b1362de94ee767ec885ca94e639fdea",
        "report.txt": "f651b059f63719d56b30cd7c50f65a73c35246ba93b82e38fd4d7e031fb96573",
    },
    "rank league120": {
        "stdout": "23501eb2be317b38840b98c0f8d6f11710bf1624fee54f7c0f0e99e2d2c161d6",
        "pairwise/outcomes.csv": "7086b56588c24571c934d400df9588920c9504d5a3dc0bfd6606fd298c62d5fa",
        "pairwise/points.csv": "4694225ac23145c69b4b609fc6bb4c7549a4ebe2c59915521b8190d6174ed3bc",
        "ranking.csv": "9583e0aae0e3fbdddcb609c4561664a05aee3bc8a6bb2fa97294123cc767da91",
        "ratings/ratings.csv": "5ddb25f394567fb317c2c58df6f6190922321abfa9621c1012939ef1aa49af58",
        "report.txt": "30b8d964d1c24e741950f9b75042dc32d89bf54517b506954856913389626f5c",
    },
    "regress": {
        "stdout": "c04674fae5ba31d9a341a12acf3547fb0c5bf99db383f0765d44a053fd818c54",
        "experiments/regression.svg": "7930f3571655b6a3bef4e47a07674acb494cdcb54f2a09558a1422e72508d5fb",
        "experiments/regression.txt": "c04674fae5ba31d9a341a12acf3547fb0c5bf99db383f0765d44a053fd818c54",
        "report.txt": "bd126eaa3eeb3e02c0af30a4226ca7c1a9045048d92be9aa49621cc19124e745",
    },
    "rpi": {
        "stdout": "d924f650b57174f1ab0ffc9f87cf29ad252efab19cde8060e1469b11dc484514",
        "ratings/rpi.csv": "d924f650b57174f1ab0ffc9f87cf29ad252efab19cde8060e1469b11dc484514",
        "report.txt": "d2a6266de5048665099b03a7fb29a009d62f926499be418507c8fbf500ef123f",
    },
    "select": {
        "stdout": "f77c07072d1009c93a7981e28f3754328327dd4ee78648ed371860c62b12ac60",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "report.txt": "dd89c3221597b2a9af7ff5a97585bf228979d73befbd1762a898ba31bcd1125e",
        "selection.txt": "f77c07072d1009c93a7981e28f3754328327dd4ee78648ed371860c62b12ac60",
    },
    "tau": {
        "stdout": "a7cd2a27d62928a5af919675b0983fee00c5ce2ce65efb93e62841ece1084c43",
        "experiments/tau.txt": "a7cd2a27d62928a5af919675b0983fee00c5ce2ce65efb93e62841ece1084c43",
        "report.txt": "e324beaebdbf876a06080da6b598d2176589bba674046806d616b992bd21d8f3",
    },
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-inputs")
    lists = {
        "aq": "Richmond\n",
        "official": "Yale\nBrown\n",
        "reference": "Brown\nYale\nCornell\nPenn\n",
        "group_a": "Yale\n",
        "group_b": "Delaware\n",
    }
    for name, text in lists.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
    paths = {name: str(root / f"{name}.txt") for name in lists}
    paths["mini"] = str(pathlib.Path(__file__).parent / "data" / "mini2024.csv")
    paths["league120"] = str(league120_log(root))
    return paths


def cli_digests(capsys, tmp_path, inputs, name):
    log, argv = CLI_RUNS[name]
    out = tmp_path / "out"
    code = main([argv[0], "--games", inputs[log], *(a.format(**inputs) for a in argv[1:]), "--out", str(out)])
    assert code == 0
    digests = {"stdout": sha256(capsys.readouterr().out)}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_outputs_match_golden_digests(capsys, tmp_path, cli_inputs, name):
    assert cli_digests(capsys, tmp_path, cli_inputs, name) == GOLDEN_CLI[name]
