"""Byte identity of every command's run, pinned as SHA-256 digests of stdout, stderr and each ``--out`` file.

Each run is ``main`` in-process on ``tests/data/mini2024.csv`` with ``--out``; its exit code is pinned too, so a
run that fails pins its error line. The digests were taken before each command's code moved out of the modules
``rank`` loads. Any change to these bytes must be deliberate: update the digest and say why.
"""

import hashlib
import pathlib

import pytest

from powerwise.cli import main

DATA = pathlib.Path(__file__).parent / "data"

# name -> argv after --games; {name} is tests/data/<name>. reference_ranking.txt is ``rank --format csv --hfa 0``'s
# output, which ``tau`` reads as a ranking by its content; it is not named .csv, since every tests/data CSV is a game log.
RUNS = {
    "rank": ["rank"],
    "rank --format csv": ["rank", "--format", "csv"],
    "rank --format svg": ["rank", "--format", "svg"],
    "rank --aliases": ["rank", "--aliases", "{aliases.csv}"],
    "rpi": ["rpi"],
    "rpi --rpi-weights": ["rpi", "--rpi-weights", "0.3,0.4,0.3"],
    "rpi --rpi-weights, two values": ["rpi", "--rpi-weights", "1,2"],
    "pairwise": ["pairwise"],
    "pairwise numeric": ["pairwise", "--co-mode", "numeric", "--skip-singular-co"],
    "select": ["select", "--aq", "{aq.txt}", "--bids", "2", "--official", "{official.txt}"],
    "perturb": ["perturb", "--date", "2024-02-10", "--teams", "Yale,Brown", "--top-k", "7"],
    "perturb rpi": ["perturb", "--date", "2024-02-10", "--teams", "Brown,Yale", "--method", "rpi",
                    "--rpi-weights", "0.3,0.4,0.3"],
    "perturb, no such game": ["perturb", "--date", "2024-02-11", "--teams", "Yale,Brown"],
    "perturb, one team": ["perturb", "--date", "2024-02-10", "--teams", "Yale"],
    "tau": ["tau", "--against", "{reference.txt}", "--window", "1,4"],
    "tau, ranking csv": ["tau", "--against", "{reference_ranking.txt}"],
    "tau, bad window": ["tau", "--against", "{reference.txt}", "--window", "1"],
    "regress": ["regress", "--group-a", "{group_a.txt}", "--group-b", "{group_b.txt}"],
    "regress rpi": ["regress", "--group-a", "{group_a.txt}", "--group-b", "{group_b.txt}", "--strength", "rpi",
                    "--goal-cap", "5"],
}

# exit code, then SHA-256 of stdout, stderr and every file under --out, report.txt included
GOLDEN = {
    "pairwise": {
        "exit": 0,
        "stdout": "675d14c519993630493914cf539e3f234cfc9729c1c5a254eeb91ad4fe0e7e88",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "report.txt": "80a48e39e9253b3469ba7b84982317d4755996e02f1c89e5dc7833335d80affc",
    },
    "pairwise numeric": {
        "exit": 0,
        "stdout": "faa9e0b0dc28005f6fd2114bd015fa443ba2c7677923c5dbeb6ec65a33cf83ba",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pairwise/outcomes.csv": "151be75eb9dc11b70e25fbf0b273f37e0bbdbb3067a4f3a22bc39b3edf51a4ba",
        "pairwise/points.csv": "9b9fee33f6fbe50ac77d88bff23dd82526fec12e681e3009f0a5f02b7b26df9d",
        "report.txt": "10612695b3cf196c46a249a4a04b8e2f52df03e63252671471e52a30f786a4e1",
    },
    "perturb": {
        "exit": 0,
        "stdout": "ee4912e6e567d66dbe247bfd4c60403ef78fda8df1f967d0a744cce59232f5e7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "experiments/perturbation.txt": "ee4912e6e567d66dbe247bfd4c60403ef78fda8df1f967d0a744cce59232f5e7",
        "report.txt": "7026952f3a7e6a0e13fe2b34cd056745909fe21ac618d57767ff18312255a95c",
    },
    "perturb rpi": {
        "exit": 0,
        "stdout": "361ed2c94624b096cbc443a8f6a2d4bcafd61d082b6bf87af1f8245419cf422c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "experiments/perturbation.txt": "361ed2c94624b096cbc443a8f6a2d4bcafd61d082b6bf87af1f8245419cf422c",
        "report.txt": "1b29bae3d4fd67b6a92d55cc6d891f3bac2b3b3adebeaade332d1182208e55c9",
    },
    "perturb, no such game": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "df07710661aad5c9c26552a7981240c03d45a2937bd057bd7d780b439647dcc4",
    },
    "perturb, one team": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "d5189913e79955acbe77458ff172790cec2140c2e5d821158fd5188949b83256",
    },
    "rank": {
        "exit": 0,
        "stdout": "a4feb68d3c710f144441b0c533790c458743379b8e5d09ec276ba8cb7430572e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "ratings/ratings.csv": "868868df93a7fe328d46047c1ec734944b1362de94ee767ec885ca94e639fdea",
        "report.txt": "d004a6eed1b5163bad12f73657581892bac8195e98537d6c3d5c25a5fe8c8eee",
    },
    "rank --aliases": {
        "exit": 0,
        "stdout": "04e192fc39b2f670bc96785492c937f1dbb83ffbf2e2c6b88e39de365100046d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pairwise/outcomes.csv": "7596f3cf14b739c25e8a82447d7ca59923b7237c8b72365a236c2572b711db72",
        "pairwise/points.csv": "a20a9dd000240d90c1d86e854b0c2d3d0736add797ffe31acd998da8a0acf7b7",
        "ranking.csv": "ee335be52ccca3cf88743121b146c2a89be2ae99ff56001d48bdccf6d625d63f",
        "ratings/ratings.csv": "f8a64586bb9382bb0b25a6389777dda253428ed61256952029788e93ed36743b",
        "report.txt": "d004a6eed1b5163bad12f73657581892bac8195e98537d6c3d5c25a5fe8c8eee",
    },
    "rank --format csv": {
        "exit": 0,
        "stdout": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "ratings/ratings.csv": "868868df93a7fe328d46047c1ec734944b1362de94ee767ec885ca94e639fdea",
        "report.txt": "d004a6eed1b5163bad12f73657581892bac8195e98537d6c3d5c25a5fe8c8eee",
    },
    "rank --format svg": {
        "exit": 0,
        "stdout": "33e7d705191cec48bddb15a75d9eb68a05359544266204c9d0e0aae949089c72",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pairwise/outcomes.csv": "8a5aef84834b7ffd67e00833e854d86b6575dba9867b09a9c1467eb3e7353978",
        "pairwise/points.csv": "a1de73ceba2a7070ec72d5380a3da64db64ee8acd2fdb0aa69cb2567c0f9e87f",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "ranking.svg": "33e7d705191cec48bddb15a75d9eb68a05359544266204c9d0e0aae949089c72",
        "ratings/ratings.csv": "868868df93a7fe328d46047c1ec734944b1362de94ee767ec885ca94e639fdea",
        "report.txt": "f651b059f63719d56b30cd7c50f65a73c35246ba93b82e38fd4d7e031fb96573",
    },
    "regress": {
        "exit": 0,
        "stdout": "c04674fae5ba31d9a341a12acf3547fb0c5bf99db383f0765d44a053fd818c54",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "experiments/regression.svg": "7930f3571655b6a3bef4e47a07674acb494cdcb54f2a09558a1422e72508d5fb",
        "experiments/regression.txt": "c04674fae5ba31d9a341a12acf3547fb0c5bf99db383f0765d44a053fd818c54",
        "report.txt": "bd126eaa3eeb3e02c0af30a4226ca7c1a9045048d92be9aa49621cc19124e745",
    },
    "regress rpi": {
        "exit": 0,
        "stdout": "37c9319a46683a18c7556e5dc21ba645de3994e4546bb74fcda85e1b8c02ea18",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "experiments/regression.svg": "a2500d0738b05652b5a1e13afcf4caf3fe11566c94189ed7c8a1c3bf057730d6",
        "experiments/regression.txt": "37c9319a46683a18c7556e5dc21ba645de3994e4546bb74fcda85e1b8c02ea18",
        "report.txt": "8ec55b47ed99e320c147d4989d1b99020c5b4fb818500f8b79294aa032170649",
    },
    "rpi": {
        "exit": 0,
        "stdout": "d924f650b57174f1ab0ffc9f87cf29ad252efab19cde8060e1469b11dc484514",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ratings/rpi.csv": "d924f650b57174f1ab0ffc9f87cf29ad252efab19cde8060e1469b11dc484514",
        "report.txt": "d2a6266de5048665099b03a7fb29a009d62f926499be418507c8fbf500ef123f",
    },
    "rpi --rpi-weights": {
        "exit": 0,
        "stdout": "e0960e59068e542bffb3b334846075912ffd1c3dce3956efe0ccbf97db33713d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ratings/rpi.csv": "e0960e59068e542bffb3b334846075912ffd1c3dce3956efe0ccbf97db33713d",
        "report.txt": "d2a6266de5048665099b03a7fb29a009d62f926499be418507c8fbf500ef123f",
    },
    "rpi --rpi-weights, two values": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "173c320e5e904a8fca3fcb915a17a38bff4dbd84c5f676c5d9a31b8c23cbef23",
    },
    "select": {
        "exit": 0,
        "stdout": "f77c07072d1009c93a7981e28f3754328327dd4ee78648ed371860c62b12ac60",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ranking.csv": "755330220c5d7bad990a6694433523999e45bf0268994616abf3e58e34e4743d",
        "report.txt": "dd89c3221597b2a9af7ff5a97585bf228979d73befbd1762a898ba31bcd1125e",
        "selection.txt": "f77c07072d1009c93a7981e28f3754328327dd4ee78648ed371860c62b12ac60",
    },
    "tau": {
        "exit": 0,
        "stdout": "a7cd2a27d62928a5af919675b0983fee00c5ce2ce65efb93e62841ece1084c43",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "experiments/tau.txt": "a7cd2a27d62928a5af919675b0983fee00c5ce2ce65efb93e62841ece1084c43",
        "report.txt": "e324beaebdbf876a06080da6b598d2176589bba674046806d616b992bd21d8f3",
    },
    "tau, bad window": {
        "exit": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "dec776a975ddb21086ff326caea4949bdcaa7531041c57684fba39a2b191af99",
    },
    "tau, ranking csv": {
        "exit": 0,
        "stdout": "5fdfface22e01b10bf10f49666693668ee0ee3ec3af9c41c8efeabc7b2d8f418",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "experiments/tau.txt": "5fdfface22e01b10bf10f49666693668ee0ee3ec3af9c41c8efeabc7b2d8f418",
        "report.txt": "9475dd31cc32f4bb315c0bca8063d007ac02d73349d60f4731082fd7f6830fea",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(capsys, tmp_path, name) -> dict:
    files = {p.name: str(p) for p in DATA.iterdir()}
    out = tmp_path / "out"
    argv = [files[a[1:-1]] if a.startswith("{") else a for a in RUNS[name]]
    code = main([argv[0], "--games", files["mini2024.csv"], *argv[1:], "--out", str(out)])
    captured = capsys.readouterr()
    got = {"exit": code, "stdout": sha256(captured.out.encode()), "stderr": sha256(captured.err.encode())}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        got[path.relative_to(out).as_posix()] = sha256(path.read_bytes())
    return got


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_matches_golden_digests(capsys, tmp_path, name):
    assert digests(capsys, tmp_path, name) == GOLDEN[name]
