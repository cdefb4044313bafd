"""Golden outputs for the sample scenario.

`metersim run --events` on the sample, cut to a one-day horizon, at seeds
42-46 and experienced fractions 0.0 and 0.9, and over several days at seed
42: the sample as it stands, at 8 days with fractions 0.0 and 0.9, and at
10 000 households over 2 days with fraction 0.5, where each archetype
group holds thousands of agents and crosses refill chunks.  Seed and
fraction go through
the CLI overrides, so a change to the engine, the validator or the
override path that moves a single output byte fails here.  `metersim
sweep` on the sample at fractions 0.0, 0.3 and 0.9 holds the paper's
headline figure, the peak window reduction, to its CSV.  `metersim
network-stats` on the sample at seeds 42-46 and at 5 000 households holds
the network summary, path length included, to its printed line.  A change
that means to alter outputs must say so and record the new values.
"""

import hashlib
import json

import pytest

from metersim.cli import main

OUTPUTS = ("loadcurve.csv", "adoption.csv", "events.csv")

# (seed, --experienced-fraction) -> SHA-256 of OUTPUTS, in that order
GOLDEN = {
    (42, "0.0"): (
        "743c3b619f0e6ee0187b742fd465dadacd8bc12207ca79933e47715f93e656fd",
        "b1d70fbee7199dbcd3b956d5e17cbceb391c0f6536db579c23c53266aa177184",
        "7d61075a9ecc0d5ce5b89746f4b6b0996cd439e44cae94caec46de24bfe891e8",
    ),
    (42, "0.9"): (
        "7acf8dc38bca949f190e2ebc0e4362796f02c16df2af98e239125b5e8a901957",
        "3fcb5f7c96d1fada6aaf1034cf54b277bf3fdeb2e012ad627ee9776dfd02d779",
        "ed3d7a4169e5abc8c2f671733ab17f56166beb0d8ef30a1907d3aec4f710c7ed",
    ),
    (43, "0.0"): (
        "9d9dc77ec64881bf1cf9f1b63497250448755e9f81a29d0f8fb7f8a0eda14a66",
        "b1d70fbee7199dbcd3b956d5e17cbceb391c0f6536db579c23c53266aa177184",
        "5fddee9a471a41157266dbe1da8bde058429ba49f0cac002d8827dabb8425b75",
    ),
    (43, "0.9"): (
        "82a471eaa51e1bb85bf636f29d32d5e6e31db3b6624bd92d1ae760729d3dcbd8",
        "3fcb5f7c96d1fada6aaf1034cf54b277bf3fdeb2e012ad627ee9776dfd02d779",
        "166a3818d3cab9641d7bd10e5ee69a73dce89718d76ca04b72c13d7f3843eefa",
    ),
    (44, "0.0"): (
        "1fb8d4f4a86bb2c3c0c4191c9552ea1ad43ce8eb6e5bd0eedab1145693c410a4",
        "b1d70fbee7199dbcd3b956d5e17cbceb391c0f6536db579c23c53266aa177184",
        "751ab1f2cae2a44d3bdeb1f523092bf8aa3dbf1cba7d0d080f62b77ef66d5396",
    ),
    (44, "0.9"): (
        "814021822f7e2d9a6b7978df408c98c62f4af038a6d11120aed4d2da73af2ff1",
        "3fcb5f7c96d1fada6aaf1034cf54b277bf3fdeb2e012ad627ee9776dfd02d779",
        "05be44093b70f1172e35980825476a7ed9d95e231a6c0dc5ed1a50b1a30300de",
    ),
    (45, "0.0"): (
        "04e08c30a8e041817a7eaaca08d9d91de1159ac311bb6bc88a74ecd33ed13f6a",
        "b1d70fbee7199dbcd3b956d5e17cbceb391c0f6536db579c23c53266aa177184",
        "dd83bd1e3a50e8a77360a60fa94b8d1c90843a2261a13ad1c1bf8c383f53aab1",
    ),
    (45, "0.9"): (
        "cd9101f28d55df633cb4ff139f713d098acd11152ec0f42825406d5cc5b6bae7",
        "3fcb5f7c96d1fada6aaf1034cf54b277bf3fdeb2e012ad627ee9776dfd02d779",
        "a5a73331c0e001b3d89c1c377c6b48e4f234e4cdfdfbc3be404e4c3bf35399b4",
    ),
    (46, "0.0"): (
        "8bfe10d361ca05d79c65f7b674cbd91e57b7de23942084d670d75949567591c4",
        "b1d70fbee7199dbcd3b956d5e17cbceb391c0f6536db579c23c53266aa177184",
        "fb497a8b79a5ed1a292691329f6ec34a06166a28688cc4fa33aa2e601b358b67",
    ),
    (46, "0.9"): (
        "60b8c8d7daaed6695416ea7a0f9905c9830978211ae6f055bf3b90fdea9ee4d3",
        "3fcb5f7c96d1fada6aaf1034cf54b277bf3fdeb2e012ad627ee9776dfd02d779",
        "f0126643ea928ca84cdff38d30f02c7c49b951e5b29e23c86e498a031eb4063c",
    ),
}


@pytest.fixture(scope="module")
def one_day_sample(sample_path, tmp_path_factory):
    with open(sample_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["scenario"]["horizon_days"] = 1
    path = tmp_path_factory.mktemp("golden") / "sample_1day.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("seed, fraction", sorted(GOLDEN))
def test_golden_output_hashes(one_day_sample, tmp_path, capsys, seed, fraction):
    out = tmp_path / "out"
    code = main(["run", "--config", one_day_sample, "--out", str(out), "--events",
                 "--seed", str(seed), "--experienced-fraction", fraction])
    assert code == 0, capsys.readouterr().err
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS)
    assert digests == GOLDEN[(seed, fraction)]


# (horizon_days or None for the sample's 7, --experienced-fraction) ->
# SHA-256 of OUTPUTS at seed 42: later day boundaries, learning crossings
# and the daily bonus reset
GOLDEN_DAYS = {
    (None, "0.0"): (
        "b827ea7ecc5be978a2874868ea4158c36616ab0f1dd20c8bb0ba68ea17c8749a",
        "3cfd699e84132f98a19343ab34cb5af47f765db89cbc0207576892cdf8e6ec99",
        "35e49b33ff677ff09035e731d34533d6b16bff013213f6e6a44addfc073c8be2",
    ),
    (8, "0.0"): (
        "b733a596e577ee2f7cd0edffc36c09a53633cf2edce5052854d6b3c7d63edd95",
        "115fbe9eab3863969c886b7aa9e43daec69435f33f9b9d1a0bb4c135b9fcb62d",
        "0408e82fdf493259a1e4d3a59e983502435b971af98646c01679d9aefa49dfe7",
    ),
    (8, "0.9"): (
        "da7c9bc1ec59bc2a9fe624c57077035ba85f6e3d9f3f5f73f1f37c857b838473",
        "8bc6ad6cbc24aabd10ae9207ee3d8d1353b0828814ac53f439e54ef2a9ad5bf9",
        "5e0797bcbbf0f9a4bc62e395e948ec12c90051734633beaa8c15b97df2c0f637",
    ),
}


@pytest.mark.parametrize("horizon, fraction", list(GOLDEN_DAYS))
def test_golden_output_hashes_over_days(sample_path, tmp_path, capsys, horizon, fraction):
    config = sample_path
    if horizon is not None:
        with open(sample_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["scenario"]["horizon_days"] = horizon
        config = tmp_path / "sample.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out), "--events",
                 "--seed", "42", "--experienced-fraction", fraction])
    assert code == 0, capsys.readouterr().err
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS)
    assert digests == GOLDEN_DAYS[(horizon, fraction)]


# SHA-256 of OUTPUTS at seed 42 for 10 000 households over 2 days at
# fraction 0.5: 490 390 event rows
GOLDEN_10K = (
    "d73f715a864c64379840d164dc295f3f65b4f72e940ced912b208afab28d47a6",
    "4b17300fc39b82bad760eb7bb503bfb710a47953597afe70d6390bd62e77ae76",
    "0f365ddcb2e3b3c71d9f5b4223f468d2fac9a44b2a3e5b0d86dd1311c156ff1b",
)


def test_golden_output_hashes_at_10k_households(sample_path, tmp_path, capsys):
    with open(sample_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["scenario"].update(population=10_000, horizon_days=2, initial_experienced_fraction=0.5)
    config = tmp_path / "sample_10k.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out), "--events", "--seed", "42"])
    assert code == 0, capsys.readouterr().err
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS)
    assert digests == GOLDEN_10K


# SHA-256 of the sweep CSV at seed 42, and its peak_reduction column
GOLDEN_SWEEP = "4bc512ee3afd087c8201affc41d93db24649b0bee358c18ef0b3c91cc639428b"
GOLDEN_SWEEP_REDUCTIONS = ["0.000000", "0.074304", "0.216482"]


def test_golden_sweep(sample_path, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", sample_path, "--fractions", "0.0,0.3,0.9",
                 "--seed", "42", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == GOLDEN_SWEEP_REDUCTIONS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SWEEP


NETWORK_HEADER = "nodes,edges,mean_degree,clustering_coefficient,mean_path_length"

# (seed, population or None for the sample's) -> network-stats data line
GOLDEN_NETWORK = {
    (42, None): "1000,2000,4.000000,0.371433,8.732000",
    (43, None): "1000,2000,4.000000,0.370119,8.617000",
    (44, None): "1000,2000,4.000000,0.377033,9.069000",
    (45, None): "1000,2000,4.000000,0.372333,8.792000",
    (46, None): "1000,2000,4.000000,0.363410,8.520000",
    (42, 5000): "5000,10000,4.000000,0.377855,11.566000",
}


@pytest.mark.parametrize("seed, population", list(GOLDEN_NETWORK))
def test_golden_network_stats(sample_path, tmp_path, capsys, seed, population):
    config = sample_path
    if population is not None:
        with open(sample_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["scenario"]["population"] = population
        config = tmp_path / "sample.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["network-stats", "--config", str(config), "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == f"{NETWORK_HEADER}\n{GOLDEN_NETWORK[(seed, population)]}\n"
