"""Byte-for-byte replay of stored CLI outputs in tests/golden/.

Each case is one CLI call whose output is written with ``--out`` (and, for
``lhv``, the hidden draws with ``--dump-lambdas``; for ``witness --sweep``,
the two plot files with ``--plot``); every file it writes must equal the
stored copy.  Regenerate the stored files only when an output is meant to
change, and say which bytes changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from boolebell.cli import run

GOLDEN = Path(__file__).parent / "golden"

N = "20000"
AXES = ["--a", "[0.3,-0.5,0.8]", "--b", "[-0.2,0.9,0.4]"]
EXTRA = ["--directions", "[[0.1,0.2,0.97],[-0.6,0.3,-0.2]]"]


def _experiment(model: str, seed: int, extra: list[str], fmt: str) -> list[str]:
    return ["experiment", *AXES, "--model", model, "--n", N, "--seed", str(seed), *extra,
            "--format", fmt]


CASES = {
    f"experiment_{model}_k{k}.{fmt}": _experiment(f"sign-{model}", seed, extra, fmt)
    for model, seeds in (("circle", (11, 12)), ("sphere", (13, 14)))
    for k, seed, extra in ((0, seeds[0], []), (2, seeds[1], EXTRA))
    for fmt in ("json", "csv")
}
# own-axis rows whose target carries float dust (a . a = 0.9999999999999998)
CASES["experiment_circle_dusty_axes.csv"] = [
    "experiment", "--a", "[1,1,0]", "--b", "[0,1,1]", "--model", "sign-circle",
    "--n", N, "--seed", "3", "--format", "csv",
]
# n = 150 003 spans three 65 536-pair chunks and is not a multiple of 4, so
# prepared u blocks start inside a Philox counter block and every block
# ends in a partial chunk
LONG_N = "150003"
for _model in ("circle", "sphere"):
    CASES[f"experiment_{_model}_k2_long.json"] = [
        "experiment", *AXES, "--model", f"sign-{_model}", "--n", LONG_N, "--seed", "15",
        *EXTRA, "--format", "json",
    ]
LONG_DIRECTIONS = ["--directions", "[[0.3,-0.5,0.8],[0.1,0.2,0.97],[-0.6,0.3,-0.2]]"]
CASES["certify_prepared_long.json"] = [
    "certify-ap", "--axis", "[0.3,-0.5,0.8]", *LONG_DIRECTIONS, "--n", LONG_N,
    "--seed", "16", "--format", "json",
]
CASES["certify_singlet_long.json"] = [
    "certify-ap", "--singlet-beta", "[-0.3,0.5,-0.8]", *LONG_DIRECTIONS, "--n", LONG_N,
    "--seed", "17", "--format", "json",
]
# sphere-law edges: an axis with dx = dy = 0, directions in the x-y plane
# (dz = 0, one of them axis-aligned) and one generic 3-D direction
CASES["experiment_sphere_edges.json"] = [
    "experiment", "--a", "[0,0,1]", "--b", "[0.6,0.8,0]", "--model", "sign-sphere",
    "--n", LONG_N, "--seed", "18",
    "--directions", "[[1,0,0],[-0.28,0.96,0],[0.23,-0.71,0.66]]", "--format", "json",
]
for _model in ("circle", "sphere"):
    CASES[f"lhv_{_model}.json"] = [
        "lhv", "--model", f"sign-{_model}", "--alpha", "[1,0.2,-0.3]",
        "--beta", "[0.4,1,0.5]", "--n", "500", "--seed", "5", "--format", "json",
    ]
for _fmt, _suffix in (("csv", "csv"), ("text", "txt")):
    CASES[f"lhv_sphere_long.{_suffix}"] = [
        "lhv", "--model", "sign-sphere", "--alpha", "[0.3,-0.5,0.8]",
        "--beta", "[-0.2,0.9,0.4]", "--n", LONG_N, "--seed", "19", "--format", _fmt,
    ]

# 599 rows of the closed form against the numerical optimum, 0.5 to 150 degrees
SWEEP = ["witness", "--sweep", "0.5:150:0.25"]
for _fmt, _suffix in (("csv", "csv"), ("json", "json"), ("text", "txt")):
    CASES[f"witness_sweep.{_suffix}"] = [*SWEEP, "--format", _fmt]
CASES["witness_optimal.json"] = [
    "witness", "--a", "[0.3,-0.5,0.8]", "--b", "[-0.2,0.9,0.4]", "--optimal", "--format", "json",
]

# cases that also write side files: case name -> (flag, its path under the
# output directory, the files it writes there)
SIDE_FILES = {
    f"lhv_{_model}.json": ("--dump-lambdas", f"lhv_{_model}_lambdas.csv",
                           [f"lhv_{_model}_lambdas.csv"])
    for _model in ("circle", "sphere")
}
SIDE_FILES["witness_sweep.csv"] = (
    "--plot", "witness_sweep", ["witness_sweep_geometric.dat", "witness_sweep_optimal.dat"]
)


def produce(name: str, outdir: Path) -> tuple[int, list[str]]:
    """Run one case with its files written under ``outdir``."""
    files = [name]
    argv = CASES[name] + ["--out", str(outdir / name)]
    if name in SIDE_FILES:
        flag, target, written = SIDE_FILES[name]
        argv += [flag, str(outdir / target)]
        files += written
    return run(argv), files


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    code, files = produce(name, tmp_path)
    assert code == (1 if name.startswith("experiment") else 0)
    for file in files:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


def test_every_golden_file_has_a_case():
    produced = set(CASES) | {file for *_, written in SIDE_FILES.values() for file in written}
    assert {path.name for path in GOLDEN.iterdir()} == produced


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        produce(case, GOLDEN)
