"""Byte-for-byte replay of stored CLI outputs in tests/golden/.

Each case is one CLI call whose output is written with ``--out``, plus any
side files it is asked for (``--dump-*``, ``--plot``, ``--summary``); every
file it writes must equal the stored copy.  Every subcommand has a case in
each output format.  Regenerate the stored files only when an output is
meant to change, and say which bytes changed and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boolebell
from boolebell.cli import FORMATS, build_parser, run

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
# n = 150 003 spans three 65 536-pair chunks, so every block ends in a
# partial chunk
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

# 599 rows of the closed form against the exact optimum, 0.5 to 150 degrees
SWEEP = ["witness", "--sweep", "0.5:150:0.25"]
for _fmt, _suffix in (("csv", "csv"), ("json", "json"), ("text", "txt")):
    CASES[f"witness_sweep.{_suffix}"] = [*SWEEP, "--format", _fmt]
CASES["witness_optimal.json"] = [
    "witness", "--a", "[0.3,-0.5,0.8]", "--b", "[-0.2,0.9,0.4]", "--optimal", "--format", "json",
]

# one case per format for the exact-layer and simulate commands; sign
# sequences are passed as --flag=SIGNS, since one may start with "-"
SEQUENCES = {"--f": "+--++-+-+", "--g": "++-+--++-", "--h": "-+++-+--+"}
SUFFIX = {"csv": "csv", "json": "json", "text": "txt"}
for _fmt, _suffix in SUFFIX.items():
    CASES[f"correlate.{_suffix}"] = [
        "correlate", "--f", SEQUENCES["--f"], "--g", SEQUENCES["--g"], "--seed", "3",
        "--format", _fmt,
    ]
    CASES[f"check_boole.{_suffix}"] = [
        "check-boole", *(f"{flag}={signs}" for flag, signs in SEQUENCES.items()),
        "--format", _fmt,
    ]
    CASES[f"bruteforce.{_suffix}"] = ["bruteforce", "--n", "6", "--format", _fmt]
    CASES[f"simulate_prepared.{_suffix}"] = [
        "simulate-prepared", "--axis", "[0.3,-0.5,0.8]", "--alpha", "[0.1,0.2,0.97]",
        "--n", "500", "--seed", "21", "--format", _fmt,
    ]
    CASES[f"simulate_singlet.{_suffix}"] = [
        "simulate-singlet", "--alpha", "[0.3,-0.5,0.8]", "--beta", "[-0.2,0.9,0.4]",
        "--n", "500", "--seed", "22", "--format", _fmt,
    ]
# a single witness for the obtuse AXES pair, and for an acute pair built orthogonal to b
ACUTE = ["--a", "[1,0,0]", "--b", "[0.6,0.7,0.2]", "--orthogonal-to", "b"]
for _fmt in ("csv", "text"):
    _suffix = SUFFIX[_fmt]
    CASES[f"witness_obtuse.{_suffix}"] = ["witness", *AXES, "--format", _fmt]
    CASES[f"witness_acute_orthogonal_b.{_suffix}"] = ["witness", *ACUTE, "--format", _fmt]
    CASES[f"lhv_circle_long.{_suffix}"] = [
        "lhv", "--model", "sign-circle", "--alpha", "[0.3,-0.5,0.8]",
        "--beta", "[-0.2,0.9,0.4]", "--n", LONG_N, "--seed", "23", "--format", _fmt,
    ]
    CASES[f"certify_prepared.{_suffix}"] = [
        "certify-ap", "--axis", "[0.3,-0.5,0.8]", *LONG_DIRECTIONS, "--n", "5000",
        "--seed", "24", "--format", _fmt,
    ]
    CASES[f"certify_singlet.{_suffix}"] = [
        "certify-ap", "--singlet-beta", "[-0.3,0.5,-0.8]", *LONG_DIRECTIONS, "--n", "5000",
        "--seed", "25", "--format", _fmt,
    ]
CASES["experiment_circle_k2.txt"] = _experiment("sign-circle", 26, EXTRA, "text")

# cases that also write side files: case name -> ((flag, its path under the
# output directory), ...), and the files they write there
SIDE_FILES = {
    f"lhv_{_model}.json": ((("--dump-lambdas", f"lhv_{_model}_lambdas.csv"),),
                           [f"lhv_{_model}_lambdas.csv"])
    for _model in ("circle", "sphere")
}
SIDE_FILES["witness_sweep.csv"] = (
    (("--plot", "witness_sweep"),),
    ["witness_sweep_geometric.dat", "witness_sweep_optimal.dat"],
)
SIDE_FILES["simulate_prepared.json"] = (
    (("--dump-u", "simulate_prepared_u.txt"), ("--dump-x", "simulate_prepared_x.txt")),
    ["simulate_prepared_u.txt", "simulate_prepared_x.txt"],
)
SIDE_FILES["simulate_singlet.json"] = (
    (("--dump-a", "simulate_singlet_a.txt"), ("--dump-b", "simulate_singlet_b.txt")),
    ["simulate_singlet_a.txt", "simulate_singlet_b.txt"],
)
SIDE_FILES["experiment_circle_k2.txt"] = (
    (("--summary", "experiment_circle_k2_summary.json"),),
    ["experiment_circle_k2_summary.json"],
)


def case_argv(name: str, outdir: Path) -> tuple[list[str], list[str]]:
    """One case's arguments with its files written under ``outdir``, and
    the names of those files."""
    files = [name]
    argv = CASES[name] + ["--out", str(outdir / name)]
    if name in SIDE_FILES:
        flags, written = SIDE_FILES[name]
        for flag, target in flags:
            argv += [flag, str(outdir / target)]
        files += written
    return argv, files


def produce(name: str, outdir: Path) -> tuple[int, list[str]]:
    """Run one case with its files written under ``outdir``."""
    argv, files = case_argv(name, outdir)
    return run(argv), files


def _expected_code(name: str) -> int:
    return 1 if name.startswith("experiment") else 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    code, files = produce(name, tmp_path)
    assert code == _expected_code(name)
    for file in files:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


def _no_lambdas(hidden):
    raise AssertionError("lhv built the n x 3 lambdas without --dump-lambdas")


@pytest.mark.parametrize("name", ["lhv_circle_long.csv", "lhv_sphere_long.csv"])
def test_lhv_builds_lambdas_only_to_dump_them(name, tmp_path, monkeypatch):
    # the answers come from the compact hidden state alone
    for draws in ("_CircleDraws", "_SphereDraws"):
        monkeypatch.setattr(f"boolebell.realism.{draws}.lambdas", _no_lambdas)
    test_output_matches_golden(name, tmp_path)


def _numpy_on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy that only prints its config
        return False
    return "openblas" in blas.lower()


# Cases whose bytes once moved with the OpenBLAS kernel, when numpy's dot and
# norm built the plane frame.  Prescott and Nehalem use no AVX, so they run on
# any x86-64 CPU made since about 2008; a newer kernel (Haswell, SkylakeX,
# Zen) can die of SIGILL on a CPU without its instructions, so it is not
# forced here.
KERNEL_CASES = ("lhv_circle.json", "experiment_circle_dusty_axes.csv",
                "experiment_sphere_edges.json")


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _numpy_on_openblas(),
    reason="needs numpy on OpenBLAS on x86-64",
)
@pytest.mark.parametrize("kernel", ("Prescott", "Nehalem"))
def test_outputs_do_not_depend_on_the_blas_kernel(kernel, tmp_path):
    src = str(Path(boolebell.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    differ = []
    for name in KERNEL_CASES:
        argv, files = case_argv(name, tmp_path)
        child = subprocess.run([sys.executable, "-m", "boolebell", *argv], env=env,
                               capture_output=True, text=True)
        assert child.returncode == _expected_code(name), child.stderr
        differ += [f for f in files if (tmp_path / f).read_bytes() != (GOLDEN / f).read_bytes()]
    assert differ == []


def _command_and_format(argv: list[str]) -> tuple[str, str]:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return argv[0], fmt


def test_every_command_has_a_case_in_every_format():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    wanted = {(command, fmt) for command in subparsers.choices for fmt in FORMATS}
    assert wanted - {_command_and_format(argv) for argv in CASES.values()} == set()


def test_every_golden_file_has_a_case():
    produced = set(CASES) | {file for *_, written in SIDE_FILES.values() for file in written}
    assert {path.name for path in GOLDEN.iterdir()} == produced


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        produce(case, GOLDEN)
