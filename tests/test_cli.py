"""End-to-end checks of the command-line front end (in-process)."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolebell import MODEL_NAMES, ExperimentConfig, SignSequence, correlation
from boolebell.cli import _write_files, build_parser, run

SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_witness_right_angle(self, capsys):
        code, out, err = invoke(capsys, "witness", "--a", "[1,0,0]", "--b", "[0,1,0]")
        assert code == 0
        assert "case=right" in out
        assert "lhs=1.414214" in out
        assert "assignment=uxv" in out
        assert err == ""

    def test_bruteforce_prints_unit_max(self, capsys):
        code, out, _ = invoke(capsys, "bruteforce", "--n", "8")
        assert code == 0
        assert "max_lhs=1.000000" in out

    def test_bruteforce_at_the_length_cap(self, capsys):
        code, out, _ = invoke(capsys, "bruteforce", "--n", "60")
        assert code == 0
        assert "max_lhs=1.000000" in out
        code, out, err = invoke(capsys, "bruteforce", "--n", "121")
        assert (code, out) == (2, "")
        assert err == "error: length 121 exceeds cap 120\n"

    def test_check_boole_pass(self, capsys):
        code, out, _ = invoke(
            capsys, "check-boole", "--f", "+--+", "--g", "++++", "--h=----"
        )
        assert code == 0
        assert "verdict=PASS" in out
        assert "lhs=" in out

    def test_correlate_text_and_csv(self, capsys):
        code, out, _ = invoke(capsys, "correlate", "--f", "++--", "--g", "+-+-")
        assert code == 0
        assert "value=0.000000" in out
        code, out, _ = invoke(
            capsys, "correlate", "--f", "++--", "--g", "+-+-", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,value,stderr"
        assert row.split(",")[0] == "4"

    def test_correlate_reads_sequence_files(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("++--+\n")
        code, out, _ = invoke(capsys, "correlate", "--f", f"@{path}", "--g", "++--+")
        assert code == 0
        assert "value=1.000000" in out

    @pytest.mark.parametrize(
        "sweep, labels",
        [
            ("30:150:30", ["30.0", "60.0", "90.0", "120.0", "150.0"]),
            # a negative START needs the = form; argparse reads "-30:..." as a flag
            ("-30:-10:10", ["-30.0", "-20.0", "-10.0"]),
        ],
    )
    def test_witness_sweep_csv(self, capsys, sweep, labels):
        code, out, _ = invoke(capsys, "witness", f"--sweep={sweep}", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["theta_deg"] for r in rows] == labels
        for r in rows:
            assert float(r["lhs_optimal"]) >= float(r["lhs_geometric"]) - 1e-12
            assert float(r["lhs_geometric"]) > 1.0

    def test_witness_sweep_text_labels_rows_as_the_csv_does(self, capsys):
        # one decimal printed theta_deg=10.1 twice for steps below 0.1 degree
        sweep = ["witness", "--sweep", "10:10.2:0.05"]
        _, text, _ = invoke(capsys, *sweep)
        _, table, _ = invoke(capsys, *sweep, "--format", "csv")
        labels = [line.split(",")[0].removeprefix("theta_deg=") for line in text.splitlines()]
        assert labels == [r["theta_deg"] for r in csv.DictReader(io.StringIO(table))]
        assert len(set(labels)) == len(labels) == 5

    def test_witness_sweep_plot_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "sweep")
        code, _, _ = invoke(
            capsys, "witness", "--sweep", "45:135:45", "--plot", prefix, "--out",
            str(tmp_path / "sweep.txt")
        )
        assert code == 0
        for series in ("geometric", "optimal"):
            lines = (tmp_path / f"sweep_{series}.dat").read_text().splitlines()
            assert len(lines) == 3
            x, y = lines[1].split()
            assert float(x) == 90.0
            assert abs(float(y) - math.sqrt(2)) < 1e-9

    def test_witness_sweep_plot_files_with_an_empty_prefix(self, capsys, tmp_path, monkeypatch):
        # an empty prefix was dropped as if --plot were absent
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(capsys, "witness", "--sweep", "45:135:45", "--plot", "")
        assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "_geometric.dat", "_optimal.dat"
        ]

    @pytest.mark.parametrize("sweep", ["0.5:inf:1", "nan:10:1", "1:179:nan", "-inf:10:1"])
    def test_witness_sweep_rejects_non_finite_values(self, capsys, monkeypatch, sweep):
        # an infinite STOP used to loop for ever: fail instead of computing a row
        def no_rows(*args):
            raise AssertionError("--sweep computed a row")

        monkeypatch.setattr("boolebell.cli.optimal_witness", no_rows)
        code, out, err = invoke(capsys, "witness", f"--sweep={sweep}", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == "error: --sweep START, STOP and STEP must be finite\n"

    @pytest.mark.parametrize(
        "sweep, theta",
        [("1e17:2e17:1", "1e+17"), ("9007199254740990:9007199254741000:1", "9007199254740992.0")],
    )
    def test_witness_sweep_rejects_a_step_that_stops_advancing(
        self, capsys, monkeypatch, sweep, theta
    ):
        # theta += step stops moving once step is below the float spacing at
        # theta (2**53 in the second sweep); the row stub fails rather than
        # loops if the sweep runs on
        rows = []

        def few_rows(theta_deg, a, b):
            rows.append(theta_deg)
            if len(rows) > 5:
                raise AssertionError("--sweep kept computing rows")
            return {"theta_deg": theta_deg, "case": "", "lhs_geometric": 0.0, "lhs_optimal": 0.0}

        monkeypatch.setattr("boolebell.cli._witness_row", few_rows)
        code, out, err = invoke(capsys, "witness", f"--sweep={sweep}", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --sweep step 1.0 is below the float spacing at {theta}, "
            "so the sweep cannot advance\n"
        )


    def test_witness_sweep_rows_are_bounded(self, capsys, monkeypatch):
        # 1e12 rows would not fit in memory: refuse before computing one
        def no_rows(*args):
            raise AssertionError("--sweep computed a row")

        monkeypatch.setattr("boolebell.cli._witness_row", no_rows)
        code, out, err = invoke(capsys, "witness", "--sweep", "0:1e9:1e-3", "--format", "csv")
        assert code == 2
        assert out == ""
        assert err == "error: --sweep 0:1e9:1e-3 would compute more than 1000000 rows\n"

    @pytest.mark.parametrize("sweep", ["10:5:1", "90:89.999999:1", "-1:-2:0.5"])
    def test_witness_sweep_that_computes_no_row_exits_two(self, capsys, sweep):
        # START above STOP + 1e-9 printed a blank line and exited 0
        code, out, err = invoke(capsys, "witness", f"--sweep={sweep}")
        assert (code, out) == (2, "")
        assert err == f"error: --sweep {sweep} computes no row: START is above STOP\n"

    @pytest.mark.parametrize("sweep, theta", [("0:180:1", "0.0"), ("1:180:1", "180.0")])
    def test_witness_sweep_through_colinear_axes_names_the_row(
        self, capsys, tmp_path, sweep, theta
    ):
        prefix = tmp_path / "sweep"
        code, out, err = invoke(capsys, "witness", "--sweep", sweep, "--plot", str(prefix))
        assert (code, out) == (2, "")
        assert err == (
            f"error: --sweep row at {theta} degrees: axes are colinear; "
            "no witness direction exists\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_witness_of_axes_whose_squares_leave_the_float_range(self, capsys):
        wide = invoke(capsys, "witness", "--a", "[1e200,1e200,0]", "--b", "[0,1e-200,0]")
        plain = invoke(capsys, "witness", "--a", "[1,1,0]", "--b", "[0,1,0]")
        assert wide == plain
        assert plain[0] == 0

    def test_witness_sweep_of_one_row_within_the_tolerance(self, capsys):
        # STOP + 1e-9 still admits START, so this is one row, not an empty sweep
        code, out, _ = invoke(capsys, "witness", "--sweep", "90.0000000005:90:1", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 2


class TestSamplingCommands:
    def test_simulate_prepared_dump_roundtrip(self, capsys, tmp_path):
        u_path, x_path = tmp_path / "u.txt", tmp_path / "x.txt"
        code, out, _ = invoke(
            capsys,
            "simulate-prepared", "--axis", "[0,0,1]", "--alpha", "[1,0,0]",
            "--n", "500", "--seed", "5",
            "--dump-u", str(u_path), "--dump-x", str(x_path),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        u = SignSequence.from_text(u_path.read_text())
        x = SignSequence.from_text(x_path.read_text())
        assert len(u) == len(x) == 500
        assert correlation(u, x).value == doc["estimate"]

    def test_simulate_singlet_csv_columns(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate-singlet", "--alpha", "[0,0,1]", "--beta", "[0,0,1]",
            "--n", "200", "--seed", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        for column in ("direction_alpha", "direction_beta", "n", "correlation", "stderr"):
            assert column in row
        # aligned wings are exactly anticorrelated
        assert float(row["correlation"]) == -1.0
        assert row["seed"] == "3"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [["simulate-singlet", "--alpha", "[1,0,0]", "--beta", "[0,1,0]", "--n", "10"],
         ["certify-ap", "--singlet-beta", "[0,1,0]", "--directions", "[[1,0,0]]", "--n", "1000"]],
        ids=["simulate-singlet", "certify-ap"],
    )
    def test_zero_cosine_target_is_not_negative(self, capsys, argv, fmt):
        # the target was -0.0: simulate-singlet negated a clamped 0.0, and
        # certify-ap's far-wing axis -beta carries -0.0 components
        code, out, _ = invoke(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "text":
            assert "target=0.000000" in out
        else:
            doc = json.loads(out)
            target = (doc["certificate"]["rows"][0] if "certificate" in doc else doc)["target"]
            assert (target, math.copysign(1.0, target)) == (0.0, 1.0)

    def test_lhv_dump_lambdas(self, capsys, tmp_path):
        lam_path = tmp_path / "lam.csv"
        code, out, _ = invoke(
            capsys,
            "lhv", "--model", "sign-sphere", "--alpha", "[1,0,0]", "--beta", "[0,1,0]",
            "--n", "300", "--seed", "12", "--dump-lambdas", str(lam_path),
        )
        assert code == 0
        assert "closed_form=0.000000" in out
        rows = list(csv.reader(io.StringIO(lam_path.read_text())))
        assert rows[0] == ["lambda_x", "lambda_y", "lambda_z"]
        assert len(rows) == 301
        for row in rows[1:5]:
            norm = sum(float(c) ** 2 for c in row)
            assert abs(norm - 1.0) < 1e-12


def _no_lambdas(hidden):
    raise AssertionError("built the n x 3 lambdas without being asked to")


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_lhv_and_sample_lhv_share_one_draw(capsys, monkeypatch, tmp_path, model):
    # one draw rule: the CLI's dump is the library's retained state, and
    # neither answers a run through the n x 3 lambdas
    from boolebell import realism
    from boolebell.geometry import UnitVector3
    from boolebell.rng import RngStream

    argv = ["lhv", "--model", model, "--alpha", "[1,2,3]", "--beta", "[0,-1,2]",
            "--n", "257", "--seed", "31"]

    def library_run():
        return realism.sample_lhv(realism.make_lhv_model(model), UnitVector3(1, 2, 3),
                                  UnitVector3(0, -1, 2), 257, RngStream(31))

    lam_path = tmp_path / "lam.csv"
    code, _, err = invoke(capsys, *argv, "--dump-lambdas", str(lam_path))
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(lam_path.read_text())))
    assert rows[1:] == [[repr(x) for x in row] for row in library_run()[2].lambdas().tolist()]

    for draws in ("_CircleDraws", "_SphereDraws"):
        monkeypatch.setattr(f"boolebell.realism.{draws}.lambdas", _no_lambdas)
    a_seq, b_seq, _ = library_run()
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["correlation"] == correlation(a_seq, b_seq).value


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_lambda_dump_in_pieces_has_the_bytes_of_one_piece(capsys, monkeypatch, tmp_path, model):
    # the dump is formatted a chunk at a time; 50 rows in chunks of 7 end mid-chunk
    argv = ["lhv", "--model", model, "--alpha", "[1,2,3]", "--beta", "[0,-1,2]", "--n", "50"]
    whole, pieces = tmp_path / "whole.csv", tmp_path / "pieces.csv"
    assert invoke(capsys, *argv, "--dump-lambdas", str(whole))[0] == 0
    monkeypatch.setattr("boolebell.cli._DUMP_ROWS", 7)
    assert invoke(capsys, *argv, "--dump-lambdas", str(pieces))[0] == 0
    assert pieces.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().splitlines()) == 51


@pytest.mark.parametrize(
    "failure, message",
    [
        (MemoryError("Unable to allocate the next chunk"),
         "error: out of memory (Unable to allocate the next chunk)"),
        (OSError(28, "No space left on device"),
         "error: cannot write --dump-lambdas file l.csv: [Errno 28] No space left on device"),
    ],
    ids=["memory", "disk-full"],
)
def test_dump_that_fails_midway_leaves_no_new_file(capsys, monkeypatch, tmp_path, failure,
                                                   message):
    # the dump's file is open, its first piece written, when the second
    # fails; the run removes it and the --out file, as when a write fails
    def lambdas_that_fail(hidden, start=0, stop=None):
        if start:
            raise failure
        return np.zeros((min(stop, len(hidden)), 3))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("boolebell.cli._DUMP_ROWS", 16)
    monkeypatch.setattr("boolebell.realism._CircleDraws.lambdas", lambdas_that_fail)
    code, out, err = invoke(capsys, *LHV, "--out", "x.txt", "--dump-lambdas", "l.csv")
    assert (code, out) == (2, "")
    assert err.startswith(message)
    assert list(tmp_path.iterdir()) == []


class TestDumpMemory:
    """A dump builds and writes its lambdas a piece at a time, so the memory
    it adds to a run holds about one piece's rows, whatever n is."""

    ROWS = 4_096

    def dump_peak(self, monkeypatch, model, n, path):
        # the traced peak while the files are written, above the memory the
        # run holds when writing starts (its sign sequences and hidden state)
        held = []

        def traced_write_files(files, inputs=()):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            _write_files(files, inputs)

        monkeypatch.setattr("boolebell.cli._write_files", traced_write_files)
        tracemalloc.start()
        try:
            code = run(["lhv", "--model", model, "--alpha", "[1,2,3]", "--beta", "[0,-1,2]",
                        "--n", str(n), "--dump-lambdas", str(path)])
            assert code == 0
            return tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_dump_adds_one_piece_at_any_n(self, capsys, monkeypatch, tmp_path, model):
        # a piece's rows, Python lists of three floats, and the array they
        # are made from take about 210 B a row; a piece's csv text held
        # beside them, or a second piece's rows, would more than double it
        monkeypatch.setattr("boolebell.cli._DUMP_ROWS", self.ROWS)
        self.dump_peak(monkeypatch, model, 1_000, tmp_path / "warm.csv")
        four, sixteen = (self.dump_peak(monkeypatch, model, m * self.ROWS, tmp_path / f"{m}.csv")
                         for m in (4, 16))
        assert abs(sixteen - four) <= 0.03 * four
        assert four <= 256 * self.ROWS


# (command, key, default, value, other): a run reads `default` when neither the config
# file nor a flag gives the key (None: the command needs it and exits 2), `value` when
# the file or the flag alone gives it, and `other` when the file gives `value` and the
# flag `other`
PRECEDENCE = [
    *((command, key, default, value, other)
      for command in ("certify-ap", "experiment")
      for key, default, value, other in [("seed", 0, 5, 9), ("n", 100_000, 200, 300),
                                         ("sigma_k", 4.0, 3, 2.5)]),
    ("certify-ap", "directions", None, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]),
    ("experiment", "directions", [], [[0, 0, 1]], [[0, 0, -1], [1, 0, 0]]),
    ("experiment", "a", None, [1, 0, 0], [0, 0, 1]),
    ("experiment", "b", None, [0, 1, 0], [0, 0, 1]),
    ("experiment", "model", "sign-circle", "sign-sphere", "sign-circle"),
]
# each command's flags and config-file keys for a quick run, less the key under test
PRECEDENCE_BASE = {
    "certify-ap": (["certify-ap", "--axis", "[0,0,1]"], {"n": 100, "directions": [[0, 0, 1]]}),
    "experiment": (["experiment"], {"n": 100, "a": [1, 0, 0], "b": [0, 1, 0]}),
}


def _setting_shown(doc: dict, command: str, key: str):
    """The run setting ``key`` as a certify-ap or experiment JSON report shows it."""
    if key in ("seed", "a", "b", "model"):
        return doc[key]
    cert = doc["certificate"] if command == "certify-ap" else doc["detail"]["certificate_u"]
    if key != "directions":
        return cert[key]
    # an experiment certificate's first rows are a, b and the witness direction
    directions = [row["direction"] for row in cert["rows"]]
    return directions if command == "certify-ap" else directions[3:]


class TestCertifyAndExperiment:
    def test_certify_ap_dusty_own_axis_passes(self, capsys):
        # a . a = 0.9999999999999998 against an exact estimate of 1.0
        code, out, _ = invoke(
            capsys,
            "certify-ap", "--axis", "[1,1,0]", "--directions", "[[1,1,0],[1,0,0]]",
            "--n", "1000", "--seed", "3",
        )
        assert code == 0
        assert out.splitlines()[0].endswith("stderr=0.000000, pass=yes")
        assert out.splitlines()[-1] == "verdict=PASS"

    def test_certify_ap_json_envelope(self, capsys):
        code, out, _ = invoke(
            capsys,
            "certify-ap", "--axis", "[0,0,1]",
            "--directions", "[[0,0,1],[1,0,0]]",
            "--n", "5000", "--seed", "21", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for key in ("command", "version", "seed", "config_hash", "certificate"):
            assert key in doc
        assert doc["seed"] == 21
        assert doc["certificate"]["pass"] is True
        assert len(doc["certificate"]["rows"]) == 2

    def test_certify_ap_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 1, "n": 2000, "sigma_k": 5.0,
            "directions": [[0, 0, 1], [0.6, 0, 0.8]],
        }))
        code, out, _ = invoke(
            capsys,
            "certify-ap", "--axis", "[0,0,1]", "--config", str(cfg),
            "--seed", "99", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 99

    @pytest.mark.parametrize("settings, flags, sigma_k", [
        ({}, [], 4.0),
        ({"sigma_k": 3}, [], 3.0),
        ({"sigma_k": 3}, ["--sigma-k", "2.5"], 2.5),
        ({}, ["--sigma-k", "6"], 6.0),
    ], ids=["default", "file", "flag-over-file", "flag"])
    def test_sigma_k_default_is_the_config_records(self, capsys, tmp_path, settings, flags,
                                                   sigma_k):
        assert ExperimentConfig.sigma_k == 4.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "n": 200, "directions": [[0, 0, 1]], **settings}))
        code, out, _ = invoke(capsys, "certify-ap", "--axis", "[0,0,1]", "--config", str(cfg),
                              *flags, "--format", "json")
        assert code == 0
        assert json.loads(out)["certificate"]["sigma_k"] == sigma_k

    @pytest.mark.parametrize("stage", ["default", "file", "flag", "flag-over-file"])
    @pytest.mark.parametrize("command, key, default, value, other", PRECEDENCE,
                             ids=[f"{command}-{key}" for command, key, *_ in PRECEDENCE])
    def test_each_setting_is_its_flag_else_the_file_else_the_default(
        self, capsys, tmp_path, command, key, default, value, other, stage
    ):
        argv, file_keys = PRECEDENCE_BASE[command]
        file_keys = {k: v for k, v in file_keys.items() if k != key}
        if stage in ("file", "flag-over-file"):
            file_keys[key] = value
        flag = {"flag": value, "flag-over-file": other}.get(stage)
        flags = [] if flag is None else [
            f"--{key.replace('_', '-')}", flag if isinstance(flag, str) else json.dumps(flag)
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_keys))
        code, out, err = invoke(capsys, *argv, "--config", str(cfg), *flags, "--format", "json")
        expected = {"default": default, "file": value, "flag": value, "flag-over-file": other}
        if expected[stage] is None:  # the command needs the key
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        assert code in (0, 1)
        assert _setting_shown(json.loads(out), command, key) == expected[stage]

    @pytest.mark.parametrize("key", ["sigmak", "threads", "scenario"])
    @pytest.mark.parametrize("command", ["certify-ap", "experiment"])
    def test_config_file_unknown_key_exits_two(self, capsys, tmp_path, command, key):
        # a misspelt key used to run silently on the default instead
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: 2.5}))
        code, out, err = invoke(capsys, *SEEDED_COMMANDS[command], "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config file has unknown key(s) '{key}'")

    def test_experiment_reads_every_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 7, "n": 3000, "sigma_k": 5.0, "directions": [[0, 0, 1]],
            "a": [1, 0, 0], "b": [0, 1, 0], "model": "sign-sphere",
        }))
        code, out, _ = invoke(capsys, "experiment", "--config", str(cfg), "--format", "json")
        assert code in (0, 1)
        doc = json.loads(out)
        assert (doc["seed"], doc["model"], doc["a"], doc["b"]) == (7, "sign-sphere", [1, 0, 0],
                                                                   [0, 1, 0])
        cert = doc["detail"]["certificate_u"]
        assert (cert["n"], cert["sigma_k"]) == (3000, 5.0)
        assert cert["rows"][-1]["direction"] == [0, 0, 1]

    def test_certify_ap_needs_exactly_one_mode(self, capsys):
        code, _, err = invoke(
            capsys, "certify-ap", "--directions", "[[0,0,1]]", "--n", "200"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_experiment_contradiction_exit_code(self, capsys, tmp_path):
        summary_path = tmp_path / "summary.json"
        code, out, _ = invoke(
            capsys,
            "experiment", "--a", "[1,0,0]", "--b", "[0,1,0]",
            "--n", "5000", "--seed", "31", "--summary", str(summary_path),
        )
        # a certificate fails by construction: that is the demonstration
        assert code == 1
        assert "contradiction_closed=yes" in out
        doc = json.loads(summary_path.read_text())
        assert doc["target_lhs"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert doc["empirical_lhs"] <= 1.0
        assert doc["contradiction_closed"] is True
        assert doc["certificate_u_pass"] is False or doc["certificate_v_pass"] is False

    def test_experiment_csv_sections(self, capsys):
        code, out, _ = invoke(
            capsys,
            "experiment", "--a", "[1,0,0]", "--b", "[0,1,0]",
            "--n", "2000", "--seed", "8", "--format", "csv",
        )
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        sections = {r["section"] for r in rows}
        assert sections == {"triangle", "certificate_u", "certificate_v"}
        assert sum(r["section"] == "triangle" for r in rows) == 3


BAD_CONFIG_VALUES = {
    "n-null": {"n": None},
    "n-float": {"n": 5000.5},
    "directions-flat": {"directions": [1, 2, 3]},
    "directions-null-component": {"directions": [[1, 2, None]]},
    "directions-not-a-list": {"directions": 5},
    "sigma_k-list": {"sigma_k": [4]},
    "sigma_k-beyond-float": {"sigma_k": 10**400},
    "sigma_k-string": {"sigma_k": "4"},
    "scenario-number": {"scenario": 3},
}
# the exact message of some of them: ExperimentConfig's, naming the field
BAD_CONFIG_MESSAGES = {
    "n-null": "n must be an integer, got None",
    "n-float": "n must be an integer, got 5000.5",
    "sigma_k-beyond-float": "sigma_k must be within the float range",
    "sigma_k-string": "sigma_k must be an int or a float, got '4'",
    "directions-not-a-list": "config file key 'directions' must be a JSON list of vectors, got 5",
}


PREPARED = ["simulate-prepared", "--axis", "[0,0,1]", "--alpha", "[1,0,0]", "--n", "100"]
SINGLET = ["simulate-singlet", "--alpha", "[0,0,1]", "--beta", "[1,0,0]", "--n", "100"]
LHV = ["lhv", "--alpha", "[1,0,0]", "--beta", "[0,1,0]", "--n", "100"]
CERTIFY = ["certify-ap", "--axis", "[0,0,1]", "--directions", "[[0,0,1],[1,0,0]]", "--n", "100"]
EXPERIMENT = ["experiment", "--a", "[1,0,0]", "--b", "[0,1,0]", "--n", "100"]
WITNESS = ["witness", "--a", "[1,0,0]", "--b", "[0,1,0]"]


class TestBadInputExitsTwo:
    """Malformed vectors and config values exit 2 with a message, never a
    traceback (exit 1 is kept for a failed verdict)."""

    def test_vector_with_a_null_component(self, capsys):
        code, out, err = invoke(capsys, "witness", "--a", "[1,2,null]", "--b", "[0,1,0]")
        assert (code, out) == (2, "")
        assert err == "error: expected three numbers, got '[1,2,null]'\n"

    def test_lhv_needs_at_least_one_pair(self, capsys):
        code, out, err = invoke(capsys, *LHV[:-1], "0")
        assert (code, out, err) == (2, "", "error: need at least one pair\n")

    def test_directions_flag_that_is_one_vector(self, capsys):
        code, out, err = invoke(
            capsys, "certify-ap", "--axis", "[1,0,0]", "--directions", "[1,2,3]"
        )
        assert (code, out) == (2, "")
        assert err == "error: expected three components, got 1\n"

    @pytest.mark.parametrize("vector", ['["1", true, 0]', '[1, 0, "0"]', "[true, false, false]"])
    def test_vector_with_a_string_or_bool_component(self, capsys, tmp_path, vector):
        # float() took "1" and True, so '["1", true, 0]' ran as [1, 1, 0]
        code, out, err = invoke(capsys, "witness", "--a", vector, "--b", "[0,1,0]")
        assert (code, out) == (2, "")
        assert err == f"error: expected three numbers, got {vector!r}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": json.loads(vector), "b": [0, 1, 0], "n": 100}))
        code, out, err = invoke(capsys, "experiment", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: expected three numbers, got {json.loads(vector)!r}\n"
        cfg.write_text(json.dumps({"n": 100, "directions": [json.loads(vector)]}))
        code, out, err = invoke(capsys, "certify-ap", "--axis", "[0,0,1]", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: expected three numbers, got ")

    @pytest.mark.parametrize(
        "vector, message",
        [
            # float() raised a bare OverflowError
            (f"[{10**400},0,0]", "expected numbers within the float range"),
            # UnitVector3's message named neither the flag nor the vector
            ("[0,0,0]", "expected a finite non-zero vector"),
            ("[1e400,0,0]", "expected a finite non-zero vector"),
            ("[NaN,0,0]", "expected a finite non-zero vector"),
        ],
        ids=["huge-integer", "zero", "infinite", "nan"],
    )
    def test_vector_that_is_not_a_finite_non_zero_triple(self, capsys, tmp_path, vector, message):
        message = f"error: {message}, got {{!r}}\n"
        code, out, err = invoke(capsys, "witness", "--a", vector, "--b", "[0,1,0]")
        assert (code, out, err) == (2, "", message.format(vector))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": [0, 1, 0], "b": json.loads(vector), "n": 100}))
        code, out, err = invoke(capsys, "experiment", "--config", str(cfg))
        assert (code, out, err) == (2, "", message.format(json.loads(vector)))

    @pytest.mark.parametrize(
        "argv, source, detail",
        [
            (["certify-ap", "--axis", "[0,0,1]", "--directions", "[[1,0,0]"], "--directions",
             "Expecting ',' delimiter: line 1 column 9 (char 8)"),
            (["witness", "--a", "[1,0", "--b", "[0,1,0]"], "vector '[1,0'",
             "Expecting ',' delimiter: line 1 column 5 (char 4)"),
        ],
        ids=["directions", "vector"],
    )
    def test_invalid_json_flag_names_the_flag_or_vector(self, capsys, argv, source, detail):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {source} is not valid JSON: {detail}\n")

    @pytest.mark.parametrize("command", ["certify-ap", "experiment"])
    def test_invalid_json_config_file_names_the_file(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 100,')  # truncated
        code, out, err = invoke(capsys, *SEEDED_COMMANDS[command], "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == (
            f"error: config file {cfg} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 11 (char 10)\n"
        )

    @pytest.mark.parametrize("place", ["vector", "directions", "config"])
    def test_integer_past_the_digit_limit_names_its_source(self, capsys, tmp_path, place):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal of more than 4 300 digits
        huge = "1" + "0" * 5000
        vector = f"[{huge},0,0]"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"n": 100, "seed": {huge}}}')
        argv, source = {
            "vector": (["witness", "--a", vector, "--b", "[0,1,0]"], f"vector {vector!r}"),
            "directions": (["certify-ap", "--axis", "[0,0,1]", "--directions", f"[{vector}]"],
                           "--directions"),
            "config": ([*SEEDED_COMMANDS["experiment"], "--config", str(cfg)],
                       f"config file {cfg}"),
        }[place]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {source} is not valid JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("place", ["vector", "directions", "config"])
    def test_json_nested_past_the_recursion_limit_names_its_source(self, capsys, tmp_path, place):
        # json.loads raises a RecursionError, which is no ValueError, for
        # lists nested deeper than the interpreter's recursion limit
        deep = "[" * 1000 + "]" * 1000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"n": 100, "directions": {deep}}}')
        argv, source = {
            "vector": (["witness", "--a", deep, "--b", "[0,1,0]"], f"vector {deep!r}"),
            "directions": (["certify-ap", "--axis", "[0,0,1]", "--directions", deep],
                           "--directions"),
            "config": ([*SEEDED_COMMANDS["experiment"], "--config", str(cfg)],
                       f"config file {cfg}"),
        }[place]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {source} is nested too deeply to parse: maximum recursion")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(BAD_CONFIG_VALUES))
    @pytest.mark.parametrize(
        "argv",
        [["certify-ap", "--axis", "[0,0,1]"], ["experiment", "--a", "[1,0,0]", "--b", "[0,1,0]"]],
        ids=["certify-ap", "experiment"],
    )
    def test_config_file_value_of_the_wrong_type(self, capsys, tmp_path, argv, name):
        # every other key is valid, and no flag overrides the bad one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "directions": [[0, 0, 1]], **BAD_CONFIG_VALUES[name]}))
        code, out, err = invoke(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if name in BAD_CONFIG_MESSAGES:
            assert err == f"error: {BAD_CONFIG_MESSAGES[name]}\n"
        if name == "directions-not-a-list":
            # no --directions flag was given, so the message names the file's key
            assert "'directions'" in err and "config file" in err
            assert "--directions" not in err

    def test_type_error_past_the_config_is_no_input_error(self, monkeypatch):
        # only the ExperimentConfig call reads a TypeError as a config file's bad
        # value; one from anywhere else in a run is a fault and keeps its traceback
        def broken(*args):
            raise TypeError("a fault inside the run")

        monkeypatch.setattr("boolebell.experiments.no_apbp_experiment", broken)
        with pytest.raises(TypeError, match="a fault inside the run"):
            run(EXPERIMENT)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["witness", "--sweep", "1:2"], "--sweep expects START:STOP:STEP in degrees"),
            (["witness", "--sweep", "1:2:0"], "--sweep step must be positive"),
            (["witness", "--a", "[1,0,0]"], "witness needs --a and --b (or --sweep)"),
            (["certify-ap", "--axis", "[0,0,1]"], "certification needs at least one direction"),
            # the mode needs only flags, so it is checked before the file is read
            (["certify-ap", "--config", "missing.json"],
             "choose exactly one of --axis (prepared) or --singlet-beta"),
            (["experiment", "--a", "[1,0,0]"],
             "experiment needs --a and --b (flags or config file)"),
            (["certify-ap", "--axis", "[0,0,1]", "--directions", '"[[1,0,0]]"'],
             "--directions must be a JSON list of vectors, got '[[1,0,0]]'"),
            # flags the command would ignore
            (["witness", "--sweep", "10:11:0.5", "--a", "[0,0,1]", "--optimal"],
             "--sweep cannot be combined with --a"),
            (["witness", "--sweep", "10:11:0.5", "--b", "[0,0,1]"],
             "--sweep cannot be combined with --b"),
            (["witness", "--sweep", "10:11:0.5", "--optimal"],
             "--sweep cannot be combined with --optimal"),
            (["witness", "--a", "[1,0,0]", "--b", "[0,1,0]", "--plot", "P"],
             "--plot needs --sweep"),
        ],
        ids=["sweep-two-parts", "sweep-zero-step", "witness-one-axis", "certify-no-directions",
             "certify-no-mode-before-config", "experiment-one-axis", "directions-flag-not-a-list",
             "sweep-with-a", "sweep-with-b", "sweep-with-optimal", "plot-without-sweep"],
    )
    def test_bad_flags_name_what_is_wrong(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # a --plot that is refused must write nothing
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["certify-ap", "--axis", "[0,0,1]", "--config", "{path}"], b"[1,2]",
             "config file must hold a JSON object"),
            (["experiment", "--config", "{path}"], b"\xff\xfe{}",
             "cannot read --config file {path}: 'utf-8' codec can't decode byte 0xff "
             "in position 0: invalid start byte"),
            (["certify-ap", "--axis", "[0,0,1]", "--config", "{path}"], None,
             "cannot read --config file {path}: [Errno 2] No such file or directory: '{path}'"),
            (["correlate", "--f", "@{path}", "--g", "++"], None,
             "cannot read --f file {path}: [Errno 2] No such file or directory: '{path}'"),
            (["check-boole", "--f", "+-", "--g", "++", "--h", "@{path}"], b"+\xff",
             "cannot read --h file {path}: 'utf-8' codec can't decode byte 0xff "
             "in position 1: invalid start byte"),
        ],
        ids=["config-not-an-object", "config-not-utf8", "config-missing", "sequence-missing",
             "sequence-not-utf8"],
    )
    def test_input_file_errors_name_the_flag_and_file(
        self, capsys, tmp_path, argv, content, message
    ):
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        code, out, err = invoke(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "argv, flag, path",
        [
            (["witness", "--sweep", "10:170:20", "--plot", "P", "--out", "missing/x.txt"],
             "--out", "missing/x.txt"),
            (["witness", "--sweep", "10:170:20", "--plot", "missing/P", "--out", "x.txt"],
             "--plot", "missing/P_geometric.dat"),
            (["lhv", "--alpha", "[1,0,0]", "--beta", "[0,1,0]", "--n", "50",
              "--dump-lambdas", "l.csv", "--out", "missing/x.txt"], "--out", "missing/x.txt"),
            (["lhv", "--alpha", "[1,0,0]", "--beta", "[0,1,0]", "--n", "50",
              "--dump-lambdas", "missing/l.csv", "--out", "x.txt"],
             "--dump-lambdas", "missing/l.csv"),
            (["simulate-prepared", "--axis", "[0,0,1]", "--alpha", "[1,0,0]", "--n", "50",
              "--dump-u", "u.txt", "--dump-x", "missing/x.txt"], "--dump-x", "missing/x.txt"),
            (["experiment", "--a", "[1,0,0]", "--b", "[0,1,0]", "--n", "500",
              "--summary", "s.json", "--out", "missing/x.txt"], "--out", "missing/x.txt"),
        ],
        ids=["sweep-out", "sweep-plot", "lhv-out", "lhv-dump", "prepared-dump", "experiment-out"],
    )
    def test_output_file_errors_name_the_flag_and_leave_no_file(
        self, capsys, tmp_path, monkeypatch, argv, flag, path
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *argv)
        reason = f"[Errno 2] No such file or directory: '{path}'"
        assert (code, out, err) == (2, "", f"error: cannot write {flag} file {path}: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    def test_output_file_error_keeps_a_path_that_existed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.txt").write_text("old\n")
        code, out, err = invoke(
            capsys, "simulate-prepared", "--axis", "[0,0,1]", "--alpha", "[1,0,0]", "--n", "50",
            "--out", "x.txt", "--dump-u", "u.txt", "--dump-x", "missing/x.txt",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --dump-x file missing/x.txt: ")
        assert [path.name for path in tmp_path.iterdir()] == ["x.txt"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bruteforce", "--n", "3", "--out", ""], "cannot write --out file : {dot}"),
            ([*PREPARED, "--dump-u", ""], "cannot write --dump-u file : {dot}"),
            ([*PREPARED, "--dump-x", ""], "cannot write --dump-x file : {dot}"),
            ([*SINGLET, "--dump-a", ""], "cannot write --dump-a file : {dot}"),
            ([*SINGLET, "--dump-b", ""], "cannot write --dump-b file : {dot}"),
            ([*LHV, "--dump-lambdas", ""], "cannot write --dump-lambdas file : {dot}"),
            ([*EXPERIMENT, "--summary", ""], "cannot write --summary file : {dot}"),
            ([*CERTIFY, "--config", ""], "cannot read --config file : {dot}"),
            ([*EXPERIMENT, "--config", ""], "cannot read --config file : {dot}"),
            ([*WITNESS, "--plot", ""], "--plot needs --sweep"),
            (["witness", "--sweep", ""], "--sweep expects START:STOP:STEP in degrees"),
            (["certify-ap", "--axis", "", "--directions", "[[0,0,1]]", "--n", "100"],
             "vector '' is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["out", "dump-u", "dump-x", "dump-a", "dump-b", "dump-lambdas", "summary",
             "certify-config", "experiment-config", "plot", "sweep", "axis"],
    )
    def test_flag_given_an_empty_value_counts_as_given(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        # a truthiness test dropped the empty value: each of these ran as if
        # the flag were absent (or, for --axis, failed on another flag's None)
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *argv)
        message = message.format(dot="[Errno 21] Is a directory: '.'")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate-prepared", "--axis", "[1,0,0]", "--alpha", "[0,1,0]", "--n", "10",
              "--out", "same.txt", "--dump-u", "same.txt"],
             "--out and --dump-u both name the file {cwd}/same.txt"),
            (["witness", "--sweep", "10:20:5", "--plot", "p", "--out", "p_geometric.dat"],
             "--out and --plot both name the file {cwd}/p_geometric.dat"),
            (["simulate-singlet", "--alpha", "[1,0,0]", "--beta", "[0,1,0]", "--n", "10",
              "--dump-a", "x.txt", "--dump-b", "./x.txt"],
             "--dump-a and --dump-b both name the file {cwd}/x.txt"),
            (["simulate-prepared", "--axis", "[1,0,0]", "--alpha", "[0,1,0]", "--n", "10",
              "--out", os.devnull, "--dump-u", os.devnull], None),
        ],
        ids=["out-and-dump", "out-and-plot", "two-dumps", "devnull-twice"],
    )
    def test_two_outputs_that_name_one_file(self, capsys, tmp_path, monkeypatch, argv, message):
        # the later file silently replaced the earlier one; a path that is
        # not a regular file, such as /dev/null, may repeat
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *argv)
        if message is None:
            assert (code, out, err) == (0, "", "")
        else:
            message = message.format(cwd=os.path.realpath(tmp_path))
            assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["certify-ap", "--axis", "[0,0,1]", "--directions", "[[0,0,1]]", "--n", "1000",
              "--config", "cfg.json", "--out", "cfg.json"],
             "--config and --out both name the file {cwd}/cfg.json"),
            (["experiment", "--a", "[1,0,0]", "--b", "[0,1,0]", "--n", "1000",
              "--config", "cfg.json", "--summary", "./cfg.json"],
             "--config and --summary both name the file {cwd}/cfg.json"),
            (["correlate", "--f", "@f.txt", "--g", "++++", "--out", "./f.txt"],
             "--f and --out both name the file {cwd}/f.txt"),
            (["check-boole", "--f", "@f.txt", "--g", "@f.txt", "--h", "+--+"], None),
        ],
        ids=["config-out", "config-summary", "sequence-out", "two-inputs"],
    )
    def test_an_output_may_not_name_an_input(self, capsys, tmp_path, monkeypatch, argv, message):
        # the report replaced the config or sequence file the run had read;
        # two inputs may share a file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"seed": 3}\n')
        (tmp_path / "f.txt").write_text("+-++\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, out, err = invoke(capsys, *argv)
        if message is None:
            assert (code, err) == (0, "")
            assert "verdict=PASS" in out
        else:
            message = message.format(cwd=os.path.realpath(tmp_path))
            assert (code, out, err) == (2, "", f"error: {message}\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["certify-ap", "experiment"])
    def test_non_finite_sigma_k(self, capsys, tmp_path, command, value):
        # NaN wrote invalid JSON and failed every row; inf passed every row
        code, out, err = invoke(capsys, *SEEDED_COMMANDS[command], "--sigma-k", value)
        assert (code, out) == (2, "")
        assert err == f"error: sigma_k must be finite, got {value}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma_k": float(value)}))
        code, out, err = invoke(capsys, *SEEDED_COMMANDS[command], "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: sigma_k must be finite, got {value}\n"


class TestContractDetails:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = [
            "simulate-singlet", "--alpha", "[1,0,0]", "--beta", "[0.6,0,0.8]",
            "--n", "4000", "--seed", "77", "--format", "json",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(argv + ["--out", str(out_a)]) == 0
        assert run(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_usage_error_exits_two(self, capsys):
        code, _, err = invoke(capsys, "correlate", "--f", "++x", "--g", "++-")
        assert code == 2
        assert err.count("\n") == 1

    def test_length_mismatch_exits_two(self, capsys):
        code, _, err = invoke(capsys, "correlate", "--f", "++", "--g", "+++")
        assert code == 2
        assert err.startswith("error:")

    def test_colinear_witness_exits_two(self, capsys):
        code, _, err = invoke(capsys, "witness", "--a", "[1,0,0]", "--b", "[-1,0,0]")
        assert code == 2
        assert "colinear" in err

    def test_unknown_command_exits_two(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "boolebell", "bruteforce", "--n", "5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0
        assert "max_lhs=1.000000" in proc.stdout


SEEDED_COMMANDS = {
    "correlate": ["correlate", "--f", "++--", "--g", "+-+-"],
    "check-boole": ["check-boole", "--f", "+--+", "--g", "++++", "--h=----"],
    "bruteforce": ["bruteforce", "--n", "3"],
    "witness": WITNESS,
    "simulate-prepared": PREPARED,
    "simulate-singlet": SINGLET,
    "lhv": LHV,
    "certify-ap": CERTIFY,
    "experiment": EXPERIMENT,
}
SEED_ENDS = (0, 2**64 - 1)
SEEDS_OUTSIDE = (-1, 2**64)


class TestSeedRange:
    """Seeds key a 64-bit generator: one outside [0, 2**64) would alias."""

    @pytest.mark.parametrize("seed", SEEDS_OUTSIDE)
    @pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
    def test_flag_outside_range_exits_two(self, capsys, command, seed):
        code, out, err = invoke(capsys, *SEEDED_COMMANDS[command], f"--seed={seed}")
        assert code == 2
        assert out == ""
        assert "seed must be in [0, 2**64)" in err

    @pytest.mark.parametrize("seed", SEED_ENDS)
    @pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
    def test_flag_at_range_ends_runs(self, capsys, command, seed):
        code, out, _ = invoke(
            capsys, *SEEDED_COMMANDS[command], "--seed", str(seed), "--format", "json"
        )
        assert code in (0, 1)
        assert json.loads(out)["seed"] == seed

    @pytest.mark.parametrize("seed", SEEDS_OUTSIDE + SEED_ENDS)
    @pytest.mark.parametrize("command", ["certify-ap", "experiment"])
    def test_config_file_seed(self, capsys, tmp_path, command, seed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": seed}))
        code, out, err = invoke(
            capsys, *SEEDED_COMMANDS[command], "--config", str(path), "--format", "json"
        )
        if seed in SEEDS_OUTSIDE:
            assert code == 2
            assert err.startswith("error: seed must be in [0, 2**64)")
        else:
            assert code in (0, 1)
            assert json.loads(out)["seed"] == seed

    @pytest.mark.parametrize("seed", ["０７", "١٢", "²"], ids=["fullwidth", "arabic-indic", "square"])
    @pytest.mark.parametrize("command", ["witness", "certify-ap"])
    def test_flag_of_non_ascii_digits_exits_two(self, capsys, command, seed):
        # "０７" ran as seed 7 and "١٢" as seed 12; "²" got a message naming _seed
        code, out, err = invoke(capsys, *SEEDED_COMMANDS[command], "--seed", seed)
        assert (code, out) == (2, "")
        assert f"seed must be an integer, got {seed!r}" in err

    @pytest.mark.parametrize("seed", [5.5, 5.0, True, "x", None, "5"])
    def test_config_file_seed_must_be_an_integer(self, capsys, tmp_path, seed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": seed}))
        code, _, err = invoke(capsys, *SEEDED_COMMANDS["certify-ap"], "--config", str(path))
        assert code == 2
        assert err.startswith("error: seed must be an integer")


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")


class TestOutOfMemory:
    """A whole-sequence command whose --n does not fit exits 2 with a
    message; the samplers are replaced, so nothing large is allocated."""

    CASES = {
        "sample_prepared": ["simulate-prepared", "--axis", "[0,0,1]", "--alpha", "[1,0,0]"],
        "sample_singlet": ["simulate-singlet", "--alpha", "[0,0,1]", "--beta", "[1,0,0]"],
        "sample_lhv": ["lhv", "--alpha", "[0,0,1]", "--beta", "[1,0,0]"],
    }
    # what each case replaces, where the handler finds it; lhv draws and
    # answers through the library's sample_lhv
    TARGETS = {
        "sample_prepared": "sampler.sample_prepared",
        "sample_singlet": "sampler.sample_singlet",
        "sample_lhv": "realism.sample_lhv",
    }

    @pytest.mark.parametrize("sampler", sorted(CASES))
    def test_memory_error_exits_two(self, capsys, monkeypatch, sampler):
        monkeypatch.setattr(f"boolebell.{self.TARGETS[sampler]}", _out_of_memory)
        code, out, err = invoke(capsys, *self.CASES[sampler], "--n", "1000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory (Unable to allocate 7.28 TiB")
        assert "Traceback" not in err


def _float_draw(*args, **kwargs):
    raise AssertionError("a command drew doubles; it should decide on raw words")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify-ap", "--axis", "[0,0,1]", "--directions", "[[1,0,0]]", "--n", "1001"],
        ["certify-ap", "--singlet-beta", "[0,0,1]", "--directions", "[[1,0,0]]",
         "--n", "1001"],
        SEEDED_COMMANDS["simulate-prepared"],
        SEEDED_COMMANDS["simulate-singlet"],
        *([*SEEDED_COMMANDS[command], "--model", model]
          for command in ("experiment", "lhv") for model in MODEL_NAMES),
    ],
    ids=["certify-prepared", "certify-singlet", "simulate-prepared", "simulate-singlet",
         *(f"{command}-{model}" for command in ("experiment", "lhv") for model in MODEL_NAMES)],
)
def test_sampling_commands_draw_no_doubles(capsys, monkeypatch, argv):
    monkeypatch.setattr("boolebell.rng.RngStream.uniforms", _float_draw)
    code, out, err = invoke(capsys, *argv)
    assert code in (0, 1), err
    assert out


@pytest.mark.parametrize("command", ["certify-ap", "experiment"])
def test_threads_flag_is_gone(capsys, command):
    code, _, err = invoke(capsys, command, "--threads", "2")
    assert code == 2
    assert "unrecognized arguments: --threads" in err


def test_orthogonal_to_flag_is_gone(capsys):
    # swapping --a and --b gives the witness perpendicular to the other axis
    code, _, err = invoke(capsys, "witness", "--a", "[1,0,0]", "--b", "[0,1,0]",
                          "--orthogonal-to", "b")
    assert code == 2
    assert "unrecognized arguments: --orthogonal-to" in err


# --- a grammar fuzzer ---------------------------------------------------------
#
# Every argv is built from the parser's own subcommands and option strings, so
# a new flag is fuzzed with no edit here.  Each value is drawn from a pool of
# well-formed edge cases nine times in ten and from one of malformed ones
# otherwise; "{dir}" in a value stands for a new directory under tmp_path.
# Sizes stay small: --n at most 10**4 (20 for bruteforce), sweeps of at most
# about 1,000 rows and config files with n at most 1,000.

DEEP = "[" * 1000 + "]" * 1000
BIG_INT = "1" + "0" * 400  # past the float range
LONG_INT = "1" * 5000  # past Python's int-to-text digit limit

FUZZ_CONFIG_TEXTS = [  # the first four are well-formed
    '{"n": 500, "directions": [[0,0,1],[1,0,0]], "seed": 7, "sigma_k": 3}',
    '{"a": [1,0,0], "b": [0,1,0], "n": 1000, "model": "sign-sphere"}',
    '{"a": "[1,0,0]", "b": [0,1,1], "n": 100, "directions": [[0,0,1]]}',
    '{"n": 1000, "directions": [[1,0,0]]}',
    '{"a": [1,0,0], "b": [1,0,0], "n": 100}', '{"a": [1,0,0], "b": [0,1,0], "model": "x"}',
    "{}", "[]", "null", "", '{"n": 0}', '{"n": -5}', '{"n": 1.5}', '{"n": true}',
    '{"n": "100"}', '{"seed": 5.5}', '{"seed": "5"}', '{"seed": -1}',
    '{"seed": 18446744073709551616}', '{"sigma_k": 1e400}', f'{{"sigma_k": {BIG_INT}}}',
    '{"sigma_k": NaN}', '{"sigma_k": "4"}', '{"sigma_k": true}', '{"sigma_k": null}',
    '{"n": null}', '{"directions": "x"}', '{"directions": [[0,0,0]]}',
    '{"directions": [[1,0,0], null]}', '{"bogus": 1}', DEEP, f'{{"n": 100, "directions": {DEEP}}}',
]
_CONFIGS = [f"{{dir}}/config{i}.json" for i in range(len(FUZZ_CONFIG_TEXTS))]

# (well-formed, malformed) values by the str flags' dests, and by int, float and seed
FUZZ_INTS = (["1", "2", "3", "17", "20", "100", "400", "1000", "4096", "10000"],
             ["0", "-1", "", "x", "1.5", "1e3", "0x10", " 7", "+5", "1_0", "٣"])  # all <= 20
FUZZ_POOLS = {
    "seed": (["0", "1", "42", "18446744073709551615"],
             ["-1", "18446744073709551616", "1.0", "", "x", "+3", "0x1", "٣"]),
    "sigma_k": (["4", "2", "3", "0.5"],
                ["0", "-1", "1e308", "1e-308", "1e400", "nan", "inf", "-inf", "", "x"]),
    "vector": (["[1,0,0]", "[0,1,0]", "[0,0,1]", "[1,1,0]", "[-1,0,0]", "[0,0,-1]", "[1,1e-9,0]",
                "[1e-3,0,1]", "[1e-320,0,0]", "[1e308,1e308,0]", "[-0.0,0,1]", " [0,1,0] "],
               ["[0,0,0]", "[1e400,0,0]", "[NaN,0,0]", "[Infinity,0,0]", f"[{BIG_INT},0,0]",
                f"[{LONG_INT},0,0]", "[1,2]", "[1,0,0,0]", "[true,0,0]", '["1",0,0]',
                "[null,0,0]", "1", "{}", "", "[", "[1,0,0]x", DEEP]),
    "directions": (["[[1,0,0]]", "[[0,0,1]]", "[[1,0,0],[0,1,0],[0,0,1]]", "[[1,1,1],[-1,0,0]]",
                    "[[1e-3,0,1]]", "[[0,0,-1],[1e-9,1,0]]"],
                   ["[]", "[[0,0,0]]", "[[1,0]]", "[[1e400,0,0]]", "[[NaN,0,0]]", "[1,0,0]", "1",
                    "null", "{}", "", DEEP]),
    "sweep": (["0:90:1", "0:180:0.2", "0:360:0.36", "-10:10:1", "10:10:1", "0:0:1", "0.5:1:0.1"],
              ["90:0:1", "0:90:0", "0:90:-1", "0:1:1e-300", "0:1e9:1", "1e300:1e300:1",
               "nan:1:1", "0:inf:1", "0:90", "a:b:c", ""]),
    # four entries, as in seq.txt, so that most pairs share a length
    "sequence": (["++--", "+-+-", "----", "+−−+", "−−−+", "@{dir}/seq.txt"],
                 ["+", "+" * 64, "-" * 65, "", " ", "+ -", "x", "+1", "@{dir}/long.txt",
                  "@{dir}/latin1.txt", "@{dir}/missing.txt", "@{dir}", "@", "@{dir}/out.txt"]),
    "output": (["{dir}/out.txt", "{dir}/plot", "{dir}/dump.csv", "{dir}/ünï.txt"],
               ["{dir}/missing/out.txt", "{dir}", "{dir}/seq.txt", "{dir}/config0.json", ""]),
    "config": (_CONFIGS[:4], [*_CONFIGS[4:], "{dir}/missing.json", "{dir}", "{dir}/latin1.txt",
                              "{dir}/seq.txt"]),
}
FUZZ_KINDS = {
    **dict.fromkeys(["a", "b", "axis", "alpha", "beta", "singlet_beta"], "vector"),
    **dict.fromkeys(["f", "g", "h"], "sequence"),
    **dict.fromkeys(["out", "plot", "summary", "dump_u", "dump_x", "dump_a", "dump_b",
                     "dump_lambdas"], "output"),
}
FUZZ_JUNK = ["--bogus", "extra", "--", "-n", "--n"]


def _one_in(k: int):
    """True one time in k; it comes last, so a shrunk example makes no odd choice."""
    return st.sampled_from([False] * (k - 1) + [True])


def _mostly(good, bad):
    """One of ``good`` nine times in ten, else one of ``bad``."""
    return _one_in(10).flatmap(lambda odd: st.sampled_from(bad if odd else good))


def _fuzz_values(command: str, action: argparse.Action):
    """A strategy for one flag's value, or None for a flag that takes none."""
    if action.nargs == 0:
        return None
    if action.choices:
        return _mostly(list(action.choices), ["", "A"])
    if action.type is int:
        cap = 20 if command == "bruteforce" else 10**4
        return _mostly([v for v in FUZZ_INTS[0] if int(v) <= cap], FUZZ_INTS[1])
    pool = FUZZ_POOLS.get(FUZZ_KINDS.get(action.dest, action.dest))
    if pool is None:  # a flag this table does not know yet
        return st.text(max_size=20) | _mostly(*FUZZ_POOLS["vector"])
    if action.dest == "sweep":  # steps of 1.5 degrees or more over 1,440: at most 960 rows
        return _mostly(*pool) | st.builds("{}:{}:{}".format, st.integers(-720, 720),
                                          st.integers(-720, 720), st.floats(1.5, 100))
    return _mostly(*pool)


def _grammar() -> dict:
    """{subcommand: [(option string, value strategy or None, required)]}, from
    build_parser(); argparse's own --help is left out."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [(a.option_strings[-1], _fuzz_values(command, a), a.required)
                  for a in p._actions if a.option_strings and a.dest != "help"]
        for command, p in sub.choices.items()
    }


GRAMMAR = _grammar()


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    # a required flag is left out one time in ten, any other flag is given one time in three
    for flag, values, required in draw(st.permutations(GRAMMAR[command])):
        if draw(_one_in(10)) if required else not draw(_one_in(3)):
            continue
        if values is None:
            argv.append(flag)
            continue
        value = draw(values)
        # joined with "=", a value that starts with "-" is not read as a flag
        argv += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    if draw(_one_in(20)):
        argv.append(draw(st.sampled_from(FUZZ_JUNK)))
    return argv


def _fuzz_files(root: Path, argv: list[str]) -> None:
    """The input files, each config file only where ``argv`` names it."""
    root.mkdir()
    (root / "seq.txt").write_text("+-+-\n")
    (root / "long.txt").write_text("+-" * 40)
    (root / "latin1.txt").write_bytes(b"+\xff-")
    for i, text in enumerate(FUZZ_CONFIG_TEXTS):
        if any(f"/config{i}.json" in value for value in argv):
            (root / f"config{i}.json").write_text(text)


class FuzzTimeout(BaseException):
    """A fuzz case ran past its time cap.  Not a TimeoutError: that is an
    OSError, which run would report as exit 2 with an error line."""


FUZZ_CAP_S = 10.0  # per case; all 300 cases take a few seconds


def _run_capped(argv: list[str], cap: float = FUZZ_CAP_S) -> int:
    """run(argv), failing with an AssertionError that names the argv if it
    takes more than ``cap`` seconds; uncapped where there is no setitimer."""
    if not hasattr(signal, "setitimer"):
        return run(argv)

    def expire(signum, frame):
        raise FuzzTimeout

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return run(argv)
    except FuzzTimeout:
        raise AssertionError(f"{argv} ran past its {cap} s cap") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestGrammarFuzzer:
    # tmp_path is only the root: each example writes its files to a new directory in it
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=fuzz_argvs())
    def test_every_argv_exits_0_1_or_2_with_a_message(self, tmp_path, argv):
        root = Path(tempfile.mkdtemp(dir=tmp_path)) / "files"
        argv = [value.replace("{dir}", str(root)) for value in argv]
        _fuzz_files(root, argv)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = _run_capped(argv)  # an exception escaping run, or a hang, fails the example
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert err.startswith(("error:", "usage:")), (argv, err)
        else:
            assert err == "", (argv, err)
        if code == 1:
            assert argv[0] in ("certify-ap", "experiment"), argv

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
    def test_a_case_past_its_cap_fails_naming_the_argv(self, monkeypatch):
        def spin(args):
            while True:
                pass

        monkeypatch.setattr("boolebell.cli._cmd_bruteforce", spin)
        handler = signal.getsignal(signal.SIGALRM)
        with pytest.raises(AssertionError, match=r"\['bruteforce', '--n', '3'\] ran past"):
            _run_capped(["bruteforce", "--n", "3"], 0.1)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler
