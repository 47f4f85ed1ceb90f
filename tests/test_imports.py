"""What the package and each command load, and the names the package exports.

``import boolebell`` loads no submodule; each exported name is imported from
its defining module on first use.  The CLI imports a layer only in the
handlers that call it, and ``geometry`` and ``sequences`` import numpy only
inside their array functions, so the geometry and exact commands start
without numpy, OpenSSL (``_hashlib``), the sampling layers or the module
of the sampling commands' handlers (``cli_sampling``).  ``geometry``'s
records are no dataclasses and the CLI imports ``json`` only where it parses
or writes JSON, so ``--version`` and ``witness`` also start without
``dataclasses`` (and the ``inspect`` it loads), and ``--version`` and a csv
sweep without ``json``.  ``sequences`` and ``experiments`` import
``fractions`` only where a Fraction is built, so ``certify-ap`` and the
``simulate`` commands start without it and the ``decimal`` it loads.  The
load checks run in fresh interpreters, since this process has loaded
everything; their scripts print with ``repr``, so that they load no
``json`` themselves.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import boolebell

SRC = Path(__file__).resolve().parent.parent / "src"

# the modules a command pays for only when it samples or hashes
SAMPLING = (
    "numpy",
    "numpy.random",
    "_hashlib",
    "boolebell.cli_sampling",
    "boolebell.experiments",
    "boolebell.realism",
    "boolebell.rng",
    "boolebell.sampler",
)

# runs ARGV... as `python -m boolebell ARGV...` would, then lists sys.modules
RUN_CLI = """
import runpy, sys
sys.argv[0] = "boolebell"
try:
    runpy.run_module("boolebell", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(repr({"code": code, "modules": sorted(sys.modules)}))
"""


def _fresh(script: str, *argv: str):
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1])


LIGHT_COMMANDS = {
    "version": ["--version"],
    "witness": ["witness", "--a", "[1,0,0]", "--b", "[0,1,0]"],
    "witness-sweep": ["witness", "--sweep", "10:170:20", "--format", "csv"],
    "bruteforce": ["bruteforce", "--n", "4"],
    "correlate": ["correlate", "--f", "++--", "--g", "+-+-"],
    "check-boole": ["check-boole", "--f", "+--+", "--g", "++++", "--h=----"],
}

SAMPLING_COMMANDS = {
    "experiment": ["experiment", "--a", "[1,0,0]", "--b", "[0,1,0]", "--n", "2000"],
    "certify-ap": ["certify-ap", "--axis", "[0,0,1]", "--directions", "[[1,0,0]]",
                   "--n", "2000"],
}

# the sampling commands that build no Fraction, and so load neither
# fractions nor the decimal it imports
NO_FRACTION_COMMANDS = {
    "certify-ap-prepared": SAMPLING_COMMANDS["certify-ap"],
    "certify-ap-singlet": ["certify-ap", "--singlet-beta", "[0,0,1]", "--directions",
                           "[[1,0,0]]", "--n", "2000"],
    "simulate-prepared": ["simulate-prepared", "--axis", "[0,0,1]", "--alpha", "[1,0,0]",
                          "--n", "2000"],
    "simulate-singlet": ["simulate-singlet", "--alpha", "[0,0,1]", "--beta", "[1,0,0]",
                         "--n", "2000"],
}


# what a geometry command loads on top of that: no dataclasses (which loads
# inspect, ast, dis and tokenize), and json only in the single-direction
# witness, which parses its vectors
UNUSED = {
    "version": ("dataclasses", "inspect", "json"),
    "witness": ("dataclasses", "inspect"),
    "witness-sweep": ("dataclasses", "inspect", "json"),
}


@pytest.mark.parametrize("command", LIGHT_COMMANDS)
def test_light_commands_load_no_sampling_layer(command):
    result = _fresh(RUN_CLI, *LIGHT_COMMANDS[command])
    assert result["code"] == 0
    unused = (*SAMPLING, *UNUSED.get(command, ()))
    assert [name for name in unused if name in result["modules"]] == []


@pytest.mark.parametrize("argv", SAMPLING_COMMANDS.values(), ids=SAMPLING_COMMANDS)
def test_sampling_commands_load_every_layer(argv):
    result = _fresh(RUN_CLI, *argv)
    assert result["code"] in (0, 1)
    assert [name for name in SAMPLING if name not in result["modules"]] == []


@pytest.mark.parametrize("command", NO_FRACTION_COMMANDS)
def test_sampling_commands_without_a_fraction_load_no_fractions(command):
    result = _fresh(RUN_CLI, *NO_FRACTION_COMMANDS[command])
    assert result["code"] == 0
    assert [name for name in ("fractions", "decimal") if name in result["modules"]] == []


def test_bare_import_loads_no_submodule_and_no_numpy():
    modules = _fresh("import sys, boolebell; print(repr(sorted(sys.modules)))")
    assert [m for m in modules if m.startswith("boolebell.") or m.split(".")[0] == "numpy"] == []


def test_from_import_of_a_submodule_in_a_fresh_interpreter():
    result = _fresh(
        "import types\n"
        "from boolebell import experiments, rng\n"
        "import boolebell\n"
        "print(repr([isinstance(m, types.ModuleType) for m in "
        "(experiments, rng, boolebell.sampler)]))"
    )
    assert result == [True, True, True]


# the package's exports, in order, by defining module
EXPORTS = {
    "sequences": [
        "BRUTE_FORCE_MAX_LENGTH", "CorrelationEstimate", "EmptySequence", "LengthMismatch",
        "LengthTooLarge", "SignSequence", "boole_bell_lhs", "boole_bell_lhs_exact",
        "boole_bell_lhs_prob", "brute_force_max_lhs", "coincidence_probability", "concatenate",
        "correlation",
    ],
    "geometry": [
        "SLOT_ASSIGNMENTS", "ColinearAxes", "InvalidProbability", "UnitVector3", "WitnessReport",
        "angle_between", "assignment_optimum", "clamp_unit_dot", "geometric_witness",
        "malus_lhs_all_assignments", "optimal_witness",
    ],
    "rng": ["RngStream"],
    "sampler": [
        "PreparedSource", "random_signs", "sample_prepared", "sample_singlet",
        "sample_singlet_partner",
    ],
    "realism": [
        "MODEL_NAMES", "CommitmentToken", "LhvModel", "MissingHiddenState", "OrderingViolation",
        "choose_direction", "commit", "counterfactual_values", "make_lhv_model", "measure",
        "sample_lhv", "sign_model_correlation",
    ],
    "experiments": [
        "FEASIBILITY_MAX_LENGTH", "ApCertificate", "ApRow", "ExperimentConfig",
        "FeasibilityResult", "InequalityReport", "NoApBpResult", "TriangleLeg", "certify_ap",
        "feasibility_bruteforce", "no_apbp_experiment", "prepared_ap_experiment",
        "singlet_ap_experiment",
    ],
}


class TestExports:
    def test_all_lists_the_exports_in_order(self):
        assert boolebell.__all__ == [name for names in EXPORTS.values() for name in names]
        assert len(boolebell.__all__) == 55

    @pytest.mark.parametrize("module", EXPORTS)
    def test_each_name_is_its_defining_modules_object(self, module):
        owner = importlib.import_module(f"boolebell.{module}")
        for name in EXPORTS[module]:
            obj = getattr(owner, name)
            assert getattr(boolebell, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == owner.__name__, name  # defined there, not imported
        # the package's table is the one list of public names
        submodules = [m.name for m in pkgutil.iter_modules(boolebell.__path__, "boolebell.")]
        assert [m for m in submodules if hasattr(importlib.import_module(m), "__all__")] == []

    def test_from_import_returns_the_submodule(self):
        from boolebell import experiments

        assert isinstance(experiments, types.ModuleType)
        assert experiments is sys.modules["boolebell.experiments"]

    def test_dir_includes_every_export(self):
        assert set(boolebell.__all__) <= set(dir(boolebell))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            boolebell.no_such_name  # noqa: B018
        assert not hasattr(boolebell, "no_such_name")

    def test_model_names_has_one_definition(self):
        from boolebell import realism

        assert realism.MODEL_NAMES is boolebell.MODEL_NAMES


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert boolebell.__version__ == pyproject["project"]["version"]
