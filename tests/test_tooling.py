"""Guards for the tooling that reaches into the package from outside.

The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name; a name that no longer resolves breaks every traced benchmark run, so
deleting or renaming one of them must fail here first.  It also reads work
counts by argument position or from a result, so the tests below run each
traced layer and check the counts it recorded against the work done.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

from boolebell import experiments
from boolebell.experiments import (
    ExperimentConfig, no_apbp_experiment, prepared_ap_experiment, singlet_ap_experiment,
)
from boolebell.geometry import UnitVector3
from boolebell.realism import MODEL_NAMES, make_lhv_model, sample_lhv
from boolebell.rng import RngStream

X_HAT, Y_HAT, Z_HAT = UnitVector3(1, 0, 0), UnitVector3(0, 1, 0), UnitVector3(0, 0, 1)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = [
        (name, attr)
        for name, owner, attr, _ in _load_tracer()._targets()
        if attr not in (owner.__dict__ if isinstance(owner, type) else vars(owner))
    ]
    assert missing == []


def _traced_spans(run):
    """``run()``'s result, and the spans the tracer recorded while it ran."""
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        result = run()
    finally:
        tracing.uninstall(saved)
    return result, tracer.spans()


def _counts(spans):
    """The spans' work counts, listed in call order under each span name."""
    counts = defaultdict(list)
    for span in spans:
        counts[span["name"]].append(span["counts"])
    return counts


def _traced(run):
    """``run()``'s result, and the work counts of the spans the tracer
    recorded while it ran, listed in call order under each span name."""
    result, spans = _traced_spans(run)
    return result, _counts(spans)


def test_traced_lhv_draws_record_their_pair_count():
    # the tracer reads n by position (a[1] of _circle_points, a[0] of
    # _sphere_points), so an argument reorder would corrupt the metric
    def draw():
        for n, name in enumerate(MODEL_NAMES, start=1001):
            make_lhv_model(name).draw_lambdas(X_HAT, Y_HAT, n, RngStream(1))

    _, counts = _traced(draw)
    assert counts["realism.draw_lambdas"] == [
        {"points": n} for n, _ in enumerate(MODEL_NAMES, start=1001)
    ]


# the pair counts of one block's chunks at n = 600 in chunks of 256
CHUNKS = [256, 256, 88]


@pytest.mark.parametrize("mode", ["prepared", "singlet"])
def test_traced_quantum_certificates_record_their_pairs_and_rows(monkeypatch, mode):
    # the tracer reads random_signs's pairs from its first argument, the
    # samplers' from their result's length and certify_ap's rows from its
    # result, so a reordered argument or a changed return would corrupt them
    monkeypatch.setattr(experiments, "_CHUNK", 256)
    cfg = ExperimentConfig(seed=7, n=600, directions=(X_HAT, Y_HAT, -Z_HAT))
    run, sampler = {
        "prepared": (lambda: prepared_ap_experiment(X_HAT, cfg), "sampler.sample_prepared"),
        "singlet": (lambda: singlet_ap_experiment(Z_HAT, cfg), "sampler.sample_singlet_partner"),
    }[mode]
    cert, spans = _traced_spans(run)
    counts = _counts(spans)
    pairs = [{"pairs": count} for count in CHUNKS * len(cfg.directions)]
    assert counts["sampler.random_signs"] == pairs
    assert counts[sampler] == pairs
    assert counts["experiments.certify_ap"] == [
        {"rows": len(cert.rows), "rows_failed": len(cert.failing_rows())}
    ]
    if mode == "singlet":
        # the far wing is the near wing's prepared source, negated: each partner
        # span has one prepared child of its pair count, and no other exists
        partners = [i for i, span in enumerate(spans) if span["name"] == sampler]
        prepared = [span for span in spans if span["name"] == "sampler.sample_prepared"]
        assert [span["parent"] for span in prepared] == partners
        assert [span["counts"] for span in prepared] == pairs


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_traced_lhv_responses_and_certificates_record_points_and_rows(monkeypatch, name):
    # the tracer reads a response's points as len(a[0]) of _sign_response;
    # the witness chunk answers three times (x, u and the counterfactual v)
    # and a certificate chunk twice (u, then x), each answer read through
    # counterfactual_values, measured or not
    monkeypatch.setattr(experiments, "_CHUNK", 256)
    cfg = ExperimentConfig(seed=7, n=600)
    result, counts = _traced(lambda: no_apbp_experiment(X_HAT, Y_HAT, make_lhv_model(name), cfg))
    k = len(result.certificate_u.rows)
    witness = [count for count in CHUNKS for _ in range(3)]
    certificates = [count for _ in range(2 * k) for count in CHUNKS for _ in range(2)]
    assert counts["realism.response"] == [{"points": n} for n in witness + certificates]
    assert len(counts["realism.counterfactual"]) == len(witness + certificates)
    certs = (result.certificate_u, result.certificate_v)
    assert counts["experiments.certify_ap"] == [
        {"rows": k, "rows_failed": len(cert.failing_rows())} for cert in certs
    ]
    assert sum(len(cert.failing_rows()) for cert in certs) > 0


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_traced_sample_lhv_packs_both_wings_inside_counterfactual_values(name):
    # one counterfactual_values span per wing, and every response and packing
    # of the run is a child of one of them
    model = make_lhv_model(name)
    _, spans = _traced_spans(lambda: sample_lhv(model, X_HAT, Y_HAT, 1000, RngStream(1)))
    reads = [i for i, span in enumerate(spans) if span["name"] == "realism.counterfactual"]
    assert len(reads) == 2
    inner = [span for span in spans
             if span["name"] in ("realism.response", "sequences.from_array")]
    assert len(inner) == 4
    assert all(span["parent"] in reads for span in inner)


@pytest.mark.parametrize("mode", ["prepared", "singlet", *MODEL_NAMES])
def test_every_certificate_chunk_passes_through_the_traced_protocol(monkeypatch, mode):
    # commit, choose_direction and measure are traced by name: each chunk of
    # each certificate block must call all three, in that order, with the
    # sampler running inside measure (the only one of the three with children)
    monkeypatch.setattr(experiments, "_CHUNK", 256)
    cfg = ExperimentConfig(seed=7, n=600, directions=(X_HAT, Y_HAT, -Z_HAT))

    def run():
        if mode == "prepared":
            return (prepared_ap_experiment(X_HAT, cfg),)
        if mode == "singlet":
            return (singlet_ap_experiment(Z_HAT, cfg),)
        result = no_apbp_experiment(X_HAT, Y_HAT, make_lhv_model(mode), cfg)
        return result.certificate_u, result.certificate_v

    certs, spans = _traced_spans(run)
    blocks = sum(len(cert.rows) for cert in certs)
    protocol = [i for i, span in enumerate(spans) if span["name"] == "realism.protocol"]
    assert len(protocol) == 3 * len(CHUNKS) * blocks
    parents = {span["parent"] for span in spans}
    assert [i in parents for i in protocol] == [False, False, True] * len(CHUNKS) * blocks
    assert all(spans[spans[i]["parent"]]["name"] == "experiments.certify_ap" for i in protocol)


@pytest.mark.parametrize("path", sorted([*(ROOT / "src" / "boolebell").glob("*.py"),
                                         *(ROOT / "tests").glob("*.py")]),
                         ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_name_a_module_imports_is_used(path):
    # an unused import is dead code, and in src/ it also slows every command's start-up
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_private_definition_in_src_is_referenced():
    # a private function or class that nothing names is dead code; no caller
    # outside the package should reach it, so its reference must be in src/
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "boolebell").glob("*.py"))}
    defined = {
        node.name: f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert defined
    assert {name: where for name, where in defined.items() if name not in referenced} == {}
