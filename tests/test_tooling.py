"""Guards for the tooling that reaches into the package from outside.

The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name; a name that no longer resolves breaks every traced benchmark run, so
deleting or renaming one of them must fail here first.
"""

import importlib.util
from pathlib import Path

from boolebell.geometry import UnitVector3
from boolebell.realism import MODEL_NAMES, make_lhv_model
from boolebell.rng import RngStream

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


def test_traced_lhv_draws_record_their_pair_count():
    # the tracer reads n by position (a[1] of _circle_points, a[0] of
    # _sphere_points), so an argument reorder would corrupt the metric
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        for n, name in enumerate(MODEL_NAMES, start=1001):
            make_lhv_model(name).draw_lambdas(UnitVector3(1, 0, 0), UnitVector3(0, 1, 0), n,
                                              RngStream(1))
    finally:
        tracing.uninstall(saved)
    spans = [span for span in tracer.spans() if span["name"] == "realism.draw_lambdas"]
    assert [span["counts"] for span in spans] == [
        {"points": n} for n, _ in enumerate(MODEL_NAMES, start=1001)
    ]
