"""Guards for the tooling that reaches into the package from outside.

The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name; a name that no longer resolves breaks every traced benchmark run, so
deleting or renaming one of them must fail here first.
"""

import importlib.util
from pathlib import Path

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
