"""In-memory span tracing of boolebell's layers, installed from outside.

The benchmark does not edit the package: :func:`install` replaces the
layer-boundary functions of each module with wrappers that record one span
per call (name, start, end, parent) plus the work counts of that call, and
returns the original values.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`self_times` and :func:`summarize` turn spans into per-layer figures:
a span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("rng", "sequences", "sampler", "realism", "geometry", "experiments", "cli")


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        # records[i] = (name, start, end, parent_index, counts or None)
        self.records: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``count(args, kwargs, result)`` returns the call's work counts as a
        dict, or ``None`` to drop the span (for calls that are not a layer
        boundary, such as integer indexing of a sequence).
        """
        records = self.records
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index] = (name, start, end, parent, None)
            if count is not None:
                counts = count(args, kwargs, result)
                records[index] = (name if counts is not None else None, start, end, parent, counts)
            return result

        return traced

    def spans(self) -> list[dict]:
        """Recorded spans, with dropped ones removed and parents re-pointed."""
        keep = {}
        out = []
        for index, (name, start, end, parent, counts) in enumerate(self.records):
            if name is None:
                continue
            while parent >= 0 and parent not in keep:
                parent = self.records[parent][3]
            keep[index] = len(out)
            out.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": keep.get(parent, -1),
                    "counts": counts or {},
                }
            )
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans(), **extra}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    result = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted((spans[c]["start"], spans[c]["end"]) for c in children[i]):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result.append((hi - lo) - covered)
    return result


def summarize(spans: list[dict]) -> dict:
    """Per span name: call count, summed self time and summed work counts."""
    table: dict = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in span["counts"].items():
            row[key] = row.get(key, 0) + value
    return table


# --- the layer boundaries -------------------------------------------------


def _targets() -> list:
    """(span name, owner, attribute, count) for every traced boundary."""
    from boolebell import cli, experiments, geometry, realism, sampler, sequences
    from boolebell.rng import RngStream
    from boolebell.sequences import SignSequence

    def first_arg(key):
        return lambda args, kwargs, result: {key: args[0]}

    def result_length(key):
        return lambda args, kwargs, result: {key: result.length}

    def slice_counts(args, kwargs, result):
        if not isinstance(args[1], slice):
            return None
        return {"bits": result.length, "bits_scanned": args[0].length}

    def certificate_counts(args, kwargs, result):
        return {"rows": len(result.rows), "rows_failed": len(result.failing_rows())}

    return [
        ("rng.uniforms", RngStream, "uniforms", lambda a, k, r: {"draws": a[1]}),
        ("rng.substream", RngStream, "substream", None),
        ("sampler.random_signs", sampler, "random_signs", first_arg("pairs")),
        ("sampler.sample_prepared", sampler, "sample_prepared", result_length("pairs")),
        ("sampler.sample_singlet_partner", sampler, "sample_singlet_partner", result_length("pairs")),
        ("realism.draw_lambdas", realism, "_circle_points", lambda a, k, r: {"points": a[1]}),
        ("realism.draw_lambdas", realism, "_sphere_points", first_arg("points")),
        ("realism.response", realism, "_sign_response", lambda a, k, r: {"points": len(a[0])}),
        ("realism.counterfactual", realism, "counterfactual_values", None),
        ("realism.protocol", realism, "commit", None),
        ("realism.protocol", realism, "choose_direction", None),
        ("realism.protocol", realism, "measure", None),
        ("sequences.construct", SignSequence, "__init__", None),
        ("sequences.from_array", SignSequence, "from_array", result_length("bits")),
        ("sequences.to_array", SignSequence, "to_array", lambda a, k, r: {"bits": a[0].length}),
        ("sequences.slice", SignSequence, "__getitem__", slice_counts),
        ("sequences.concatenate", sequences, "concatenate", None),
        ("sequences.correlation", sequences, "correlation", None),
        ("sequences.lhs_exact", sequences, "boole_bell_lhs_exact", None),
        ("sequences.lhs_prob", sequences, "boole_bell_lhs_prob", None),
        ("geometry.geometric_witness", geometry, "geometric_witness", None),
        ("geometry.optimal_witness", geometry, "optimal_witness", None),
        ("experiments.no_apbp", experiments, "no_apbp_experiment", None),
        ("experiments.certify_ap", experiments, "certify_ap", certificate_counts),
        ("cli.run", cli, "run", None),
    ]


def install(tracer: Tracer) -> list:
    """Wrap every boundary in place; returns what :func:`uninstall` needs.

    A module-level function is also replaced in every other boolebell
    module that imported it by name, so callers of the copy are traced.
    Methods are replaced on their class.  Classmethods keep their binding.
    """
    targets = _targets()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "boolebell"]
    saved = []
    for name, owner, attr, count in targets:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(name, raw.__func__, count))
            else:
                replacement = tracer.wrap(name, raw, count)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count)
        for module in modules:
            if module.__dict__.get(attr) is original:
                saved.append((module, attr, original))
                setattr(module, attr, wrapped)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
