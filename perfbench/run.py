"""boolebell benchmark: end-to-end metrics per workload, or a traced run
that gives per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every operation is a child process started from this process, one at a
time (a closed loop with one client).  CLI workloads spawn
``python -m boolebell ...`` against the ``src`` directory of this checkout;
exact-bound spawns child.py, which times a library section in-process.

A run makes a fixed number of operations, in whole cycles: as many as fill
``--seconds`` at the workload's reference cost per operation (op_count).  A
count rather than a deadline, so the same seed and ``--seconds`` give the
same operations, and the same attempted and failed counts, on a fast machine
and a slow one.  With ``--trace 0`` the run also spawns ``boolebell
--version`` SETUP_SPAWNS times, spread between the operations.  With
``--trace 1`` every operation runs twice, plainly and under the span tracer
of tracer.py; per-layer figures are means per traced operation.
Either way the first operation is run a second time with the same seed and
flags and must give the same bytes.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A result file with the environment and every sample
is written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
from workloads import OWN_AXIS_DUST, WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SPAWNS = 15
MIN_OPS = 11  # the tail percentile needs ten samples beyond it

# Children run numpy's BLAS and OpenMP pools with one thread: on a host with
# a couple of cores, pool threads started at import compete with the
# operation itself, and the timing measures the scheduler, not the program.
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

_SPAN_METRICS = {
    "rng.uniforms": ("calls", "self_s", "draws"),
    "rng.substream": ("calls",),
    "sampler.random_signs": ("calls", "self_s", "pairs"),
    "sampler.sample_prepared": ("calls", "self_s", "pairs"),
    "sampler.sample_singlet_partner": ("calls", "self_s", "pairs"),
    "realism.draw_lambdas": ("calls", "self_s", "points"),
    "realism.response": ("calls", "self_s", "points"),
    "realism.counterfactual": ("calls",),
    "realism.protocol": ("calls",),
    "sequences.from_array": ("calls", "self_s", "bits"),
    "sequences.to_array": ("calls", "self_s", "bits"),
    "sequences.slice": ("calls", "self_s", "bits_scanned"),
    "sequences.concatenate": ("calls", "self_s"),
    "sequences.correlation": ("calls", "self_s"),
    "sequences.construct": ("calls", "self_s"),
    "sequences.lhs_exact": ("calls", "self_s"),
    "sequences.lhs_prob": ("calls", "self_s"),
    "geometry.geometric_witness": ("calls", "self_s"),
    "geometry.optimal_witness": ("calls", "self_s"),
    "experiments.no_apbp": ("calls", "self_s"),
    "experiments.certify_ap": ("calls", "self_s", "rows", "rows_failed"),
    "cli.run": ("calls", "self_s"),
}

PER_LAYER = {
    **{
        f"{span}.{key}": "s" if key == "self_s" else "count"
        for span, keys in _SPAN_METRICS.items()
        for key in keys
    },
    "realism.lambda_bytes": "B",
    "sequences.slice.scan_ratio": "ratio",
    "cli.output_bytes": "B",
    "cli.import_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    """One finished operation."""

    op: Op
    wall_s: float
    cpu_s: float
    rss_kib: int
    code: int
    digest: str  # of standard output plus every file the operation wrote
    output_bytes: int
    cause: str | None  # why the operation failed, None if it passed
    spans: dict | None = None


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)


def spawn(cmd: list[str], workdir: Path) -> tuple[int, float, float, int, bytes]:
    """Run cmd to completion: (exit code, wall s, cpu s, peak RSS KiB, stdout).

    spawn.py starts and measures the command, so that its peak RSS does not
    include this process's own.
    """
    out_path = workdir / "stdout"
    helper = [sys.executable, "-I", "-S", str(HERE / "spawn.py"),
              str(out_path), str(workdir / "stderr"), "--", *cmd]
    done = subprocess.run(helper, env=child_env(), cwd=ROOT, capture_output=True, check=True)
    report = json.loads(done.stdout)
    return report["code"], report["wall_s"], report["cpu_s"], report["rss_kib"], out_path.read_bytes()


def run_op(workload, op: Op, workdir: Path, traced: bool) -> Result:
    spans_path = workdir / "spans.json"
    timing_path = workdir / "timing.json"
    for path in (spans_path, timing_path, *op.files):
        path.unlink(missing_ok=True)
    if op.input_path is not None:
        cmd = [sys.executable, str(HERE / "child.py"), "exact",
               "--input", str(op.input_path), "--timing", str(timing_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
    elif traced:
        cmd = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans_path), "--", *op.argv]
    else:
        cmd = [sys.executable, "-m", "boolebell", *op.argv]
    code, wall, cpu, rss, out = spawn(cmd, workdir)
    if op.input_path is not None and timing_path.exists():
        # exact-bound times only the library section, inside the child
        timing = json.loads(timing_path.read_text())
        wall, cpu = timing["wall_s"], timing["cpu_s"]
    try:
        cause = workload.check(op, code, out)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        cause = f"output does not parse: {exc!r}"
    produced = out + b"".join(p.read_bytes() for p in op.files if p.exists())
    digest = hashlib.sha256(produced).hexdigest()
    spans = None
    if traced and spans_path.exists():
        doc = json.loads(spans_path.read_text())
        spans = {"table": tracing.summarize(doc["spans"]), "import_s": doc["import_s"]}
    elif traced and cause is None:
        cause = "traced run wrote no spans"
    return Result(op, wall, cpu, rss, code, digest, len(produced), cause, spans)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples above it, and its percentile."""
    if len(samples) < 11:
        raise ValueError("the tail needs at least 11 samples")
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * index / (len(ordered) - 1)


def layer_metrics(traced: list[Result], plain: list[Result]) -> dict:
    """Per-layer figures as means per traced operation."""
    traced = [r for r in traced if r.spans is not None]
    if not traced:
        raise RuntimeError("no traced operation wrote spans")
    totals: dict = {}
    for result in traced:
        for name, row in result.spans["table"].items():
            for key, value in row.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    per_op = {name: value / len(traced) for name, value in totals.items()}
    metrics = {name: per_op.get(name, 0) for name in PER_LAYER}
    metrics["realism.lambda_bytes"] = per_op.get("realism.draw_lambdas.points", 0) * 3 * 8
    scanned = per_op.get("sequences.slice.bits_scanned", 0)
    metrics["sequences.slice.scan_ratio"] = per_op.get("sequences.slice.bits", 0) / scanned if scanned else 0
    is_cli = traced[0].op.input_path is None
    metrics["cli.output_bytes"] = statistics.mean(r.output_bytes for r in traced) if is_cli else 0
    metrics["cli.import_s"] = statistics.median(r.spans["import_s"] for r in traced)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for name, value in per_op.items()
            if name.startswith(layer + ".") and name.endswith(".self_s") and name.count(".") == 2
        )
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
    )
    return metrics


def setup_time(workdir: Path) -> float:
    code, wall, _, _, out = spawn([sys.executable, "-m", "boolebell", "--version"], workdir)
    if code != 0 or not out.startswith(b"boolebell "):
        raise RuntimeError(f"`boolebell --version` failed with exit code {code}")
    return wall


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def op_count(workload, seconds: float, trace: bool) -> int:
    """Operations in a run: enough to fill `seconds` at the workload's
    reference cost per operation (twice that traced, where each operation
    runs twice), in whole cycles; at least MIN_OPS untraced, one cycle traced."""
    wanted = max(math.ceil(seconds / (workload.op_s * (2 if trace else 1))),
                 workload.cycle if trace else MIN_OPS)
    return -(-wanted // workload.cycle) * workload.cycle


def _measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    count = op_count(workload, seconds, trace)
    spawns = 0 if trace else SETUP_SPAWNS
    setup: list[float] = []
    ops = workload.ops(random.Random(f"{workload.name}/{seed}"), workdir)
    plain: list[Result] = []
    traced: list[Result] = []
    start = time.perf_counter()
    for i in range(count):
        # set-up spawns are spread over the run, so that they meet the same
        # states of the machine as the operations do
        while len(setup) < (i + 1) * spawns // count:
            setup.append(setup_time(workdir))
        op = next(ops)
        # a traced run alternates which twin goes first, so drift in machine
        # speed does not bias trace.overhead_s
        shadow = run_op(workload, op, workdir, traced=True) if trace and op.index % 2 else None
        result = run_op(workload, op, workdir, traced=False)
        if not plain:
            # determinism: the first operation again, same seed and flags, same bytes
            repeat = run_op(workload, op, workdir, traced=False)
            if repeat.digest != result.digest and result.cause is None:
                result.cause = "rerun with the same seed and flags gave different bytes"
        plain.append(result)
        if trace:
            shadow = shadow or run_op(workload, op, workdir, traced=True)
            if shadow.digest != result.digest and shadow.cause is None:
                shadow.cause = "traced output differs from the untraced output"
            traced.append(shadow)
        op.expect = {}  # checked; drop the reference data and the files
        for path in (*op.files, op.input_path):
            if path is not None:
                path.unlink(missing_ok=True)
    elapsed = time.perf_counter() - start

    results = plain + traced
    failures = [r.cause for r in results if r.cause is not None]
    walls = [r.wall_s for r in plain]
    if trace:
        metrics = layer_metrics(traced, plain)
        units = PER_LAYER
    else:
        tail_value, tail_pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "wall_tail_s": tail_value,
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "items_per_s": statistics.median(r.op.items / r.wall_s for r in plain),
            "peak_rss_mib": max(r.rss_kib for r in plain) / 1024,
        }
        units = END_TO_END
    samples = {
        "setup_s": len(setup), "wall_tail_s": len(walls), "wall_s": len(walls), "cpu_s": len(walls),
        "items_per_s": len(walls), "peak_rss_mib": len(walls),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": elapsed,
        "environment": environment(),
        "correct": all(cause == OWN_AXIS_DUST for cause in failures),
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "sample_counts": {} if trace else samples,
        "tail_percentile": None if trace else tail_pct,
        "ops": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_kib": r.rss_kib, "exit": r.code,
             "items": r.op.items, "traced": r.spans is not None, "cause": r.cause}
            for r in results
        ],
        "setup_samples_s": setup,
    }


def report(doc: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    print(f"# {doc['workload']}: seed={doc['seed']} trace={doc['trace']} "
          f"elapsed={doc['elapsed_s']:.1f}s env={json.dumps(doc['environment'])}")
    for name, metric in doc["metrics"].items():
        count = doc["sample_counts"].get(name)
        extra = f" (n={count})" if count is not None else ""
        if name == "wall_tail_s":
            extra = f" (p{doc['tail_percentile']:.0f} of n={count})"
        elif name == "items_per_s":
            items = sum(op["items"] for op in doc["ops"] if not op["traced"])
            extra = f" (median of n={count} operations, {items} items)"
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"#   fail_share = {doc['failed'] / doc['attempted']:.4f} "
          f"(failed={doc['failed']}, ops_total={doc['attempted']})")
    for cause in sorted(set(doc["failures"])):
        print(f"#   failure x{doc['failures'].count(cause)}: {cause}")
    if doc["trace"]:
        print("#   layer wait: none; one process, one thread, no --threads, so no layer waits on another")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boolebell" / "__init__.py").is_file():
        print(f"error: no boolebell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = OUT_DIR / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        report(doc)
        docs.append(doc)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": v for d in docs for k, v in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
