"""The four workloads: how each draws its operations from the seed, and how
the benchmark checks each operation's output against its own reference.

Operations come in cycles.  A cycle holds every kind of operation of the
workload once (for example both certify-ap modes), in an order drawn from
the seed, and a run always measures whole cycles, so the mix of kinds, and
with it the median, is the same on every run.  ``op_s`` is a workload's
reference seconds per operation (2-vCPU Xeon VM, Python 3.11, numpy 2.4),
from which a run sizes its fixed number of operations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

OWN_AXIS_DUST = "own-axis float dust (known defect, ROADMAP item 4)"


@dataclass
class Op:
    """One operation: a CLI argv, or an exact-bound input batch."""

    index: int
    items: int
    argv: list[str] = field(default_factory=list)
    input_path: Path | None = None
    files: list[Path] = field(default_factory=list)
    expect: dict = field(default_factory=dict)


def _direction(rnd: random.Random) -> list[float]:
    return [rnd.gauss(0.0, 1.0) for _ in range(3)]


def _unit(v) -> tuple[float, float, float]:
    # the normalization UnitVector3 applies, operation for operation
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def closed_form_lhs(dot_ab: float) -> float:
    """Witness value for unit axes with cosine dot_ab: sqrt(2) at a right
    angle, cos(theta) + sin(theta) when acute, sin(theta) + |cos(theta)|
    when obtuse."""
    if abs(dot_ab) <= 1e-9:
        return math.sqrt(2.0)
    return math.sqrt(1.0 - dot_ab * dot_ab) + abs(dot_ab)


def _vec(v) -> str:
    return json.dumps(list(v))


class Contradiction:
    """`experiment` at n = 1e6: the LHV draw-and-respond step dominates."""

    name = "contradiction"
    n = 1_000_000
    cycle = 6
    op_s = 1.7

    def ops(self, rnd: random.Random, workdir: Path):
        index = 0
        while True:
            kinds = [(m, e) for m in ("sign-circle", "sign-sphere") for e in (0, 1, 2)]
            rnd.shuffle(kinds)
            for model, extra in kinds:
                a = _direction(rnd)
                theta = math.radians(rnd.uniform(20.0, 160.0))
                a_hat = _unit(a)
                e = _direction(rnd)
                e_dot = _dot(e, a_hat)
                e_hat = _unit([e[i] - e_dot * a_hat[i] for i in range(3)])
                b = [math.cos(theta) * a_hat[i] + math.sin(theta) * e_hat[i] for i in range(3)]
                argv = ["experiment", "--a", _vec(a), "--b", _vec(b), "--model", model,
                        "--n", str(self.n), "--seed", str(rnd.getrandbits(31)), "--format", "json"]
                if extra:
                    argv += ["--directions", json.dumps([_direction(rnd) for _ in range(extra)])]
                k = 3 + extra
                yield Op(
                    index=index,
                    items=self.n * (1 + 2 * k),
                    argv=argv,
                    expect={"target_lhs": closed_form_lhs(_dot(_unit(a), _unit(b)))},
                )
                index += 1

    def check(self, op: Op, code: int, out: bytes) -> str | None:
        if code != 1:
            return f"exit code {code}, expected 1"
        doc = json.loads(out)
        if not doc["empirical_lhs"] <= 1.0:
            return f"empirical_lhs {doc['empirical_lhs']} > 1"
        if abs(doc["target_lhs"] - op.expect["target_lhs"]) > 1e-12:
            return f"target_lhs {doc['target_lhs']} != closed form {op.expect['target_lhs']}"
        if doc["verdict"] != "contradiction" or doc["contradiction_closed"] is not True:
            return "contradiction not closed"
        return None


class QuantumCertify:
    """`certify-ap` with 4 directions at n = 5e6: RNG draws and samplers."""

    name = "quantum-certify"
    n = 5_000_000
    k = 4
    cycle = 2
    op_s = 1.0

    def ops(self, rnd: random.Random, workdir: Path):
        index = 0
        while True:
            modes = ["prepared", "singlet"]
            rnd.shuffle(modes)
            for mode in modes:
                # axes are drawn at random and never filtered, so the
                # own-axis float-dust defect shows at its natural rate
                axis = _direction(rnd)
                if mode == "prepared":
                    argv = ["certify-ap", "--axis", _vec(axis)]
                    own = axis
                else:
                    argv = ["certify-ap", "--singlet-beta", _vec(axis)]
                    own = [-c for c in axis]
                directions = [own] + [_direction(rnd) for _ in range(self.k - 1)]
                argv += ["--directions", json.dumps(directions), "--n", str(self.n),
                         "--seed", str(rnd.getrandbits(31)), "--format", "json"]
                yield Op(index=index, items=self.n * self.k, argv=argv)
                index += 1

    def check(self, op: Op, code: int, out: bytes) -> str | None:
        cert = json.loads(out)["certificate"]
        if code == 0 and cert["pass"] is True:
            return None
        failing = [i for i, row in enumerate(cert["rows"]) if not row["pass"]]
        row = cert["rows"][0]
        if (
            code == 1
            and failing == [0]
            and row["stderr"] == 0.0
            and abs(row["estimate"]) == 1.0
            and row["target"] != row["estimate"]
            and abs(row["target"] - row["estimate"]) <= 1e-12
        ):
            return OWN_AXIS_DUST
        return f"genuine source failed certification (exit {code}, rows {failing})"


def _sweep_thetas(start: float, stop: float, step: float) -> list[float]:
    # the loop `witness --sweep` runs, so the float steps match exactly
    thetas = []
    theta = start
    while theta <= stop + 1e-9:
        thetas.append(theta)
        theta += step
    return thetas


class WitnessSweep:
    """`witness --sweep` over 600 angles: geometry plus CLI rendering."""

    name = "witness-sweep"
    rows = 600
    cycle = 1
    op_s = 0.8

    def ops(self, rnd: random.Random, workdir: Path):
        index = 0
        while True:
            step = rnd.randint(200, 290) / 1000
            start = rnd.randint(500, 1000) / 1000
            # half a step of slack so float accumulation cannot add a row
            sweep = f"{start}:{start + (self.rows - 0.5) * step:.4f}:{step}"
            prefix = workdir / f"sweep{index}"
            thetas = _sweep_thetas(*(float(p) for p in sweep.split(":")))
            yield Op(
                index=index,
                items=len(thetas),
                argv=["witness", "--sweep", sweep, "--format", "csv", "--plot", str(prefix)],
                files=[Path(f"{prefix}_geometric.dat"), Path(f"{prefix}_optimal.dat")],
                expect={"thetas": thetas},
            )
            index += 1

    def check(self, op: Op, code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        thetas = op.expect["thetas"]
        if len(rows) != self.rows or [float(r["theta_deg"]) for r in rows] != thetas:
            return f"{len(rows)} rows, expected {self.rows} at the swept angles"
        for row, theta in zip(rows, thetas):
            t = math.radians(theta)
            dot = _unit((math.cos(t), math.sin(t), 0.0))[0]
            geometric, optimal = float(row["lhs_geometric"]), float(row["lhs_optimal"])
            if abs(geometric - closed_form_lhs(dot)) > 1e-12:
                return f"lhs_geometric {geometric} off the closed form at {theta}"
            if optimal < geometric - 1e-12:
                return f"lhs_optimal {optimal} below lhs_geometric {geometric} at {theta}"
        for path in op.files:
            if len(path.read_text().splitlines()) != self.rows:
                return f"plot file {path.name} does not hold {self.rows} lines"
        return None


class ExactBound:
    """Exact bound on random triples: many small SignSequences and Fractions."""

    name = "exact-bound"
    batch = 20_000
    max_bits = 4096
    cycle = 1
    op_s = 1.2

    def ops(self, rnd: random.Random, workdir: Path):
        index = 0
        while True:
            path = workdir / f"triples{index}.bin"
            chunks = [struct.pack("<I", self.batch)]
            triples = []
            for _ in range(self.batch):
                n = int((self.max_bits + 1) ** rnd.random())  # log-uniform in [1, max_bits]
                bits = [rnd.getrandbits(n) for _ in range(3)]
                width = -(-n // 8)
                chunks.append(struct.pack("<I", n))
                chunks.extend(b.to_bytes(width, "little") for b in bits)
                triples.append((n, *bits))
            path.write_bytes(b"".join(chunks))
            yield Op(index=index, items=self.batch, input_path=path, expect={"triples": triples})
            index += 1

    def check(self, op: Op, code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.decode().splitlines()
        triples = op.expect["triples"]
        if len(lines) != len(triples):
            return f"{len(lines)} results for {len(triples)} triples"
        for line, (n, f, g, h) in zip(lines, triples):
            (lp, lq), (ap, aq), (bp, bq) = (_ratio(part) for part in line.split())
            s_fg = n - 2 * (f ^ g).bit_count()
            s_fh = n - 2 * (f ^ h).bit_count()
            s_gh = n - 2 * (g ^ h).bit_count()
            # lhs = lp/lq must equal (|s_fg - s_fh| + s_gh)/n and be <= 1
            if lp * n != (abs(s_fg - s_fh) + s_gh) * lq or lp > lq:
                return f"lhs {lp}/{lq} differs from the integer reference at length {n}"
            # right - left == (1 - lhs)/2, cross-multiplied
            if 2 * (bp * aq - ap * bq) * lq != (lq - lp) * aq * bq:
                return f"right - left != (1 - lhs)/2 at length {n}"
        return None


def _ratio(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of a printed Fraction."""
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


WORKLOADS = {w.name: w for w in (Contradiction(), QuantumCertify(), ExactBound(), WitnessSweep())}
