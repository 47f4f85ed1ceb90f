"""Acceptance gate: the eleven release criteria, one test each.

Every test pins its own tolerance and prints a single summary line on
success (run pytest with -s to see them; under -v the test ids double as
the per-criterion pass/fail report).  Criteria carrying a runtime budget
assert the elapsed wall-clock time as well.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from boolebell import (
    ExperimentConfig,
    OrderingViolation,
    RngStream,
    SignSequence,
    UnitVector3,
    assignment_optimum,
    boole_bell_lhs_exact,
    brute_force_max_lhs,
    choose_direction,
    coincidence_probability,
    correlation,
    counterfactual_values,
    feasibility_bruteforce,
    geometric_witness,
    make_lhv_model,
    no_apbp_experiment,
    optimal_witness,
    random_signs,
    sample_lhv,
    sample_prepared,
    sample_singlet,
    sign_model_correlation,
    PreparedSource,
)
from boolebell.cli import run

SEED = 20260817

X_HAT = UnitVector3(1, 0, 0)
Y_HAT = UnitVector3(0, 1, 0)
Z_HAT = UnitVector3(0, 0, 1)


def planar_pair(theta_deg: float) -> tuple[UnitVector3, UnitVector3]:
    t = math.radians(theta_deg)
    return X_HAT, UnitVector3(math.cos(t), math.sin(t), 0.0)


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:2d} PASS: {detail}")


def test_criterion_01_bound_exhaustive_and_random():
    t0 = time.perf_counter()
    for n in range(1, 9):
        assert brute_force_max_lhs(n) == 1.0, f"exhaustive max at n={n} is not 1"

    # property sweep: one million random triples, lengths up to 1000
    rng = np.random.default_rng(SEED)
    count = 1_000_000
    lengths = rng.integers(1, 1001, size=count)
    nbytes = (lengths + 7) // 8
    blob = rng.bytes(int(3 * nbytes.sum()))
    offset = 0
    for ell, nb in zip(lengths.tolist(), nbytes.tolist()):
        mask = (1 << ell) - 1
        triple = []
        for _ in range(3):
            bits = int.from_bytes(blob[offset : offset + nb], "little") & mask
            offset += nb
            triple.append(SignSequence(ell, bits))
        assert boole_bell_lhs_exact(*triple) <= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    report(1, f"exhaustive n=1..8 max is 1; {count} random triples never exceed 1 "
              f"({elapsed:.1f}s)")


def test_criterion_02_probability_identity_exact():
    rng = np.random.default_rng(SEED + 2)
    count = 100_000
    lengths = rng.integers(1, 65, size=count)
    nbytes = (lengths + 7) // 8
    blob = rng.bytes(int(2 * nbytes.sum()))
    offset = 0
    for ell, nb in zip(lengths.tolist(), nbytes.tolist()):
        mask = (1 << ell) - 1
        f = SignSequence(ell, int.from_bytes(blob[offset : offset + nb], "little") & mask)
        offset += nb
        g = SignSequence(ell, int.from_bytes(blob[offset : offset + nb], "little") & mask)
        offset += nb
        corr = correlation(f, g).as_fraction()
        assert coincidence_probability(f, g) - (1 + corr) / 2 == 0
    report(2, f"coincidence identity holds exactly on {count} random pairs")


def test_criterion_03_malus_sweep():
    t0 = time.perf_counter()
    axis = Z_HAT
    n = 100_000
    base = RngStream(SEED + 3)
    outliers = 0
    for k in range(12):
        t = math.radians(30.0 * k)
        alpha = UnitVector3(math.sin(t), 0.0, math.cos(t))
        u = random_signs(n, base.substream(k))
        x = sample_prepared(PreparedSource(axis, u), alpha, base.substream(100 + k))
        est = correlation(u, x)
        target = axis.dot(alpha)
        if est.stderr == 0.0:
            ok = est.value == target
        else:
            ok = abs(est.value - target) <= 5.0 * est.stderr
        outliers += not ok
    elapsed = time.perf_counter() - t0
    assert outliers <= 1, f"{outliers} of 12 directions beyond 5 sigma"
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.1f}s (budget 10s)"
    report(3, f"12-direction cosine sweep at n={n}: {outliers} outlier(s) beyond 5 sigma "
              f"({elapsed:.1f}s)")


def test_criterion_04_singlet_statistics():
    t0 = time.perf_counter()
    n = 1_000_000
    for k, deg in enumerate((0, 30, 45, 60, 90, 120, 180)):
        t = math.radians(deg)
        alpha = Z_HAT
        beta = UnitVector3(math.sin(t), 0.0, math.cos(t))
        a_seq, b_seq = sample_singlet(alpha, beta, n, RngStream(SEED + 4).substream(k))
        est = correlation(a_seq, b_seq)
        tol = 4.0 * math.sqrt((1.0 - math.cos(t) ** 2) / n)
        assert abs(est.value + math.cos(t)) <= tol, f"theta={deg} off by more than 4 sigma"
        if deg == 0:
            assert coincidence_probability(a_seq, b_seq) == Fraction(0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s (budget 30s)"
    report(4, f"singlet correlations match -cos(theta) at n={n}; aligned wings "
              f"never coincide ({elapsed:.1f}s)")


def test_criterion_05_witness_sweep_and_spot_values():
    for deg in range(1, 180):
        a, b = planar_pair(deg)
        assert geometric_witness(a, b).lhs_value > 1.0, f"no violation at theta={deg}"

    spots = {
        90: math.sqrt(2.0),
        60: math.cos(math.radians(60)) + math.sin(math.radians(60)),
        120: math.sin(math.radians(120)) + abs(math.cos(math.radians(120))),
    }
    for deg, expected in spots.items():
        a, b = planar_pair(deg)
        assert geometric_witness(a, b).lhs_value == pytest.approx(expected, abs=1e-9)
    report(5, "geometric witness exceeds 1 for theta=1..179 deg; spot values at "
              "60/90/120 deg match closed forms to 1e-9")


def test_criterion_06_optimal_witness_dominates():
    worst_gap = 0.0
    for deg in range(1, 180):
        a, b = planar_pair(deg)
        geo = geometric_witness(a, b).lhs_value
        opt = optimal_witness(a, b).lhs_value
        assert opt >= geo - 1e-9, f"optimum below geometric witness at theta={deg}"
        closed = a.dot(b) + math.sqrt(2.0 - 2.0 * a.dot(b))
        value, _ = assignment_optimum(a, b, "xuv")
        gap = abs(value - closed)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6, f"slot-(i) optimum off closed form at theta={deg}: {gap}"
    report(6, f"numerical optimum dominates geometric witness over the sweep; "
              f"slot-(i) grid optimum within {worst_gap:.2e} of closed form")


def test_criterion_07_lhv_sign_model():
    n = 1_000_000
    for model_name in ("sign-circle", "sign-sphere"):
        model = make_lhv_model(model_name)
        for k, deg in enumerate((30, 60, 90)):
            t = math.radians(deg)
            alpha = Z_HAT
            beta = UnitVector3(math.sin(t), 0.0, math.cos(t))
            a_seq, b_seq, _ = sample_lhv(
                model, alpha, beta, n, RngStream(SEED + 7).substream(k)
            )
            rho = sign_model_correlation(t)
            tol = 4.0 * math.sqrt((1.0 - rho * rho) / n)
            est = correlation(a_seq, b_seq)
            assert abs(est.value - rho) <= tol, (
                f"{model_name} at theta={deg}: {est.value} vs {rho}"
            )

        # every triple drawn from one hidden-state batch obeys the exact bound
        gamma = UnitVector3(1, 1, 1)
        a_seq, b_seq, lam = sample_lhv(
            model, X_HAT, Y_HAT, 10_000, RngStream(SEED + 70)
        )
        third = counterfactual_values(model, lam, gamma, "A")
        second = counterfactual_values(model, lam, Y_HAT, "A")
        assert boole_bell_lhs_exact(a_seq, second, third) <= 1
        assert boole_bell_lhs_exact(a_seq, second, -b_seq) <= 1
    report(7, f"both hidden-variable models track -1+2*theta/pi within 4 sigma at "
              f"n={n}; counterfactual triples obey the exact bound")


def test_criterion_08_no_apbp_demonstration():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=SEED + 8, n=1_000_000, sigma_k=4.0)
    result = no_apbp_experiment(X_HAT, Y_HAT, make_lhv_model("sign-circle"), cfg)

    assert result.inequality.target_lhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert result.inequality.empirical_lhs <= 1.0
    failing = [
        cert for cert in (result.certificate_u, result.certificate_v) if not cert.passed
    ]
    assert failing, "no certificate failed; the contradiction did not materialize"
    floor_ok = any(
        abs(row.estimate - row.target) >= (math.sqrt(2.0) - 1.0) / 3.0 - 4.0 * row.stderr
        for cert in failing
        for row in cert.failing_rows()
    )
    assert floor_ok, "no failing row clears the pigeonhole margin"
    assert result.margin_ok and result.contradiction_closed

    rerun = no_apbp_experiment(X_HAT, Y_HAT, make_lhv_model("sign-circle"), cfg)
    assert rerun.to_dict() == result.to_dict(), "rerun differs under fixed seed"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s (budget 60s)"
    report(8, f"n=1e6 run: target {result.inequality.target_lhs:.6f}, empirical "
              f"{result.inequality.empirical_lhs:.6f}, margin "
              f"{result.failing_margin:.4f} >= floor {result.margin_floor:.4f}, "
              f"deterministic ({elapsed:.1f}s)")


def test_criterion_09_feasibility_oracle():
    t0 = time.perf_counter()
    alpha = UnitVector3(1, 1, 0)
    infeasible = feasibility_bruteforce(X_HAT, Y_HAT, alpha, n=4, epsilon=0.05)
    assert not infeasible.feasible

    feasible = feasibility_bruteforce(Z_HAT, Z_HAT, Z_HAT, n=4, epsilon=0.0)
    assert feasible.feasible
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 9 took {elapsed:.1f}s (budget 5s)"
    report(9, f"right-angle witness targets infeasible at n=4, eps=0.05; aligned "
              f"targets feasible at eps=0 ({elapsed:.2f}s)")


def test_criterion_10_protocol_enforcement():
    attempts = 100
    raises = 0
    u = SignSequence.from_text("+-+-")
    for trial in range(attempts):
        bad = None if trial % 2 == 0 else u
        try:
            choose_direction(bad, X_HAT)
        except OrderingViolation:
            raises += 1
    assert raises == attempts, f"only {raises}/{attempts} early choices were refused"
    report(10, f"direction choice before commitment refused in {raises}/{attempts} attempts")


def test_criterion_11_cli_reproducibility(tmp_path, capsys):
    jobs = [
        (
            "singlet.json",
            ["simulate-singlet", "--alpha", "[1,0,0]", "--beta", "[0.6,0,0.8]",
             "--n", "20000", "--seed", "17", "--format", "json"],
        ),
        (
            "sweep.csv",
            ["witness", "--sweep", "1:179:1", "--format", "csv"],
        ),
        (
            "experiment.csv",
            ["experiment", "--a", "[1,0,0]", "--b", "[0,1,0]", "--n", "2000",
             "--seed", "17", "--format", "csv"],
        ),
        (
            "lhv.csv",
            ["lhv", "--model", "sign-sphere", "--alpha", "[1,0,0]", "--beta",
             "[0,0,1]", "--n", "20000", "--seed", "17", "--format", "csv"],
        ),
    ]
    for name, argv in jobs:
        first = tmp_path / f"first_{name}"
        second = tmp_path / f"second_{name}"
        code_a = run(argv + ["--out", str(first)])
        code_b = run(argv + ["--out", str(second)])
        assert code_a == code_b
        assert first.read_bytes() == second.read_bytes(), f"{argv[0]} output drifted"
    capsys.readouterr()

    # same guarantee through the real process entry point
    cmd = [sys.executable, "-m", "boolebell", "simulate-prepared", "--axis",
           "[0,0,1]", "--alpha", "[0.6,0,0.8]", "--n", "5000", "--seed", "17",
           "--format", "json"]
    first_run = subprocess.run(cmd, capture_output=True)
    second_run = subprocess.run(cmd, capture_output=True)
    assert first_run.returncode == second_run.returncode == 0
    assert first_run.stdout == second_run.stdout
    report(11, f"{len(jobs)} in-process commands and one subprocess command are "
               f"byte-identical across reruns")
