"""End-to-end runs: certification of axis-prepared behavior and the
contradiction between cosine-law correlations and the three-sequence bound.

A certificate run commits a sign sequence u, then for each measurement
direction alpha measures a fresh block of n particles and compares the
empirical correlation <u, x(alpha)> against the target a.alpha at a
sigma_k threshold.  The headline experiment asks a local deterministic
model to be axis-prepared for two distinct axes at once: geometry puts the
target left-hand side above 1, exact arithmetic keeps the empirical one at
or below 1, so the correlation gaps must absorb the difference and at
least one certificate fails by a quantifiable margin.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

from .geometry import UnitVector3, geometric_witness
from .realism import (
    LhvModel,
    choose_direction,
    commit,
    counterfactual_values,
    measure,
)
from .rng import RngStream
from .sampler import PreparedSource, clamp_unit_dot, random_signs, sample_prepared, sample_singlet_partner
from .sequences import (
    EmptySequence,
    LengthMismatch,
    LengthTooLarge,
    SignSequence,
    boole_bell_lhs,
    concatenate,
    correlation,
)

__all__ = [
    "ExperimentConfig",
    "ApRow",
    "ApCertificate",
    "InequalityReport",
    "TriangleLeg",
    "NoApBpResult",
    "FeasibilityResult",
    "FEASIBILITY_MAX_LENGTH",
    "certify_ap",
    "prepared_ap_experiment",
    "singlet_ap_experiment",
    "no_apbp_experiment",
    "feasibility_bruteforce",
]

# a measured-sequence generator: (u_block, direction, block_index) -> x_block
SourceFn = Callable[[SignSequence, UnitVector3, int], SignSequence]


@dataclass(frozen=True)
class ExperimentConfig:
    """Run parameters; equality of configs means statistical identity."""

    seed: int
    n: int
    sigma_k: float = 4.0
    directions: tuple[UnitVector3, ...] = ()
    scenario: str = ""
    threads: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        if self.n < 100:
            raise ValueError("n must be at least 100 per direction")
        if self.sigma_k < 2:
            raise ValueError("sigma_k below 2 would fail sound sources routinely")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        object.__setattr__(self, "directions", tuple(self.directions))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "sigma_k": self.sigma_k,
            "directions": [d.as_list() for d in self.directions],
            "scenario": self.scenario,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(
            seed=int(data["seed"]),
            n=int(data["n"]),
            sigma_k=float(data.get("sigma_k", 4.0)),
            directions=tuple(
                UnitVector3.from_iterable(d) for d in data.get("directions", [])
            ),
            scenario=str(data.get("scenario", "")),
            threads=int(data.get("threads", 1)),
        )


@dataclass(frozen=True)
class ApRow:
    """One direction's verdict inside a certificate."""

    direction: UnitVector3
    target: float
    estimate: float
    stderr: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "direction": self.direction.as_list(),
            "target": self.target,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ApCertificate:
    """Per-direction comparison of <u, x(alpha)> against a.alpha."""

    axis_claimed: UnitVector3
    rows: tuple[ApRow, ...]
    n: int
    sigma_k: float
    passed: bool

    def failing_rows(self) -> tuple[ApRow, ...]:
        return tuple(row for row in self.rows if not row.passed)

    def to_dict(self) -> dict:
        return {
            "axis_claimed": self.axis_claimed.as_list(),
            "n": self.n,
            "sigma_k": self.sigma_k,
            "rows": [row.to_dict() for row in self.rows],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class InequalityReport:
    """Target vs empirical left-hand side at the witness direction.

    ``gaps`` are the three |estimate - target| correlation gaps of the
    run's own triple; they must sum to at least target_lhs - empirical_lhs
    because the bound is 1-Lipschitz in each correlation.
    """

    alpha: UnitVector3
    case_label: str
    assignment: str
    target_lhs: float
    empirical_lhs: float
    gaps: tuple[float, float, float]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.as_list(),
            "case_label": self.case_label,
            "assignment": self.assignment,
            "target_lhs": self.target_lhs,
            "empirical_lhs": self.empirical_lhs,
            "gaps": list(self.gaps),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class TriangleLeg:
    """One correlation of the witness triple, with its gap to the target."""

    label: str
    target: float
    estimate: float
    stderr: float

    @property
    def gap(self) -> float:
        return abs(self.estimate - self.target)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "target": self.target,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class NoApBpResult:
    """Everything the two-axis experiment produced.

    Iterating yields (certificate_u, certificate_v, inequality) so the
    result unpacks as the three headline components.
    """

    certificate_u: ApCertificate
    certificate_v: ApCertificate
    inequality: InequalityReport
    triangle: tuple[TriangleLeg, TriangleLeg, TriangleLeg]
    failing_margin: float
    margin_floor: float
    margin_ok: bool
    contradiction_closed: bool

    def __iter__(self) -> Iterator:
        return iter((self.certificate_u, self.certificate_v, self.inequality))

    def to_dict(self) -> dict:
        return {
            "certificate_u": self.certificate_u.to_dict(),
            "certificate_v": self.certificate_v.to_dict(),
            "inequality": self.inequality.to_dict(),
            "triangle": [leg.to_dict() for leg in self.triangle],
            "failing_margin": self.failing_margin,
            "margin_floor": self.margin_floor,
            "margin_ok": self.margin_ok,
            "contradiction_closed": self.contradiction_closed,
        }


# With stderr 0 the estimate is exactly +-1, and an own-axis target
# a . a = 1 can miss it by rounding dust of up to a few ulps; measured
# worst case 3 ulps of 1.0 over 2e5 random axes.
_DUST = 8 * math.ulp(1.0)


def _row_passes(estimate: float, target: float, stderr: float, sigma_k: float) -> bool:
    if stderr == 0.0:
        return abs(estimate - target) <= _DUST
    return abs(estimate - target) <= sigma_k * stderr


def certify_ap(
    source: SourceFn, u: SignSequence, a: UnitVector3, cfg: ExperimentConfig
) -> ApCertificate:
    """Certify that ``source`` behaves as prepared along ``a`` via ``u``.

    ``u`` covers all direction blocks (length n * len(directions)); block j
    is committed, direction j is chosen, and only then is the block
    measured, so the protocol ordering is enforced per block.  Blocks are
    disjoint: each particle is measured once.
    """
    if not cfg.directions:
        raise ValueError("certification needs at least one direction")
    k = len(cfg.directions)
    if u.length != cfg.n * k:
        raise LengthMismatch(
            f"u must cover {k} blocks of {cfg.n} signs, got length {u.length}"
        )

    def run_block(j: int) -> ApRow:
        block = u[j * cfg.n : (j + 1) * cfg.n]
        token = choose_direction(commit(block), cfg.directions[j])
        x = measure(token, lambda uu, aa, _j=j: source(uu, aa, _j))
        est = correlation(block, x)
        target = clamp_unit_dot(a.dot(cfg.directions[j]))
        return ApRow(
            direction=cfg.directions[j],
            target=target,
            estimate=est.value,
            stderr=est.stderr,
            passed=_row_passes(est.value, target, est.stderr, cfg.sigma_k),
        )

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = tuple(pool.map(run_block, range(k)))
    else:
        rows = tuple(run_block(j) for j in range(k))
    return ApCertificate(
        axis_claimed=a,
        rows=rows,
        n=cfg.n,
        sigma_k=cfg.sigma_k,
        passed=all(row.passed for row in rows),
    )


def prepared_ap_experiment(a: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify a genuinely axis-prepared source against its own axis."""
    base = RngStream(cfg.seed)
    u = random_signs(cfg.n * len(cfg.directions), base.substream(0))

    def source(u_block: SignSequence, alpha: UnitVector3, j: int) -> SignSequence:
        return sample_prepared(PreparedSource(a, u_block), alpha, base.substream(1 + j))

    return certify_ap(source, u, a, cfg)


def singlet_ap_experiment(beta: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify the far wing of singlet pairs as prepared along -beta.

    The near wing is measured along beta throughout; its outcomes are the
    committed u.  Each direction block uses fresh pairs; the far wing is
    sampled conditionally on the committed near-wing outcomes, which
    realizes the same joint law as sampling the pair at once.
    """
    base = RngStream(cfg.seed)
    k = len(cfg.directions)
    if k == 0:
        raise ValueError("certification needs at least one direction")
    u = concatenate(random_signs(cfg.n, base.substream(2 * j)) for j in range(k))

    def source(u_block: SignSequence, alpha: UnitVector3, j: int) -> SignSequence:
        return sample_singlet_partner(u_block, beta, alpha, base.substream(2 * j + 1))

    return certify_ap(source, u, -beta, cfg)


def _triangle_legs(
    targets: tuple[float, float, float],
    estimates: Sequence,
) -> tuple[TriangleLeg, TriangleLeg, TriangleLeg]:
    labels = ("ux", "vx", "uv")
    return tuple(
        TriangleLeg(label=lab, target=t, estimate=e.value, stderr=e.stderr)
        for lab, t, e in zip(labels, targets, estimates)
    )


def no_apbp_experiment(
    a: UnitVector3, b: UnitVector3, model: LhvModel, cfg: ExperimentConfig
) -> NoApBpResult:
    """Ask one local deterministic stream to be prepared along two axes.

    One particle stream supplies u (values along a's side), v (the
    counterfactual values along b's side), and x (outcomes at the witness
    direction).  The witness geometry targets a left-hand side above 1
    while the actual triple, being genuine signs, stays at or below 1; the
    report shows the correlation gaps absorbing the difference and at
    least one of the two certificates failing by
    (target_lhs - 1)/3 - sigma_k * stderr or more.

    Extra cfg.directions are certified too; the built-in circle law is
    pinned to the (a, b) plane so one stream has one hidden-variable law.
    """
    witness = geometric_witness(a, b)
    pinned = model.pinned_to_plane(a, b)
    base = RngStream(cfg.seed)

    # the draws sample_lhv would make, kept as hidden state: no n x 3 lambdas
    hidden = pinned.draw_lambdas(witness.alpha, -a, cfg.n, base.substream(0))
    x = SignSequence.from_array(pinned.response_a(hidden, witness.alpha))
    u = SignSequence.from_array(pinned.response_b(hidden, -a))
    v = counterfactual_values(pinned, hidden, -b, "B")

    targets = (
        clamp_unit_dot(a.dot(witness.alpha)),
        clamp_unit_dot(b.dot(witness.alpha)),
        clamp_unit_dot(a.dot(b)),
    )
    estimates = (correlation(u, x), correlation(v, x), correlation(u, v))
    triangle = _triangle_legs(targets, estimates)

    by_name = {"x": x, "u": u, "v": v}
    f, g, h = (by_name[ch] for ch in witness.assignment)
    empirical = boole_bell_lhs(f, g, h)
    inequality = InequalityReport(
        alpha=witness.alpha,
        case_label=witness.case_label,
        assignment=witness.assignment,
        target_lhs=witness.lhs_value,
        empirical_lhs=empirical,
        gaps=tuple(leg.gap for leg in triangle),
        verdict="contradiction" if witness.lhs_value > 1.0 >= empirical else "consistent",
    )

    cert_dirs = (a, b, witness.alpha) + tuple(cfg.directions)
    cert_cfg = replace(cfg, directions=cert_dirs)
    k = len(cert_dirs)
    cert_u = _lhv_certificate(pinned, -a, a, cert_cfg, base, offset=1)
    cert_v = _lhv_certificate(pinned, -b, b, cert_cfg, base, offset=1 + k)

    failing = cert_u.failing_rows() + cert_v.failing_rows()

    def floor_of(row: ApRow) -> float:
        return (witness.lhs_value - 1.0) / 3.0 - cfg.sigma_k * row.stderr

    failing_margin = 0.0
    margin_floor = (witness.lhs_value - 1.0) / 3.0
    margin_ok = False
    for row in failing:
        gap = abs(row.estimate - row.target)
        if gap >= failing_margin:
            failing_margin = gap
            margin_floor = floor_of(row)
        if gap >= floor_of(row):
            margin_ok = True

    return NoApBpResult(
        certificate_u=cert_u,
        certificate_v=cert_v,
        inequality=inequality,
        triangle=triangle,
        failing_margin=failing_margin,
        margin_floor=margin_floor,
        margin_ok=margin_ok,
        contradiction_closed=(
            inequality.verdict == "contradiction" and bool(failing) and margin_ok
        ),
    )


def _lhv_certificate(
    model: LhvModel,
    wing_direction: UnitVector3,
    axis_claimed: UnitVector3,
    cfg: ExperimentConfig,
    base: RngStream,
    offset: int,
) -> ApCertificate:
    """Certify the model's near wing against ``axis_claimed``.

    The committed u holds the far wing's values along ``wing_direction``
    for every block; all hidden draws happen before any direction is
    chosen, so the protocol ordering inside certify_ap is honest.
    """
    k = len(cfg.directions)
    hidden = [
        model.draw_lambdas(wing_direction, wing_direction, cfg.n, base.substream(offset + j))
        for j in range(k)
    ]
    u = concatenate(
        SignSequence.from_array(model.response_b(hidden[j], wing_direction))
        for j in range(k)
    )

    def source(u_block: SignSequence, alpha: UnitVector3, j: int) -> SignSequence:
        return SignSequence.from_array(model.response_a(hidden[j], alpha))

    return certify_ap(source, u, axis_claimed, cfg)


FEASIBILITY_MAX_LENGTH = 5


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the exhaustive search for a consistent sign triple."""

    feasible: bool
    witness: tuple[SignSequence, SignSequence, SignSequence] | None
    targets: tuple[float, float, float]
    epsilon: float
    n: int

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": None
            if self.witness is None
            else [s.to_text() for s in self.witness],
            "targets": list(self.targets),
            "epsilon": self.epsilon,
            "n": self.n,
        }


def feasibility_bruteforce(
    a: UnitVector3,
    b: UnitVector3,
    alpha: UnitVector3,
    n: int = 4,
    epsilon: float = 0.05,
) -> FeasibilityResult:
    """Search all (u, v, x) sign triples of length n for one matching the
    cosine targets within epsilon on all three correlations.

    Whenever the best candidate left-hand side on the targets exceeds
    1 + 3 epsilon, no triple can exist: the empirical value never exceeds
    1 and each correlation moves the bound by at most its own gap.
    """
    if n < 1:
        raise EmptySequence("sequence length must be positive")
    if n > FEASIBILITY_MAX_LENGTH:
        raise LengthTooLarge(f"length {n} exceeds cap {FEASIBILITY_MAX_LENGTH}")
    targets = (
        clamp_unit_dot(a.dot(alpha)),
        clamp_unit_dot(b.dot(alpha)),
        clamp_unit_dot(a.dot(b)),
    )
    t_ux, t_vx, t_uv = targets
    size = 1 << n
    corr = [[(n - 2 * (p ^ q).bit_count()) / n for q in range(size)] for p in range(size)]
    for mu in range(size):
        row_u = corr[mu]
        for mv in range(size):
            if abs(row_u[mv] - t_uv) > epsilon:
                continue
            row_v = corr[mv]
            for mx in range(size):
                if abs(row_u[mx] - t_ux) <= epsilon and abs(row_v[mx] - t_vx) <= epsilon:
                    witness = (
                        SignSequence(n, mu),
                        SignSequence(n, mv),
                        SignSequence(n, mx),
                    )
                    return FeasibilityResult(True, witness, targets, epsilon, n)
    return FeasibilityResult(False, None, targets, epsilon, n)
