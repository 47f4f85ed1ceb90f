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

Every block is streamed in chunks of ``_CHUNK`` pairs.  A chunk is drawn
from computed Philox counters, committed, measured along the block's
direction and reduced to integer products sums, which add up exactly
across chunks; then it is dropped.  Memory therefore stays at a few chunks
whatever n is, and the results are the ones a whole-block run would give,
bit for bit, for any chunk size that is a multiple of 4.

The config and result records turn into dicts by one rule,
:meth:`_Record.to_dict`, which writes each dataclass field under its name,
so a field reaches the JSON output when it is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterator

from .geometry import UnitVector3, clamp_unit_dot, cosine_targets, geometric_witness
from .realism import (
    LhvModel,
    choose_direction,
    commit,
    counterfactual_values,
    measure,
)
from .rng import RngStream
from .sampler import (
    PreparedSource, fair_signs, random_signs, sample_prepared, sample_singlet_partner,
)
from .sequences import (
    BRUTE_FORCE_MAX_LENGTH,
    CorrelationEstimate,
    LengthMismatch,
    SignSequence,
    _class_sums,
    boole_bell_lhs_from_sums,
    correlation,
)

# Pairs per chunk.  A multiple of 4, so every chunk starts on a Philox
# counter block; a chunk's 64-bit draw arrays take 512 KiB each.
_CHUNK = 1 << 16

# measures committed signs along a chosen direction: (u, alpha) -> x
Sampler = Callable[[SignSequence, UnitVector3], SignSequence]
# a block's chunk source: (block j, first pair, pair count) -> (u, sampler);
# u holds the chunk's committed signs, sampler measures the same pairs
ChunkSource = Callable[[int, int, int], tuple[SignSequence, Sampler]]


def _chunks(n: int) -> Iterator[tuple[int, int]]:
    """(first pair, pair count) of each chunk of an n-pair block."""
    for start in range(0, n, _CHUNK):
        yield start, min(_CHUNK, n - start)


def _plain(value):
    """A record field as JSON holds it: records as dicts, tuples and
    directions as lists."""
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, UnitVector3):
        return value.as_list()
    return value


class _Record:
    """A dataclass whose ``to_dict`` writes every field under its name,
    ``passed`` under "pass"."""

    def to_dict(self) -> dict:
        return {
            "pass" if f.name == "passed" else f.name: _plain(getattr(self, f.name))
            for f in fields(self)
        }


@dataclass(frozen=True)
class ExperimentConfig(_Record):
    """Run parameters; equality of configs means statistical identity."""

    seed: int
    n: int
    sigma_k: float = 4.0
    directions: tuple[UnitVector3, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 100:
            raise ValueError("n must be at least 100 per direction")
        if not math.isfinite(self.sigma_k):
            raise ValueError(f"sigma_k must be finite, got {self.sigma_k}")
        if self.sigma_k < 2:
            raise ValueError("sigma_k below 2 would fail sound sources routinely")
        object.__setattr__(self, "directions", tuple(self.directions))


@dataclass(frozen=True)
class ApRow(_Record):
    """One direction's verdict inside a certificate."""

    direction: UnitVector3
    target: float
    estimate: float
    stderr: float
    passed: bool

    @property
    def gap(self) -> float:
        return abs(self.estimate - self.target)


@dataclass(frozen=True)
class ApCertificate(_Record):
    """Per-direction comparison of <u, x(alpha)> against a.alpha."""

    axis_claimed: UnitVector3
    rows: tuple[ApRow, ...]
    n: int
    sigma_k: float
    passed: bool

    def failing_rows(self) -> tuple[ApRow, ...]:
        return tuple(row for row in self.rows if not row.passed)


@dataclass(frozen=True)
class InequalityReport(_Record):
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


@dataclass(frozen=True)
class TriangleLeg(_Record):
    """One correlation of the witness triple, with its gap to the target."""

    label: str
    target: float
    estimate: float
    stderr: float

    @property
    def gap(self) -> float:
        return abs(self.estimate - self.target)

    def to_dict(self) -> dict:
        return dict(super().to_dict(), gap=self.gap)


@dataclass(frozen=True)
class NoApBpResult(_Record):
    """Everything the two-axis experiment produced."""

    certificate_u: ApCertificate
    certificate_v: ApCertificate
    inequality: InequalityReport
    triangle: tuple[TriangleLeg, TriangleLeg, TriangleLeg]
    failing_margin: float
    margin_floor: float
    margin_ok: bool
    contradiction_closed: bool


# With stderr 0 the estimate is exactly +-1, and an own-axis target
# a . a = 1 can miss it by rounding dust of up to a few ulps; measured
# worst case 3 ulps of 1.0 over 2e5 random axes.
_DUST = 8 * math.ulp(1.0)


def _row_passes(estimate: float, target: float, stderr: float, sigma_k: float) -> bool:
    if stderr == 0.0:
        return abs(estimate - target) <= _DUST
    return abs(estimate - target) <= sigma_k * stderr


def certify_ap(source: ChunkSource, a: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify that ``source`` behaves as prepared along ``a``.

    Block j holds n fresh pairs measured along direction j; each particle
    is measured once.  Chunk by chunk, the source draws the pairs' committed
    signs u, the u are committed, direction j is chosen, and only then are
    the pairs measured, so the protocol ordering is enforced per chunk.
    Each row's correlation comes from the block's exact products sum,
    added up over its chunks.
    """
    if not cfg.directions:
        raise ValueError("certification needs at least one direction")
    rows = []
    for j, direction in enumerate(cfg.directions):
        total = 0
        for start, count in _chunks(cfg.n):
            u, sampler = source(j, start, count)
            if u.length != count:
                raise LengthMismatch(
                    f"block {j} chunk at {start} needs {count} committed signs, got {u.length}"
                )
            x = measure(choose_direction(commit(u), direction), sampler)
            total += correlation(u, x).sum_products
        est = CorrelationEstimate.from_sum(total, cfg.n)
        target = clamp_unit_dot(a.dot(direction))
        rows.append(
            ApRow(
                direction=direction,
                target=target,
                estimate=est.value,
                stderr=est.stderr,
                passed=_row_passes(est.value, target, est.stderr, cfg.sigma_k),
            )
        )
    return ApCertificate(
        axis_claimed=a,
        rows=tuple(rows),
        n=cfg.n,
        sigma_k=cfg.sigma_k,
        passed=all(row.passed for row in rows),
    )


def prepared_ap_experiment(a: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify a genuinely axis-prepared source against its own axis.

    The committed signs of all blocks are one run of fair draws on
    substream 0, block j taking draws j n .. (j + 1) n - 1; block j is
    measured with substream 1 + j.
    """
    base = RngStream(cfg.seed)
    signs = base.substream(0)

    def source(j: int, start: int, count: int) -> tuple[SignSequence, Sampler]:
        u = fair_signs(signs.words_at(j * cfg.n + start, count))
        rng = base.substream(1 + j).after(start)
        return u, lambda uu, alpha: sample_prepared(PreparedSource(a, uu), alpha, rng)

    return certify_ap(source, a, cfg)


def singlet_ap_experiment(beta: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify the far wing of singlet pairs as prepared along -beta.

    The near wing is measured along beta throughout; its outcomes are the
    committed u, drawn for block j from substream 2 j.  Each direction
    block uses fresh pairs; the far wing is sampled from substream 2 j + 1
    conditionally on the committed near-wing outcomes, which realizes the
    same joint law as sampling the pair at once.
    """
    base = RngStream(cfg.seed)

    def source(j: int, start: int, count: int) -> tuple[SignSequence, Sampler]:
        u = random_signs(count, base.substream(2 * j).after(start))
        rng = base.substream(2 * j + 1).after(start)
        return u, lambda uu, alpha: sample_singlet_partner(uu, beta, alpha, rng)

    return certify_ap(source, -beta, cfg)


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

    Extra cfg.directions are certified too; every chunk is drawn with (a, b),
    so the circle law keeps one plane and one stream one hidden-variable law.
    """
    witness = geometric_witness(a, b)
    base = RngStream(cfg.seed)

    # the witness block: the three pair sums of x, u, v, one chunk at a time
    hidden_rng = base.substream(0)
    sums = {"ux": 0, "vx": 0, "uv": 0}
    for start, count in _chunks(cfg.n):
        hidden = model.draw_lambdas(a, b, count, hidden_rng.after(start), cfg.n)
        chunk = {
            "x": SignSequence.from_array(model.response_a(hidden, witness.alpha)),
            "u": SignSequence.from_array(model.response_b(hidden, -a)),
            "v": counterfactual_values(model, hidden, -b, "B"),
        }
        for pair in sums:
            sums[pair] += correlation(chunk[pair[0]], chunk[pair[1]]).sum_products

    def pair_sum(p: str, q: str) -> int:
        return sums["".join(sorted(p + q))]

    targets = dict(zip(("ux", "vx", "uv"), cosine_targets(a, b, witness.alpha)))
    estimates = {pair: CorrelationEstimate.from_sum(total, cfg.n) for pair, total in sums.items()}
    triangle = tuple(
        TriangleLeg(label=pair, target=targets[pair], estimate=est.value, stderr=est.stderr)
        for pair, est in estimates.items()
    )

    f, g, h = witness.assignment
    empirical = float(
        boole_bell_lhs_from_sums(pair_sum(f, g), pair_sum(f, h), pair_sum(g, h), cfg.n)
    )
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
    cert_u = _lhv_certificate(model, (a, b), a, cert_cfg, base, offset=1)
    cert_v = _lhv_certificate(model, (a, b), b, cert_cfg, base, offset=1 + k)

    failing = cert_u.failing_rows() + cert_v.failing_rows()
    lift = (witness.lhs_value - 1.0) / 3.0
    # the largest gap; on ties the last failing row
    worst = max(reversed(failing), key=lambda row: row.gap, default=None)
    margin_ok = any(row.gap >= lift - cfg.sigma_k * row.stderr for row in failing)

    return NoApBpResult(
        certificate_u=cert_u,
        certificate_v=cert_v,
        inequality=inequality,
        triangle=triangle,
        failing_margin=0.0 if worst is None else worst.gap,
        margin_floor=lift if worst is None else lift - cfg.sigma_k * worst.stderr,
        margin_ok=margin_ok,
        contradiction_closed=(
            inequality.verdict == "contradiction" and bool(failing) and margin_ok
        ),
    )


def _lhv_certificate(
    model: LhvModel,
    plane: tuple[UnitVector3, UnitVector3],
    axis_claimed: UnitVector3,
    cfg: ExperimentConfig,
    base: RngStream,
    offset: int,
) -> ApCertificate:
    """Certify the model's near wing against ``axis_claimed``.

    Block j's pairs come from substream offset + j and are drawn with the
    pair ``plane``.  For each chunk the committed u holds the far wing's
    values along -axis_claimed; the chunk's hidden draws happen before its
    direction is chosen, and the near wing then answers from the same draws,
    so the protocol ordering inside certify_ap is honest.
    """

    def source(j: int, start: int, count: int) -> tuple[SignSequence, Sampler]:
        rng = base.substream(offset + j).after(start)
        hidden = model.draw_lambdas(*plane, count, rng, cfg.n)
        u = SignSequence.from_array(model.response_b(hidden, -axis_claimed))
        return u, lambda uu, alpha: SignSequence.from_array(model.response_a(hidden, alpha))

    return certify_ap(source, axis_claimed, cfg)


FEASIBILITY_MAX_LENGTH = BRUTE_FORCE_MAX_LENGTH


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the exhaustive search for a consistent sign triple."""

    feasible: bool
    witness: tuple[SignSequence, SignSequence, SignSequence] | None
    targets: tuple[float, float, float]
    epsilon: float
    n: int


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

    The search scans the class counts of (ux, vx, uv) and compares their
    integer products sums with bounds taken once in Fractions, so the
    verdict is exact.  The witness is x = all +1 with u and v set to the
    ux and vx products.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    targets = cosine_targets(a, b, alpha)
    eps = Fraction(epsilon)
    (lo_ux, hi_ux), (lo_vx, hi_vx), (lo_uv, hi_uv) = (
        (math.ceil(n * (Fraction(t) - eps)), math.floor(n * (Fraction(t) + eps))) for t in targets
    )
    for c1, c2, c3, s_ux, s_vx, s_uv in _class_sums(n):
        if lo_ux <= s_ux <= hi_ux and lo_vx <= s_vx <= hi_vx and lo_uv <= s_uv <= hi_uv:
            # indices run c1 of (+,+,+), c2 of (+,-,-), c3 of (-,+,-), then (-,-,+)
            u = SignSequence(n, (1 << (c1 + c2)) - 1)
            v = SignSequence(n, ((1 << c1) - 1) | (((1 << c3) - 1) << (c1 + c2)))
            witness = (u, v, SignSequence(n, (1 << n) - 1))
            return FeasibilityResult(True, witness, targets, epsilon, n)
    return FeasibilityResult(False, None, targets, epsilon, n)
