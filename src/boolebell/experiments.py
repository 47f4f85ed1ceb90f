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
from the block's streams where its last chunk ended, committed, measured
along the block's direction and reduced to integer products sums, which
add up exactly across chunks; then it is dropped.  Memory therefore stays
at a few chunks whatever n is, and the results are the ones a whole-block
run would give, bit for bit, for any chunk size that is a multiple of 256:
a chunk's LHV pairs (one per word), signs (64 per word) and cosine-law
outcomes (two per word) then take whole Philox counter blocks.

The config and result records turn into dicts by one rule,
:meth:`_Record.to_dict`, :func:`dataclasses.asdict` with ``passed`` as
"pass", so a field reaches the JSON output when it is declared; a
direction stays a :class:`UnitVector3`, which the CLI decides how to write.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cache
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
from .sampler import PreparedSource, random_signs, sample_prepared, sample_singlet_partner
from .sequences import (
    BRUTE_FORCE_MAX_LENGTH,
    CorrelationEstimate,
    LengthMismatch,
    SignSequence,
    _class_sums,
    boole_bell_lhs_from_sums,
    correlation,
)

# Pairs per chunk, a multiple of 256 (see above); a chunk's outcome words
# take 128 KiB, and a sphere-law chunk's state 640 KiB.
_CHUNK = 1 << 15

# measures committed signs along a chosen direction: (u, alpha) -> x
Sampler = Callable[[SignSequence, UnitVector3], SignSequence]
# a block's chunk source, called in pair order within each block: (j, pair
# count) -> (the committed signs u of block j's next pairs, a sampler of them)
ChunkSource = Callable[[int, int], tuple[SignSequence, Sampler]]


def _chunks(n: int) -> Iterator[tuple[int, int]]:
    """(first pair, pair count) of each chunk of an n-pair block."""
    for start in range(0, n, _CHUNK):
        yield start, min(_CHUNK, n - start)


class _Record:
    """A dataclass whose ``to_dict`` writes every field under its name,
    ``passed`` under "pass"; directions stay :class:`UnitVector3`."""

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=lambda kv: {
            "pass" if k == "passed" else k: v for k, v in kv})


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
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "gap", abs(self.estimate - self.target))


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


# With stderr 0 the estimate is exactly +-1, and an own-axis target a . a = 1 can miss it
# by rounding dust of up to a few ulps (measured worst case 3 ulps of 1.0 over 2e5 random
# axes).  A positive stderr is at least about 2/n, so sigma_k * stderr >= 4/n > _DUST to n = 2e15.
_DUST = 8 * math.ulp(1.0)


def _row_passes(estimate: float, target: float, stderr: float, sigma_k: float) -> bool:
    return abs(estimate - target) <= max(sigma_k * stderr, _DUST)


def certify_ap(source: ChunkSource, a: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify that ``source`` behaves as prepared along ``a``.

    Block j holds n fresh pairs measured along direction j; each particle
    is measured once.  Chunk by chunk, in order, the source draws the pairs'
    committed signs u, the u are committed, direction j is chosen, and only
    then are the pairs measured, so the protocol ordering is enforced per
    chunk.  Each row's correlation comes from the block's exact products
    sum, added up over its chunks.
    """
    if not cfg.directions:
        raise ValueError("certification needs at least one direction")
    rows = []
    for j, direction in enumerate(cfg.directions):
        total = 0
        for start, count in _chunks(cfg.n):
            u, sampler = source(j, count)
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


def _quantum(axis: UnitVector3, cfg: ExperimentConfig, sample: Callable) -> ApCertificate:
    """:func:`certify_ap` of block j's committed fair signs u from substream
    2 j, measured by ``sample(u, alpha, rng)`` with substream 2 j + 1."""
    stream = cache(RngStream(cfg.seed).substream)  # each read on, chunk by chunk

    def source(j: int, count: int) -> tuple[SignSequence, Sampler]:
        rng = stream(2 * j + 1)
        return random_signs(count, stream(2 * j)), lambda uu, alpha: sample(uu, alpha, rng)

    return certify_ap(source, axis, cfg)


def prepared_ap_experiment(a: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify a genuinely axis-prepared source against its own axis.

    Block j draws its committed fair signs u from substream 2 j and is
    measured with substream 2 j + 1, each read on chunk by chunk, so block
    j's draws depend neither on the chunk size nor on n.
    """
    return _quantum(a, cfg, lambda u, alpha, rng: sample_prepared(PreparedSource(a, u), alpha, rng))


def singlet_ap_experiment(beta: UnitVector3, cfg: ExperimentConfig) -> ApCertificate:
    """Certify the far wing of singlet pairs as prepared along -beta.

    The near wing is measured along beta throughout; its outcomes are the
    committed u, drawn for block j from substream 2 j.  Each direction
    block uses fresh pairs; the far wing is sampled from substream 2 j + 1
    conditionally on the committed near-wing outcomes, which realizes the
    same joint law as sampling the pair at once.
    """
    return _quantum(-beta, cfg, lambda u, alpha, rng: sample_singlet_partner(u, beta, alpha, rng))


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

    Every block is read by one reader, ``hidden``: block j is drawn from
    substream j with the plane (a, b), so the circle law keeps one plane and
    one stream one hidden-variable law.  Block 0 is the witness; blocks
    1 .. k are the k rows of u's certificate (a, b, the witness direction,
    then cfg.directions) and blocks k + 1 .. 2k those of v's.  A certificate
    commits the far wing's values along minus its axis before its direction
    is chosen, and the near wing then answers from the same draws, so the
    protocol ordering inside certify_ap is honest.
    """
    witness = geometric_witness(a, b)
    stream = cache(RngStream(cfg.seed).substream)

    def hidden(j: int, count: int):  # block j's next chunk
        return model.draw_lambdas(a, b, count, stream(j))

    # the witness block: the three pair sums of x, u, v, one chunk at a time
    sums = {"ux": 0, "vx": 0, "uv": 0}
    for _, count in _chunks(cfg.n):
        state = hidden(0, count)
        chunk = {
            "x": SignSequence.from_array(model.response_a(state, witness.alpha)),
            "u": SignSequence.from_array(model.response_b(state, -a)),
            "v": counterfactual_values(model, state, -b, "B"),
        }
        for pair in sums:
            sums[pair] += correlation(chunk[pair[0]], chunk[pair[1]]).sum_products
    del state, chunk  # the certificates' chunks are drawn without the witness's last one

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

    cert_cfg = replace(cfg, directions=(a, b, witness.alpha) + cfg.directions)
    k = len(cert_cfg.directions)

    def certificate(axis: UnitVector3, first: int) -> ApCertificate:
        def source(j: int, count: int) -> tuple[SignSequence, Sampler]:
            state = hidden(first + j, count)
            u = SignSequence.from_array(model.response_b(state, -axis))
            return u, lambda uu, alpha: SignSequence.from_array(model.response_a(state, alpha))

        return certify_ap(source, axis, cert_cfg)

    cert_u, cert_v = certificate(a, 1), certificate(b, 1 + k)

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
    from fractions import Fraction
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
