import math
import random
import re
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import product

import pytest

from boolebell import experiments
from boolebell.experiments import (
    FEASIBILITY_MAX_LENGTH,
    ApCertificate,
    ApRow,
    ExperimentConfig,
    InequalityReport,
    NoApBpResult,
    TriangleLeg,
    _block_sums,
    _row_passes,
    certify_ap,
    feasibility_bruteforce,
    no_apbp_experiment,
    prepared_ap_experiment,
    singlet_ap_experiment,
)
from boolebell.geometry import ColinearAxes, UnitVector3, geometric_witness
from boolebell.realism import MODEL_NAMES, counterfactual_values, make_lhv_model
from boolebell.rng import RngStream
from boolebell.sampler import (
    PreparedSource, random_signs, sample_prepared, sample_singlet_partner,
)
from boolebell.sequences import (
    CorrelationEstimate, EmptySequence, LengthMismatch, LengthTooLarge, SignSequence, correlation,
)

X_HAT = UnitVector3(1, 0, 0)
Z_HAT = UnitVector3(0, 0, 1)


def xy_direction(theta_deg: float) -> UnitVector3:
    t = math.radians(theta_deg)
    return UnitVector3(math.cos(t), math.sin(t), 0)


def xz_direction(theta_deg: float) -> UnitVector3:
    t = math.radians(theta_deg)
    return UnitVector3(math.sin(t), 0, math.cos(t))


XY_SWEEP = tuple(xy_direction(30.0 * k) for k in range(12))
XZ_SWEEP = tuple(xz_direction(30.0 * k) for k in range(12))


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, n=99)
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, n=100, sigma_k=1.5)
        # NaN failed every non-dust row and infinity passed every row
        for sigma_k in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_k must be finite"):
                ExperimentConfig(seed=1, n=100, sigma_k=sigma_k)
        # n = 1000.0 built, then failed in the chunk range; seed = 1.0 in the rng;
        # neither message named the field
        for value in (1000.0, "1000", True, None):
            for name in ("seed", "n"):
                message = re.escape(f"{name} must be an integer, got {value!r}")
                with pytest.raises(TypeError, match=message):
                    ExperimentConfig(**{"seed": 1, "n": 1000, name: value})

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_the_key_range(self, seed):
        # both built, and 2**64 failed only inside RngStream
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
            ExperimentConfig(seed=seed, n=100)

    @pytest.mark.parametrize("sigma_k", ["4", None, True, Fraction(4)],
                             ids=["str", "none", "bool", "fraction"])
    def test_sigma_k_of_the_wrong_type(self, sigma_k):
        # "4" and None raised math.isfinite's TypeError, which named no field; True was
        # checked as 1, and Fraction(4) was stored as a Fraction, which JSON cannot write
        message = re.escape(f"sigma_k must be an int or a float, got {sigma_k!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            ExperimentConfig(seed=1, n=100, sigma_k=sigma_k)

    def test_sigma_k_past_the_float_range(self):
        # math.isfinite raised a bare OverflowError; the 401 digits are not printed
        with pytest.raises(ValueError, match="^sigma_k must be within the float range$"):
            ExperimentConfig(seed=1, n=100, sigma_k=10**400)

    def test_sigma_k_is_stored_as_a_float_and_directions_as_a_tuple(self):
        cfg = ExperimentConfig(seed=1, n=100, sigma_k=3, directions=[X_HAT, Z_HAT])
        assert type(cfg.sigma_k) is float and cfg.sigma_k == 3.0
        assert type(cfg.to_dict()["sigma_k"]) is float
        assert cfg.directions == (X_HAT, Z_HAT)

    @pytest.mark.parametrize("directions", [[[1, 0, 0]], (X_HAT, None), 5, None],
                             ids=["list-of-lists", "none-entry", "int", "none"])
    def test_directions_of_the_wrong_type(self, directions):
        # [[1, 0, 0]] built, then a run failed: 'list' object has no attribute 'x'
        message = re.escape(f"directions must be a tuple of UnitVector3, got {directions!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            ExperimentConfig(seed=1, n=100, directions=directions)


class TestCertifyAp:
    def test_prepared_source_passes_everywhere(self):
        cfg = ExperimentConfig(seed=11, n=10_000, directions=XY_SWEEP)
        cert = prepared_ap_experiment(X_HAT, cfg)
        assert cert.passed
        assert all(row.passed for row in cert.rows)
        assert len(cert.rows) == 12

    def test_prepared_exact_rows_at_aligned_directions(self):
        cfg = ExperimentConfig(seed=12, n=1000, directions=(X_HAT, -X_HAT))
        cert = prepared_ap_experiment(X_HAT, cfg)
        assert cert.rows[0].target == 1.0 and cert.rows[0].estimate == 1.0
        assert cert.rows[1].target == -1.0 and cert.rows[1].estimate == -1.0
        assert cert.rows[0].stderr == 0.0

    def test_independent_u_fails_aligned_directions(self):
        cfg = ExperimentConfig(seed=13, n=10_000, directions=XY_SWEEP)
        base = RngStream(cfg.seed)
        from boolebell.sampler import PreparedSource, sample_prepared

        real_u = random_signs(cfg.n * 12, base.substream(0))
        unrelated = random_signs(cfg.n * 12, base.substream(99))

        read = [0] * len(cfg.directions)  # pairs of each block handed out so far

        def source(j, count):
            start, read[j] = read[j], read[j] + count
            first = j * cfg.n + start
            src = PreparedSource(X_HAT, real_u[first : first + count])
            rng = base.substream(1 + j).after(start)
            return unrelated[first : first + count], lambda uu, al: sample_prepared(src, al, rng)

        cert = certify_ap(source, X_HAT, cfg)
        assert not cert.passed
        for row in cert.rows:
            if abs(row.target) >= 0.5:
                assert not row.passed
                assert abs(row.estimate) < 0.1  # independence drives it to zero

    def test_wrong_u_length_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_CHUNK", 256)
        cfg = ExperimentConfig(seed=1, n=600, directions=(X_HAT, Z_HAT))
        full = random_signs(256, RngStream(0))

        def source(j, count):  # block 1's last chunk comes up 8 pairs short
            u = full[:80] if (j, count) == (1, 88) else full[:count]
            return u, lambda ub, al: ub

        with pytest.raises(LengthMismatch, match="block 1 chunk at 512 needs 88 .* got 80"):
            certify_ap(source, X_HAT, cfg)

    def test_needs_directions(self):
        cfg = ExperimentConfig(seed=1, n=100)
        u = random_signs(100, RngStream(0))
        with pytest.raises(ValueError):
            certify_ap(lambda j, count: (u, lambda ub, al: ub), X_HAT, cfg)

    def test_source_gets_each_blocks_counts_in_direction_order(self, monkeypatch):
        monkeypatch.setattr(experiments, "_CHUNK", 256)
        cfg = ExperimentConfig(seed=1, n=600, directions=(X_HAT, Z_HAT, -X_HAT))
        calls = []

        def source(j, count):
            def sampler(u, alpha):
                calls.append((j, count, alpha))
                return u

            return random_signs(count, RngStream(j)), sampler

        certify_ap(source, X_HAT, cfg)
        assert calls == [
            (j, count, direction)
            for j, direction in enumerate(cfg.directions)
            for count in (256, 256, 88)
        ]

    def test_reproducible(self):
        cfg = ExperimentConfig(seed=31, n=1500, directions=XY_SWEEP[:5])
        assert prepared_ap_experiment(X_HAT, cfg) == prepared_ap_experiment(X_HAT, cfg)


class TestSingletExperiment:
    def test_plane_sweep_passes(self):
        cfg = ExperimentConfig(seed=41, n=10_000, directions=XZ_SWEEP)
        cert = singlet_ap_experiment(Z_HAT, cfg)
        assert cert.passed
        assert cert.axis_claimed.as_list() == pytest.approx([0, 0, -1])

    def test_anticorrelated_row_is_exact(self):
        cfg = ExperimentConfig(seed=42, n=500, directions=(Z_HAT, -Z_HAT))
        cert = singlet_ap_experiment(Z_HAT, cfg)
        aligned = cert.rows[0]  # alpha = beta: claimed axis -beta gives target -1
        assert aligned.target == -1.0 and aligned.estimate == -1.0 and aligned.stderr == 0.0
        mirrored = cert.rows[1]  # alpha = -beta: perfect agreement
        assert mirrored.target == 1.0 and mirrored.estimate == 1.0

    def test_orthogonal_row_targets_zero(self):
        cfg = ExperimentConfig(seed=43, n=50_000, directions=(X_HAT,))
        cert = singlet_ap_experiment(Z_HAT, cfg)
        row = cert.rows[0]
        assert row.target == 0.0
        assert abs(row.estimate) <= 4 * row.stderr


class TestNoApBp:
    def test_right_angle_contradiction(self):
        cfg = ExperimentConfig(seed=51, n=100_000)
        model = make_lhv_model("sign-circle")
        result = no_apbp_experiment(X_HAT, xy_direction(90), model, cfg)
        cert_u, cert_v, report = result.certificate_u, result.certificate_v, result.inequality
        assert report.target_lhs == pytest.approx(math.sqrt(2), abs=1e-9)
        assert report.empirical_lhs <= 1.0
        assert report.verdict == "contradiction"
        assert not (cert_u.passed and cert_v.passed)
        assert result.margin_ok and result.contradiction_closed
        assert result.failing_margin >= result.margin_floor

    def test_gaps_absorb_the_violation(self):
        cfg = ExperimentConfig(seed=52, n=50_000)
        model = make_lhv_model("sign-circle")
        for theta in (40, 60, 90, 120, 150):
            result = no_apbp_experiment(X_HAT, xy_direction(theta), model, cfg)
            report = result.inequality
            assert sum(report.gaps) >= report.target_lhs - report.empirical_lhs - 1e-12
            assert report.target_lhs > 1.0 >= report.empirical_lhs

    def test_acute_and_obtuse_targets(self):
        cfg = ExperimentConfig(seed=53, n=20_000)
        model = make_lhv_model("sign-circle")
        acute = no_apbp_experiment(X_HAT, xy_direction(60), model, cfg).inequality
        assert acute.target_lhs == pytest.approx(1.3660254, abs=1e-6)
        assert acute.case_label == "acute"
        obtuse = no_apbp_experiment(X_HAT, xy_direction(120), model, cfg).inequality
        assert obtuse.target_lhs == pytest.approx(1.3660254, abs=1e-6)
        assert obtuse.case_label == "obtuse"

    def test_sphere_model_also_fails_certification(self):
        cfg = ExperimentConfig(seed=54, n=100_000)
        result = no_apbp_experiment(X_HAT, xy_direction(90), make_lhv_model("sign-sphere"), cfg)
        assert result.contradiction_closed

    def test_extra_directions_are_certified_too(self):
        cfg = ExperimentConfig(seed=55, n=10_000, directions=(xy_direction(10),))
        result = no_apbp_experiment(X_HAT, xy_direction(90), make_lhv_model("sign-circle"), cfg)
        assert len(result.certificate_u.rows) == 4  # a, b, witness, extra

    def test_colinear_axes_rejected(self):
        cfg = ExperimentConfig(seed=56, n=1000)
        with pytest.raises(ColinearAxes):
            no_apbp_experiment(X_HAT, X_HAT, make_lhv_model("sign-circle"), cfg)

    def test_deterministic(self):
        cfg = ExperimentConfig(seed=57, n=5000)
        model = make_lhv_model("sign-circle")
        first = no_apbp_experiment(X_HAT, xy_direction(90), model, cfg)
        second = no_apbp_experiment(X_HAT, xy_direction(90), model, cfg)
        assert first == second


class TestRecordDicts:
    """``to_dict`` writes every field under its name, ``passed`` as "pass",
    nested records as dicts and everything else, directions included, as is."""

    @staticmethod
    def key(name):
        return "pass" if name == "passed" else name

    def assert_written(self, record, doc, seen):
        seen.add(type(record))
        assert list(doc) == [self.key(f.name) for f in fields(record)]
        for f in fields(record):
            value, written = getattr(record, f.name), doc[self.key(f.name)]
            assert type(written) is (dict if is_dataclass(value) else type(value))
            pairs = zip(value, written) if isinstance(value, tuple) else [(value, written)]
            for item, out in pairs:
                if is_dataclass(item):
                    self.assert_written(item, out, seen)
                else:
                    assert type(out) is type(item) and out == item

    def test_every_record(self):
        cfg = ExperimentConfig(seed=3, n=1000, directions=(Z_HAT,))
        result = no_apbp_experiment(X_HAT, xy_direction(70), make_lhv_model("sign-circle"), cfg)
        seen = set()
        self.assert_written(cfg, cfg.to_dict(), seen)
        self.assert_written(result, result.to_dict(), seen)
        assert seen == {
            ExperimentConfig, ApRow, ApCertificate, InequalityReport, TriangleLeg, NoApBpResult
        }


class TestBlockSums:
    """The one block reader: its reads cover the block once, in pair order,
    it returns the exact element-wise total of their sums, and it holds one
    chunk's draws, the last, while the next chunk's are made."""

    SIZES = (1, 255, 256, 257, 600, 10_001)

    @pytest.mark.parametrize("chunk", [256, 4096])
    @pytest.mark.parametrize("n", SIZES)
    def test_reads_cover_the_block_once_in_pair_order(self, monkeypatch, chunk, n):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        calls = []
        _block_sums(n, lambda start, count: (calls.append((start, count)) or (count,), None))
        assert calls == [(start, min(chunk, n - start)) for start in range(0, n, chunk)]
        assert [i for start, count in calls for i in range(start, start + count)] == list(range(n))

    @pytest.mark.parametrize("chunk", [256, 4096])
    @pytest.mark.parametrize("n", SIZES)
    def test_total_is_the_element_wise_integer_sum(self, monkeypatch, chunk, n):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)

        def per_pair(start, count):  # pair i gives (1, i, -(2**64 i + 1)): past float precision
            pairs = range(start, start + count)
            return (len(pairs), sum(pairs), -sum((i << 64) + 1 for i in pairs)), None

        total = n * (n - 1) // 2
        assert _block_sums(n, lambda start, count: ((count,), None)) == (n,)
        sums = _block_sums(n, per_pair)
        assert sums == (n, total, -((total << 64) + n))
        assert all(type(value) is int for value in sums)

    @pytest.mark.parametrize("chunk", [256, 4096])
    def test_an_error_in_a_read_propagates_unchanged(self, monkeypatch, chunk):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        error = LengthMismatch("the second chunk came up short")
        starts = []

        def read(start, count):
            starts.append(start)
            if start == chunk:
                raise error
            return (count,), None

        with pytest.raises(LengthMismatch) as raised:
            _block_sums(10_001, read)
        assert raised.value is error
        assert starts == [0, chunk]  # nothing is read after the failing chunk

    def test_the_last_chunks_draws_live_until_the_next_are_made(self, monkeypatch):
        # dropped at once, a sphere-law chunk's draws went back to the system
        # and were faulted in again by the next chunk
        monkeypatch.setattr(experiments, "_CHUNK", 256)

        class Draws:
            pass

        made, alive = [], []

        def read(start, count):
            alive.append([ref() is not None for ref in made])
            draws = Draws()
            made.append(weakref.ref(draws))
            return (count,), draws

        _block_sums(1_000, read)
        assert alive == [[], [True], [False, True], [False, False, True]]
        assert made[-1]() is None  # the block's last draws go with the reader


class TestChunkInvariance:
    """A block streamed in chunks of any multiple of 256 pairs, or in one
    chunk, gives the same result bit for bit."""

    N = 10_001  # not a multiple of 256, so every block ends in a partial chunk
    CHUNKS = (256, 4096, 65536, 1 << 20)

    def test_chunk_is_a_multiple_of_256(self):
        # one LHV pair, 64 signs or two outcomes per word: chunks start on
        # counter blocks
        assert experiments._CHUNK % 256 == 0

    def results(self, monkeypatch, run):
        out = []
        for chunk in self.CHUNKS:
            monkeypatch.setattr(experiments, "_CHUNK", chunk)
            out.append(run())
        return out

    def assert_invariant(self, monkeypatch, run):
        first, *rest = self.results(monkeypatch, run)
        assert all(result == first for result in rest)

    def test_prepared(self, monkeypatch):
        cfg = ExperimentConfig(seed=61, n=self.N, directions=(X_HAT,) + XY_SWEEP[1:3])
        self.assert_invariant(monkeypatch, lambda: prepared_ap_experiment(X_HAT, cfg))

    def test_singlet(self, monkeypatch):
        cfg = ExperimentConfig(seed=62, n=self.N, directions=(-Z_HAT,) + XZ_SWEEP[1:3])
        self.assert_invariant(monkeypatch, lambda: singlet_ap_experiment(Z_HAT, cfg))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_lhv_models(self, monkeypatch, name):
        cfg = ExperimentConfig(seed=63, n=self.N)
        model = make_lhv_model(name)
        self.assert_invariant(
            monkeypatch, lambda: no_apbp_experiment(X_HAT, xy_direction(70), model, cfg)
        )


class TestLhvStreamLayout:
    """The contradiction experiment reads LHV block j from substream j: the
    witness is block 0, row j of u's certificate block 1 + j and row j of
    v's block 1 + k + j, each drawn with the plane (a, b).  A whole-block
    draw from that substream gives every estimate exactly, and a block's
    first m pairs are the same draws at any n >= m."""

    N = 2_000

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_block_j_reads_substream_j(self, monkeypatch, name):
        monkeypatch.setattr(experiments, "_CHUNK", 512)
        a, b, extra = X_HAT, xy_direction(70), xz_direction(40)
        cfg = ExperimentConfig(seed=64, n=self.N, directions=(extra,))
        model = make_lhv_model(name)
        result = no_apbp_experiment(a, b, model, cfg)
        base = RngStream(cfg.seed)

        def block(j):
            return model.draw_lambdas(a, b, self.N, base.substream(j))

        def signs(values):
            return SignSequence.from_array(values)

        witness = geometric_witness(a, b).alpha
        state = block(0)
        x = signs(model.response_a(state, witness))
        u = signs(model.response_b(state, -a))
        v = counterfactual_values(model, state, -b, "B")
        legs = {"ux": (u, x), "vx": (v, x), "uv": (u, v)}
        for leg in result.triangle:
            assert leg.estimate == correlation(*legs[leg.label]).value

        directions = (a, b, witness, extra)
        k = len(directions)
        for cert, axis, first in ((result.certificate_u, a, 1), (result.certificate_v, b, 1 + k)):
            assert tuple(row.direction for row in cert.rows) == directions
            for j, row in enumerate(cert.rows):
                state = block(first + j)
                u = signs(model.response_b(state, -axis))
                x = signs(model.response_a(state, row.direction))
                assert row.estimate == correlation(u, x).value


    def blocks(self, monkeypatch, name, n):
        """The '+'/'-' text of the sequence pairs the experiment at n
        correlates in chunks of 256, joined over each block's chunks: the
        witness's (u, x), (v, x) and (u, v), then each certificate row's
        (u, x)."""
        monkeypatch.setattr(experiments, "_CHUNK", 256)
        seen = []
        real = experiments.correlation

        def recording(f, g):
            seen.append((f.to_text(), g.to_text()))
            return real(f, g)

        monkeypatch.setattr(experiments, "correlation", recording)
        cfg = ExperimentConfig(seed=64, n=n, directions=(xz_direction(40),))
        no_apbp_experiment(X_HAT, xy_direction(70), make_lhv_model(name), cfg)
        per_block = -(-n // 256)
        witness, rows = seen[:3 * per_block], seen[3 * per_block:]
        groups = [witness[leg::3] for leg in range(3)]
        groups += [rows[i:i + per_block] for i in range(0, len(rows), per_block)]
        return [tuple("".join(part) for part in zip(*chunks)) for chunks in groups]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_first_pairs_do_not_depend_on_n(self, monkeypatch, name):
        m = 1_000
        short = self.blocks(monkeypatch, name, m)
        long = self.blocks(monkeypatch, name, 3_001)
        assert len(long) == len(short) == 3 + 2 * 4  # the witness legs, then 2 k rows
        assert [(f[:m], g[:m]) for f, g in long] == short


class TestQuantumStreamLayout:
    """Both certify-ap sources read block j's committed signs from
    substream 2 j and measure them with substream 2 j + 1, so a whole-block
    draw gives every estimate exactly, and a block's first m pairs are the
    same draws at any n >= m."""

    DIRECTIONS = (X_HAT, xy_direction(70), xz_direction(40))
    MODES = ("prepared", "singlet")

    @staticmethod
    def mode(name):
        """The experiment at a config, and its block sampler (u, alpha, rng) -> x."""
        if name == "prepared":
            return (lambda cfg: prepared_ap_experiment(X_HAT, cfg),
                    lambda u, alpha, rng: sample_prepared(PreparedSource(X_HAT, u), alpha, rng))
        beta = UnitVector3(0.3, -0.5, 0.8)
        return (lambda cfg: singlet_ap_experiment(beta, cfg),
                lambda u, alpha, rng: sample_singlet_partner(u, beta, alpha, rng))

    def blocks(self, monkeypatch, mode, n):
        """The certificate at n in chunks of 256, and each block's committed
        and measured signs as '+'/'-' text, chunk after chunk."""
        monkeypatch.setattr(experiments, "_CHUNK", 256)
        seen = []
        real = experiments.correlation

        def recording(u, x):
            seen.append((u.to_text(), x.to_text()))
            return real(u, x)

        monkeypatch.setattr(experiments, "correlation", recording)
        cert = self.mode(mode)[0](ExperimentConfig(seed=65, n=n, directions=self.DIRECTIONS))
        per_block = -(-n // 256)
        texts = [seen[j * per_block:(j + 1) * per_block] for j in range(len(self.DIRECTIONS))]
        return cert, [tuple("".join(part) for part in zip(*chunks)) for chunks in texts]

    @pytest.mark.parametrize("mode", MODES)
    def test_block_j_reads_substreams_2j_and_2j_plus_1(self, monkeypatch, mode):
        n = 2_000
        cert, drawn = self.blocks(monkeypatch, mode, n)
        sample = self.mode(mode)[1]
        base = RngStream(65)
        for j, row in enumerate(cert.rows):
            u = random_signs(n, base.substream(2 * j))
            x = sample(u, row.direction, base.substream(2 * j + 1))
            assert drawn[j] == (u.to_text(), x.to_text())
            assert row.estimate == correlation(u, x).value

    @pytest.mark.parametrize("mode", MODES)
    def test_first_pairs_do_not_depend_on_n(self, monkeypatch, mode):
        m = 1_000
        _, short = self.blocks(monkeypatch, mode, m)
        _, long = self.blocks(monkeypatch, mode, 3_001)
        assert [(u[:m], x[:m]) for u, x in long] == short


class TestChunkMemory:
    """A block is drawn a chunk at a time, so a run's traced memory holds at
    most two chunks whatever n is."""

    def traced_peak(self, n):
        model = make_lhv_model("sign-sphere")
        tracemalloc.start()
        try:
            no_apbp_experiment(X_HAT, xy_direction(70), model, ExperimentConfig(seed=67, n=n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sphere_peak_holds_two_chunks_at_any_n(self):
        # a sphere-law chunk's state takes 20 B per pair, 640 KiB at the
        # shipped chunk, and the next chunk is drawn and answered while it
        # lives: 1.58 MiB measured at the peak.  The bound leaves 0.12 MiB,
        # less than one float32 column of a chunk (128 KiB), so one more live
        # chunk-sized array fails it; nothing else may grow with n
        self.traced_peak(1_000)  # first-call allocations out of the way
        four, sixteen = (self.traced_peak(m * experiments._CHUNK) for m in (4, 16))
        assert abs(sixteen - four) <= 0.02 * four
        assert four <= 1.7 * 2**20


def oracle_feasibility(a, b, alpha, n, epsilon):
    """Plain itertools re-derivation of the exhaustive search verdict."""
    targets = (a.dot(alpha), b.dot(alpha), a.dot(b))
    signs = list(product((1, -1), repeat=n))

    def corr(p, q):
        return sum(x * y for x, y in zip(p, q)) / n

    for u in signs:
        for v in signs:
            if abs(corr(u, v) - targets[2]) > epsilon:
                continue
            for x in signs:
                if (
                    abs(corr(u, x) - targets[0]) <= epsilon
                    and abs(corr(v, x) - targets[1]) <= epsilon
                ):
                    return True
    return False


class TestOwnAxisFloatDust:
    """Measured along its own axis a source gives estimate +-1 with stderr
    0, while the target a . a can miss 1 by rounding dust; that must not
    fail the row."""

    DUSTY_A = UnitVector3(1, 1, 0)
    DUSTY_B = UnitVector3(0, 1, 1)

    def assert_dusty_row_passes(self, row):
        assert row.stderr == 0.0 and abs(row.estimate) == 1.0
        assert row.target != row.estimate  # the dust is really there
        assert row.passed

    def test_dusty_prepared_axis(self):
        cfg = ExperimentConfig(seed=3, n=1000, directions=(self.DUSTY_A, X_HAT))
        cert = prepared_ap_experiment(self.DUSTY_A, cfg)
        self.assert_dusty_row_passes(cert.rows[0])
        assert cert.passed

    def test_dusty_singlet_axis(self):
        # the own direction as a user types it, (-3, -3, -1), against -beta
        beta = UnitVector3(3, 3, 1)
        cfg = ExperimentConfig(seed=3, n=1000, directions=(UnitVector3(-3, -3, -1), X_HAT))
        cert = singlet_ap_experiment(beta, cfg)
        self.assert_dusty_row_passes(cert.rows[0])
        assert cert.passed

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_experiment_own_axis_rows(self, name):
        cfg = ExperimentConfig(seed=3, n=2000)
        result = no_apbp_experiment(self.DUSTY_A, self.DUSTY_B, make_lhv_model(name), cfg)
        # cert_u claims a (direction 0), cert_v claims b (direction 1)
        self.assert_dusty_row_passes(result.certificate_u.rows[0])
        self.assert_dusty_row_passes(result.certificate_v.rows[1])
        assert result.contradiction_closed

    def test_own_axis_outcomes_equal_u_at_1e5(self):
        # a cosine a . a within 2**-33 of 1 never flips an outcome
        n = 100_000
        prepared = prepared_ap_experiment(
            self.DUSTY_A, ExperimentConfig(seed=4, n=n, directions=(self.DUSTY_A,)))
        singlet = singlet_ap_experiment(
            UnitVector3(3, 3, 1),
            ExperimentConfig(seed=4, n=n, directions=(UnitVector3(-3, -3, -1),)))
        for cert in (prepared, singlet):
            assert cert.rows[0].estimate == 1.0 and cert.rows[0].target != 1.0
        u = random_signs(n, RngStream(5))
        x = sample_prepared(PreparedSource(self.DUSTY_A, u), self.DUSTY_A, RngStream(6))
        assert x == u

    def test_genuine_gap_at_zero_stderr_still_fails(self):
        assert _row_passes(1.0, 1.0 - 2.0**-52, 0.0, 4.0)
        assert not _row_passes(1.0, 1.0 - 1e-12, 0.0, 4.0)
        assert not _row_passes(-1.0, 1.0, 0.0, 4.0)


def _two_branch_rule(estimate, target, stderr, sigma_k):
    # the row rule as two branches: dust alone at stderr 0, sigma_k otherwise
    if stderr == 0.0:
        return abs(estimate - target) <= experiments._DUST
    return abs(estimate - target) <= sigma_k * stderr


class TestRowRule:
    """``_row_passes`` is one comparison against max(sigma_k stderr, dust);
    it gives the two-branch rule's verdict on every products sum."""

    @staticmethod
    def targets(s, n, cosines):
        edges = [1.0 - k * math.ulp(1.0) for k in range(9)]
        return edges + [-t for t in edges] + [s / n - 1e-12, s / n + 1e-12] + cosines

    @pytest.mark.parametrize("n", [100, 101, 256, 1000])
    def test_one_comparison_is_the_two_branch_rule(self, n):
        rng = random.Random(n)
        cosines = [rng.uniform(-1.0, 1.0) for _ in range(50)]
        for s in range(-n, n + 1, 2):
            est = CorrelationEstimate.from_sum(s, n)
            for target in self.targets(s, n, cosines):
                for sigma_k in (2.0, 4.0):
                    assert _row_passes(est.value, target, est.stderr, sigma_k) == \
                        _two_branch_rule(est.value, target, est.stderr, sigma_k)

    def test_spot_check_at_65536(self):
        n = 65_536
        cosines = [random.Random(7).uniform(-1.0, 1.0) for _ in range(50)]
        for s in (-n, -n + 2, -2, 0, 2, n - 4, n - 2, n):
            est = CorrelationEstimate.from_sum(s, n)
            for target in self.targets(s, n, cosines):
                assert _row_passes(est.value, target, est.stderr, 4.0) == \
                    _two_branch_rule(est.value, target, est.stderr, 4.0)

    def test_dust_never_widens_a_positive_stderr_row_to_2e15(self):
        # a positive stderr is about 2/n at least, so sigma_k >= 2 clears the dust
        n = 2 * 10**15
        assert 2.0 * CorrelationEstimate.from_sum(n - 2, n).stderr >= experiments._DUST


class TestNearAxisFalseFail:
    """Known defect: a sound source fails its own near-axis row.

    With no disagreeing pair the estimate is exactly 1 and the plug-in
    stderr 0, so the row passes only within the dust, while the cosine gap
    is about theta**2 / 2.  A sound source false-fails with probability
    about exp(-n theta**2 / 4); these runs do.  The remedy is a rule whose
    width is never 0 (ROADMAP item 4), so the tests are strict xfails.
    """

    RUNS = ["prepared-1", "prepared-2", "prepared-3", "singlet-0"]

    @staticmethod
    def certificate(run):
        mode, seed = run.split("-")
        if mode == "prepared":
            # certify-ap --axis [0,0,1] --directions [[1e-3,0,1]] --n 10000 --seed 1 (2, 3)
            cfg = ExperimentConfig(seed=int(seed), n=10_000, directions=(UnitVector3(1e-3, 0, 1),))
            return prepared_ap_experiment(Z_HAT, cfg)
        # certify-ap --singlet-beta [0,0,1] --directions [[1e-4,0,-1]] --n 100000 --seed 0
        cfg = ExperimentConfig(seed=int(seed), n=100_000, directions=(UnitVector3(1e-4, 0, -1),))
        return singlet_ap_experiment(Z_HAT, cfg)

    @pytest.mark.parametrize("run", RUNS)
    def test_near_axis_row_has_zero_stderr_and_a_real_gap(self, run):
        row = self.certificate(run).rows[0]
        assert row.estimate == 1.0 and row.stderr == 0.0
        assert row.gap > 1e3 * experiments._DUST

    @pytest.mark.xfail(strict=True, reason="plug-in stderr is 0 at estimate 1 (ROADMAP item 4)")
    @pytest.mark.parametrize("run", RUNS)
    def test_sound_source_passes_its_near_axis_row(self, run):
        assert self.certificate(run).passed


def random_axis(rng: random.Random) -> UnitVector3:
    return UnitVector3(*(rng.gauss(0.0, 1.0) for _ in range(3)))


_ORACLE_RNG = random.Random(20261019)
ORACLE_CASES = [
    pytest.param(X_HAT, xy_direction(theta), xy_direction(theta / 2), 3, epsilon,
                 id=f"{theta}-{epsilon}")
    for theta, epsilon in [(0.0, 0.0), (90.0, 0.05), (90.0, 0.6), (45.0, 0.3)]
] + [
    pytest.param(*(random_axis(_ORACLE_RNG) for _ in range(3)), _ORACLE_RNG.randint(1, 3),
                 _ORACLE_RNG.uniform(0.0, 1.0), id=f"random{i}")
    for i in range(40)
]


class TestFeasibility:
    def test_right_angle_witness_is_infeasible(self):
        a, b = X_HAT, xy_direction(90)
        alpha = geometric_witness(a, b).alpha
        result = feasibility_bruteforce(a, b, alpha, n=4, epsilon=0.05)
        assert not result.feasible and result.witness is None

    def test_identical_directions_feasible_at_zero_tolerance(self):
        result = feasibility_bruteforce(X_HAT, X_HAT, X_HAT, n=4, epsilon=0.0)
        assert result.feasible
        u, v, x = result.witness
        assert u == v == x

    def test_vacuous_tolerance_always_feasible(self):
        a, b = X_HAT, xy_direction(90)
        alpha = geometric_witness(a, b).alpha
        assert feasibility_bruteforce(a, b, alpha, n=4, epsilon=2.0).feasible

    @pytest.mark.parametrize("theta", [50, 90, 130])
    def test_infeasible_whenever_target_exceeds_lipschitz_budget(self, theta):
        a, b = X_HAT, xy_direction(theta)
        report = geometric_witness(a, b)
        epsilon = 0.05
        assert report.lhs_value > 1 + 3 * epsilon
        assert not feasibility_bruteforce(a, b, report.alpha, n=4, epsilon=epsilon).feasible

    @pytest.mark.parametrize("a,b,alpha,n,epsilon", ORACLE_CASES)
    def test_matches_itertools_oracle_at_n3(self, a, b, alpha, n, epsilon):
        result = feasibility_bruteforce(a, b, alpha, n=n, epsilon=epsilon)
        assert result.feasible == oracle_feasibility(a, b, alpha, n, epsilon)

    def test_decides_lengths_past_a_sign_triple_search(self):
        # 2**180 sign triples at n = 60; the class-count scan decides it exactly
        a, b = X_HAT, xy_direction(90)
        alpha = geometric_witness(a, b).alpha
        assert not feasibility_bruteforce(a, b, alpha, n=60, epsilon=0.05).feasible
        result = feasibility_bruteforce(a, b, alpha, n=60, epsilon=0.15)
        assert result.feasible
        u, v, x = result.witness
        for (p, q), target in zip([(u, x), (v, x), (u, v)], result.targets):
            assert abs(correlation(p, q).as_fraction() - Fraction(target)) <= Fraction(0.15)

    def test_non_finite_tolerance_is_refused(self):
        for epsilon in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"epsilon must be finite, got {epsilon}"):
                feasibility_bruteforce(X_HAT, Z_HAT, X_HAT, n=4, epsilon=epsilon)

    def test_witness_satisfies_tolerances(self):
        a, b = X_HAT, xy_direction(90)
        alpha = xy_direction(45)
        result = feasibility_bruteforce(a, b, alpha, n=4, epsilon=0.8)
        assert result.feasible
        u, v, x = result.witness
        assert abs(correlation(u, x).value - result.targets[0]) <= 0.8
        assert abs(correlation(v, x).value - result.targets[1]) <= 0.8
        assert abs(correlation(u, v).value - result.targets[2]) <= 0.8

    def test_length_limits(self):
        with pytest.raises(LengthTooLarge):
            feasibility_bruteforce(X_HAT, Z_HAT, X_HAT, n=FEASIBILITY_MAX_LENGTH + 1)
        with pytest.raises(EmptySequence):
            feasibility_bruteforce(X_HAT, Z_HAT, X_HAT, n=0)
