import dataclasses
import inspect
import math

import numpy as np
import pytest

from boolebell import realism
from boolebell.geometry import COLINEAR_TOL, ColinearAxes, UnitVector3, geometric_witness
from boolebell.realism import (
    MODEL_NAMES,
    CommitmentToken,
    LhvModel,
    MissingHiddenState,
    OrderingViolation,
    choose_direction,
    commit,
    counterfactual_values,
    make_lhv_model,
    measure,
    sample_lhv,
    sign_model_correlation,
)
from boolebell.rng import RngStream
from boolebell.sequences import SignSequence, boole_bell_lhs_exact, correlation

X_HAT = UnitVector3(1, 0, 0)
Z_HAT = UnitVector3(0, 0, 1)


def plane_direction(theta_deg: float) -> UnitVector3:
    t = math.radians(theta_deg)
    return UnitVector3(math.cos(t), math.sin(t), 0)


def arc_length_oracle(theta: float, steps: int = 400_000) -> float:
    """Independent check of the circle model: integrate the sign product
    of the two wings over a uniformly distributed circle angle."""
    psi = (np.arange(steps) + 0.5) * (2 * math.pi / steps)
    a_side = np.where(np.cos(psi) >= 0, 1, -1)
    b_side = -np.where(np.cos(psi - theta) >= 0, 1, -1)
    return float(np.mean(a_side * b_side))


class TestClosedForm:
    @pytest.mark.parametrize("theta_deg", [0, 15, 30, 45, 60, 90, 135, 180])
    def test_matches_arc_length_integration(self, theta_deg):
        theta = math.radians(theta_deg)
        assert sign_model_correlation(theta) == pytest.approx(
            arc_length_oracle(theta), abs=1e-4
        )

    def test_gap_to_cosine_law_is_detectable(self):
        # the model's straight line -1 + 2 theta/pi misses the singlet's
        # -cos(theta) by more than 0.09 somewhere below 90 degrees
        gaps = [
            abs(sign_model_correlation(math.radians(t)) + math.cos(math.radians(t)))
            for t in range(1, 90)
        ]
        assert max(gaps) > 0.09
        t45 = math.radians(45)
        assert abs(sign_model_correlation(t45) + math.cos(t45)) == pytest.approx(
            0.2071, abs=1e-4
        )


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestModels:
    def test_equal_directions_anticorrelate_exactly(self, name):
        model = make_lhv_model(name)
        a_seq, b_seq, _ = sample_lhv(model, Z_HAT, Z_HAT, 2000, RngStream(21))
        assert b_seq == -a_seq

    @pytest.mark.parametrize("theta_deg", [30, 60, 90])
    def test_correlation_tracks_closed_form(self, name, theta_deg):
        model = make_lhv_model(name)
        n = 200_000
        a_seq, b_seq, _ = sample_lhv(
            model, X_HAT, plane_direction(theta_deg), n, RngStream(22, theta_deg)
        )
        expected = sign_model_correlation(math.radians(theta_deg))
        stderr = math.sqrt((1 - expected**2) / n)
        assert abs(correlation(a_seq, b_seq).value - expected) <= 4 * max(stderr, 1e-12)

    def test_locality_far_setting_changes_nothing(self, name):
        model = make_lhv_model(name)
        n = 5000
        a1, _, lam1 = sample_lhv(model, X_HAT, plane_direction(40), n, RngStream(23))
        a2, _, lam2 = sample_lhv(model, X_HAT, plane_direction(140), n, RngStream(23))
        if name == "sign-sphere":
            # same lambda draws by construction, so A must agree bit-for-bit
            assert np.array_equal(lam1, lam2)
            assert a1 == a2
        # with any fixed lambda buffer, the A response ignores beta entirely
        assert counterfactual_values(model, lam1, X_HAT, "A") == a1

    def test_determinism_and_immutability(self, name):
        model = make_lhv_model(name)
        a_seq, b_seq, lam = sample_lhv(model, X_HAT, Z_HAT, 1000, RngStream(24))
        again = sample_lhv(model, X_HAT, Z_HAT, 1000, RngStream(24))
        assert (a_seq, b_seq) == again[:2]
        assert np.array_equal(lam, again[2])
        with pytest.raises(ValueError):
            lam[0, 0] = 0.0  # retained draws are frozen

    def test_boole_compliance_of_any_triple(self, name):
        model = make_lhv_model(name)
        a_seq, b_seq, lam = sample_lhv(model, X_HAT, plane_direction(70), 3000, RngStream(25))
        extra = counterfactual_values(model, lam, plane_direction(25), "B")
        for triple in [(a_seq, b_seq, extra), (extra, a_seq, b_seq), (b_seq, extra, a_seq)]:
            assert boole_bell_lhs_exact(*triple) <= 1


class TestCounterfactuals:
    def test_performed_direction_reproduces_measurement(self):
        model = make_lhv_model("sign-circle")
        a_seq, b_seq, lam = sample_lhv(model, X_HAT, Z_HAT, 4000, RngStream(26))
        assert counterfactual_values(model, lam, X_HAT, "A") == a_seq
        assert counterfactual_values(model, lam, Z_HAT, "B") == b_seq

    def test_opposite_direction_negates(self):
        # sign(-d . lambda) = -sign(d . lambda) except on the measure-zero
        # boundary d . lambda = 0, which the tie rule sign(0) = +1 breaks;
        # use an off-grid direction so no draw lands exactly on the boundary
        model = make_lhv_model("sign-sphere")
        d = plane_direction(33.7)
        a_seq, _, lam = sample_lhv(model, d, Z_HAT, 4000, RngStream(27))
        assert counterfactual_values(model, lam, -d, "A") == -a_seq

    def test_orthogonal_direction_uncorrelated(self):
        model = make_lhv_model("sign-circle")
        n = 200_000
        a_seq, _, lam = sample_lhv(model, X_HAT, plane_direction(90), n, RngStream(28))
        ghost = counterfactual_values(model, lam, plane_direction(90), "A")
        assert abs(correlation(a_seq, ghost).value) <= 4 / math.sqrt(n)

    def test_missing_state_rejected(self):
        model = make_lhv_model("sign-circle")
        with pytest.raises(MissingHiddenState):
            counterfactual_values(model, None, X_HAT, "A")
        with pytest.raises(MissingHiddenState):
            counterfactual_values(model, np.zeros((0, 3)), X_HAT, "A")

    def test_bad_side_rejected(self):
        model = make_lhv_model("sign-circle")
        _, _, lam = sample_lhv(model, X_HAT, Z_HAT, 10, RngStream(29))
        with pytest.raises(ValueError):
            counterfactual_values(model, lam, X_HAT, "C")


class TestHiddenStateResponses:
    """Answers from the compact hidden state against sign(lambda @ d)."""

    N = 100_000

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_compact_state_matches_materialized_lambdas(self, name):
        # drawn on the x-y plane, so z is the circle's exact plane normal
        model = make_lhv_model(name)
        hidden = model.draw_lambdas(X_HAT, plane_direction(60), self.N, RngStream(40))
        _, _, lam = sample_lhv(model, X_HAT, plane_direction(60), self.N, RngStream(40))
        assert len(hidden) == self.N
        assert np.array_equal(hidden.lambdas(), lam)

        gen = np.random.default_rng(41)
        random_dirs = [UnitVector3.from_iterable(gen.normal(size=3)) for _ in range(8)]
        in_plane = [plane_direction(t) for t in (0, 37.5, 90, 180, 301.2)]
        directions = random_dirs + [-d for d in random_dirs] + in_plane + [Z_HAT, -Z_HAT]
        for d in directions:
            fast = model.response_a(hidden, d)
            reference = lam @ d.as_array() >= 0.0
            assert fast.dtype == bool
            assert np.array_equal(fast, reference), d
            assert np.array_equal(model.response_b(hidden, d), ~reference), d
            assert counterfactual_values(model, lam, d, "A") == SignSequence.from_array(fast)
            assert counterfactual_values(model, hidden, d, "B") == SignSequence.from_array(~fast)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_block_drawn_in_chunks_equals_whole_block(self, name):
        model = make_lhv_model(name)
        block, chunk = 1001, 64  # the block ends in a partial chunk
        whole = model.draw_lambdas(X_HAT, Z_HAT, block, RngStream(43, 2)).lambdas()
        rng = RngStream(43, 2)
        parts = [
            model.draw_lambdas(X_HAT, Z_HAT, min(chunk, block - start), rng.after(start), block)
            for start in range(0, block, chunk)
        ]
        assert np.array_equal(np.concatenate([p.lambdas() for p in parts]), whole)
        assert rng.counter == 0

    def test_plane_normal_answers_plus_one_everywhere(self):
        model = make_lhv_model("sign-circle")
        hidden = model.draw_lambdas(X_HAT, plane_direction(60), 1000, RngStream(42))
        assert model.response_a(hidden, Z_HAT).all()
        assert model.response_a(hidden, -Z_HAT).all()
        assert not model.response_b(hidden, Z_HAT).any()


def exact_nonnegative(z: np.ndarray, phi: np.ndarray, d: UnitVector3) -> np.ndarray:
    """The exact column expression: x = cos(phi) r, y = sin(phi) r, then
    s = x dx; s += y dy; s += z dz, with r = sqrt(max(0, 1 - z z))."""
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x = np.cos(phi) * r
    y = np.sin(phi) * r
    s = x * d.x
    s += y * d.y
    s += z * d.z
    return s >= 0.0


def edge_directions() -> list[UnitVector3]:
    gen = np.random.default_rng(50)
    random_dirs = [UnitVector3.from_iterable(gen.normal(size=3)) for _ in range(6)]
    axes = [UnitVector3(*row) for row in np.vstack((np.eye(3), -np.eye(3)))]
    in_plane = [plane_direction(t) for t in (37.5, 135, 301.2)]
    return random_dirs + axes + in_plane + [UnitVector3(0.6, 0.0, 0.8)]


class TestSphereFilter:
    """The float32 filter of the sphere law against the exact float64 law."""

    def test_float32_trig_error_is_well_inside_the_band(self):
        # the filter's error budget assumes float32 cos and sin of phi,
        # rounded to float32, within _TAU / 8 of the float64 values; a numpy
        # build with poorer float32 trig must fail here, not flip answers
        phi = np.linspace(0.0, 2.0 * math.pi, 1 << 22, endpoint=False)
        phi32 = phi.astype(np.float32)
        for f in (np.cos, np.sin):
            error = np.max(np.abs(f(phi32).astype(np.float64) - f(phi)))
            assert error <= realism._TAU / 8, f.__name__

    @pytest.mark.parametrize("d", edge_directions(), ids=str)
    def test_near_boundary_states_give_the_exact_answers(self, d):
        # points with d . lambda = eps for eps from 1e-6 down to 0, both
        # signs, at random azimuths about d, then states whose exact sum is
        # +0.0 or -0.0: the poles, the equator and phi on the axes
        gen = np.random.default_rng(51)
        dv = d.as_array()
        eps = np.concatenate([[0.0], np.logspace(-6, -17, 23)])
        eps = np.repeat(np.concatenate([eps, -eps]), 40)
        w = gen.normal(size=(eps.size, 3))
        w -= (w @ dv)[:, None] * dv
        w /= np.linalg.norm(w, axis=1)[:, None]
        lam = eps[:, None] * dv + np.sqrt(1.0 - eps * eps)[:, None] * w
        z = lam[:, 2].copy()
        phi = np.arctan2(lam[:, 1], lam[:, 0]) % (2.0 * math.pi)
        corners = [(zc, pc) for zc in (1.0, -1.0, 0.0, -0.0)
                   for pc in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 1.0)]
        z = np.concatenate([z, [zc for zc, _ in corners]])
        phi = np.concatenate([phi, [pc for _, pc in corners]])
        hidden = realism._SphereDraws(z, phi)
        exact = exact_nonnegative(z, phi, d)
        assert np.array_equal(realism._sign_response(hidden, d), exact)
        assert np.array_equal(make_lhv_model("sign-sphere").response_b(hidden, d), ~exact)
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        assert np.array_equal(hidden.lambdas(), np.column_stack((np.cos(phi) * r, np.sin(phi) * r, z)))

    def test_million_draws_chunked_match_the_whole_block_exactly(self):
        model = make_lhv_model("sign-sphere")
        block, chunk = 1_000_000, 1 << 16
        whole = model.draw_lambdas(X_HAT, Z_HAT, block, RngStream(52))
        rng = RngStream(52)
        parts = [
            model.draw_lambdas(X_HAT, Z_HAT, min(chunk, block - start), rng.after(start), block)
            for start in range(0, block, chunk)
        ]
        z, phi = whole.z, whole.phi
        in_band = 0
        for d in edge_directions():
            exact = exact_nonnegative(z, phi, d)
            chunked = np.concatenate([model.response_a(part, d) for part in parts])
            assert np.count_nonzero(chunked != exact) == 0, d
            assert np.count_nonzero(model.response_a(whole, d) != exact) == 0, d
            s = np.column_stack((whole.xf, whole.yf, z.astype(np.float32))) @ d.as_array()
            in_band += np.count_nonzero(np.abs(s) < realism._TAU)
        # about 1e-5 of the 1.6e7 answers fall back: the exact path ran
        assert in_band > 0


class TestTracerHooks:
    """The per-layer benchmark traces these functions by name."""

    def test_traced_functions_exist_with_their_signatures(self):
        # the tracer reads a[1] of _circle_points and len(a[0]) of _sign_response
        layouts = {
            "_sphere_points": ["n", "rng", "block"],
            "_circle_points": ["frame", "n", "rng"],
            "_sign_response": ["hidden", "direction"],
        }
        for name, params in layouts.items():
            assert list(inspect.signature(getattr(realism, name)).parameters) == params, name

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_responses_reach_the_module_sign_response_at_call_time(self, name, monkeypatch):
        # the tracer swaps realism._sign_response for a wrapper, so both wings
        # and counterfactual queries must look it up when they answer
        model = make_lhv_model(name)
        hidden = model.draw_lambdas(X_HAT, Z_HAT, 100, RngStream(44))
        calls = []
        original = realism._sign_response

        def counted(hidden, direction):
            calls.append(len(hidden))
            return original(hidden, direction)

        monkeypatch.setattr(realism, "_sign_response", counted)
        expected = original(hidden, X_HAT)
        assert np.array_equal(model.response_a(hidden, X_HAT), expected)
        assert np.array_equal(model.response_b(hidden, X_HAT), ~expected)
        counterfactual_values(model, hidden, Z_HAT, "B")
        assert calls == [100, 100, 100]


class TestModelFactory:
    @pytest.mark.parametrize("build", [make_lhv_model, LhvModel], ids=["factory", "record"])
    def test_unknown_name_rejected(self, build):
        with pytest.raises(ValueError, match="unknown model 'sign-cube'"):
            build("sign-cube")

    def test_model_is_a_record_of_its_name(self):
        assert [f.name for f in dataclasses.fields(LhvModel)] == ["name"]
        assert make_lhv_model("sign-circle") == LhvModel("sign-circle")

    @pytest.mark.parametrize(
        "alpha, beta", [(X_HAT, plane_direction(60)), (UnitVector3(1, 2, 3), UnitVector3(0, -1, 2))]
    )
    def test_circle_draws_lie_in_the_plane_of_alpha_beta(self, alpha, beta):
        model = make_lhv_model("sign-circle")
        _, _, lam = sample_lhv(model, alpha, beta, 500, RngStream(30))
        normal = np.cross(alpha.as_array(), beta.as_array())
        assert np.max(np.abs(lam @ (normal / np.linalg.norm(normal)))) <= 1e-12

    @pytest.mark.parametrize(
        "alpha, axis",
        [(UnitVector3(1, 1, 1), 0), (UnitVector3(0.2, -0.9, 0.2), 0), (UnitVector3(1, -1, 0), 2)],
        ids=["three-way-tie", "two-way-tie", "zero-component"],
    )
    def test_colinear_circle_frame_turns_toward_the_least_aligned_axis(self, alpha, axis):
        # on a tie, the first such axis, as np.argmin chose
        normal = np.cross(alpha.as_array(), np.eye(3)[axis])
        for beta in (alpha, -alpha):
            e1, e2 = realism._circle_frame(alpha, beta)
            assert e1 == alpha
            assert abs(e1.dot(e2)) <= 1e-15
            assert abs(float(np.dot(normal, e2.as_array()))) <= 1e-15
            assert e2.as_list()[axis] > 0

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["parallel", "antiparallel"])
    @pytest.mark.parametrize("scale, colinear", [(0.99, True), (1.01, False)],
                             ids=["inside-tolerance", "outside-tolerance"])
    def test_circle_frame_pivots_exactly_where_the_witness_refuses(self, sign, scale, colinear):
        # 1 - |alpha . beta| is scale**2 * COLINEAR_TOL, to first order
        theta = scale * math.sqrt(2.0 * COLINEAR_TOL)
        beta = UnitVector3(sign * math.cos(theta), 0.0, math.sin(theta))
        try:
            geometric_witness(X_HAT, beta)
            refused = False
        except ColinearAxes:
            refused = True
        _, e2 = realism._circle_frame(X_HAT, beta)
        pivoted = e2 == UnitVector3(0, 1, 0)  # the axis least aligned with X_HAT
        assert refused == pivoted == colinear


class TestCommitmentProtocol:
    def fair_sampler(self, u, alpha):
        return u

    def test_legal_path_succeeds(self):
        u = SignSequence.from_text("+-+-")
        token = commit(u)
        token = choose_direction(token, X_HAT)
        assert measure(token, self.fair_sampler) == u

    def test_choose_before_commit_always_raises(self):
        for trial in range(200):
            with pytest.raises(OrderingViolation):
                choose_direction(None, X_HAT)
            with pytest.raises(OrderingViolation):
                choose_direction(SignSequence.from_text("+-"), X_HAT)

    def test_measure_before_choose_raises(self):
        token = commit(SignSequence.from_text("+-"))
        with pytest.raises(OrderingViolation):
            measure(token, self.fair_sampler)

    def test_double_choose_raises(self):
        token = choose_direction(commit(SignSequence.from_text("+-")), X_HAT)
        with pytest.raises(OrderingViolation):
            choose_direction(token, Z_HAT)

    def test_double_measure_raises(self):
        token = choose_direction(commit(SignSequence.from_text("+-")), X_HAT)
        measure(token, self.fair_sampler)
        with pytest.raises(OrderingViolation):
            measure(token, self.fair_sampler)

    def test_measure_without_token_raises(self):
        with pytest.raises(OrderingViolation):
            measure(None, self.fair_sampler)

    def test_commit_requires_signs(self):
        with pytest.raises(OrderingViolation):
            commit("++--")
        assert isinstance(commit(SignSequence.from_text("+")), CommitmentToken)
