import dataclasses
import inspect
import math
from fractions import Fraction

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
from boolebell.sequences import SignSequence, boole_bell_lhs_exact
from stats import assert_law

X_HAT = UnitVector3(1, 0, 0)
Y_HAT = UnitVector3(0, 1, 0)
Z_HAT = UnitVector3(0, 0, 1)


def plane_direction(theta_deg: float) -> UnitVector3:
    t = math.radians(theta_deg)
    return UnitVector3(math.cos(t), math.sin(t), 0)


def agreements(x: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """(pairs where two bool answer arrays agree, pairs): for a wing's
    answers A and B, the count of AB = +1."""
    return int(np.count_nonzero(x == y)), len(x)


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
        # E[AB] = -1 + 2 theta/pi, so AB = +1 with probability (1 + E[AB])/2
        model = make_lhv_model(name)
        beta = plane_direction(theta_deg)

        def draw(seed):
            hidden = model.draw_lambdas(X_HAT, beta, 50_000, RngStream(seed, 22))
            return [agreements(model.response_a(hidden, X_HAT), model.response_b(hidden, beta))]

        assert_law(draw, 0.5 * (1 + sign_model_correlation(math.radians(theta_deg))))

    def test_locality_far_setting_changes_nothing(self, name):
        model = make_lhv_model(name)
        n = 5000
        a1, _, lam1 = sample_lhv(model, X_HAT, plane_direction(40), n, RngStream(23))
        a2, _, lam2 = sample_lhv(model, X_HAT, plane_direction(140), n, RngStream(23))
        if name == "sign-sphere":
            # same lambda draws by construction, so A must agree bit-for-bit
            assert np.array_equal(lam1.lambdas(), lam2.lambdas())
            assert a1 == a2
        # with any fixed hidden state, the A response ignores beta entirely:
        # a B query at the far setting first leaves A's answers as they were
        counterfactual_values(model, lam1, plane_direction(140), "B")
        assert counterfactual_values(model, lam1, X_HAT, "A") == a1

    def test_determinism_and_immutability(self, name):
        model = make_lhv_model(name)
        a_seq, b_seq, lam = sample_lhv(model, X_HAT, Z_HAT, 1000, RngStream(24))
        again = sample_lhv(model, X_HAT, Z_HAT, 1000, RngStream(24))
        assert (a_seq, b_seq) == again[:2]
        assert np.array_equal(lam.lambdas(), again[2].lambdas())
        columns = {"sign-circle": ("w",), "sign-sphere": ("words", "xy", "zf")}[name]
        for column in columns:
            with pytest.raises(ValueError):
                getattr(lam, column)[0] = 0  # retained draws are frozen

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_at_least_one_pair(self, name, n):
        with pytest.raises(ValueError, match="^need at least one pair$"):
            sample_lhv(make_lhv_model(name), X_HAT, Z_HAT, n, RngStream(26))

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
        beta = plane_direction(90)

        def draw(seed):
            hidden = model.draw_lambdas(X_HAT, beta, 50_000, RngStream(seed, 28))
            ghost = counterfactual_values(model, hidden, beta, "A")
            return [agreements(model.response_a(hidden, X_HAT), ghost.to_array() > 0)]

        assert_law(draw, 0.5)

    def test_missing_state_rejected(self):
        for name in MODEL_NAMES:
            model = make_lhv_model(name)
            with pytest.raises(MissingHiddenState):
                counterfactual_values(model, None, X_HAT, "A")
            empty = model.draw_lambdas(X_HAT, Z_HAT, 0, RngStream(29))  # zero pairs
            with pytest.raises(MissingHiddenState):
                counterfactual_values(model, empty, X_HAT, "A")

    def test_bad_side_rejected(self):
        model = make_lhv_model("sign-circle")
        _, _, lam = sample_lhv(model, X_HAT, Z_HAT, 10, RngStream(29))
        with pytest.raises(ValueError):
            counterfactual_values(model, lam, X_HAT, "C")


class TestLaws:
    """Each test counts events over 20 seeds and checks the totals against
    their exact binomial laws (tests/stats.py), failing a true law with
    probability at most 1e-9.  They pin no bytes, so they hold for any
    stream format that draws the laws right."""

    N = 50_000
    THETAS = [0, 30, 60, 90, 135, 180]

    @pytest.mark.parametrize("name", MODEL_NAMES)
    @pytest.mark.parametrize("theta_deg", THETAS)
    def test_fair_wings_whose_product_is_plus_one_with_probability_theta_over_pi(
        self, name, theta_deg
    ):
        # at 0 and 180 degrees the count is certain: none or every pair
        model = make_lhv_model(name)
        beta = plane_direction(theta_deg)

        def draw(seed):
            hidden = model.draw_lambdas(X_HAT, beta, self.N, RngStream(seed, 70))
            a = model.response_a(hidden, X_HAT)
            return [(int(np.count_nonzero(a)), self.N),
                    agreements(a, model.response_b(hidden, beta))]

        assert_law(draw, 0.5, theta_deg / 180)

    def test_sphere_state_is_uniform_with_independent_coordinates_and_pairs(self):
        # z and phi each uniform and independent of each other, and the
        # answers of neighbouring pairs independent: XORs of fair signs are
        # independent, so the count of equal neighbours is binomial
        model = make_lhv_model("sign-sphere")
        d = UnitVector3(0.3, -0.5, 0.8)

        def draw(seed):
            hidden = model.draw_lambdas(X_HAT, Z_HAT, self.N, RngStream(seed, 71))
            z, phi = realism._sphere_angles(hidden.words)
            a = model.response_a(hidden, d)
            return [
                (int(np.count_nonzero(z < -0.5)), self.N),
                (int(np.count_nonzero(phi < 0.5 * math.pi)), self.N),
                (int(np.count_nonzero((z >= 0.0) & (phi < math.pi))), self.N),
                agreements(a[:-1], a[1:]),
            ]

        assert_law(draw, 0.25, 0.25, 0.25, 0.5)

    def test_circle_state_is_uniform_with_independent_pairs(self):
        # psi, read back from lambdas(), falls in each quarter turn with
        # probability 1/4, and neighbouring pairs' answers agree half the time
        model = make_lhv_model("sign-circle")
        d = UnitVector3(0.3, -0.5, 0.8)

        def draw(seed):
            hidden = model.draw_lambdas(X_HAT, Z_HAT, self.N, RngStream(seed, 72))
            lam = hidden.lambdas()
            quarter = np.floor(np.arctan2(lam[:, 2], lam[:, 0]) % (2 * math.pi) / (0.5 * math.pi))
            a = model.response_a(hidden, d)
            return [*((int(np.count_nonzero(quarter == i)), self.N) for i in range(3)),
                    agreements(a[:-1], a[1:])]

        assert_law(draw, 0.25, 0.25, 0.25, 0.5)


class TestHiddenStateResponses:
    """Answers from the compact hidden state against sign(lambda @ d)."""

    N = 100_000

    @pytest.mark.parametrize(
        "direction, case",
        [pytest.param(UnitVector3(x, y, z), case, id=case) for x, y, z, case in (
            (-0.6, 0.8, 0.3, "within-the-turn"), (0.6, -0.8, 0.3, "wraps"),
            (2**-52, 1, 0, "lo-rounds-to-one"))],
    )
    def test_circle_arc_holds_the_half_turn_of_cells_from_the_first_midpoint_at_lo(
        self, direction, case
    ):
        # d answers +1 on the cells w whose midpoints (w + 1/2) 2**-32 lie on
        # [lo, lo + 1/2) mod 1, lo = atan2(q, p) / (2 pi) - 1/4 mod 1: the
        # 2**31 cells from K on; K - 1 and K + 2**31 are the first cells out
        lo = (math.atan2(direction.y, direction.x) / (2.0 * math.pi) - 0.25) % 1.0
        assert {"within-the-turn": lo <= 0.5, "wraps": 0.5 < lo < 1.0,
                "lo-rounds-to-one": lo == 1.0}[case]
        k = math.ceil(Fraction(lo) * 2**32 - Fraction(1, 2)) % 2**32
        cells = [(k + i) % 2**32 for i in (-1, 0, 2**31 - 1, 2**31)]
        on_arc = [(Fraction(2 * w + 1, 2**33) - Fraction(lo)) % 1 < Fraction(1, 2) for w in cells]
        assert on_arc == [False, True, True, False]
        hidden = realism._CircleDraws(np.array(cells, dtype=np.uint32), X_HAT, Y_HAT)
        assert realism._sign_response(hidden, direction).tolist() == on_arc

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_compact_state_matches_materialized_lambdas(self, name):
        # drawn on the x-y plane, so z is the circle's exact plane normal
        model = make_lhv_model(name)
        hidden = model.draw_lambdas(X_HAT, plane_direction(60), self.N, RngStream(40))
        _, _, retained = sample_lhv(model, X_HAT, plane_direction(60), self.N, RngStream(40))
        lam = retained.lambdas()
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
            assert counterfactual_values(model, hidden, d, "A") == SignSequence.from_array(fast)
            assert counterfactual_values(model, hidden, d, "B") == SignSequence.from_array(~fast)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_block_drawn_in_chunks_equals_whole_block(self, name):
        model = make_lhv_model(name)
        block, chunk = 1001, 64  # the block ends in a partial chunk
        whole = model.draw_lambdas(X_HAT, Z_HAT, block, RngStream(43, 2)).lambdas()
        rng = RngStream(43, 2)
        parts = [
            model.draw_lambdas(X_HAT, Z_HAT, min(chunk, block - start), rng.after(start))
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
        edges = realism._CircleDraws(np.array([0, 2**31 - 1, 2**31, 2**32 - 1], np.uint32),
                                     X_HAT, Y_HAT)
        assert model.response_a(edges, Z_HAT).all() and model.response_a(edges, -Z_HAT).all()


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


def sphere_words(lo, hi) -> np.ndarray:
    """The words of the sphere points in cells lo (of z) and hi (of phi), as
    little-endian uint64, the form :meth:`RngStream.words` gives them."""
    words = np.asarray(lo, np.uint64) | np.asarray(hi, np.uint64) << np.uint64(32)
    return np.asarray(words, "<u8")


def exact_sum(xyz: tuple[np.ndarray, np.ndarray, np.ndarray], d: UnitVector3) -> np.ndarray:
    """d . lambda by the exact column expression."""
    s = xyz[0] * d.x
    s += xyz[1] * d.y
    s += xyz[2] * d.z
    return s


def filter_sum(hidden, d: UnitVector3) -> np.ndarray:
    """d . lambda as the float32 filter sums it."""
    s = hidden.xy[0] * np.float32(d.x)
    s += hidden.xy[1] * np.float32(d.y)
    s += hidden.zf * np.float32(d.z)
    return s


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

    def test_float32_phi_formation_error_is_well_inside_the_band(self):
        # the filter forms phi = (hi + 1/2) float32(2 pi 2**-32) in float32;
        # on the equator cells lo = 2**31, where the filter's r is exactly 1,
        # its x and y are float32 cos and sin of that phi and must lie within
        # _TAU / 8 of the exact float64 cos and sin of the exact phi
        hi = np.append(np.linspace(0, 2**32 - 1, 1 << 22).astype(np.uint64), 2**32 - 1)
        words = sphere_words(2**31, hi)
        hidden = realism._SphereDraws(words)
        _, phi = realism._sphere_angles(words)
        for row, f in zip(hidden.xy, (np.cos, np.sin)):
            assert np.max(np.abs(row - f(phi))) <= realism._TAU / 8, f.__name__

    def test_filter_radius_keeps_float32_precision_at_the_poles(self):
        # r = sqrt((1 + z)(1 - z)) from factors rounded once each: relative
        # error near float32's, where float32 1 - z^2 would lose most digits
        cells = np.arange(1 << 16, dtype=np.uint64)
        lo = np.concatenate([cells, 2**32 - 1 - cells, 2**31 - (1 << 15) + cells])
        words = sphere_words(lo, np.uint64(12345))
        hidden = realism._SphereDraws(words)
        z, _ = realism._sphere_angles(words)
        r = np.sqrt((1.0 - z) * (1.0 + z))
        radius = np.hypot(hidden.xy[0].astype(np.float64), hidden.xy[1])
        assert np.max(np.abs(radius / r - 1.0)) <= 2**-21
        # zf = ((1 + z) - (1 - z)) / 2 from the same factors, within 2**-23
        assert np.max(np.abs(hidden.zf - z)) <= 2**-23

    def test_filter_sum_is_within_an_eighth_of_the_band(self):
        # the budget behind _TAU: over 2**22 drawn words, for every edge
        # direction, |float32 sum - exact sum| <= _TAU / 8
        rng = RngStream(53)
        for _ in range(4):
            words = rng.words(1 << 20)
            hidden, xyz = realism._SphereDraws(words), realism._sphere_xyz(words)
            for d in edge_directions():
                error = np.max(np.abs(filter_sum(hidden, d) - exact_sum(xyz, d)))
                assert error <= realism._TAU / 8, d

    def test_state_holds_at_most_20_bytes_a_pair(self):
        n = 1000
        hidden = make_lhv_model("sign-sphere").draw_lambdas(X_HAT, Z_HAT, n, RngStream(54))
        assert sum(getattr(hidden, name).nbytes for name in hidden.__slots__) <= 20 * n

    @pytest.mark.parametrize("d", edge_directions(), ids=str)
    def test_near_boundary_states_give_the_exact_answers(self, d):
        # the cells nearest to points with d . lambda = eps, for eps from
        # 1e-6 down to 0, both signs, at random azimuths about d, with their
        # 3 x 3 neighbourhoods of cells; then the cells nearest to the poles,
        # the equator and phi on the axes.  Words cannot put lambda exactly
        # on the boundary, but many of these lie within 1e-9 of it, on both
        # sides, where only the exact expression decides
        gen = np.random.default_rng(51)
        dv = d.as_array()
        eps = np.concatenate([[0.0], np.logspace(-6, -17, 23)])
        eps = np.repeat(np.concatenate([eps, -eps]), 40)
        w = gen.normal(size=(eps.size, 3))
        w -= (w @ dv)[:, None] * dv
        w /= np.linalg.norm(w, axis=1)[:, None]
        lam = eps[:, None] * dv + np.sqrt(1.0 - eps * eps)[:, None] * w
        lo = np.rint((lam[:, 2] + 1.0) * 2**31 - 0.5)
        turns = np.arctan2(lam[:, 1], lam[:, 0]) / (2.0 * math.pi) % 1.0
        hi = np.rint(turns * 2**32 - 0.5)
        step = np.array([-1, 0, 1])
        lo, hi = np.broadcast_arrays(lo[:, None, None] + step[:, None], hi[:, None, None] + step)
        lo, hi = np.clip(lo, 0, 2**32 - 1).ravel(), (hi % 2**32).ravel()
        axes = [(k * 2**30 + j) % 2**32 for k in range(4) for j in (-1, 0)]
        edges = [(zc, pc) for zc in (0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1) for pc in axes]
        lo = np.concatenate([lo, [zc for zc, _ in edges]])
        hi = np.concatenate([hi, [pc for _, pc in edges]])
        words = sphere_words(lo.astype(np.uint64), hi.astype(np.uint64))
        s = exact_sum(realism._sphere_xyz(words), d)
        close = np.abs(s) <= 1e-9
        assert np.count_nonzero(close & (s > 0)) >= 1000
        assert np.count_nonzero(close & (s < 0)) >= 1000
        hidden = realism._SphereDraws(words)
        z, phi = realism._sphere_angles(words)
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
            model.draw_lambdas(X_HAT, Z_HAT, min(chunk, block - start), rng.after(start))
            for start in range(0, block, chunk)
        ]
        z, phi = realism._sphere_angles(whole.words)
        in_band = 0
        for d in edge_directions():
            exact = exact_nonnegative(z, phi, d)
            chunked = np.concatenate([model.response_a(part, d) for part in parts])
            assert np.count_nonzero(chunked != exact) == 0, d
            assert np.count_nonzero(model.response_a(whole, d) != exact) == 0, d
            in_band += np.count_nonzero(np.abs(filter_sum(whole, d)) < realism._TAU)
        # about 1e-5 of the 1.6e7 answers fall back: the exact path ran
        assert in_band > 0


class TestTracerHooks:
    """The per-layer benchmark traces these functions by name."""

    def test_traced_functions_exist_with_their_signatures(self):
        # the tracer reads a[1] of _circle_points and len(a[0]) of _sign_response
        layouts = {
            "_sphere_points": ["n", "rng"],
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

    def test_one_constructor(self):
        assert make_lhv_model is LhvModel

    def test_commit_is_the_token_constructor(self):
        assert commit is CommitmentToken

    def test_model_is_a_record_of_its_name(self):
        assert [f.name for f in dataclasses.fields(LhvModel)] == ["name"]
        assert make_lhv_model("sign-circle") == LhvModel("sign-circle")

    @pytest.mark.parametrize(
        "alpha, beta", [(X_HAT, plane_direction(60)), (UnitVector3(1, 2, 3), UnitVector3(0, -1, 2))]
    )
    def test_circle_draws_lie_in_the_plane_of_alpha_beta(self, alpha, beta):
        model = make_lhv_model("sign-circle")
        _, _, hidden = sample_lhv(model, alpha, beta, 500, RngStream(30))
        lam = hidden.lambdas()
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

    def test_token_fields_are_its_state(self):
        token = commit(SignSequence.from_text("+-"))
        assert CommitmentToken.__slots__ == ("u", "alpha", "spent")
        assert (token.alpha, token.spent) == (None, False)
        choose_direction(token, X_HAT)
        assert (token.alpha, token.spent) == (X_HAT, False)
        measure(token, self.fair_sampler)
        assert (token.alpha, token.spent) == (X_HAT, True)

    @pytest.mark.parametrize("state, act, match", [
        ("chosen", lambda token, run: choose_direction(token, Z_HAT), "already chosen"),
        ("spent", lambda token, run: choose_direction(token, Z_HAT), "already chosen"),
        ("committed", lambda token, run: measure(token, run), "before choosing a direction"),
        ("spent", lambda token, run: measure(token, run), "already spent"),
        ("committed", lambda token, run: choose_direction(token.u, Z_HAT), "before any signs"),
        ("committed", lambda token, run: measure(token.u, run), "without a committed token"),
        ("committed", lambda token, run: commit([1, -1]), "requires a sign sequence"),
    ], ids=["choose-twice", "choose-after-measuring", "measure-before-choosing",
            "measure-twice", "choose-on-non-token", "measure-non-token", "commit-non-signs"])
    def test_each_violation_is_refused_before_any_change(self, state, act, match):
        token = commit(SignSequence.from_text("+-"))
        if state != "committed":
            choose_direction(token, X_HAT)
        if state == "spent":
            measure(token, self.fair_sampler)
        before = (token.u, token.alpha, token.spent)
        ran = []
        with pytest.raises(OrderingViolation, match=match):
            act(token, lambda u, alpha: ran.append(alpha) or u)
        assert (token.u, token.alpha, token.spent) == before
        assert ran == []
