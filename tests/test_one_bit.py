"""A one-bit model as a negative control: the verdict rests on locality.

Toner and Bacon (PRL 91 (2003) 187904) reproduce the singlet law exactly
with two shared uniform unit vectors l1 and l2 per pair and one bit sent
from B to A: B answers sign(b . l1) and sends c = sign(b . l1) sign(b . l2),
and A answers -sign(d . (l1 + c l2)), with sign(0) := +1.  The state below
carries c, which the first B query sets; it is +1 while unset, so A's
answers depend on whether, and where, B was asked.  The model has the
shape of :class:`boolebell.realism.LhvModel`, so ``counterfactual_values``
and ``no_apbp_experiment`` run it as they run a local model.

The locality check must pass both sign models and the CHSH adversary
(:mod:`test_chsh_adversary`) and flag this one, and the headline experiment
must not close on it: its certificates answer B first, so they see the
singlet law and pass, except at a sound source's rate.
"""

import math

import numpy as np
import pytest

from boolebell.experiments import ExperimentConfig, no_apbp_experiment
from boolebell.geometry import UnitVector3
from boolebell.realism import MODEL_NAMES, _sphere_xyz, counterfactual_values, make_lhv_model
from boolebell.rng import RngStream
from stats import FALSE_FAIL, binomial_tails
from test_chsh_adversary import ALPHA, ChshAdversary

X_HAT, Y_HAT, Z_HAT = UnitVector3(1, 0, 0), UnitVector3(0, 1, 0), UnitVector3(0, 0, 1)


def _dot(points: tuple[np.ndarray, np.ndarray, np.ndarray], d: UnitVector3) -> np.ndarray:
    x, y, z = points
    return x * d.x + y * d.y + z * d.z


class OneBitState:
    """Two uniform sphere points per pair, and the bit c once B has sent it."""

    def __init__(self, l1, l2):
        self.l1, self.l2 = l1, l2
        self.c = None  # +1 or -1 per pair, set by the first B query

    def __len__(self) -> int:
        return len(self.l1[0])


class OneBitModel:
    name = "one-bit"

    def draw_lambdas(self, alpha, beta, n, rng):
        # two reads of the block's stream: l1, then l2, pair i from word i of each
        return OneBitState(_sphere_xyz(rng.words(n)), _sphere_xyz(rng.words(n)))

    def response_b(self, state, direction):
        plus = _dot(state.l1, direction) >= 0.0
        if state.c is None:
            state.c = np.where(plus == (_dot(state.l2, direction) >= 0.0), 1.0, -1.0)
        return plus

    def response_a(self, state, direction):
        c = 1.0 if state.c is None else state.c
        return _dot(state.l1, direction) + c * _dot(state.l2, direction) < 0.0


MODELS = {
    **{name: make_lhv_model(name) for name in MODEL_NAMES},
    "chsh-adversary": ChshAdversary(),
    "one-bit": OneBitModel(),
}


def _a_answers(model, d: UnitVector3, settings, n: int = 4096, seed: int = 5) -> list:
    """A's answers at d on one hidden state, drawn afresh from one stream for
    each query order: before any B query, then after B is asked at each setting."""
    def state():
        return model.draw_lambdas(X_HAT, Y_HAT, n, RngStream(seed))

    answers = [counterfactual_values(model, state(), d, "A")]
    for b in settings:
        hidden = state()
        counterfactual_values(model, hidden, b, "B")
        answers.append(counterfactual_values(model, hidden, d, "A"))
    return answers


@pytest.mark.parametrize(
    "name, local",
    [(name, True) for name in MODEL_NAMES] + [("chsh-adversary", True), ("one-bit", False)],
)
def test_a_answers_ignore_whether_and_where_b_was_asked(name, local):
    # the adversary answers +1 everywhere at a direction it does not know, so A
    # is asked at one of its own
    d = ALPHA if name == "chsh-adversary" else UnitVector3(1, 2, 0.5)
    answers = _a_answers(MODELS[name], d, (-X_HAT, Y_HAT, -Z_HAT))
    assert all(a == answers[0] for a in answers) is local


# pairs per block: 7 blocks a run and 3 runs take about 0.5 s on 2 vCPUs
N = 200_000


def test_the_headline_experiment_stays_open_with_one_bit():
    # the witness block asks A first, so c = +1 there and its triple obeys the
    # bound; the certificate chunks ask B first and see the singlet law
    rows = failing = 0
    for seed in (1, 2, 3):
        result = no_apbp_experiment(X_HAT, Y_HAT, OneBitModel(), ExperimentConfig(seed=seed, n=N))
        assert result.inequality.verdict == "contradiction"
        assert not result.contradiction_closed
        certificates = (result.certificate_u, result.certificate_v)
        rows += sum(len(cert.rows) for cert in certificates)
        failing += sum(len(cert.failing_rows()) for cert in certificates)
    # a sound row fails at sigma_k = 4 with the normal two-sided rate, 6.3e-5
    rate = math.erfc(4.0 / math.sqrt(2.0))
    assert binomial_tails(failing, rows, rate)[1] >= FALSE_FAIL
