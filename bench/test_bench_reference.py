"""Tests of the benchmark's reference solver and KKT certificate on
hand-built instances, with no use of the program under test."""

import json
import random
from pathlib import Path

import pytest

import reference as ref

BUNDLED = Path(__file__).resolve().parent.parent / "src/minetax/data/default_config.json"


def _tech(slopes, k=1.0, alpha_er=0.0):
    return {
        "tech_id": 1,
        "k": k,
        "alpha_er": alpha_er,
        "beta_er": 0.0,
        "gamma_er": 0.0,
        "slopes": slopes,
    }


def _model(alpha, beta, strata, techs, r=0.0):
    return ref.Model.from_config(
        {
            "T": len(alpha),
            "alpha": alpha,
            "beta": beta,
            "r": r,
            "strata": strata,
            "technologies": techs,
        }
    )


def _bundled():
    return json.loads(BUNDLED.read_text())


def _no_better_nearby(model, tech, tau, q, step, trials=400):
    """No random feasible perturbation of q earns more profit."""
    rng = random.Random(0)
    best = ref.objectives(model, tech, tau, q)[2]
    for _ in range(trials):
        p = [
            min(max(v + rng.uniform(-step, step), 0.0), hi)
            for v, hi in zip(q, model.q_max)
        ]
        assert ref.objectives(model, tech, tau, p)[2] <= best + 1e-12


class TestSinglePeriod:
    def test_waterfill_matches_closed_form(self):
        p = _bundled()["analytical"]
        model = _model(
            [p["alpha"]],
            [p["beta"]],
            [p["alpha"] / p["beta"]],
            [_tech([p["gamma"]], k=p["k"], alpha_er=p["delta"])],
        )
        tech = model.techs[0]
        for tau in (0.0, 3.5, 42.0, 98.999, 99.0, 100.0):
            closed = (p["alpha"] - p["gamma"] - tau) / (2.0 * (p["beta"] + p["delta"]))
            closed = min(max(closed, 0.0), model.q_max[0])
            q, profit = ref.waterfill(model, tech, (tau,))
            assert q[0] == pytest.approx(closed, abs=1e-12)
            assert ref.kkt_residual(model, tech, (tau,), [closed]) <= 1e-12
            assert profit == pytest.approx(
                ref.objectives(model, tech, (tau,), [closed])[2], abs=1e-12
            )

    def test_closed_form_hypervolume(self):
        p = _bundled()["analytical"]
        q_max = p["alpha"] / (2.0 * p["beta"])
        hv = ref.analytical_front_hypervolume(p, p["k"] * q_max)
        assert hv == pytest.approx(28101.30, abs=5e-3)
        # a dense sample of the front approaches the closed form from below
        a, b = p["alpha"] - p["gamma"], 2.0 * (p["beta"] + p["delta"])
        qs = [i * a / (2.0 * b) / 20000 for i in range(20001)]
        pts = [((a - b * q) * q, p["k"] * q) for q in qs]
        sampled = ref.hypervolume(pts, (0.0, p["k"] * q_max))
        assert hv - 0.3 < sampled <= hv


class TestBreakpoint:
    """Optimal total extraction sits exactly on the first breakpoint."""

    model = _model([30.0, 40.0], [1.0, 2.0], [10.0, 10.0], [_tech([1.0, 25.0])])
    tau = (0.0, 0.0)

    def test_waterfill_lands_on_breakpoint(self):
        tech = self.model.techs[0]
        # q_t(lam) = (alpha_t - lam) / (2 beta_t) totals 10 at lam = 20
        q, _ = ref.waterfill(self.model, tech, self.tau)
        assert q == pytest.approx([5.0, 5.0], abs=1e-12)
        assert sum(q) == pytest.approx(10.0, abs=1e-12)
        assert ref.kkt_residual(self.model, tech, self.tau, q) <= 1e-12
        _no_better_nearby(self.model, tech, self.tau, q, step=0.05)

    def test_transfer_along_the_kink_is_rejected(self):
        tech = self.model.techs[0]
        q = [5.0 + 1e-3, 5.0 - 1e-3]
        assert ref.kkt_residual(self.model, tech, self.tau, q) > ref.KKT_TOL


class TestDiscounted:
    """r > 0 with the kink crossed between periods: X_1 = 7 < 10 < X_2 = 12.

    The stationarity conditions read
    alpha_2 - 2 q_2 = s_2 and alpha_1 - 2 q_1 = (1 - d_2) s_1 + d_2 s_2,
    with d_2 = 1 / 1.25 = 0.8, so q = (7, 5) for alpha = (19, 16).
    """

    model = _model([19.0, 16.0], [1.0, 1.0], [10.0, 100.0], [_tech([1.0, 6.0])], r=0.25)
    tau = (0.0, 0.0)

    def test_certificate_accepts_the_optimum(self):
        tech = self.model.techs[0]
        q = [7.0, 5.0]
        assert ref.kkt_residual(self.model, tech, self.tau, q) <= 1e-12
        _no_better_nearby(self.model, tech, self.tau, q, step=0.05)
        grid = max(
            ref.objectives(self.model, tech, self.tau, [i * 0.05, j * 0.05])[2]
            for i in range(191)
            for j in range(161)
        )
        assert ref.objectives(self.model, tech, self.tau, q)[2] >= grid

    def test_undiscounted_weights_are_rejected(self):
        # alpha_1 - 2 q_1 = s_2, the condition without the cost weights
        tech = self.model.techs[0]
        assert ref.kkt_residual(self.model, tech, self.tau, [6.5, 5.0]) > ref.KKT_TOL

    def test_waterfill_refuses_discounting(self):
        with pytest.raises(ValueError):
            ref.waterfill(self.model, self.model.techs[0], self.tau)


class TestBundledModel:
    def test_waterfill_satisfies_certificate(self):
        model = ref.Model.from_config(_bundled()["extended"])
        rng = random.Random(1)
        for _ in range(200):
            tau = [rng.uniform(0.0, a) for a in model.alpha]
            for tech in model.techs:
                q, _ = ref.waterfill(model, tech, tau)
                assert ref.kkt_residual(model, tech, tau, q) <= 1e-9

    def test_perturbed_schedule_is_rejected(self):
        model = ref.Model.from_config(_bundled()["extended"])
        tau = (10.0, 12.0, 14.0, 16.0, 18.0)
        tech = model.tech(4)
        q, profit = ref.waterfill(model, tech, tau)
        assert ref.kkt_residual(model, tech, tau, q) <= 1e-9
        for t in range(model.T):
            bad = list(q)
            bad[t] += 1e-3 if q[t] < model.q_max[t] - 1e-3 else -1e-3
            assert ref.kkt_residual(model, tech, tau, bad) > ref.KKT_TOL
            assert ref.objectives(model, tech, tau, bad)[2] < profit


def test_dominated_rows():
    def row(revenue, damage):
        return ref.Row(1, revenue, damage, 0.0, (0.0,), (0.0,))

    front = [row(1.0, 1.0), row(2.0, 2.0), row(3.0, 3.0)]
    assert ref.dominated_rows(front) == 0
    assert ref.dominated_rows(front + [row(1.5, 2.5)]) == 1
    # equal damage up to the printed digits: either row may be the smaller
    assert ref.dominated_rows(front + [row(1.9, 2.0)]) == 0
    assert ref.dominated_rows(front + [row(1.9, 2.0 + 1e-9)]) == 1
