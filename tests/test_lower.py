import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minetax import (
    ExtendedModel,
    LeaderStrategy,
    StrataTable,
    TechParams,
    best_response,
    best_response_fixed_tech,
)
from minetax.lower import KKT_TOL, _discounted_kkt_residual, _waterfill
from minetax.oracle import (
    GridSpec,
    _ProfitEvaluator,
    coordinate_ascent,
    grid_best_response,
)
from minetax.verify import random_strategies


def _prohibitive(model):
    return LeaderStrategy(tau=tuple(model.alpha))


class TestBestResponseFixedTech:
    def test_prohibitive_taxes_shut_the_mine(self, model):
        for tech in model.techs:
            br = best_response_fixed_tech(_prohibitive(model), tech, model)
            assert br.response.q == (0.0,) * 5
            assert br.profit == pytest.approx(-5.0 * tech.gamma_er)
            assert br.optimality_tag
            assert br.kkt_residual == 0.0

    def test_matches_refined_grid_oracle_at_zero_tax(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        grid = GridSpec(lows=(0.0,) * 5, highs=(90.0,) * 5, step=5.0)
        oracle = grid_best_response(strat, model, grid)
        br = best_response_fixed_tech(strat, model.tech(oracle.response.a), model)
        for a, b in zip(br.response.q, oracle.response.q):
            assert a == pytest.approx(b, abs=1e-3)

    def test_two_period_linear_cost_closed_form(self):
        # single large stratum: C is linear, so the periods decouple and
        # each satisfies q_t = (alpha_t - beta_er - S - tau_t)/(2(beta_t + alpha_er))
        tech = TechParams(tech_id=1, k=1.0, alpha_er=0.3, beta_er=1.0,
                         gamma_er=0.0, slopes=(2.0,))
        model = ExtendedModel(
            T=2, alpha=(10.0, 12.0), beta=(0.5, 0.5), techs=(tech,),
            strata=StrataTable(amounts=(100.0,)),
        )
        strat = LeaderStrategy(tau=(1.0, 2.0))
        br = best_response_fixed_tech(strat, tech, model)
        assert br.response.q[0] == pytest.approx(6.0 / 1.6, abs=1e-6)
        assert br.response.q[1] == pytest.approx(7.0 / 1.6, abs=1e-6)
        assert br.optimality_tag

    def test_iteration_cap_flags_nonconvergence(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        br = coordinate_ascent(strat, model.tech(1), model, max_sweeps=1)
        assert not br.optimality_tag

    def test_unique_optimum_from_any_start(self, model):
        # r > 0: the exact solve against coordinate ascent from random starts
        discounted = dataclasses.replace(model, r=0.05)
        rng = np.random.default_rng(42)
        for strat in random_strategies(model, 5, seed=11):
            for tech in model.techs:
                a = best_response_fixed_tech(strat, tech, discounted)
                b = coordinate_ascent(
                    strat, tech, discounted, start=rng.uniform(0.0, 80.0, 5)
                )
                for x, y in zip(a.response.q, b.response.q):
                    assert x == pytest.approx(y, abs=1e-5)

    def test_tagged_solutions_satisfy_stationarity(self, model):
        h = 1e-5
        for strat in random_strategies(model, 5, seed=13):
            for tech in model.techs:
                br = best_response_fixed_tech(strat, tech, model)
                assert br.optimality_tag
                ev = _ProfitEvaluator(strat.tau, tech, model)
                q = list(br.response.q)
                base = ev.total(q)
                for t in range(model.T):
                    x = q[t]
                    q[t] = x + h
                    assert (ev.total(q) - base) / h <= 1e-4
                    q[t] = x
                    if x >= h:
                        q[t] = x - h
                        assert (ev.total(q) - base) / h <= 1e-4
                        q[t] = x


class TestBestResponse:
    def test_prohibitive_taxes_pick_cheapest_fixed_cost(self, model):
        br = best_response(_prohibitive(model), model)
        assert br.response.a in (3, 4)
        assert br.profit == pytest.approx(-25.0)
        assert br.response.q == (0.0,) * 5

    def test_zero_tax_matches_exhaustive_oracle(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        grid = GridSpec(lows=(0.0,) * 5, highs=(90.0,) * 5, step=5.0)
        oracle = grid_best_response(strat, model, grid)
        br = best_response(strat, model)
        assert br.response.a == oracle.response.a
        assert br.profit == pytest.approx(oracle.profit, abs=1e-6)

    def test_single_technology_model_degenerates(self, model):
        single = ExtendedModel(
            T=model.T, alpha=model.alpha, beta=model.beta,
            techs=(model.tech(2),), strata=model.strata,
        )
        strat = LeaderStrategy(tau=(10.0,) * 5)
        assert best_response(strat, single).response == best_response_fixed_tech(
            strat, model.tech(2), single
        ).response

    def test_tech_filter_restricts_enumeration(self, model):
        strat = LeaderStrategy(tau=(10.0,) * 5)
        br = best_response(strat, model, tech_filter=2)
        assert br.response.a == 2

    def test_profit_monotone_in_taxes(self, model):
        for strat in random_strategies(model, 5, seed=17):
            base = best_response(strat, model).profit
            for t in range(model.T):
                tau = list(strat.tau)
                tau[t] = min(tau[t] + 5.0, model.tau_bounds[t][1])
                bumped = best_response(
                    LeaderStrategy(tau=tuple(tau)), model
                ).profit
                assert bumped <= base + 1e-6

    def test_zero_tax_is_profit_upper_bound(self, model):
        top = best_response(LeaderStrategy(tau=(0.0,) * 5), model).profit
        for strat in random_strategies(model, 10, seed=19):
            assert best_response(strat, model).profit <= top + 1e-6


def _one_tech_model(alpha, beta, tech, amounts):
    return ExtendedModel(
        T=len(alpha), alpha=alpha, beta=beta, techs=(tech,),
        strata=StrataTable(amounts=amounts),
    )


class TestExactFollower:
    """The r = 0 water-filling solve against coordinate ascent and by hand."""

    def test_agrees_with_coordinate_ascent(self, model):
        pairs = 0
        for strat in random_strategies(model, 500, seed=29):
            for tech in model.techs:
                exact = best_response_fixed_tech(strat, tech, model)
                ca = coordinate_ascent(strat, tech, model)
                assert exact.optimality_tag
                assert abs(exact.profit - ca.profit) <= 1e-9 * max(
                    1.0, abs(exact.profit)
                )
                pairs += 1
        assert pairs == 2000

    def test_every_period_at_its_cap(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        for r in (0.0, 0.05):
            capped = dataclasses.replace(
                model, r=r,
                q_bounds=tuple((0.0, 2.0 + t) for t in range(model.T)),
            )
            for tech in model.techs:
                br = best_response_fixed_tech(strat, tech, capped)
                assert br.response.q == (2.0, 3.0, 4.0, 5.0, 6.0)
                assert br.optimality_tag
                # golden-section search stops just short of the cap
                ca = coordinate_ascent(strat, tech, capped)
                assert br.profit >= ca.profit
                assert br.profit == pytest.approx(ca.profit, abs=1e-6)

    def test_total_on_breakpoint_between_slopes(self):
        # q_t(lam) = (lin_t - lam) / 2 with lin = (30, 8): S(1) = 18 > 10 and
        # S(15) = 7.5 < 10, so the total sits on the breakpoint 10. On the
        # way, period 2 shuts at lam = 8; then S = (30 - lam) / 2 = 10 at
        # lam = 10.
        tech = TechParams(tech_id=1, k=1.0, alpha_er=0.5, beta_er=0.0,
                          gamma_er=0.0, slopes=(1.0, 15.0))
        model = _one_tech_model((30.0, 8.0), (0.5, 0.5), tech, (10.0, 100.0))
        periods = [(30.0, 1.0, 30.0), (8.0, 1.0, 8.0)]  # (lin, quad, hi)
        q, lam = _waterfill(periods, tech.slopes, model.strata.breakpoints)
        assert lam == pytest.approx(10.0, abs=1e-12)
        strat = LeaderStrategy(tau=(0.0, 0.0))
        br = best_response_fixed_tech(strat, tech, model)
        assert br.response.q == pytest.approx((10.0, 0.0), abs=1e-12)
        assert br.optimality_tag
        assert br.kkt_residual <= 1e-12
        assert br.profit >= coordinate_ascent(strat, tech, model).profit - 1e-9


class TestDiscountedFollower:
    """The r > 0 dynamic-programming solve by hand."""

    def test_prefix_sum_on_breakpoint_before_the_last_period(self):
        # d = (1, 0.8), w = (0.2, 0.8); q_t(p) = (lin_t - p / d_t) / 2.
        # Period 2 is interior in stratum 2: 0.8 (21 - 2 q_2) = 0.8 * 11, so
        # q_2 = 5. Period 1 needs 30 - 2 q_1 = 0.2 c_1 + 8.8 with c_1 a
        # subgradient of C at X_1: q_1 = 10 = b gives c_1 = 6, strictly
        # between the slopes 1 and 11, so X_1 sits on the breakpoint.
        tech = TechParams(tech_id=1, k=1.0, alpha_er=0.5, beta_er=0.0,
                          gamma_er=0.0, slopes=(1.0, 11.0))
        model = dataclasses.replace(
            _one_tech_model((30.0, 21.0), (0.5, 0.5), tech, (10.0, 100.0)),
            r=0.25,
        )
        strat = LeaderStrategy(tau=(0.0, 0.0))
        br = best_response_fixed_tech(strat, tech, model)
        assert br.response.q == (10.0, 5.0)
        assert br.profit == pytest.approx(210.0, abs=1e-12)
        assert br.optimality_tag
        assert br.kkt_residual <= 1e-12
        assert br.profit >= coordinate_ascent(strat, tech, model).profit

    def test_zero_caps_shut_the_mine(self, model):
        for caps in ((0.0,) * 5, (0.0, 5.0, 0.0, 5.0, 0.0)):
            shut = dataclasses.replace(
                model, r=0.05, q_bounds=tuple((0.0, h) for h in caps)
            )
            br = best_response_fixed_tech(
                LeaderStrategy(tau=(0.0,) * 5), model.tech(4), shut
            )
            assert br.response.q == caps
            assert br.optimality_tag

    def test_certificate_rejects_a_perturbed_schedule(self, model):
        discounted = dataclasses.replace(model, r=0.05)
        strat = random_strategies(model, 1, seed=3)[0]
        tech = model.tech(4)
        br = best_response_fixed_tech(strat, tech, discounted)
        q = list(br.response.q)
        q[0] *= 1.001
        periods = [
            (a - x - tech.beta_er, b + tech.alpha_er, h)
            for a, b, x, (_, h) in zip(
                model.alpha, model.beta, strat.tau, model.q_bounds
            )
        ]
        d = [discounted.discount(t) for t in range(1, 6)]
        w = [a - b for a, b in zip(d, d[1:] + [0.0])]
        residual = _discounted_kkt_residual(
            q, periods, d, w, tech.slopes, model.strata.breakpoints[:-1]
        )
        assert residual > 1e3 * KKT_TOL * sum(q)


@st.composite
def _convex_instances(draw, rates=st.just(0.0)):
    T = draw(st.integers(1, 5))
    M = draw(st.integers(1, 5))
    pos = st.floats(0.05, 5.0)
    alpha = tuple(draw(st.floats(1.0, 100.0)) for _ in range(T))
    beta = tuple(draw(pos) for _ in range(T))
    steps = [draw(st.floats(0.0, 10.0)) for _ in range(M)]
    slopes = tuple(float(x) for x in np.cumsum(steps))
    tech = TechParams(
        tech_id=1, k=1.0, alpha_er=draw(st.floats(0.0, 2.0)),
        beta_er=draw(st.floats(0.0, 10.0)), gamma_er=draw(st.floats(0.0, 10.0)),
        slopes=slopes,
    )
    amounts = tuple(draw(st.floats(0.5, 50.0)) for _ in range(M))
    model = dataclasses.replace(
        _one_tech_model(alpha, beta, tech, amounts), r=draw(rates)
    )
    tau = tuple(draw(st.floats(0.0, a)) for a in alpha)
    return model, tech, LeaderStrategy(tau=tau)


def _check_against_coordinate_ascent(instance):
    model, tech, strat = instance
    exact = best_response_fixed_tech(strat, tech, model)
    assert exact.kkt_residual <= KKT_TOL * max(1.0, sum(exact.response.q))
    assert exact.optimality_tag
    ca = coordinate_ascent(strat, tech, model)
    assert exact.profit >= ca.profit - 1e-9 * max(1.0, abs(exact.profit))


@given(instance=_convex_instances())
@settings(max_examples=200, deadline=None)
def test_exact_follower_on_generated_convex_instances(instance):
    _check_against_coordinate_ascent(instance)


@given(instance=_convex_instances(rates=st.floats(0.01, 0.5)))
@settings(max_examples=200, deadline=None)
def test_exact_follower_on_generated_discounted_instances(instance):
    _check_against_coordinate_ascent(instance)
