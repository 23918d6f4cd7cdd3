import bisect
import functools
import itertools
import math
import random

import pytest
from curve_dp import _discounted_schedule, _stratum_fixed_point
from follower_reference import (
    answer,
    attribute_read_fixed_tech,
    follower_total_profit,
    index_walk_kkt_residual,
    waterfill_walk,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import minetax.lower as lower
from minetax import (
    EaConfig,
    ExtendedModel,
    LeaderStrategy,
    StrataTable,
    TechParams,
    analytical_as_extended,
    best_response,
    best_response_fixed_tech,
    default_config,
    evolve,
)
from minetax.lower import (
    _ACTIVE_TOL,
    CERT_MARGIN,
    KKT_TOL,
    _discounted_kkt_residual,
    _pick_optimistic,
    _profit_gap_bound,
    _schedule,
    _shoot,
    _waterfill,
)
from minetax.model import FollowerConstants, replace
from minetax.oracle import GridSpec, _refine, grid_best_response
from minetax.verify import random_strategies

# the grid of criterion 5: 0, 5, ..., 90 per period
BUNDLED_GRID = GridSpec(lows=(0.0,) * 5, highs=(90.0,) * 5, step=5.0)


def _prohibitive(model):
    return LeaderStrategy(tau=tuple(model.alpha))


def _grid_oracle(strat, tech, model, grid=None):
    """The refined grid oracle with the technology fixed; by default on the
    grid of 16 steps across the widest box."""
    if grid is None:
        highs = tuple(hi for _, hi in model.q_bounds)
        grid = GridSpec(lows=(0.0,) * model.T, highs=highs, step=max(highs) / 16)
    return grid_best_response(
        strat, replace(model, techs=(tech,)), grid
    )


def _relative_gap(exact, oracle):
    """How far the exact profit leads the oracle's, relative to it."""
    return (exact.profit - oracle.profit) / max(1.0, abs(exact.profit))


def _periods(strat, tech, model):
    """(lin_t, quad_t, hi_t) per period, as the fixed-technology solve
    builds them."""
    return [
        (a - x - tech.beta_er, b + tech.alpha_er, h)
        for a, b, x, (_, h) in zip(model.alpha, model.beta, strat.tau, model.q_bounds)
    ]


def _discounted_args(model, tech):
    """The r > 0 solvers' arguments after the periods: d, w (w_t = d_t -
    d_{t+1}, d_{T+1} = 0), slopes and the inner breakpoints."""
    d = model.discount_factors
    w = tuple(a - b for a, b in zip(d, d[1:] + (0.0,)))
    return d, w, tech.slopes, model.strata.breakpoints[:-1]


class TestBestResponseFixedTech:
    def test_short_strategy_rejected(self, model):
        strat = LeaderStrategy(tau=(1.0,) * 4)
        with pytest.raises(ValueError, match="^strategy length must equal the"):
            best_response_fixed_tech(strat, model.tech(1), model)

    def test_prohibitive_taxes_shut_the_mine(self, model):
        for tech in model.techs:
            br = best_response_fixed_tech(_prohibitive(model), tech, model)
            assert br.q == (0.0,) * 5
            assert br.profit == pytest.approx(-5.0 * tech.gamma_er)
            assert br.optimality_tag
            assert br.kkt_residual == 0.0

    def test_matches_refined_grid_oracle_at_zero_tax(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        oracle = grid_best_response(strat, model, BUNDLED_GRID)
        br = best_response_fixed_tech(strat, model.tech(oracle.a), model)
        for a, b in zip(br.q, oracle.q):
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
        assert br.q[0] == pytest.approx(6.0 / 1.6, abs=1e-6)
        assert br.q[1] == pytest.approx(7.0 / 1.6, abs=1e-6)
        assert br.optimality_tag

    def test_unique_optimum_from_any_start(self, model):
        # r > 0: the exact solve against the grid refinement from random
        # points of the step-5 lattice
        discounted = replace(model, r=0.05)
        rng = random.Random(42)
        for strat in random_strategies(model, 5, seed=11):
            for tech in model.techs:
                a = best_response_fixed_tech(strat, tech, discounted)
                start = tuple(5.0 * rng.randrange(17) for _ in range(5))
                q, _ = _refine(strat.tau, tech, discounted, start, 5.0)
                for x, y in zip(a.q, q):
                    assert x == pytest.approx(y, abs=1e-5)

    def test_tagged_solutions_satisfy_stationarity(self, model):
        h = 1e-5
        for strat in random_strategies(model, 5, seed=13):
            for tech in model.techs:
                br = best_response_fixed_tech(strat, tech, model)
                assert br.optimality_tag

                def profit(q):
                    resp = answer(q=tuple(q), a=tech.tech_id)
                    return follower_total_profit(resp, strat, model)

                q = list(br.q)
                base = profit(q)
                for t in range(model.T):
                    x = q[t]
                    q[t] = x + h
                    assert (profit(q) - base) / h <= 1e-4
                    q[t] = x
                    if x >= h:
                        q[t] = x - h
                        assert (profit(q) - base) / h <= 1e-4
                        q[t] = x


class TestTechnologyConstants:
    """The follower solve takes a technology's costs from the record it is
    given, not from the model's table by id."""

    @staticmethod
    def _alone(strat, tech, model):
        return best_response_fixed_tech(strat, tech, replace(model, techs=(tech,)))

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_technology_outside_the_table(self, model, r):
        model = replace(model, r=r)
        outside = replace(model.tech(2), tech_id=9, alpha_er=1.3, gamma_er=4.0)
        for strat in random_strategies(model, 3, seed=23):
            inside = best_response_fixed_tech(strat, model.tech(2), model)
            br = best_response_fixed_tech(strat, outside, model)
            assert br == self._alone(strat, outside, model)
            assert br.a == 9 and br.profit != inside.profit
            # and the table's technology keeps its own answer
            assert best_response_fixed_tech(strat, model.tech(2), model) == inside

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_same_id_other_costs(self, model, r):
        model = replace(model, r=r)
        tech = model.tech(1)
        twin = replace(tech, beta_er=tech.beta_er + 2.0, gamma_er=1.0)
        for strat in random_strategies(model, 3, seed=29):
            first = best_response_fixed_tech(strat, twin, model)
            second = best_response_fixed_tech(strat, tech, model)
            assert first == self._alone(strat, twin, model)
            assert second == self._alone(strat, tech, model)
            assert first.q != second.q

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_constants_built_once_per_model(self, model, monkeypatch, r):
        model = replace(model, r=r)
        built, curves = [], []
        build, curve = FollowerConstants.build.__func__, StrataTable.cost_curve

        def counted_build(cls, tech, model):
            built.append(tech.tech_id)
            return build(cls, tech, model)

        def counted_curve(self, slopes):
            curves.append(slopes)
            return curve(self, slopes)

        monkeypatch.setattr(FollowerConstants, "build", classmethod(counted_build))
        monkeypatch.setattr(StrataTable, "cost_curve", counted_curve)
        solves = _count_fixed_tech_solves(monkeypatch)
        evolve(model, EaConfig(20, 5, 7))
        ids = [t.tech_id for t in model.techs]
        assert len(solves) > 10 * len(ids)
        assert sorted(built) == ids
        assert sorted(curves) == sorted(t.slopes for t in model.techs)


class TestBestResponse:
    def test_prohibitive_taxes_pick_cheapest_fixed_cost(self, model):
        br = best_response(_prohibitive(model), model)
        assert br.a in (3, 4)
        assert br.profit == pytest.approx(-25.0)
        assert br.q == (0.0,) * 5

    def test_zero_tax_matches_exhaustive_oracle(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        oracle = grid_best_response(strat, model, BUNDLED_GRID)
        br = best_response(strat, model)
        assert br.a == oracle.a
        assert br.profit == pytest.approx(oracle.profit, abs=1e-6)

    @pytest.mark.parametrize("r", [0.0, 0.05])
    @pytest.mark.parametrize("pick", range(4))
    def test_single_technology_model_degenerates(self, model, monkeypatch, r, pick):
        # both solver paths: one fixed-technology solve, returned as it is
        single = ExtendedModel(
            T=model.T, alpha=model.alpha, beta=model.beta,
            techs=(model.tech(2),), strata=model.strata, r=r,
        )
        strats = [LeaderStrategy(tau=(10.0,) * 5),
                  *random_strategies(single, 3, seed=23)]
        strat = strats[pick]
        expected = best_response_fixed_tech(strat, model.tech(2), single)
        calls = _count_fixed_tech_solves(monkeypatch)
        assert best_response(strat, single) == expected
        assert calls == [2]

    @pytest.mark.parametrize("r", [0.0, 0.05])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_taxes_never_reach_the_follower(self, model, r, bad):
        # once answered with a NaN schedule tagged optimal, or a bare
        # "min() arg is an empty sequence" under free choice
        discounted = replace(model, r=r)
        one_tech = replace(discounted, techs=(model.tech(1),))
        for m in (discounted, one_tech):
            with pytest.raises(ValueError, match="^taxes tau must be finite"):
                best_response(LeaderStrategy(tau=(bad,) * 5), m)

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


@given(
    r=st.sampled_from([0.0, 0.05]), embedded=st.booleans(),
    cap=st.sampled_from([1.0, 0.05]), data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_answers_are_schedules_within_the_caps(
    model, params, r, embedded, cap, data
):
    # a `BestResponse` is not checked: its q must be a tuple of T floats in
    # [0, qbar_t] by construction, for taxes in tau_bounds and at their
    # ends; the caps at 0.05 of the bundled ones bind
    base = analytical_as_extended(params) if embedded else model
    caps = tuple((0.0, cap * hi) for _, hi in base.q_bounds)
    model = replace(base, r=r, q_bounds=caps)
    bounds = model.tau_bounds
    tau = data.draw(st.one_of(
        st.just((0.0,) * model.T),
        st.just(tuple(hi for _, hi in bounds)),
        st.tuples(*(st.floats(lo, hi) for lo, hi in bounds)),
    ))
    strat = LeaderStrategy(tau=tau)
    answers = [best_response_fixed_tech(strat, t, model) for t in model.techs]
    for resp in answers + [best_response(strat, model)]:
        assert type(resp.q) is tuple and len(resp.q) == model.T
        for x, (_, hi) in zip(resp.q, model.q_bounds):
            # NaN and both infinities fail the bounds
            assert type(x) is float and 0.0 <= x <= hi


def _one_tech_model(alpha, beta, tech, amounts):
    return ExtendedModel(
        T=len(alpha), alpha=alpha, beta=beta, techs=(tech,),
        strata=StrataTable(amounts=amounts),
    )


class TestExactFollower:
    """The r = 0 water-filling solve against the grid oracle and by hand."""

    def test_agrees_with_refined_grid_oracle(self, model):
        pairs = 0
        for strat in random_strategies(model, 500, seed=29):
            for tech in model.techs:
                exact = best_response_fixed_tech(strat, tech, model)
                oracle = _grid_oracle(strat, tech, model, BUNDLED_GRID)
                assert exact.optimality_tag
                assert abs(_relative_gap(exact, oracle)) <= 1e-9
                pairs += 1
        assert pairs == 2000

    def test_every_period_at_its_cap(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        caps = (2.0, 3.0, 4.0, 5.0, 6.0)
        # the caps lie on the oracle's lattice
        grid = GridSpec(lows=(0.0,) * 5, highs=caps, step=1.0)
        for r in (0.0, 0.05):
            capped = replace(
                model, r=r, q_bounds=tuple((0.0, h) for h in caps)
            )
            for tech in model.techs:
                br = best_response_fixed_tech(strat, tech, capped)
                assert br.q == caps
                assert br.optimality_tag
                oracle = _grid_oracle(strat, tech, capped, grid)
                assert oracle.q == br.q
                assert br.profit == pytest.approx(oracle.profit, rel=1e-15)

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
        assert br.q == pytest.approx((10.0, 0.0), abs=1e-12)
        assert br.optimality_tag
        assert br.kkt_residual <= 1e-12
        assert abs(_relative_gap(br, _grid_oracle(strat, tech, model))) <= 1e-9


@st.composite
def _waterfill_instances(draw):
    """(periods, slopes, breakpoints) for `_waterfill`: 1-6 periods and
    strata, repeated and zero slopes, shut periods (hi = 0), and each
    breakpoint an ordinary step up, a stratum so thin that it equals the
    last one in floating point, or planted on a total S(s) of the
    schedule: at its own slope (the boundary of the stopping test), at the
    next one (the boundary of the crossing test) or between the two (the
    crossing branch, where the total ends on the breakpoint)."""
    T = draw(st.integers(1, 6))
    M = draw(st.integers(1, 6))
    periods = [
        (draw(st.floats(-10.0, 100.0)), draw(st.floats(0.05, 5.0)),
         0.0 if draw(st.integers(0, 3)) == 0 else draw(st.floats(0.0, 50.0)))
        for _ in range(T)
    ]
    start = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    steps = [draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))) for _ in range(M - 1)]
    slopes = tuple(itertools.accumulate(steps, initial=start))
    totals = [sum(_schedule(s, periods)) for s in slopes] + [0.0]
    cuts, b = [], 0.0
    for m in range(M):
        # "between" twice: the crossing needs every stratum below to be
        # overfilled, so it is the rarest outcome
        kind = draw(st.sampled_from(
            ["step", "thin", "own", "next", "between", "between"]
        ))
        if kind == "step":
            b += draw(st.floats(0.01, 10.0))
        elif kind == "thin":
            b += draw(st.floats(1e-300, 1e-14))
        else:
            planted = {"own": totals[m], "next": totals[m + 1],
                       "between": (totals[m] + totals[m + 1]) / 2.0}[kind]
            b = max(b, planted)
        cuts.append(b)
    return periods, slopes, tuple(cuts)


@given(instance=_waterfill_instances())
@settings(max_examples=500, deadline=None)
def test_bisected_waterfill_matches_the_linear_walk(instance):
    # the same floats: the same schedule and the same multiplier
    periods, slopes, breakpoints = instance
    q, lam = _waterfill(periods, slopes, breakpoints)
    assert (q, lam) == waterfill_walk(periods, slopes, breakpoints)


def _pinned_instance():
    """Two periods whose optimal X_1 sits on a stratum breakpoint.

    d = (1, 0.8), w = (0.2, 0.8); q_t(p) = (lin_t - p / d_t) / 2. Period 2
    is interior in stratum 2: 0.8 (21 - 2 q_2) = 0.8 * 11, so q_2 = 5.
    Period 1 needs 30 - 2 q_1 = 0.2 c_1 + 8.8 with c_1 a subgradient of C
    at X_1: q_1 = 10 = b gives c_1 = 6, strictly between the slopes 1 and
    11, so X_1 sits on the breakpoint.
    """
    tech = TechParams(tech_id=1, k=1.0, alpha_er=0.5, beta_er=0.0,
                      gamma_er=0.0, slopes=(1.0, 11.0))
    model = replace(
        _one_tech_model((30.0, 21.0), (0.5, 0.5), tech, (10.0, 100.0)),
        r=0.25,
    )
    return model, tech, LeaderStrategy(tau=(0.0, 0.0))


class TestDiscountedFollower:
    """The r > 0 solve by hand: shooting on S_1, whose bounds W(lo) and
    W(hi) close in on the root, and its pin step, which puts an X_t on a
    breakpoint and solves the periods after t from there."""

    def test_prefix_sum_on_breakpoint_before_the_last_period(self):
        model, tech, strat = _pinned_instance()
        br = best_response_fixed_tech(strat, tech, model)
        assert br.q == (10.0, 5.0)
        assert br.profit == pytest.approx(210.0, abs=1e-12)
        assert br.optimality_tag
        assert br.kkt_residual <= 1e-12
        assert abs(_relative_gap(br, _grid_oracle(strat, tech, model))) <= 1e-9

    def test_pinned_breakpoint_is_solved_directly(self):
        # the bounds stall at S_1 = 9 and 11, the W of the strata (1, 2)
        # and (2, 2), where X_1 = 10.5 and 9.5 lie across the breakpoint 10;
        # the pin step puts X_1 on it and solves period 2 from there
        model, tech, strat = _pinned_instance()
        periods, args = _periods(strat, tech, model), _discounted_args(model, tech)
        k = model.follower_constants[tech.tech_id]
        assert _shoot(0, 0.0, periods, k) == ([10.0], 10.0)
        assert _shoot(1, 10.0, periods, k) == ([5.0], 10.0)
        # a shoot after a pin reads its own start's brackets only
        after_pin = k._replace(brackets=(None,) + k.brackets[1:])
        assert _shoot(1, 10.0, periods, after_pin) == ([5.0], 10.0)
        assert _discounted_schedule(periods, *args) == [10.0, 5.0]
        br = best_response_fixed_tech(strat, tech, model)
        assert br.q == (10.0, 5.0)
        assert br.optimality_tag

    def test_certificate_spans_breakpoints_within_its_tolerance(self):
        # the pinned instance with its kink moved to the second of two
        # breakpoints 1e-12 apart: X_1 sits on both, and only the slope
        # above the second lets the multiplier reach 6
        model, tech, strat = _pinned_instance()
        tech = replace(tech, slopes=(1.0, 1.0, 11.0))
        split = replace(
            model, techs=(tech,), strata=StrataTable(amounts=(10.0, 1e-12, 100.0))
        )
        br = best_response_fixed_tech(strat, tech, split)
        assert br.q == pytest.approx((10.0, 5.0), abs=1e-9)
        assert br.optimality_tag
        assert br.kkt_residual == 0.0

    def test_zero_caps_shut_the_mine(self, model):
        for caps in ((0.0,) * 5, (0.0, 5.0, 0.0, 5.0, 0.0)):
            shut = replace(
                model, r=0.05, q_bounds=tuple((0.0, h) for h in caps)
            )
            br = best_response_fixed_tech(
                LeaderStrategy(tau=(0.0,) * 5), model.tech(4), shut
            )
            assert br.q == caps
            assert br.optimality_tag

    def test_certificate_rejects_a_perturbed_schedule(self, model):
        discounted = replace(model, r=0.05)
        strat = random_strategies(model, 1, seed=3)[0]
        tech = model.tech(4)
        br = best_response_fixed_tech(strat, tech, discounted)
        q = list(br.q)
        q[0] *= 1.001
        residual = _discounted_kkt_residual(
            q, _periods(strat, tech, model), *_discounted_args(discounted, tech)
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
    slopes = tuple(itertools.accumulate(steps))
    tech = TechParams(
        tech_id=1, k=1.0, alpha_er=draw(st.floats(0.0, 2.0)),
        beta_er=draw(st.floats(0.0, 10.0)), gamma_er=draw(st.floats(0.0, 10.0)),
        slopes=slopes,
    )
    amounts = tuple(draw(st.floats(0.5, 50.0)) for _ in range(M))
    model = replace(
        _one_tech_model(alpha, beta, tech, amounts), r=draw(rates)
    )
    tau = tuple(draw(st.floats(0.0, a)) for a in alpha)
    return model, tech, LeaderStrategy(tau=tau)


_RATES = st.one_of(st.just(0.0), st.floats(0.01, 0.5))


# two-sided bound on how far one profit may lead the other, relative to
# max(1, |exact profit|). The oracle is best on the lattice of step
# (widest box) / 16 / 2**REFINE_HALVINGS, so the exact solve leads it where
# a prefix sum sits on a breakpoint off that lattice: by at most 4.1e-9
# over 8,000 generated instances (r = 0 and r > 0, 30 halvings), against
# 2.1e-14 for the oracle's lead, which is rounding.
EXACT_LEAD_TOL = 1e-7
ORACLE_LEAD_TOL = 1e-12


def _check_against_grid_oracle(instance):
    model, tech, strat = instance
    exact = best_response_fixed_tech(strat, tech, model)
    assert 0.0 <= exact.kkt_residual <= KKT_TOL * max(1.0, sum(exact.q))
    assert exact.optimality_tag
    gap = _relative_gap(exact, _grid_oracle(strat, tech, model))
    assert -ORACLE_LEAD_TOL <= gap <= EXACT_LEAD_TOL


@given(instance=_convex_instances())
@settings(max_examples=200, deadline=None)
def test_exact_follower_on_generated_convex_instances(instance):
    _check_against_grid_oracle(instance)


@given(instance=_convex_instances(rates=st.floats(0.01, 0.5)))
@settings(max_examples=200, deadline=None)
def test_exact_follower_on_generated_discounted_instances(instance):
    _check_against_grid_oracle(instance)


# bounds relative to max(1, total extraction) and max(1, |profit|). Over
# 4,000 generated discounted instances each, with and without a breakpoint
# planted on an optimal prefix sum, the solve left the DP by at most
# 5.2e-15 in q and 2.9e-14 in profit; over 16,000 instances each way the
# solver's profit left `follower_total_profit` by at most 2.7e-14 at r = 0
# and 3.2e-14 at r > 0 (another summation order)
DP_Q_TOL = 1e-12
PROFIT_TOL = 1e-12


def _profit(q, strat, tech, model):
    return follower_total_profit(
        answer(q=tuple(q), a=tech.tech_id), strat, model
    )


def _check_against_dp(instance, same_as_guess):
    """The solve is tagged and agrees with the DP; with same_as_guess, it
    is also the stratum fixed point's guess wherever that certifies."""
    model, tech, strat = instance
    periods, args = _periods(strat, tech, model), _discounted_args(model, tech)
    br = best_response_fixed_tech(strat, tech, model)
    assert br.optimality_tag
    q = br.q
    dp = _discounted_schedule(periods, *args)
    assert max(abs(a - b) for a, b in zip(q, dp)) <= DP_Q_TOL * max(1.0, sum(dp))
    p_dp = _profit(dp, strat, tech, model)
    assert abs(_profit(q, strat, tech, model) - p_dp) <= PROFIT_TOL * max(1.0, abs(p_dp))
    guess = _stratum_fixed_point(periods, *args)
    residual = _discounted_kkt_residual(guess, periods, *args)
    if same_as_guess and residual <= KKT_TOL * max(1.0, sum(guess)):
        assert q == tuple(guess)


@given(instance=_convex_instances(rates=st.floats(0.01, 0.5)))
@settings(max_examples=200, deadline=None)
def test_discounted_follower_matches_the_dp(instance):
    _check_against_dp(instance, same_as_guess=True)


@st.composite
def _planted_instances(draw, rates=st.floats(0.01, 0.5)):
    """A discounted instance with one inner breakpoint moved onto a prefix
    sum of the DP's optimum, so that an X_t may sit or be pinned on it."""
    model, tech, strat = draw(_convex_instances(rates=rates))
    periods = _periods(strat, tech, model)
    dp = _discounted_schedule(periods, *_discounted_args(model, tech))
    x = draw(st.sampled_from(list(itertools.accumulate(dp))))
    cuts = list(model.strata.breakpoints)
    # the breakpoint at or above x, or the one below it
    j = bisect.bisect_left(cuts, x) - draw(st.integers(0, 1))
    assume(x > 0.0 and 0 <= j < len(cuts) - 1)
    cuts[j] = x
    amounts = [b - a for a, b in zip([0.0] + cuts, cuts)]
    assume(all(a > 0.0 for a in amounts))
    planted = replace(model, strata=StrataTable(amounts=tuple(amounts)))
    return planted, tech, strat


@given(instance=_planted_instances())
@settings(max_examples=200, deadline=None)
def test_discounted_follower_matches_the_dp_on_planted_breakpoints(instance):
    # here a guess certifies within KKT_TOL with X_t an ulp off the
    # breakpoint that the solve puts it on, so the two may differ in the
    # last bits (the q tolerance still holds)
    _check_against_dp(instance, same_as_guess=False)


@st.composite
def _certificate_cases(draw):
    """A schedule for the r > 0 certificate on a generated instance at r in
    {0, 0.05, 0.3}: the solve's answer with each period kept, moved a
    little, moved anywhere in its box, or put on a bound, and then, at
    times, one X_t moved onto an inner breakpoint or eps (the certificate's
    tolerance) to either side of it, exactly or nearly."""
    model, tech, strat = draw(
        _convex_instances(rates=st.sampled_from((0.0, 0.05, 0.3)))
    )
    periods = _periods(strat, tech, model)
    q = list(best_response_fixed_tech(strat, tech, model).q)
    for t, (_, _, h) in enumerate(periods):
        how = draw(st.sampled_from(("keep", "jiggle", "anywhere", "zero", "cap")))
        if how == "jiggle":
            q[t] = min(h, q[t] * (1.0 + draw(st.floats(-1e-3, 1e-3))))
        elif how == "anywhere":
            q[t] = draw(st.floats(0.0, h))
        elif how != "keep":
            q[t] = 0.0 if how == "zero" else h
    t = draw(st.integers(0, len(q) - 1))
    # X_{t-1} as the certificate sums it
    before = list(itertools.accumulate(q, initial=0.0))[t]
    above = [b for b in model.strata.breakpoints[:-1] if b >= before]
    if above and draw(st.booleans()):
        b = draw(st.sampled_from(above))
        side = draw(st.sampled_from((0.0, 1.0, -1.0)))
        scale = draw(st.sampled_from((1.0, 1.0 - 1e-6, 1.0 + 1e-6)))
        # twice, so that eps is the one of the moved schedule
        for _ in range(2):
            eps = _ACTIVE_TOL * max(1.0, sum(q))
            q[t] = max(0.0, b + side * scale * eps - before)
    return q, periods, _discounted_args(model, tech)


@given(case=_certificate_cases())
@settings(max_examples=300, deadline=None)
def test_certificate_matches_the_index_walk(case):
    q, periods, args = case
    assert (
        _discounted_kkt_residual(q, periods, *args).hex()
        == index_walk_kkt_residual(q, periods, *args).hex()
    )


@given(
    instance=st.one_of(
        _convex_instances(rates=st.sampled_from((0.0, 0.05, 0.3))),
        _planted_instances(rates=st.sampled_from((0.05, 0.3))),
    ),
    twin=st.booleans(),
)
@example(instance=_pinned_instance(), twin=False)
@example(instance=_pinned_instance(), twin=True)
@settings(max_examples=300, deadline=None)
def test_solve_matches_the_attribute_reads(instance, twin):
    # the table's own record takes the cached constants, an equal but
    # distinct one the constants built afresh
    model, tech, strat = instance
    if twin:
        tech = TechParams(*tech)
    got = best_response_fixed_tech(strat, tech, model)
    want = attribute_read_fixed_tech(strat, tech, model)
    assert type(got) is type(want) is lower.BestResponse
    assert (got.a, got.optimality_tag) == (want.a, want.optimality_tag)
    assert [v.hex() for v in got.q] == [v.hex() for v in want.q]
    assert got.profit.hex() == want.profit.hex()
    assert got.kkt_residual.hex() == want.kkt_residual.hex()


@given(instance=st.one_of(
    _convex_instances(rates=st.sampled_from((0.0, 0.05, 0.3))),
    _planted_instances(rates=st.sampled_from((0.05, 0.3))),
))
@example(instance=_pinned_instance())
@settings(max_examples=100, deadline=None)
def test_cached_constants_give_the_fresh_answer(instance):
    # an equal TechParams that is not the table's own record takes the
    # uncached path, which builds its constants afresh
    model, tech, strat = instance
    k = model.follower_constants[tech.tech_id]
    twin = TechParams(*tech)
    assert k.tech is tech and twin == tech and twin is not tech
    cached = best_response_fixed_tech(strat, tech, model)
    fresh = best_response_fixed_tech(strat, twin, model)
    # bit for bit: a float's repr tells -0.0 from 0.0
    assert repr(cached) == repr(fresh)
    fresh_k = FollowerConstants.build(twin, model)
    assert fresh_k[2:] == k[2:]
    # each build makes its own curve: the two must agree at 0, at each
    # breakpoint and past the stock
    stock = model.strata.stock
    for x in (0.0,) + model.strata.breakpoints + (stock + 1.0, 2.0 * stock):
        assert repr(fresh_k.cost(x)) == repr(k.cost(x))
    assert model.follower_constants[tech.tech_id] is k
    # each bracket is the sum `_shoot` once made at its start on this
    # interpreter
    w, T = _discounted_args(model, tech)[1], model.T
    expected = tuple(
        tuple(sum(w[t] * s for t in range(t0, T)) for s in tech.slopes)
        for t0 in range(T)
    )
    assert repr(k.brackets) == repr(expected)


@given(instance=_convex_instances(rates=_RATES))
@settings(max_examples=200, deadline=None)
def test_solver_profit_matches_follower_total_profit(instance):
    model, tech, strat = instance
    br = best_response_fixed_tech(strat, tech, model)
    expected = _profit(br.q, strat, tech, model)
    assert abs(br.profit - expected) <= PROFIT_TOL * max(1.0, abs(expected))


def _count_fixed_tech_solves(monkeypatch, tagged=True):
    """Ids of the fixed-technology solves `best_response` makes, which it
    looks up by module name; with tagged=False every answer is untagged."""
    calls = []
    solve = lower.best_response_fixed_tech

    def counted(strat, tech, model):
        calls.append(tech.tech_id)
        br = solve(strat, tech, model)
        return br if tagged else replace(br, optimality_tag=False)

    monkeypatch.setattr(lower, "best_response_fixed_tech", counted)
    return calls


def full_enumeration(strat, model):
    """Reference `best_response`: every technology solved, the optimistic
    pick among them."""
    return _pick_optimistic(
        [best_response_fixed_tech(strat, tech, model) for tech in model.techs],
        strat, model,
    )


class TestTechnologySkip:
    """`best_response` solves a dominated technology only when the profit-gap
    certificate cannot keep it out of the tie set."""

    def test_prohibitive_tax_still_returns_technology_3(self, model, monkeypatch):
        # zero extraction ties technologies 3 and 4 at profit -25, and the
        # certificate is 0 there, so technology 3 is solved and wins the tie
        calls = _count_fixed_tech_solves(monkeypatch)
        br = best_response(_prohibitive(model), model)
        assert br.a == 3
        assert sorted(calls) == [3, 4]

    def test_mid_range_tax_runs_one_fixed_tech_solve(self, model, monkeypatch):
        calls = _count_fixed_tech_solves(monkeypatch)
        strat = LeaderStrategy(tau=tuple(a / 2.0 for a in model.alpha))
        br = best_response(strat, model)
        assert calls == [4]
        assert br.a == 4
        assert br == full_enumeration(strat, model)

    def test_untagged_dominator_certifies_nothing(self, model, monkeypatch):
        calls = _count_fixed_tech_solves(monkeypatch, tagged=False)
        best_response(LeaderStrategy(tau=tuple(a / 2.0 for a in model.alpha)), model)
        assert sorted(calls) == [1, 2, 3, 4]

    def test_tech_filter_solves_one_technology(self, model, monkeypatch):
        calls = _count_fixed_tech_solves(monkeypatch)
        single = replace(model, techs=(model.tech(2),))
        best_response(_prohibitive(single), single)
        assert calls == [2]


def _cost_steps(draw, n, tiny):
    """n nonnegative cost increments: zero, tiny (near the tie tolerance)
    or ordinary."""
    size = st.floats(0.0, 1e-6) if tiny else st.floats(0.0, 3.0)
    return [draw(st.one_of(st.just(0.0), size)) for _ in range(n)]


def _fresh_cost(draw, M):
    """(alpha_er, beta_er, gamma_er, slopes) of a convex technology."""
    steps = [draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))) for _ in range(M)]
    slopes = tuple(itertools.accumulate(steps))
    return (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 10.0)),
            draw(st.floats(0.0, 10.0)), slopes)


def _dearer(base, extra):
    """`base` plus the nonnegative increments extra: to alpha_er, beta_er,
    gamma_er, then one shift for all slopes and a nondecreasing extra per
    stratum."""
    slopes = tuple(
        s + extra[3] + e for s, e in zip(base[3], itertools.accumulate(extra[4:]))
    )
    return tuple(c + e for c, e in zip(base[:3], extra[:3])) + (slopes,)


def _base_variants(draw, M):
    """One base technology; each other one is the base made dearer (strict
    dominance, near ties included), an exact duplicate, or drawn afresh
    (undominated mixes)."""
    base = _fresh_cost(draw, M)
    costs = [base]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["dearer", "duplicate", "fresh"]))
        if kind == "fresh":
            costs.append(_fresh_cost(draw, M))
        elif kind == "duplicate":
            costs.append(base)
        else:
            tiny = draw(st.booleans())
            costs.append(_dearer(base, _cost_steps(draw, 4 + M, tiny)))
    return costs


def _two_tops(draw, M):
    """Two undominated technologies, one with the lower fixed cost and one
    with the lower unit cost, and 1-3 each made dearer than one of them
    with no fixed-cost gap or no unit-cost gap, so that the certificate's
    sum runs past the fixed-cost test."""
    alpha_er, beta_er, gamma_er, slopes = _fresh_cost(draw, M)
    tops = [
        (alpha_er, beta_er, gamma_er + draw(st.floats(0.01, 5.0)), slopes),
        (alpha_er, beta_er + draw(st.floats(0.01, 5.0)), gamma_er, slopes),
    ]
    costs = list(tops)
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from(tops))
        extra = _cost_steps(draw, 4 + M, draw(st.booleans()))
        if draw(st.booleans()):
            extra[2] = 0.0  # fixed_gap = 0
        else:
            extra[1] = extra[3] = extra[4] = 0.0  # unit_gap = 0
        cost = _dearer(base, extra)
        if cost == base:  # the increments rounded away: not a duplicate
            cost = (base[0] + draw(st.floats(1e-6, 1.0)),) + base[1:]
        costs.append(cost)
    return costs


@st.composite
def _technology_tables(draw, rates=st.just(0.0), costs=_base_variants):
    """Tables of the convex technologies that `costs` draws, in random
    order. Taxes are drawn in the box, or prohibitive."""
    T = draw(st.integers(1, 5))
    M = draw(st.integers(1, 4))
    alpha = tuple(draw(st.floats(1.0, 100.0)) for _ in range(T))
    beta = tuple(draw(st.floats(0.05, 5.0)) for _ in range(T))
    amounts = tuple(draw(st.floats(0.5, 50.0)) for _ in range(M))
    table = costs(draw, M)
    order = draw(st.permutations(range(len(table))))
    techs = tuple(
        TechParams(tech_id=i + 1, k=draw(st.floats(0.0, 10.0)), alpha_er=table[j][0],
                   beta_er=table[j][1], gamma_er=table[j][2], slopes=table[j][3])
        for i, j in enumerate(order)
    )
    model = ExtendedModel(
        T=T, alpha=alpha, beta=beta, techs=techs,
        strata=StrataTable(amounts=amounts), r=draw(rates),
    )
    if draw(st.booleans()):
        tau = alpha
    else:
        tau = tuple(draw(st.floats(0.0, a)) for a in alpha)
    return model, LeaderStrategy(tau=tau)


@given(instance=_technology_tables(rates=_RATES))
@settings(max_examples=300, deadline=None)
def test_skipping_matches_full_enumeration(instance):
    model, strat = instance
    assert best_response(strat, model) == full_enumeration(strat, model)


@given(instance=_technology_tables(rates=_RATES))
@settings(max_examples=300, deadline=None)
def test_certificate_never_exceeds_profit_gap(instance):
    # the bound and its fixed-cost part, which the skip also tests alone
    model, strat = instance
    for dom in model.dominance:
        a = best_response_fixed_tech(strat, dom.dominator, model)
        b = best_response_fixed_tech(strat, dom.tech, model)
        assert a.optimality_tag
        bound = _profit_gap_bound(a.q, dom, model, math.inf)
        margin = CERT_MARGIN * max(1.0, abs(a.profit))
        fixed = dom.fixed_gap * sum(model.discount_factors)
        assert max(bound, fixed) <= a.profit - b.profit + margin


def _wrong_dominator_instance():
    """Two undominated technologies where certifying from the wrong one's
    answer skips a technology that wins the tie-break.

    T = 1, r = 0, c = 1, one stratum of slope 0, tax 8. Technology 2
    (beta_er 0, gamma_er 1.5) extracts q = 1 for profit -0.5; technology 3
    (beta_er 2) extracts 0 for profit 0, the best. Technology 1 (beta_er
    3.5) is dominated by 3 with fixed_gap 0 and unit_gap 1.5: it extracts
    0 too, ties with 3, and wins on its id. From 3's answer the bound is
    0, so 1 is solved. From 2's it would be 1.5 - 1.5^2 / 4 = 0.9375,
    above 2's shortfall of 0.5, and 1 would be skipped.
    """
    techs = tuple(
        TechParams(tech_id=i, k=1.0, alpha_er=0.0, beta_er=b, gamma_er=g,
                   slopes=(0.0,))
        for i, b, g in ((1, 3.5, 0.0), (2, 0.0, 1.5), (3, 2.0, 0.0))
    )
    model = ExtendedModel(T=1, alpha=(10.0,), beta=(1.0,), techs=techs,
                          strata=StrataTable(amounts=(50.0,)))
    return model, LeaderStrategy(tau=(8.0,))


@given(instance=_technology_tables(rates=_RATES, costs=_two_tops))
@example(instance=_wrong_dominator_instance())
@settings(max_examples=300, deadline=None)
def test_skipping_matches_full_enumeration_with_two_undominated(instance):
    model, strat = instance
    assert len(model.undominated) == 2
    assert best_response(strat, model) == full_enumeration(strat, model)


@given(
    instance=_technology_tables(rates=_RATES, costs=_two_tops),
    split=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_certificate_stops_once_past_need(instance, split):
    # whether the bound exceeds `need` is the full bound's answer, for a
    # need below, at or above it and at each of its partial sums
    model, strat = instance
    for dom in model.dominance:
        q = best_response_fixed_tech(strat, dom.dominator, model).q
        full = _profit_gap_bound(q, dom, model, math.inf)
        partial = [
            _profit_gap_bound(q[:t], dom, model, math.inf)
            for t in range(len(q) + 1)
        ]
        for need in partial + [split * full, math.nextafter(full, -math.inf)]:
            early = _profit_gap_bound(q, dom, model, need)
            assert early <= full
            assert (early > need) == (full > need)


@pytest.mark.parametrize("r", [0.0, 0.05])
def test_choice_plan_built_once_per_model(model, monkeypatch, r):
    # the choice plan, the `Dominance` records of `ExtendedModel.dominance`
    # that `best_response` walks to skip a dominated technology, is built
    # on the first solve and then reused
    model = replace(model, r=r)
    built = []
    plan = ExtendedModel.dominance.func

    def counted(self):
        built.append(self)
        return plan(self)

    counted_plan = functools.cached_property(counted)
    counted_plan.__set_name__(ExtendedModel, "dominance")
    monkeypatch.setattr(ExtendedModel, "dominance", counted_plan)
    solves = _count_fixed_tech_solves(monkeypatch)
    evolve(model, EaConfig(20, 5, 7))
    assert len(solves) > 10 * len(model.techs)
    assert len(built) == 1 and built[0] is model


@given(instance=st.one_of(
    _technology_tables(rates=_RATES),
    _technology_tables(rates=_RATES, costs=_two_tops),
))
# the bundled table: technology 4 dominates the other three
@example(instance=(default_config().extended, None))
@settings(max_examples=200, deadline=None)
def test_plan_positions_name_the_dominators(instance):
    model, _ = instance
    for dom in model.dominance:
        assert model.undominated[dom.at] is dom.dominator
        assert dom.fixed_part == dom.fixed_gap * model.discounted_periods


def test_certificate_without_need_is_the_full_bound(model):
    # at need = inf the sum runs to the end. Technology 3 against 4 on the
    # bundled table at r = 0: d_t = 1 and fixed_gap = 0, so G is the sum of
    # the m_t
    dom = model.dominance[2]
    strat = LeaderStrategy(tau=tuple(a / 2.0 for a in model.alpha))
    q = best_response_fixed_tech(strat, dom.dominator, model).q
    delta, expected = dom.unit_gap, 0.0
    for b, x in zip(model.beta, q):
        c = b + dom.dominator.alpha_er
        if 2.0 * c * x >= delta:
            expected += delta * x - delta * delta / (4.0 * c)
        else:
            expected += c * x * x
    assert dom.fixed_gap == 0.0 and expected > 0.0
    assert _profit_gap_bound(q, dom, model, math.inf) == expected
    assert _profit_gap_bound(q, dom, model, need=0.0) < expected
