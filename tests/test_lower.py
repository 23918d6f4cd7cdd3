import bisect
import dataclasses
import itertools
import random

import pytest
from curve_dp import _discounted_schedule, _stratum_fixed_point
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minetax.lower as lower
from minetax import (
    ExtendedModel,
    FollowerResponse,
    LeaderStrategy,
    StrataTable,
    TechParams,
    best_response,
    best_response_fixed_tech,
    follower_total_profit,
)
from minetax.lower import (
    CERT_MARGIN,
    KKT_TOL,
    _discounted_kkt_residual,
    _pick_optimistic,
    _profit_gap_bound,
    _shoot,
    _waterfill,
)
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
        strat, dataclasses.replace(model, techs=(tech,)), grid
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
    """The r > 0 solvers' arguments after the periods (and, for `_shoot`,
    after the start period and extraction): d, w, slopes and the inner
    breakpoints."""
    return (model.discount_factors, model.cost_weights, tech.slopes,
            model.strata.breakpoints[:-1])


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
        oracle = grid_best_response(strat, model, BUNDLED_GRID)
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

    def test_unique_optimum_from_any_start(self, model):
        # r > 0: the exact solve against the grid refinement from random
        # points of the step-5 lattice
        discounted = dataclasses.replace(model, r=0.05)
        rng = random.Random(42)
        for strat in random_strategies(model, 5, seed=11):
            for tech in model.techs:
                a = best_response_fixed_tech(strat, tech, discounted)
                start = tuple(5.0 * rng.randrange(17) for _ in range(5))
                q, _ = _refine(strat.tau, tech, discounted, start, 5.0)
                for x, y in zip(a.response.q, q):
                    assert x == pytest.approx(y, abs=1e-5)

    def test_tagged_solutions_satisfy_stationarity(self, model):
        h = 1e-5
        for strat in random_strategies(model, 5, seed=13):
            for tech in model.techs:
                br = best_response_fixed_tech(strat, tech, model)
                assert br.optimality_tag

                def profit(q):
                    resp = FollowerResponse(q=tuple(q), a=tech.tech_id)
                    return follower_total_profit(resp, strat, model)

                q = list(br.response.q)
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


class TestBestResponse:
    def test_prohibitive_taxes_pick_cheapest_fixed_cost(self, model):
        br = best_response(_prohibitive(model), model)
        assert br.response.a in (3, 4)
        assert br.profit == pytest.approx(-25.0)
        assert br.response.q == (0.0,) * 5

    def test_zero_tax_matches_exhaustive_oracle(self, model):
        strat = LeaderStrategy(tau=(0.0,) * 5)
        oracle = grid_best_response(strat, model, BUNDLED_GRID)
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
            capped = dataclasses.replace(
                model, r=r, q_bounds=tuple((0.0, h) for h in caps)
            )
            for tech in model.techs:
                br = best_response_fixed_tech(strat, tech, capped)
                assert br.response.q == caps
                assert br.optimality_tag
                oracle = _grid_oracle(strat, tech, capped, grid)
                assert oracle.response.q == br.response.q
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
        assert br.response.q == pytest.approx((10.0, 0.0), abs=1e-12)
        assert br.optimality_tag
        assert br.kkt_residual <= 1e-12
        assert abs(_relative_gap(br, _grid_oracle(strat, tech, model))) <= 1e-9


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
    model = dataclasses.replace(
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
        assert br.response.q == (10.0, 5.0)
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
        assert _shoot(0, 0.0, periods, *args) == ([10.0], 10.0)
        assert _shoot(1, 10.0, periods, *args) == ([5.0], 10.0)
        assert _discounted_schedule(periods, *args) == [10.0, 5.0]
        br = best_response_fixed_tech(strat, tech, model)
        assert br.response.q == (10.0, 5.0)
        assert br.optimality_tag

    def test_certificate_spans_breakpoints_within_its_tolerance(self):
        # the pinned instance with its kink moved to the second of two
        # breakpoints 1e-12 apart: X_1 sits on both, and only the slope
        # above the second lets the multiplier reach 6
        model, tech, strat = _pinned_instance()
        tech = dataclasses.replace(tech, slopes=(1.0, 1.0, 11.0))
        split = dataclasses.replace(
            model, techs=(tech,), strata=StrataTable(amounts=(10.0, 1e-12, 100.0))
        )
        br = best_response_fixed_tech(strat, tech, split)
        assert br.response.q == pytest.approx((10.0, 5.0), abs=1e-9)
        assert br.optimality_tag
        assert br.kkt_residual == 0.0

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
    model = dataclasses.replace(
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
    assert 0.0 <= exact.kkt_residual <= KKT_TOL * max(1.0, sum(exact.response.q))
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
        FollowerResponse(q=tuple(q), a=tech.tech_id), strat, model
    )


def _check_against_dp(instance, same_as_guess):
    """The solve is tagged and agrees with the DP; with same_as_guess, it
    is also the stratum fixed point's guess wherever that certifies."""
    model, tech, strat = instance
    periods, args = _periods(strat, tech, model), _discounted_args(model, tech)
    br = best_response_fixed_tech(strat, tech, model)
    assert br.optimality_tag
    q = br.response.q
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
def _planted_instances(draw):
    """A discounted instance with one inner breakpoint moved onto a prefix
    sum of the DP's optimum, so that an X_t may sit or be pinned on it."""
    model, tech, strat = draw(_convex_instances(rates=st.floats(0.01, 0.5)))
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
    planted = dataclasses.replace(model, strata=StrataTable(amounts=tuple(amounts)))
    return planted, tech, strat


@given(instance=_planted_instances())
@settings(max_examples=200, deadline=None)
def test_discounted_follower_matches_the_dp_on_planted_breakpoints(instance):
    # here a guess certifies within KKT_TOL with X_t an ulp off the
    # breakpoint that the solve puts it on, so the two may differ in the
    # last bits (the q tolerance still holds)
    _check_against_dp(instance, same_as_guess=False)


@given(instance=_convex_instances(rates=_RATES))
@settings(max_examples=200, deadline=None)
def test_solver_profit_matches_follower_total_profit(instance):
    model, tech, strat = instance
    br = best_response_fixed_tech(strat, tech, model)
    expected = _profit(br.response.q, strat, tech, model)
    assert abs(br.profit - expected) <= PROFIT_TOL * max(1.0, abs(expected))


def _count_fixed_tech_solves(monkeypatch, tagged=True):
    """Ids of the fixed-technology solves `best_response` makes, which it
    looks up by module name; with tagged=False every answer is untagged."""
    calls = []
    solve = lower.best_response_fixed_tech

    def counted(strat, tech, model):
        calls.append(tech.tech_id)
        br = solve(strat, tech, model)
        return br if tagged else dataclasses.replace(br, optimality_tag=False)

    monkeypatch.setattr(lower, "best_response_fixed_tech", counted)
    return calls


def full_enumeration(strat, model, tech_filter=None):
    """Reference `best_response`: every technology (or the filtered one)
    solved, the optimistic pick among them."""
    techs = model.techs if tech_filter is None else (model.tech(tech_filter),)
    return _pick_optimistic(
        [best_response_fixed_tech(strat, tech, model) for tech in techs],
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
        assert br.response.a == 3
        assert sorted(calls) == [3, 4]

    def test_mid_range_tax_runs_one_fixed_tech_solve(self, model, monkeypatch):
        calls = _count_fixed_tech_solves(monkeypatch)
        strat = LeaderStrategy(tau=tuple(a / 2.0 for a in model.alpha))
        br = best_response(strat, model)
        assert calls == [4]
        assert br.response.a == 4
        assert br == full_enumeration(strat, model)

    def test_untagged_dominator_certifies_nothing(self, model, monkeypatch):
        calls = _count_fixed_tech_solves(monkeypatch, tagged=False)
        best_response(LeaderStrategy(tau=tuple(a / 2.0 for a in model.alpha)), model)
        assert sorted(calls) == [1, 2, 3, 4]

    def test_tech_filter_solves_one_technology(self, model, monkeypatch):
        calls = _count_fixed_tech_solves(monkeypatch)
        best_response(_prohibitive(model), model, tech_filter=2)
        assert calls == [2]


def _cost_steps(draw, n, tiny):
    """n nonnegative cost increments: zero, tiny (near the tie tolerance)
    or ordinary."""
    size = st.floats(0.0, 1e-6) if tiny else st.floats(0.0, 3.0)
    return [draw(st.one_of(st.just(0.0), size)) for _ in range(n)]


@st.composite
def _technology_tables(draw, rates=st.just(0.0)):
    """Tables of 2-5 convex technologies built from one base technology:
    each other one is the base made dearer (strict dominance, near ties
    included), an exact duplicate, or drawn afresh (undominated mixes).
    Taxes are drawn in the box, or prohibitive."""
    T = draw(st.integers(1, 5))
    M = draw(st.integers(1, 4))
    alpha = tuple(draw(st.floats(1.0, 100.0)) for _ in range(T))
    beta = tuple(draw(st.floats(0.05, 5.0)) for _ in range(T))
    amounts = tuple(draw(st.floats(0.5, 50.0)) for _ in range(M))

    def fresh():
        steps = [draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))) for _ in range(M)]
        slopes = tuple(itertools.accumulate(steps))
        return (draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 10.0)),
                draw(st.floats(0.0, 10.0)), slopes)

    base = fresh()
    costs = [base]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["dearer", "duplicate", "fresh"]))
        if kind == "fresh":
            costs.append(fresh())
        elif kind == "duplicate":
            costs.append(base)
        else:
            tiny = draw(st.booleans())
            extra = _cost_steps(draw, 4 + M, tiny)
            # one shift for all slopes plus a nondecreasing extra per stratum
            slopes = tuple(
                s + extra[3] + e
                for s, e in zip(base[3], itertools.accumulate(extra[4:]))
            )
            costs.append(tuple(c + e for c, e in zip(base[:3], extra[:3])) + (slopes,))
    order = draw(st.permutations(range(len(costs))))
    techs = tuple(
        TechParams(tech_id=i + 1, k=draw(st.floats(0.0, 10.0)), alpha_er=costs[j][0],
                   beta_er=costs[j][1], gamma_er=costs[j][2], slopes=costs[j][3])
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
    d = [model.discount(t) for t in range(1, model.T + 1)]
    for dom in model.dominance:
        a = best_response_fixed_tech(strat, dom.dominator, model)
        b = best_response_fixed_tech(strat, dom.tech, model)
        assert a.optimality_tag
        bound = _profit_gap_bound(a.response.q, dom, model, d)
        margin = CERT_MARGIN * max(1.0, abs(a.profit))
        assert max(bound, dom.fixed_gap * sum(d)) <= a.profit - b.profit + margin
