import json
import math
import re

import pytest
from follower_reference import (
    answer,
    cumulative_cost_walk,
    extraction_rate_cost,
    follower_total_profit,
    period_profits,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from leader_reference import generator_leader_objectives

from minetax import (
    ExtendedModel,
    LeaderStrategy,
    StrataTable,
    TechParams,
    analytical_as_extended,
    cumulative_cost,
    leader_objectives,
)
from minetax.analytical import follower_best_response, follower_profit
from minetax.model import config_from_dict, load_config, replace


schedules = st.lists(
    st.floats(0.0, 80.0, allow_nan=False), min_size=5, max_size=5
)


class TestValidation:
    def test_analytical_requires_profitable_extraction(self, params):
        with pytest.raises(ValueError):
            replace(params, alpha=1.0, gamma=2.0)

    def test_analytical_rejects_nonpositive_beta(self, params):
        with pytest.raises(ValueError):
            replace(params, beta=0.0)

    def test_tech_rejects_negative_slope(self):
        for slopes in ((1.0, -0.5), (3.0, 2.0)):
            with pytest.raises(ValueError):
                TechParams(tech_id=1, k=1, alpha_er=1, beta_er=1, gamma_er=0,
                           slopes=slopes)

    def test_strata_breakpoints_are_prefix_sums(self):
        s = StrataTable(amounts=(20, 20, 20))
        assert s.breakpoints == (20.0, 40.0, 60.0)
        assert s.stock == 60.0
        assert s.active_stratum(0.0) == 1
        assert s.active_stratum(20.0) == 1
        assert s.active_stratum(20.5) == 2
        assert s.active_stratum(999.0) == 3

    def test_negative_tax_rejected(self):
        with pytest.raises(ValueError):
            LeaderStrategy(tau=(-0.1,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_nonfinite_or_negative_schedules_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^taxes tau must be finite"):
            LeaderStrategy(tau=(1.0, bad))

    def test_signed_zero_and_integers_accepted(self):
        strat = LeaderStrategy(tau=(-0.0, 2))
        assert strat.tau == (0.0, 2.0)
        assert math.copysign(1.0, strat.tau[0]) == -1.0
        assert type(strat.tau[1]) is float


class TestCumulativeCost:
    def test_zero_extraction_costs_nothing(self, model):
        for tech in model.techs:
            assert cumulative_cost(0.0, tech, model.strata) == 0.0

    def test_two_strata(self, model):
        assert cumulative_cost(40.0, model.tech(1), model.strata) == pytest.approx(
            50.0, abs=1e-12
        )

    def test_partial_third_stratum(self, model):
        assert cumulative_cost(50.0, model.tech(1), model.strata) == pytest.approx(
            72.5, abs=1e-12
        )

    def test_extends_past_last_breakpoint_at_last_slope(self, model):
        tech = model.tech(2)
        at_stock = cumulative_cost(100.0, tech, model.strata)
        assert cumulative_cost(110.0, tech, model.strata) == pytest.approx(
            at_stock + 10.0 * tech.slopes[-1], abs=1e-9
        )

    def test_negative_input_rejected(self, model):
        with pytest.raises(ValueError):
            cumulative_cost(-1.0, model.tech(1), model.strata)

    @given(x=st.floats(0, 150), y=st.floats(0, 150))
    @settings(max_examples=200)
    def test_midpoint_convexity(self, model, x, y):
        for tech in model.techs:
            mid = cumulative_cost((x + y) / 2.0, tech, model.strata)
            avg = 0.5 * (
                cumulative_cost(x, tech, model.strata)
                + cumulative_cost(y, tech, model.strata)
            )
            assert mid <= avg + 1e-9

    def test_table_slopes_nondecreasing(self, model):
        for tech in model.techs:
            assert list(tech.slopes) == sorted(tech.slopes)

    @given(data=st.data(), m=st.integers(1, 6))
    @settings(max_examples=200)
    def test_costs_at_the_stratum_starts_match_the_walk(self, data, m):
        # the cost curve gives the walk's float, sign of zero included, at
        # 0, -0.0, on and beside each breakpoint, between breakpoints and
        # past the last one
        slopes = sorted(data.draw(st.lists(
            st.one_of(st.just(-0.0), st.floats(0.0, 1e3)), min_size=m, max_size=m
        )))
        amounts = data.draw(st.lists(
            st.floats(0.0, 1e3, exclude_min=True), min_size=m, max_size=m
        ))
        tech = TechParams(tech_id=1, k=1.0, alpha_er=0.0, beta_er=0.0,
                          gamma_er=0.0, slopes=slopes)
        strata = StrataTable(amounts=amounts)
        cost = strata.cost_curve(tech.slopes)
        bps = strata.breakpoints
        points = [0.0, -0.0, 2.0 * bps[-1] + 1.0]
        for lo, b in zip((0.0,) + bps, bps):
            points += [b, math.nextafter(b, 0.0), math.nextafter(b, math.inf),
                       0.5 * (lo + b)]
        points += data.draw(st.lists(st.floats(0.0, 3.0 * bps[-1]), max_size=5))
        for x in points:
            got = cost(x)
            want = cumulative_cost_walk(x, tech.slopes, bps)
            assert got == want
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_costs_are_keyed_by_the_slopes(self, model):
        # one curve per slope vector: a technology with equal slopes shares
        # it, and one outside the table with a table technology's id gets
        # its own, also after the table's curve was built
        strata = model.strata
        tech = model.tech(4)
        cost = strata.cost_curve(tech.slopes)
        assert strata.cost_curve(tech.slopes) is cost
        twin = replace(tech, tech_id=99, alpha_er=tech.alpha_er + 1.0)
        assert strata.cost_curve(twin.slopes) is cost
        steeper = replace(tech, slopes=tuple(2.0 * s for s in tech.slopes))
        steep = strata.cost_curve(steeper.slopes)
        assert steep is not cost
        for x in (0.0, 20.0, 50.0, 150.0):
            assert steep(x) == cumulative_cost_walk(
                x, steeper.slopes, strata.breakpoints
            )
        assert steep(50.0) == 2.0 * cost(50.0)

    def test_one_slope_per_stratum(self, model):
        with pytest.raises(ValueError, match="one slope per stratum"):
            model.strata.cost_curve((1.0, 2.0))


def _tech(tech_id, alpha_er=0.3, beta_er=2.0, gamma_er=5.0, slopes=(1.0, 2.0)):
    return TechParams(tech_id=tech_id, k=1.0, alpha_er=alpha_er,
                      beta_er=beta_er, gamma_er=gamma_er, slopes=slopes)


def _table(*techs):
    return ExtendedModel(T=1, alpha=(50.0,), beta=(0.1,), techs=techs,
                         strata=StrataTable(amounts=(20.0, 20.0)))


class TestTechnologyDominance:
    def test_bundled_table(self, model):
        # technology 4 is no dearer than any other in every coefficient
        assert model.dominated_technologies == {1: 4, 2: 4, 3: 4}
        # gamma_er gaps; beta_er gaps plus the least slope gaps
        assert [d.fixed_gap for d in model.dominance] == [5.0, 3.0, 0.0]
        assert [d.unit_gap for d in model.dominance] == pytest.approx(
            [3.0 + 0.4, 2.0 + 0.4, 2.0 + 0.2]
        )

    def test_lookups_computed_once_per_model(self, model):
        assert model.undominated == (model.techs[3],)
        assert model.undominated is model.undominated
        assert [model.tech(i) for i in (4, 1)] == [model.techs[3], model.techs[0]]
        tradeoff = _table(_tech(1, beta_er=1.0, gamma_er=6.0), _tech(2, gamma_er=7.0),
                          _tech(3, beta_er=3.0, gamma_er=4.0))
        assert [t.tech_id for t in tradeoff.undominated] == [1, 3]

    def test_unknown_id_raises_key_error_naming_it(self, model):
        with pytest.raises(KeyError, match="^'unknown technology id 7'$"):
            model.tech(7)

    def test_analytical_embedding_has_none(self, params):
        assert analytical_as_extended(params).dominated_technologies == {}

    def test_duplicates_dominate_neither_way(self):
        assert _table(_tech(1), _tech(2)).dominated_technologies == {}

    def test_tradeoff_dominates_neither_way(self):
        cheap_rate = _tech(1, beta_er=1.0, gamma_er=6.0)
        cheap_fixed = _tech(2, beta_er=3.0, gamma_er=4.0)
        assert _table(cheap_rate, cheap_fixed).dominated_technologies == {}

    def test_one_cheaper_coefficient_suffices(self):
        assert _table(_tech(1, slopes=(1.0, 2.5)), _tech(2)).dominated_technologies == {1: 2}

    def test_chain_maps_to_the_undominated_end(self):
        table = _table(_tech(1, gamma_er=7.0), _tech(2, gamma_er=6.0), _tech(3))
        assert table.dominated_technologies == {1: 3, 2: 3}

    def test_first_undominated_dominator_in_table_order(self):
        table = _table(_tech(1, gamma_er=9.0, beta_er=9.0),
                       _tech(2, beta_er=1.0, gamma_er=6.0),
                       _tech(3, beta_er=3.0, gamma_er=4.0))
        assert table.dominated_technologies == {1: 2}

    def test_nonconvex_slopes_detected(self):
        _tech(1, slopes=(1.0, 1.0))
        with pytest.raises(
            ValueError, match="^technology 2: stratum slopes must be nondecreasing$"
        ):
            _tech(2, slopes=(3.0, 2.0))


class TestExtractionRateCost:
    def test_direct_substitution(self, model):
        assert extraction_rate_cost(10.0, model.tech(2)) == pytest.approx(88.0)

    def test_fixed_cost_at_zero_extraction(self, model):
        assert extraction_rate_cost(0.0, model.tech(1)) == pytest.approx(10.0)

    def test_zero_everything(self):
        tech = TechParams(tech_id=9, k=1, alpha_er=1, beta_er=1, gamma_er=0,
                          slopes=(1.0,))
        assert extraction_rate_cost(0.0, tech) == 0.0

    def test_negative_rejected(self, model):
        with pytest.raises(ValueError):
            extraction_rate_cost(-1.0, model.tech(1))


class TestPeriodProfit:
    def test_untaxed_third_period(self, model):
        q = (0.0, 0.0, 10.0, 0.0, 0.0)
        pi = period_profits(q, (0.0,) * 5, model.tech(1), model)[2]
        assert pi == pytest.approx(470.0, abs=1e-9)

    def test_idle_period_pays_fixed_cost(self, model):
        pi = period_profits((0.0,) * 5, (12.3,) * 5, model.tech(1), model)[0]
        assert pi == pytest.approx(-10.0, abs=1e-12)

    def test_idle_period_free_without_fixed_cost(self, model):
        tech = TechParams(tech_id=9, k=1, alpha_er=0.5, beta_er=5, gamma_er=0,
                          slopes=model.tech(1).slopes)
        q = (3.0, 0.0, 0.0, 0.0, 0.0)
        assert period_profits(q, (1.0,) * 5, tech, model)[1] == pytest.approx(
            0.0, abs=1e-12
        )

    @given(
        q=schedules, tau=schedules, tech_id=st.integers(1, 4),
        r=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=100)
    def test_equals_period_by_period_reference(self, model, q, tau, tech_id, r):
        model = replace(model, r=r)
        tech = model.tech(tech_id)

        def reference(t):
            # period t's profit from its own prefix of the schedule
            q_t, cum = q[t - 1], sum(q[:t])
            revenue = (model.alpha[t - 1] - model.beta[t - 1] * q_t) * q_t
            ep = cumulative_cost(cum, tech, model.strata) - cumulative_cost(
                cum - q_t, tech, model.strata
            )
            return revenue - extraction_rate_cost(q_t, tech) - ep - tau[t - 1] * q_t

        periods = range(1, model.T + 1)
        assert period_profits(q, tau, tech, model) == [reference(t) for t in periods]
        # the discounted sum as `follower_total_profit` takes it, period by
        # period
        total = 0.0
        for d, t in zip(model.discount_factors, periods):
            total += d * reference(t)
        assert follower_total_profit(
            answer(q=q, a=tech_id), LeaderStrategy(tau=tau), model
        ) == total

    def test_one_pass_checks_the_schedule(self, model):
        tech = model.tech(1)
        with pytest.raises(ValueError, match="horizon"):
            period_profits((1.0,) * 4, (0.0,) * 5, tech, model)
        with pytest.raises(ValueError, match="horizon"):
            period_profits((1.0,) * 5, (0.0,) * 6, tech, model)
        with pytest.raises(ValueError, match="nonnegative"):
            period_profits((1.0, -1.0, 0.0, 0.0, 0.0), (0.0,) * 5, tech, model)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    """Every checked evaluation function rejects NaN and both infinities,
    and takes -0.0 as 0."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_period_profits(self, model, bad):
        tech = model.tech(4)
        with pytest.raises(ValueError, match="^extraction q must be finite"):
            period_profits((bad, 1, 1, 1, 1), (1,) * 5, tech, model)
        with pytest.raises(ValueError, match="^taxes tau must be finite"):
            period_profits((1,) * 5, (bad, 1, 1, 1, 1), tech, model)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_costs_and_stratum(self, model, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cumulative_cost(bad, model.tech(1), model.strata)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            model.strata.active_stratum(bad)

    def test_negative_zero_is_zero(self, model):
        tech = model.tech(1)
        assert cumulative_cost(-0.0, tech, model.strata) == 0.0
        assert model.strata.active_stratum(-0.0) == 1
        zero = (0.0,) * 5
        assert period_profits((-0.0,) * 5, (-0.0,) * 5, tech, model) == (
            period_profits(zero, zero, tech, model)
        )


class TestTotalProfit:
    def test_all_idle(self, model):
        resp = answer(q=(0.0,) * 5, a=1)
        strat = LeaderStrategy(tau=(3.0,) * 5)
        assert follower_total_profit(resp, strat, model) == pytest.approx(-50.0)

    def test_flat_schedule_untaxed(self, model):
        resp = answer(q=(10.0,) * 5, a=1)
        strat = LeaderStrategy(tau=(0.0,) * 5)
        assert follower_total_profit(resp, strat, model) == pytest.approx(
            2327.5, abs=1e-9
        )

    def test_length_mismatch(self, model):
        with pytest.raises(ValueError):
            follower_total_profit(
                answer(q=(1.0,) * 4, a=1),
                LeaderStrategy(tau=(0.0,) * 5),
                model,
            )

    @given(q=schedules)
    @settings(max_examples=100)
    def test_telescoping_of_cost_increments(self, model, q):
        # per-period increments of C must sum exactly to C(total)
        for tech in model.techs:
            total_inc = 0.0
            cum = 0.0
            for x in q:
                total_inc += cumulative_cost(
                    cum + x, tech, model.strata
                ) - cumulative_cost(cum, tech, model.strata)
                cum += x
            assert total_inc == pytest.approx(
                cumulative_cost(cum, tech, model.strata), abs=1e-9
            )

    @given(q1=schedules, q2=schedules, lam=st.floats(0.05, 0.95))
    @settings(max_examples=100)
    def test_profit_concave_in_schedule(self, model, q1, q2, lam):
        strat = LeaderStrategy(tau=(7.0,) * 5)
        mix = tuple(lam * a + (1 - lam) * b for a, b in zip(q1, q2))
        for tech in model.techs:
            f = lambda q: follower_total_profit(
                answer(q=tuple(q), a=tech.tech_id), strat, model
            )
            gap = f(mix) - (lam * f(q1) + (1 - lam) * f(q2))
            assert gap >= -1e-9
            if max(abs(a - b) for a, b in zip(q1, q2)) > 1.0:
                assert gap > 0.0


class TestLeaderObjectives:
    def test_flat_schedule(self, model):
        resp = answer(q=(10.0,) * 5, a=1)
        strat = LeaderStrategy(tau=(5.0,) * 5)
        assert leader_objectives(resp, strat, model) == pytest.approx((250.0, 150.0))

    def test_unknown_technology_id(self, model):
        resp = answer(q=(10.0,) * 5, a=9)
        with pytest.raises(KeyError) as e:
            leader_objectives(resp, LeaderStrategy(tau=(5.0,) * 5), model)
        assert e.value.args == ("unknown technology id 9",)

    def test_idle_mine(self, model):
        obj = leader_objectives(
            answer(q=(0.0,) * 5, a=2),
            LeaderStrategy(tau=(9.0,) * 5),
            model,
        )
        assert obj == (0.0, 0.0)

    def test_dirtiest_technology(self, model):
        _, damage = leader_objectives(
            answer(q=(10.0,) * 5, a=4),
            LeaderStrategy(tau=(5.0,) * 5),
            model,
        )
        assert damage == pytest.approx(500.0)

    @given(q=schedules, c=st.floats(0.0, 3.0))
    @settings(max_examples=50)
    def test_damage_scales_linearly(self, model, q, c):
        strat = LeaderStrategy(tau=(1.0,) * 5)
        _, base = leader_objectives(answer(q=tuple(q), a=2), strat, model)
        _, scaled = leader_objectives(
            answer(q=tuple(c * x for x in q), a=2), strat, model
        )
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)

    @given(q=schedules, c=st.floats(0.0, 3.0))
    @settings(max_examples=50)
    def test_revenue_linear_in_taxes(self, model, q, c):
        resp = answer(q=tuple(q), a=1)
        tau = (4.0, 3.0, 2.0, 1.0, 5.0)
        base, _ = leader_objectives(resp, LeaderStrategy(tau=tau), model)
        scaled, _ = leader_objectives(
            resp, LeaderStrategy(tau=tuple(c * t for t in tau)), model
        )
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-9)

    @given(
        q=schedules, tau=schedules, tech_id=st.integers(1, 4),
        r=st.sampled_from([0.0, 0.05, 0.37]),
    )
    @settings(max_examples=200)
    def test_equals_the_generator_form(self, model, q, tau, tech_id, r):
        model = replace(model, r=r)
        resp, strat = answer(q=tuple(q), a=tech_id), LeaderStrategy(tau=tau)
        # the same products, summed in the same order: equal to the bit
        assert leader_objectives(resp, strat, model) == (
            generator_leader_objectives(resp, strat, model)
        )

    @pytest.mark.parametrize("short", ["q", "tau"])
    def test_short_schedule_rejected(self, model, short):
        q = (10.0,) * (4 if short == "q" else 5)
        tau = (5.0,) * (4 if short == "tau" else 5)
        with pytest.raises(ValueError, match="^schedule lengths must equal the"):
            leader_objectives(answer(q=q, a=1), LeaderStrategy(tau=tau), model)


class TestDiscounting:
    def test_positive_rate_discounts_late_periods(self, model):
        from minetax.model import ExtendedModel

        discounted = ExtendedModel(
            T=model.T,
            alpha=model.alpha,
            beta=model.beta,
            techs=model.techs,
            strata=model.strata,
            r=0.05,
        )
        resp = answer(q=(10.0,) * 5, a=1)
        strat = LeaderStrategy(tau=(5.0,) * 5)
        revenue0, damage0 = leader_objectives(resp, strat, model)
        revenue, damage = leader_objectives(resp, strat, discounted)
        assert revenue < revenue0
        # damage is physical, never discounted
        assert damage == damage0

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.37])
    def test_cached_factors_equal_discount(self, model, r):
        discounted = ExtendedModel(
            T=model.T, alpha=model.alpha, beta=model.beta,
            techs=model.techs, strata=model.strata, r=r,
        )
        d = tuple((1.0 + r) ** (-(t - 1)) for t in range(1, model.T + 1))
        assert discounted.discount_factors == d
        assert discounted.cost_weights == tuple(
            a - b for a, b in zip(d, d[1:] + (0.0,))
        )

    def test_rate_that_underflows_the_last_factor_rejected(self, model):
        # (1 + 1e100)^-4 rounds to 0.0, which every follower solver divides by
        with pytest.raises(
            ValueError, match=r"^discount rate r = 1e\+100 .* horizon T = 5: "
        ):
            replace(model, r=1e100)
        # (1 + 1e80)^-4 is subnormal but positive, and at T = 1 the only
        # factor is d_1 = 1 whatever r
        assert replace(model, r=1e80).discount_factors[-1] > 0.0
        one_period = replace(
            model, T=1, alpha=model.alpha[:1], beta=model.beta[:1],
            tau_bounds=None, q_bounds=None, r=1e300,
        )
        assert one_period.discount_factors == (1.0,)


class TestReplace:
    def test_checks_run_again(self, model):
        with pytest.raises(ValueError, match="is too large for horizon"):
            replace(model, r=1e100)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            replace(LeaderStrategy((1.0,)), tau=(math.nan,))

    def test_cached_properties_start_empty(self, model):
        assert model.discount_factors == (1.0,) * model.T
        assert model.dominance
        discounted = replace(model, r=0.05)
        assert discounted.discount_factors != model.discount_factors
        assert discounted.discount_factors == tuple(
            (1.0 + 0.05) ** (-(t - 1)) for t in range(1, model.T + 1)
        )
        assert replace(model, techs=(model.tech(2),)).dominance == ()


class TestEmbedding:
    def test_embedded_profit_matches_analytical(self, params):
        # the fixed cost phi is the embedded technology's gamma_er
        for p in (params, replace(params, phi=5.0)):
            emb = analytical_as_extended(p)
            for tau in (0.0, 20.0, 49.5, 80.0):
                for q in (0.0, 5.0, 12.375, 30.0):
                    got = follower_total_profit(
                        answer(q=(q,), a=1),
                        LeaderStrategy(tau=(tau,)),
                        emb,
                    )
                    assert got == pytest.approx(
                        follower_profit(q, tau, p), abs=1e-9
                    )


class TestConfig:
    def test_default_reproduces_published_parameters(self, params, model):
        assert (params.alpha, params.beta, params.delta, params.gamma) == (
            100.0, 1.0, 1.0, 1.0,
        )
        assert params.phi == 0.0 and params.k == 1.0
        assert model.T == 5
        assert model.alpha == (50.0, 55.0, 60.0, 65.0, 70.0)
        assert model.beta == (0.1,) * 5
        assert model.r == 0.0
        assert model.strata.amounts == (20.0,) * 5
        assert model.strata.stock == 100.0
        t1 = model.tech(1)
        assert (t1.k, t1.alpha_er, t1.beta_er, t1.gamma_er) == (3.0, 0.5, 5.0, 10.0)
        assert t1.slopes == (1.0, 1.5, 2.25, 3.375, 5.063)
        assert model.tech(4).k == 10.0

    def test_round_trip_through_file(self, tmp_path, model):
        doc = {
            "analytical": {"alpha": 50, "beta": 2, "delta": 1, "gamma": 3, "k": 2},
            "extended": {
                "T": 2,
                "alpha": [10, 11],
                "beta": [0.5, 0.5],
                "strata": [5, 5],
                "technologies": [
                    {"tech_id": 1, "k": 1, "alpha_er": 0.1, "beta_er": 0.2,
                     "gamma_er": 0.3, "slopes": [1, 2]}
                ],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(str(path))
        assert cfg.analytical.alpha == 50.0
        assert cfg.extended.T == 2
        assert cfg.extended.tech(1).slopes == (1.0, 2.0)
        # default bounds derive from the price parameters
        assert cfg.extended.tau_bounds == ((0.0, 10.0), (0.0, 11.0))
        assert cfg.extended.q_bounds == ((0.0, 10.0), (0.0, 11.0))

    def test_missing_field_named_in_error(self):
        with pytest.raises(ValueError, match="delta"):
            config_from_dict({"analytical": {"alpha": 1, "beta": 1, "k": 1}})

    @pytest.mark.parametrize(
        "field, pair", [("tau_bounds", [0, 1, 2]), ("q_bounds", [0])],
        ids=["triple-tau-bound", "single-q-bound"],
    )
    def test_bound_pair_of_wrong_length_named_in_error(self, field, pair):
        doc = {"T": 2, "alpha": [10, 11], "beta": [0.5, 0.5], "strata": [5],
               "technologies": [{"tech_id": 1, "k": 1, "alpha_er": 0.1,
                                 "beta_er": 0.2, "gamma_er": 0.3, "slopes": [1]}],
               field: [[0, 10], pair]}
        message = f"extended config: {field}[1] must be a [low, high] pair"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({"extended": doc})
