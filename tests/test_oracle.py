import dataclasses
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minetax import (
    EaConfig,
    ExtendedModel,
    LeaderStrategy,
    ObjectivePoint,
    StrataTable,
    TechParams,
    analytical_as_extended,
    cumulative_cost,
    evolve,
    follower_best_response,
    optimal_tax,
)
from minetax.oracle import (
    GridSpec,
    _grid_argmax_fixed_tech,
    grid_best_response,
    weighted_scalar_check,
)
from minetax import analytical
from minetax.verify import (
    FOC_WEIGHTS,
    check_oracle_equivalence,
    check_threshold,
    epsilon_indicator,
    frontier_metrics,
)


class TestGridSpec:
    def test_axis_includes_endpoints(self):
        g = GridSpec(lows=(0.0,), highs=(1.0,), step=0.25)
        assert g.axis(0) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_axis_stops_at_highs(self):
        # highs - lows is not a whole number of steps; 3 * 0.1 rounds to
        # 0.30000000000000004, past 0.3
        assert GridSpec(lows=(0.0,), highs=(38.0,), step=5.0).axis(0)[-1] == 35.0
        assert GridSpec(lows=(0.0,), highs=(0.3,), step=0.1).axis(0) == [0.0, 0.1, 0.2]

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(lows=(0.0,), highs=(1.0,), step=0.0)

    def test_unordered_bounds_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(lows=(2.0,), highs=(1.0,), step=0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(lows=(0.0, 0.0), highs=(1.0,), step=0.5)


class TestGridBestResponse:
    def test_single_period_interior_optimum(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(0.0,), highs=(20.0,), step=0.001)
        q, _ = _grid_argmax_fixed_tech((49.5,), model.techs[0], model, grid)
        assert q[0] == pytest.approx(12.375, abs=0.001)

    def test_single_period_choked(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(0.0,), highs=(20.0,), step=0.01)
        br = grid_best_response(LeaderStrategy(tau=(99.0,)), model, grid)
        assert br.response.q[0] == 0.0

    def test_single_point_grid(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(3.0,), highs=(3.0,), step=1.0)
        q, _ = _grid_argmax_fixed_tech((10.0,), model.techs[0], model, grid)
        assert q == (3.0,)

    def test_refinement_polishes_grid_winner(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(0.0,), highs=(20.0,), step=2.0)
        br = grid_best_response(LeaderStrategy(tau=(49.5,)), model, grid)
        assert br.response.q[0] == pytest.approx(12.375, abs=1e-4)
        assert br.optimality_tag

    def test_refinement_recentres_from_a_far_start(self, params):
        # a one-point grid at q = 0: the optimum 12.375 lies ten fine steps
        # above it, far outside the first window [0, 2]
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(0.0,), highs=(0.0,), step=2.0)
        br = grid_best_response(LeaderStrategy(tau=(49.5,)), model, grid)
        assert br.response.q[0] == pytest.approx(12.375, abs=1e-6)

    def test_evaluation_cap_enforced(self, model):
        grid = GridSpec(lows=(0.0,) * 5, highs=(90.0,) * 5, step=0.05)
        with pytest.raises(ValueError, match="DP steps"):
            grid_best_response(LeaderStrategy(tau=(0.0,) * 5), model, grid)

    def test_discounted_equivalence_within_budget(self, model):
        start = time.perf_counter()
        result = check_oracle_equivalence(
            dataclasses.replace(model, r=0.05), n_strategies=50
        )
        assert result.passed, result
        assert time.perf_counter() - start < 60.0

    def test_dimension_mismatch_rejected(self, model):
        grid = GridSpec(lows=(0.0,), highs=(10.0,), step=1.0)
        with pytest.raises(ValueError):
            grid_best_response(LeaderStrategy(tau=(0.0,) * 5), model, grid)

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_grid_stays_inside_extraction_caps(self, model, r):
        caps = (2.0, 3.0, 4.0, 5.0, 6.0)
        capped = dataclasses.replace(
            model, r=r, q_bounds=tuple((0.0, h) for h in caps)
        )
        wide = GridSpec(lows=(0.0,) * 5, highs=(90.0,) * 5, step=5.0)
        with pytest.raises(ValueError, match="extraction box"):
            grid_best_response(LeaderStrategy(tau=(0.0,) * 5), capped, wide)
        result = check_oracle_equivalence(capped, n_strategies=5)
        assert result.passed, result


def _enumerated_argmax(tau, tech, model, grid):
    """Reference for the grid DP: every schedule in lexicographic index
    order, profit summed period by period as the DP sums it, first maximum
    kept."""
    axes = [grid.axis(t) for t in range(model.T)]
    d = [model.discount(t) for t in range(1, model.T + 1)]
    w = [a - b for a, b in zip(d, d[1:] + [0.0])]
    best = None
    for idx in itertools.product(*(range(len(a)) for a in axes)):
        v = x = 0.0
        for t, j in enumerate(idx):
            q = axes[t][j]
            x += q
            lin = model.alpha[t] - tau[t] - tech.beta_er
            v += d[t] * (lin * q - (model.beta[t] + tech.alpha_er) * q * q)
            if t == model.T - 1:
                v -= sum(d) * tech.gamma_er
            if w[t] != 0.0:
                v -= w[t] * cumulative_cost(x, tech, model.strata)
        if best is None or v > best[0]:
            best = (v, idx)
    v, idx = best
    return tuple(axes[t][j] for t, j in enumerate(idx)), v


@st.composite
def _grid_instances(draw):
    T = draw(st.integers(1, 3))
    M = draw(st.integers(1, 3))
    alpha = tuple(draw(st.floats(1.0, 100.0)) for _ in range(T))
    beta = tuple(draw(st.floats(0.05, 5.0)) for _ in range(T))
    tech = TechParams(
        tech_id=1, k=1.0, alpha_er=draw(st.floats(0.0, 2.0)),
        beta_er=draw(st.floats(0.0, 10.0)), gamma_er=draw(st.floats(0.0, 10.0)),
        slopes=sorted(draw(st.floats(0.0, 20.0)) for _ in range(M)),
    )
    model = ExtendedModel(
        T=T, alpha=alpha, beta=beta, techs=(tech,),
        strata=StrataTable(amounts=tuple(
            draw(st.floats(0.5, 20.0)) for _ in range(M)
        )),
        r=draw(st.just(0.0) | st.floats(0.01, 0.5)),
    )
    step = 2.0 ** draw(st.integers(-2, 3))
    lows = tuple(0.25 * draw(st.integers(0, 40)) for _ in range(T))
    highs = tuple(lo + step * draw(st.integers(0, 5)) for lo in lows)
    tau = tuple(draw(st.floats(0.0, a)) for a in alpha)
    return tau, tech, model, GridSpec(lows=lows, highs=highs, step=step)


class TestGridDynamicProgram:
    """The DP against the full enumeration: same float, same grid point."""

    @given(instance=_grid_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, instance):
        assert _grid_argmax_fixed_tech(*instance) == _enumerated_argmax(*instance)

    def test_exact_tie_goes_to_the_first_schedule(self):
        # two identical periods, profit 9 q - q^2 each after the linear
        # cost: q = 4 and q = 5 tie exactly, so four schedules share the
        # maximum 40 and only the tie rule picks one
        tech = TechParams(tech_id=1, k=1.0, alpha_er=0.0, beta_er=0.0,
                          gamma_er=0.0, slopes=(1.0,))
        model = ExtendedModel(
            T=2, alpha=(10.0, 10.0), beta=(1.0, 1.0), techs=(tech,),
            strata=StrataTable(amounts=(100.0,)),
        )
        grid = GridSpec(lows=(0.0, 0.0), highs=(8.0, 8.0), step=1.0)
        q, v = _grid_argmax_fixed_tech((0.0, 0.0), tech, model, grid)
        assert (q, v) == _enumerated_argmax((0.0, 0.0), tech, model, grid)
        assert q == (4.0, 4.0)


class TestWeightedScalarCheck:
    def test_full_revenue_weight(self, params):
        grid = GridSpec(lows=(0.0,), highs=(99.0,), step=0.001)
        ((tau, value),) = weighted_scalar_check(params, [1.0], grid)
        assert tau == pytest.approx(49.5, abs=0.001)
        assert value == pytest.approx(612.5625, abs=0.01)

    def test_matches_closed_form_across_weights(self, params):
        grid = GridSpec(lows=(0.0,), highs=(99.0,), step=0.001)
        results = weighted_scalar_check(params, FOC_WEIGHTS, grid)
        assert len(results) == len(FOC_WEIGHTS)
        for w, (tau, value) in zip(FOC_WEIGHTS, results):
            tau_star = optimal_tax(w, params)
            q_star = follower_best_response(tau_star, params)
            best = w * tau_star * q_star - (1.0 - w) * params.k * q_star
            assert tau == pytest.approx(tau_star, abs=0.001)
            assert value == pytest.approx(best, abs=1e-5)
            assert value <= best + 1e-12

    def test_threshold_weight_prefers_shutdown(self, params):
        grid = GridSpec(lows=(0.0,), highs=(110.0,), step=0.01)
        ((_, value),) = weighted_scalar_check(params, [0.01], grid)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_invalid_weight_rejected(self, params):
        grid = GridSpec(lows=(0.0,), highs=(99.0,), step=1.0)
        with pytest.raises(ValueError):
            weighted_scalar_check(params, [0.5, 0.0], grid)
        with pytest.raises(ValueError):
            weighted_scalar_check(params, [1.5], grid)


class TestEpsilonIndicator:
    """epsilon_indicator(approx, reference) is the normalised shift that
    makes `approx` weakly dominate every reference point (revenue up,
    damage down)."""

    APPROX = [(10.0, 2.0), (4.0, 1.0)]

    def _eps(self, approx, reference):
        return epsilon_indicator(approx, reference, rev_scale=10.0, dam_scale=4.0)

    def test_zero_when_approx_covers_reference(self):
        assert self._eps(self.APPROX, self.APPROX) == 0.0
        assert self._eps(self.APPROX, [(10.0, 2.0), (3.0, 1.5)]) == 0.0

    def test_revenue_shortfall(self):
        assert self._eps(self.APPROX, [(12.0, 2.0)]) == pytest.approx(0.2)

    def test_damage_shortfall(self):
        assert self._eps(self.APPROX, [(4.0, 0.5)]) == pytest.approx(0.125)

    def test_direction(self):
        worse, better = [(10.0, 2.0)], [(12.0, 1.0)]
        assert self._eps(worse, better) == pytest.approx(0.25)
        assert self._eps(better, worse) == pytest.approx(-0.2)


def frontier_distance_by_definition(entries, p, n_curve=4001):
    """The distance frontier_metrics reports, as defined: the largest, over
    archive points, of the least normalized distance to any of the n_curve
    samples of the closed-form frontier. Every sample is visited."""
    q_top = analytical.optimal_extraction(1.0, p)
    step = q_top / (n_curve - 1)
    curve_q = [i * step for i in range(n_curve - 1)] + [q_top]
    revenues = [(p.alpha - p.gamma - 2.0 * (p.beta + p.delta) * q) * q for q in curve_q]
    damages = [p.k * q for q in curve_q]
    rev_range = max(revenues) - min(revenues)
    dam_scale = (max(damages) - min(damages)) or 1.0

    def distance(e, r, d):
        dr = (e.objectives.revenue - r) / rev_range
        dd = (e.objectives.damage - d) / dam_scale
        return math.sqrt(dr * dr + dd * dd)

    curve = list(zip(revenues, damages))
    return max(min(distance(e, r, d) for r, d in curve) for e in entries)


class TestFrontierMetrics:
    """The pruned nearest-sample scan of frontier_metrics gives the float of
    the min over every sample, bit for bit."""

    @pytest.mark.parametrize("k", [1.0, 0.0])
    def test_quick_archive(self, params, k):
        p = dataclasses.replace(params, k=k)
        config = EaConfig(population_size=24, max_generations=40, seed=1)
        entries = evolve(analytical_as_extended(p), config).archive.entries
        dist, _ = frontier_metrics(entries, p)
        assert dist.hex() == frontier_distance_by_definition(entries, p).hex()

    @pytest.mark.parametrize("k", [1.0, 0.0])
    def test_points_off_the_frontier(self, params, k):
        # points around and beyond both ends of the curve's damage range
        p = dataclasses.replace(params, k=k)
        rng = random.Random(5)
        entries = [
            SimpleNamespace(objectives=ObjectivePoint(
                revenue=1000.0 * rng.random() - 200.0,
                damage=25.0 * rng.random() - 5.0,
                profit=0.0,
            ))
            for _ in range(60)
        ]
        dist, _ = frontier_metrics(entries, p)
        assert dist.hex() == frontier_distance_by_definition(entries, p).hex()


class TestThresholdCheck:
    """The check tests the defining property of w_min, so it needs no
    expected value and catches a threshold off in either direction."""

    def test_zero_threshold_without_damage(self, params):
        assert check_threshold(dataclasses.replace(params, k=0.0)).passed

    @pytest.mark.parametrize("shift", [-1e-6, 1e-6])
    def test_misplaced_threshold_fails(self, params, monkeypatch, shift):
        w_min = analytical.feasibility_threshold(params)
        monkeypatch.setattr(
            analytical, "feasibility_threshold", lambda p: w_min + shift
        )
        assert not check_threshold(params).passed
