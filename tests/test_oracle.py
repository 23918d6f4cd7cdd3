import dataclasses
import time

import pytest

from minetax import (
    LeaderStrategy,
    analytical_as_extended,
    follower_best_response,
    optimal_tax,
)
from minetax.oracle import (
    EVALUATION_CAP,
    GridSpec,
    grid_best_response,
    weighted_scalar_check,
)
from minetax import analytical
from minetax.verify import (
    FOC_WEIGHTS,
    check_oracle_equivalence,
    check_threshold,
    epsilon_indicator,
)


class TestGridSpec:
    def test_axis_includes_endpoints(self):
        g = GridSpec(lows=(0.0,), highs=(1.0,), step=0.25)
        assert list(g.axis(0)) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert g.size == 5

    def test_size_multiplies_axes(self):
        g = GridSpec(lows=(0.0, 0.0), highs=(1.0, 2.0), step=1.0)
        assert g.size == 6

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
        br = grid_best_response(
            LeaderStrategy(tau=(49.5,)), model, grid, refine_sweeps=0
        )
        assert br.response.q[0] == pytest.approx(12.375, abs=0.001)
        assert not br.optimality_tag

    def test_single_period_choked(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(0.0,), highs=(20.0,), step=0.01)
        br = grid_best_response(LeaderStrategy(tau=(99.0,)), model, grid)
        assert br.response.q[0] == 0.0

    def test_single_point_grid(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(3.0,), highs=(3.0,), step=1.0)
        br = grid_best_response(
            LeaderStrategy(tau=(10.0,)), model, grid, refine_sweeps=0
        )
        assert br.response.q == (3.0,)

    def test_refinement_polishes_grid_winner(self, params):
        model = analytical_as_extended(params)
        grid = GridSpec(lows=(0.0,), highs=(20.0,), step=2.0)
        br = grid_best_response(
            LeaderStrategy(tau=(49.5,)), model, grid, refine_sweeps=50
        )
        assert br.response.q[0] == pytest.approx(12.375, abs=1e-4)
        assert br.optimality_tag

    def test_evaluation_cap_enforced(self, model):
        grid = GridSpec(lows=(0.0,) * 5, highs=(90.0,) * 5, step=0.05)
        assert grid.size * len(model.techs) > EVALUATION_CAP
        with pytest.raises(ValueError):
            grid_best_response(LeaderStrategy(tau=(0.0,) * 5), model, grid)

    def test_discounted_equivalence_within_budget(self, model):
        # the r > 0 grid is vectorised like the r = 0 one: about 4 s here
        # on 2 cores, where a per-point loop took about 25 minutes
        start = time.perf_counter()
        result = check_oracle_equivalence(
            dataclasses.replace(model, r=0.05), n_strategies=5
        )
        assert result.passed, result
        assert time.perf_counter() - start < 60.0

    def test_dimension_mismatch_rejected(self, model):
        grid = GridSpec(lows=(0.0,), highs=(10.0,), step=1.0)
        with pytest.raises(ValueError):
            grid_best_response(LeaderStrategy(tau=(0.0,) * 5), model, grid)


class TestWeightedScalarCheck:
    def test_full_revenue_weight(self, params):
        grid = GridSpec(lows=(0.0,), highs=(99.0,), step=0.001)
        tau, value = weighted_scalar_check(params, 1.0, grid)
        assert tau == pytest.approx(49.5, abs=0.001)
        assert value == pytest.approx(612.5625, abs=0.01)

    def test_matches_closed_form_across_weights(self, params):
        grid = GridSpec(lows=(0.0,), highs=(99.0,), step=0.001)
        for w in FOC_WEIGHTS:
            tau, value = weighted_scalar_check(params, w, grid)
            tau_star = optimal_tax(w, params)
            q_star = follower_best_response(tau_star, params)
            best = w * tau_star * q_star - (1.0 - w) * params.k * q_star
            assert tau == pytest.approx(tau_star, abs=0.001)
            assert value == pytest.approx(best, abs=1e-5)
            assert value <= best + 1e-12

    def test_threshold_weight_prefers_shutdown(self, params):
        grid = GridSpec(lows=(0.0,), highs=(110.0,), step=0.01)
        _, value = weighted_scalar_check(params, 0.01, grid)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_invalid_weight_rejected(self, params):
        grid = GridSpec(lows=(0.0,), highs=(99.0,), step=1.0)
        with pytest.raises(ValueError):
            weighted_scalar_check(params, 0.0, grid)
        with pytest.raises(ValueError):
            weighted_scalar_check(params, 1.5, grid)


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
