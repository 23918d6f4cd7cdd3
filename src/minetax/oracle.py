"""Brute-force grid verifiers. Test/verification support only; the solver
modules never call into this code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lower import BestResponse, _pick_optimistic, coordinate_ascent
from .model import (
    AnalyticalParams,
    ExtendedModel,
    FollowerResponse,
    LeaderStrategy,
    StrataTable,
    TechParams,
    follower_total_profit,
)

EVALUATION_CAP = 10**8


@dataclass(frozen=True)
class GridSpec:
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        if any(lo > hi for lo, hi in zip(self.lows, self.highs)):
            raise ValueError("grid bounds must be ordered")

    def axis(self, i: int) -> np.ndarray:
        return np.arange(self.lows[i], self.highs[i] + self.step / 2.0, self.step)

    @property
    def size(self) -> int:
        n = 1
        for i in range(len(self.lows)):
            n *= len(self.axis(i))
        return n


def _cumulative_cost_vec(
    x: np.ndarray, tech: TechParams, strata: StrataTable
) -> np.ndarray:
    cost = np.zeros_like(x)
    prev = 0.0
    for slope, amount in zip(tech.slopes, strata.amounts):
        cost += slope * np.clip(x - prev, 0.0, amount)
        prev += amount
    cost += tech.slopes[-1] * np.maximum(x - prev, 0.0)
    return cost


def _grid_argmax_fixed_tech(
    tau: tuple[float, ...],
    tech: TechParams,
    model: ExtendedModel,
    grid: GridSpec,
) -> tuple[tuple[float, ...], float]:
    """Exhaustive argmax of total profit over the extraction grid."""
    axes = [grid.axis(i) for i in range(model.T)]
    if model.r == 0.0:
        # profit separates into per-period quadratics plus a cumulative term
        total = np.zeros(1)
        ext = np.zeros(1)
        for t, v in enumerate(axes):
            contrib = (
                (model.alpha[t] - tau[t] - tech.beta_er) * v
                - (model.beta[t] + tech.alpha_er) * v * v
            )
            total = np.add.outer(total, contrib)
            ext = np.add.outer(ext, v)
        total = (
            total
            - model.T * tech.gamma_er
            - _cumulative_cost_vec(ext, tech, model.strata)
        )
        flat = int(np.argmax(total))
        idx = np.unravel_index(flat, total.shape)[1:]  # drop the seed axis
        q = tuple(float(axes[t][idx[t]]) for t in range(model.T))
        return q, float(total.flat[flat])
    best_q, best_profit = None, -np.inf
    strat = LeaderStrategy(tau=tau)
    for combo in np.ndindex(*[len(a) for a in axes]):
        q = tuple(float(axes[t][combo[t]]) for t in range(model.T))
        profit = follower_total_profit(
            FollowerResponse(q=q, a=tech.tech_id), strat, model
        )
        if profit > best_profit:
            best_q, best_profit = q, profit
    return best_q, best_profit


def grid_best_response(
    strat: LeaderStrategy,
    model: ExtendedModel,
    grid: GridSpec,
    refine_sweeps: int = 1,
) -> BestResponse:
    """Exhaustive grid search over schedules and technologies, optionally
    followed by a few coordinate-ascent polish sweeps from the grid winner."""
    if len(grid.lows) != model.T:
        raise ValueError("grid dimension must equal the horizon T")
    total_evals = grid.size * len(model.techs)
    if total_evals > EVALUATION_CAP:
        raise ValueError(
            f"grid would need {total_evals} evaluations (cap {EVALUATION_CAP})"
        )
    candidates = []
    for tech in model.techs:
        q, profit = _grid_argmax_fixed_tech(strat.tau, tech, model, grid)
        if refine_sweeps > 0:
            candidates.append(
                coordinate_ascent(
                    strat, tech, model, start=q, max_sweeps=refine_sweeps
                )
            )
        else:
            candidates.append(
                BestResponse(
                    response=FollowerResponse(q=q, a=tech.tech_id),
                    profit=profit,
                    optimality_tag=False,
                )
            )
    return _pick_optimistic(candidates, strat, model)


def weighted_scalar_check(
    p: AnalyticalParams, w: float, grid: GridSpec
) -> tuple[float, float]:
    """Grid argmax of the leader's weighted objective with the follower on
    its closed-form best response. Returns (tau, objective value)."""
    if not 0.0 < w <= 1.0:
        raise ValueError("weight must lie in (0, 1]")
    taus = grid.axis(0)
    qs = np.maximum(0.0, (p.alpha - p.gamma - taus) / (2.0 * (p.beta + p.delta)))
    values = w * taus * qs - (1.0 - w) * p.k * qs
    i = int(np.argmax(values))
    return float(taus[i]), float(values[i])
