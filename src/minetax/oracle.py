"""Brute-force grid verifiers and the coordinate-ascent polish of the grid
winner. Test/verification support only: the solver modules never call into
this code, and of the lower solver it uses only the result type and the
optimistic tie-break."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lower import BestResponse, _pick_optimistic
from .model import (
    AnalyticalParams,
    ExtendedModel,
    FollowerResponse,
    LeaderStrategy,
    TechParams,
    cumulative_cost,
)

# DP steps one grid_best_response may take over all technologies: about
# 4-7 s at the 1.4-2.3e6 steps/s measured on 2 shared cores (Python 3.11)
EVALUATION_CAP = 10**7

# coordinate-ascent sweeps that polish each grid winner
POLISH_SWEEPS = 3

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

STATIONARITY_TOL = 1e-4
_FD_STEP = 1e-5


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-9
) -> float:
    """Maximizer of a unimodal f on [lo, hi] to within xtol."""
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    # snap to the lower boundary when it is at least as good
    if x - lo < 10.0 * xtol and f(lo) >= f(x):
        return lo
    return x


class _ProfitEvaluator:
    """Fast repeated evaluation of total profit for fixed (tau, tech)."""

    def __init__(self, tau: Sequence[float], tech: TechParams, model: ExtendedModel):
        self.tau = tuple(tau)
        self.tech = tech
        self.model = model
        self.T = model.T
        # per-period coefficients of the separable quadratic part:
        # (alpha_t - tau_t - beta_er) q - (beta_t + alpha_er) q^2
        self.lin = tuple(
            model.alpha[t] - self.tau[t] - tech.beta_er for t in range(self.T)
        )
        self.quad = tuple(model.beta[t] + tech.alpha_er for t in range(self.T))
        self.fixed = -tech.gamma_er * sum(
            model.discount(t) for t in range(1, self.T + 1)
        )

    def total(self, q: Sequence[float]) -> float:
        m, tech = self.model, self.tech
        if m.r == 0.0:
            s = self.fixed
            cum = 0.0
            for t in range(self.T):
                x = q[t]
                s += (self.lin[t] - self.quad[t] * x) * x
                cum += x
            return s - cumulative_cost(cum, tech, m.strata)
        total = 0.0
        prev_cum = 0.0
        prev_cost = 0.0
        for t in range(self.T):
            x = q[t]
            cum = prev_cum + x
            cost = cumulative_cost(cum, tech, m.strata)
            pi = (
                (self.lin[t] - self.quad[t] * x) * x
                - tech.gamma_er
                - (cost - prev_cost)
            )
            total += m.discount(t + 1) * pi
            prev_cum, prev_cost = cum, cost
        return total

    def coord_objective(self, q: Sequence[float], t: int) -> Callable[[float], float]:
        """Profit as a function of q[t] alone, up to an additive constant."""
        m, tech = self.model, self.tech
        if m.r == 0.0:
            rest = sum(q) - q[t]
            lin, quad = self.lin[t], self.quad[t]
            strata = m.strata

            def g(x: float) -> float:
                return (lin - quad * x) * x - cumulative_cost(rest + x, tech, strata)

            return g
        work = list(q)

        def g_general(x: float) -> float:
            work[t] = x
            return self.total(work)

        return g_general


def _stationary(
    ev: _ProfitEvaluator, q: list[float], hi: Sequence[float]
) -> bool:
    """Check that no coordinate admits a first-order improving direction."""
    base = ev.total(q)
    for t in range(ev.T):
        x = q[t]
        if x + _FD_STEP <= hi[t]:
            q[t] = x + _FD_STEP
            if (ev.total(q) - base) / _FD_STEP > STATIONARITY_TOL:
                q[t] = x
                return False
            q[t] = x
        if x - _FD_STEP >= 0.0:
            q[t] = x - _FD_STEP
            if (ev.total(q) - base) / _FD_STEP > STATIONARITY_TOL:
                q[t] = x
                return False
            q[t] = x
    return True


def _transfer_sweep(
    ev: _ProfitEvaluator, q: list[float], hi: Sequence[float]
) -> float:
    """Redistribute extraction between period pairs at fixed total.

    Coordinate moves alone can stall where the cumulative total sits on a
    stratum kink; transfers stay on the kink plane, where the objective is
    smooth, and escape those stalls. With no discounting the pair-optimal
    transfer has a closed form (the cumulative term is constant on the
    plane). Returns the largest transfer applied.
    """
    m = ev.model
    moved = 0.0
    for s in range(ev.T):
        for t in range(s + 1, ev.T):
            lo_d = max(-q[s], q[t] - hi[t])
            hi_d = min(hi[s] - q[s], q[t])
            if hi_d - lo_d <= 1e-12:
                continue
            if m.r == 0.0:
                denom = 2.0 * (ev.quad[s] + ev.quad[t])
                delta = (
                    ev.lin[s]
                    - 2.0 * ev.quad[s] * q[s]
                    - ev.lin[t]
                    + 2.0 * ev.quad[t] * q[t]
                ) / denom
                delta = min(max(delta, lo_d), hi_d)
                q[s] += delta
                q[t] -= delta
                moved = max(moved, abs(delta))
            else:
                base = list(q)

                def g(d: float) -> float:
                    base[s] = q[s] + d
                    base[t] = q[t] - d
                    return ev.total(base)

                delta = golden_section_max(g, lo_d, hi_d, xtol=1e-10)
                if abs(delta) <= 1e-12:
                    continue
                before = ev.total(q)
                q[s] += delta
                q[t] -= delta
                if ev.total(q) <= before:
                    q[s] -= delta
                    q[t] += delta
                else:
                    moved = max(moved, abs(delta))
    return moved


def coordinate_ascent(
    strat: LeaderStrategy,
    tech: TechParams,
    model: ExtendedModel,
    start: Optional[Sequence[float]] = None,
    max_sweeps: int = 200,
) -> BestResponse:
    """Profit-maximizing schedule for fixed taxes and technology, any r.

    Cyclic coordinate ascent; each coordinate solved by golden-section
    search over [0, q_max_t], alternated with pairwise fixed-total
    transfers so stratum kinks cannot trap the iterate. Converged when no
    coordinate moves more than 1e-7 in a full sweep (or the profit
    stops improving measurably, which is the double-precision limit).
    """
    if len(strat.tau) != model.T:
        raise ValueError("strategy length must equal the horizon T")
    ev = _ProfitEvaluator(strat.tau, tech, model)
    hi = [b[1] for b in model.q_bounds]
    q = [0.0] * model.T if start is None else [float(x) for x in start]
    converged = False
    sweeps_left = max_sweeps
    while sweeps_left > 0:
        converged = False
        prev_profit = ev.total(q)
        while sweeps_left > 0:
            sweeps_left -= 1
            move = 0.0
            for t in range(model.T):
                g = ev.coord_objective(q, t)
                x = golden_section_max(g, 0.0, hi[t], xtol=1e-9)
                move = max(move, abs(x - q[t]))
                q[t] = x
            profit = ev.total(q)
            if move <= 1e-7:
                converged = True
                break
            if move <= 1e-3 and abs(profit - prev_profit) <= 1e-10 * max(
                1.0, abs(profit)
            ):
                converged = True
                break
            prev_profit = profit
        if not converged:
            break
        for _ in range(50):
            if _transfer_sweep(ev, q, hi) <= 1e-9:
                break
        else:
            continue
        # transfers settled; one more coordinate pass to confirm stability
        stable = True
        for t in range(model.T):
            g = ev.coord_objective(q, t)
            x = golden_section_max(g, 0.0, hi[t], xtol=1e-9)
            if abs(x - q[t]) > 1e-5:
                stable = False
            q[t] = x
        if stable:
            break
    tag = converged and _stationary(ev, q, hi)
    resp = FollowerResponse(q=tuple(q), a=tech.tech_id)
    return BestResponse(response=resp, profit=ev.total(q), optimality_tag=tag)



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


def _grid_argmax_fixed_tech(
    tau: tuple[float, ...],
    tech: TechParams,
    model: ExtendedModel,
    grid: GridSpec,
) -> tuple[tuple[float, ...], float]:
    """Exhaustive argmax of total profit over the extraction grid.

    Profit is sum_t d_t [(alpha_t - tau_t - beta_er) q_t
    - (beta_t + alpha_er) q_t^2 - gamma_er] - sum_t w_t C(X_t), with
    prefix sums X_t and w_t = d_t - d_{t+1} (d_{T+1} = 0); at r = 0 only
    w_T = 1 is nonzero.

    Only C couples the periods, through X_t, so a forward DP over the
    levels of X_t (sum(lows) + k * step) that keeps the best prefix per
    level searches every schedule. Profits are summed in enumeration order
    (period by period, the fixed costs before the last cost term), and
    rounding is monotone and sign-symmetric, so with exact prefix sums
    (dyadic step and lows) the maximum is the enumeration's float. Exact
    ties go to the first schedule in lexicographic order, as in the
    enumeration; another point could win only where rounding later merges
    two prefix profits that differ.
    """
    d = [model.discount(t) for t in range(1, model.T + 1)]
    w = [a - b for a, b in zip(d, d[1:] + [0.0])]
    # X_t -> (-profit, schedule) of the best prefix: the least pair has the
    # largest profit and, among exact ties, the first schedule
    levels = {0.0: (0.0, ())}
    for t in range(model.T):
        axis = grid.axis(t).tolist()
        lin = model.alpha[t] - tau[t] - tech.beta_er
        quad = model.beta[t] + tech.alpha_er
        gains = [d[t] * (lin * q - quad * q * q) for q in axis]
        # adding 0.0 leaves every float unchanged
        fixed = sum(d) * tech.gamma_er if t == model.T - 1 else 0.0
        costs = {
            x: w[t] * cumulative_cost(x, tech, model.strata)
            for x in {x_prev + q for x_prev in levels for q in axis}
        }
        nxt = {}
        for x_prev, (loss, prefix) in levels.items():
            for q, gain in zip(axis, gains):
                x = x_prev + q
                key = (loss - gain + fixed + costs[x], prefix, q)
                best = nxt.get(x)
                if best is None or key < best:
                    nxt[x] = key
        levels = {x: (loss, prefix + (q,)) for x, (loss, prefix, q) in nxt.items()}
    loss, q = min(levels.values())
    return q, -loss


def grid_best_response(
    strat: LeaderStrategy,
    model: ExtendedModel,
    grid: GridSpec,
) -> BestResponse:
    """Exhaustive grid search over schedules and technologies, each grid
    winner polished by POLISH_SWEEPS coordinate-ascent sweeps."""
    if len(grid.lows) != model.T:
        raise ValueError("grid dimension must equal the horizon T")
    # DP steps: the levels of X_{t-1} times |axis_t|, summed over t
    steps, levels = 0, 1
    for t, (_, hi) in enumerate(model.q_bounds):
        axis = grid.axis(t)
        if axis[0] < 0.0 or axis[-1] > hi:
            raise ValueError(f"grid axis {t} leaves the extraction box [0, {hi}]")
        steps += levels * len(axis)
        levels += len(axis) - 1
    steps *= len(model.techs)
    if steps > EVALUATION_CAP:
        raise ValueError(f"grid would need {steps} DP steps (cap {EVALUATION_CAP})")
    candidates = []
    for tech in model.techs:
        q, _ = _grid_argmax_fixed_tech(strat.tau, tech, model, grid)
        candidates.append(
            coordinate_ascent(strat, tech, model, start=q, max_sweeps=POLISH_SWEEPS)
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
