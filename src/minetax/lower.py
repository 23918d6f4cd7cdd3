"""Follower best-response solvers for the multi-period model.

For fixed taxes and a fixed technology, total profit is strictly concave in
the extraction schedule, so the optimum is unique. At r = 0 the KKT
conditions give it exactly, by water-filling on the multiplier of the
cumulative cost; at r > 0 cyclic coordinate ascent with golden-section line
searches finds it. Technology choice is a small enumeration on top.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .model import (
    ExtendedModel,
    FollowerResponse,
    LeaderStrategy,
    TechParams,
    cumulative_cost,
    leader_objectives,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# ties in follower profit within this tolerance are broken in the leader's
# favor (optimistic bilevel position)
TIE_TOL = 1e-9

STATIONARITY_TOL = 1e-4
_FD_STEP = 1e-5

# an r = 0 answer is tagged optimal when its KKT residual is at most this
# times max(1, total extraction)
KKT_TOL = 1e-9


@dataclass(frozen=True)
class BestResponse:
    response: FollowerResponse
    profit: float
    optimality_tag: bool
    kkt_residual: Optional[float] = None  # r = 0 only, units of extraction


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
    coord_tol: float = 1e-7,
    max_sweeps: int = 200,
) -> BestResponse:
    """Profit-maximizing schedule for fixed taxes and technology, any r.

    Cyclic coordinate ascent; each coordinate solved by golden-section
    search over [0, q_max_t], alternated with pairwise fixed-total
    transfers so stratum kinks cannot trap the iterate. Converged when no
    coordinate moves more than coord_tol in a full sweep (or the profit
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
            if move <= coord_tol:
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


# (lin_t, quad_t, hi_t) per period: at r = 0 period t adds
# (lin_t - quad_t q_t) q_t to the profit, with 0 <= q_t <= hi_t
_Periods = Sequence[tuple[float, float, float]]


def _schedule(lam: float, periods: _Periods) -> list[float]:
    """q_t(lam) = clip((lin_t - lam) / (2 quad_t), 0, hi_t) for each period."""
    q = []
    for a, c, h in periods:
        x = (a - lam) / (2.0 * c)
        q.append(0.0 if x <= 0.0 else h if x >= h else x)
    return q


def _waterfill(
    periods: _Periods, slopes: Sequence[float], breakpoints: Sequence[float]
) -> tuple[list[float], float]:
    """Exact r = 0 optimum: the schedule and its cost multiplier lam.

    The total S(lam) = sum q_t(lam) is nonincreasing and piecewise linear.
    Walking up the (nondecreasing) slopes, either S(s_m) lands in stratum
    m, so lam = s_m, or it drops below the stratum's start: then the total
    sits on that breakpoint, with lam strictly between s_{m-1} and s_m.
    """
    floor = prev_total = 0.0
    for m, s in enumerate(slopes):
        q = _schedule(s, periods)
        total = sum(q)
        if total < floor:
            # S is linear between the kinks where a period meets a bound
            ends = [v for a, c, h in periods for v in (a, a - 2.0 * c * h)]
            lam, s_lam = slopes[m - 1], prev_total
            for k in sorted(v for v in ends if lam < v < s) + [s]:
                s_k = sum(_schedule(k, periods))
                if s_k <= floor:
                    lam += (s_lam - floor) / (s_lam - s_k) * (k - lam)
                    return _schedule(lam, periods), lam
                lam, s_lam = k, s_k
        if m == len(slopes) - 1 or total <= breakpoints[m]:
            return q, s
        floor, prev_total = breakpoints[m], total
    raise AssertionError("unreachable: the last stratum is unbounded")


def best_response_fixed_tech(
    strat: LeaderStrategy, tech: TechParams, model: ExtendedModel
) -> BestResponse:
    """Unique profit-maximizing schedule for fixed taxes and technology:
    exact at r = 0, by coordinate ascent at r > 0."""
    if model.r > 0.0:
        return coordinate_ascent(strat, tech, model)
    if len(strat.tau) != model.T:
        raise ValueError("strategy length must equal the horizon T")
    slopes, breakpoints = tech.slopes, model.strata.breakpoints
    if any(b < a for a, b in zip(slopes, slopes[1:])):
        raise ValueError(
            f"technology {tech.tech_id}: stratum slopes must be nondecreasing "
            "(convex cumulative cost) to solve the follower at r = 0"
        )
    periods = [
        (a - x - tech.beta_er, b + tech.alpha_er, h)
        for a, b, x, (_, h) in zip(model.alpha, model.beta, strat.tau, model.q_bounds)
    ]
    q, lam = _waterfill(periods, slopes, breakpoints)
    total = sum(q)
    # KKT residual, in units of extraction: q must equal q(lam), and lam must
    # be a subgradient of C at the total, which then covers every stratum
    # cheaper than lam and enters none dearer than it
    starts = (0.0,) + breakpoints[:-1] + (math.inf,)
    residual = max(
        max(abs(x - y) for x, y in zip(q, _schedule(lam, periods))),
        starts[bisect.bisect_left(slopes, lam)] - total,
        total - starts[bisect.bisect_right(slopes, lam)],
    )
    profit = -model.T * tech.gamma_er - cumulative_cost(total, tech, model.strata)
    for (a, c, _), x in zip(periods, q):
        profit += (a - c * x) * x
    return BestResponse(
        response=FollowerResponse(q=tuple(q), a=tech.tech_id),
        profit=profit,
        optimality_tag=residual <= KKT_TOL * max(1.0, total),
        kkt_residual=residual,
    )


def _pick_optimistic(
    candidates: list[BestResponse], strat: LeaderStrategy, model: ExtendedModel
) -> BestResponse:
    """Among profit-tied best responses, pick the one best for the leader."""
    best_profit = max(c.profit for c in candidates)
    tol = max(TIE_TOL, TIE_TOL * abs(best_profit))
    tied = [c for c in candidates if c.profit >= best_profit - tol]
    if len(tied) == 1:
        return tied[0]

    def key(c: BestResponse):
        obj = leader_objectives(c.response, strat, model)
        return (-obj.revenue, obj.damage, c.response.a)

    return min(tied, key=key)


def best_response(
    strat: LeaderStrategy,
    model: ExtendedModel,
    tech_filter: Optional[int] = None,
) -> BestResponse:
    """Follower optimum over schedule and technology choice."""
    techs = (
        model.techs if tech_filter is None else (model.tech(tech_filter),)
    )
    candidates = [best_response_fixed_tech(strat, tech, model) for tech in techs]
    return _pick_optimistic(candidates, strat, model)
