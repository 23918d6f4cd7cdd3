"""Follower references for the tests.

`answer` is a follower answer of a given schedule and technology, for the
functions that read only those two.

`period_profits` is the checked per-period profit: the schedule and the
taxes are checked finite, nonnegative and of length T before
`_period_profits` computes them. It is the independent reference for the
profits that the CLI's writer computes inline, with the same float
expressions: `tests/csv_writers.py` writes its schedules from it.

`extraction_rate_cost` is the rate charge alpha_er q^2 + beta_er q +
gamma_er of one period, which `_period_profits` computes inline; the
tests' period-by-period reference for `period_profits` builds on it.

`follower_total_profit` sums the discounted period profits of a schedule,
as `period_profits`, the one checked per-period profit, returns them,
independently of the solvers' own profit sum.

`_period_profits` computes its charges with `minetax.model.cumulative_cost`,
C(x) as a walk up the strata, apart from `StrataTable.cost_curve`, the
curve the solver and the writer charge; the tests check that both give
the same floats.

`waterfill_walk` is the r = 0 water-fill as a linear walk up the strata.
`minetax.lower._waterfill` finds its stopping stratum by bisection; this is
the walk it replaced, kept so the tests can check that both return the same
floats.

`index_walk_kkt_residual` is `minetax.lower._discounted_kkt_residual` as it
was before it zipped its backward pass: a walk over the period indices,
with X_t from a prefix list and `max`/`min` in its clips. The tests check
that both return the same float bit for bit.

`attribute_read_fixed_tech` is `minetax.lower.best_response_fixed_tech` as
it was before it unpacked its `FollowerConstants` in one step and built its
answer with `tuple.__new__`: each constant read as an attribute, and the
answer built with `BestResponse._make`. The tests check that both return
the same answer bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from minetax.lower import (
    _ACTIVE_TOL,
    KKT_TOL,
    BestResponse,
    _crossing,
    _discounted_kkt_residual,
    _Periods,
    _schedule,
    _shoot,
    _waterfill,
)
from minetax.model import (
    ExtendedModel,
    FollowerConstants,
    LeaderStrategy,
    TechParams,
    _nonnegative_floats,
    cumulative_cost,
)


def answer(q: Sequence[float], a: int) -> BestResponse:
    """Schedule q with technology a, as a `BestResponse` whose profit is
    not evaluated (NaN) and which is not tagged optimal."""
    return BestResponse(q=q, a=a, profit=math.nan, optimality_tag=False)


def _period_profits(
    q: Sequence[float], taus: Sequence[float], tech: TechParams,
    model: ExtendedModel,
) -> list[float]:
    """Mine profit in each period of schedule q under taxes taus, both
    over the whole horizon; unchecked. The extraction/purification charge
    is the increment of the cumulative cost curve over the period; the rate
    charge is alpha_er q_t^2 + beta_er q_t + gamma_er, whose fixed part is
    charged regardless of q_t."""
    alpha, beta = model.alpha, model.beta
    strata = model.strata
    alpha_er, beta_er, gamma_er = tech.alpha_er, tech.beta_er, tech.gamma_er
    profits = []
    for t, tau_t in enumerate(taus, 1):
        q_t = q[t - 1]
        # X_t is sum(q[:t]): from Python 3.12 a float sum is compensated, so
        # a running total could be another float
        x_t = sum(q[:t])
        revenue = (alpha[t - 1] - beta[t - 1] * q_t) * q_t
        ep = cumulative_cost(x_t, tech, strata) - cumulative_cost(
            x_t - q_t, tech, strata
        )
        rate = alpha_er * q_t * q_t + beta_er * q_t + gamma_er
        profits.append(revenue - rate - ep - tau_t * q_t)
    return profits


def period_profits(
    q: Sequence[float], tau: Sequence[float], tech: TechParams,
    model: ExtendedModel,
) -> list[float]:
    """Undiscounted mine profit of every period of schedule q under taxes
    tau, each schedule checked finite, nonnegative and of length T."""
    if len(q) != model.T or len(tau) != model.T:
        raise ValueError("schedule lengths must equal the horizon T")
    return _period_profits(
        _nonnegative_floats("extraction q", q),
        _nonnegative_floats("taxes tau", tau), tech, model,
    )


def extraction_rate_cost(q_t: float, tech: TechParams) -> float:
    """Quadratic cost of extracting q_t units within one period.

    The fixed component gamma_er is charged regardless of q_t.
    """
    if q_t < 0:
        raise ValueError("extraction must be nonnegative")
    return tech.alpha_er * q_t * q_t + tech.beta_er * q_t + tech.gamma_er


def follower_total_profit(
    resp: BestResponse, strat: LeaderStrategy, model: ExtendedModel
) -> float:
    """Discounted sum of per-period mine profits."""
    total = 0.0
    for d, pi in zip(
        model.discount_factors,
        period_profits(resp.q, strat.tau, model.tech(resp.a), model),
    ):
        total += d * pi
    return total


def waterfill_walk(
    periods: _Periods, slopes: Sequence[float], breakpoints: Sequence[float]
) -> tuple[list[float], float]:
    """The r = 0 schedule and its cost multiplier lam, one stratum at a
    time. Walking up the (nondecreasing) slopes, either S(s_m) lands in
    stratum m, so lam = s_m, or it drops below the stratum's start: then
    the total sits on that breakpoint, with lam strictly between s_{m-1}
    and s_m.
    """
    floor = 0.0
    for m, s in enumerate(slopes):
        q = _schedule(s, periods)
        total = sum(q)
        if total < floor:
            lam = _crossing(periods, floor, slopes[m - 1], s)
            return _schedule(lam, periods), lam
        if m == len(slopes) - 1 or total <= breakpoints[m]:
            return q, s
        floor = breakpoints[m]
    raise AssertionError("unreachable: the last stratum is unbounded")


def index_walk_kkt_residual(
    q: Sequence[float], periods: _Periods, d: Sequence[float],
    w: Sequence[float], slopes: Sequence[float], inner: Sequence[float],
) -> float:
    """Largest violation of the r > 0 KKT conditions, in units of extraction.

    Stationarity asks for subgradients c_s of C at X_s with S_t = sum_{s>=t}
    w_s c_s equal to d_t g_t'(q_t) where q_t is interior, at least it where
    q_t = 0 and at most it where q_t = qbar_t. The reachable S_t form an
    interval, built backwards from S_{T+1} = 0; where it misses the
    requirement, the gap over d_t g_t'' is the move of q_t it would take.
    Within a small tolerance, q_t counts as on a bound and X_t on a
    breakpoint.
    """
    eps = _ACTIVE_TOL * max(1.0, sum(q))
    prefix, x = [], 0.0
    for v in q:
        x += v
        prefix.append(x)
    lo = hi = residual = 0.0
    for t in range(len(q) - 1, -1, -1):
        a, c, h = periods[t]
        # the slopes below and above every breakpoint within eps of X_t
        c_lo = slopes[bisect.bisect_left(inner, prefix[t] - eps)]
        c_hi = slopes[bisect.bisect_right(inner, prefix[t] + eps)]
        lo, hi = lo + w[t] * c_lo, hi + w[t] * c_hi
        grad = d[t] * (a - 2.0 * c * q[t])
        need_lo = -math.inf if q[t] >= h - eps else grad
        need_hi = math.inf if q[t] <= eps else grad
        new_lo, new_hi = max(lo, need_lo), min(hi, need_hi)
        if new_lo <= new_hi:
            lo, hi = new_lo, new_hi
        else:
            residual = max(residual, (new_lo - new_hi) / (2.0 * d[t] * c))
            # go on from the reachable value nearest the requirement
            lo = hi = hi if hi < need_lo else lo
    return residual


def attribute_read_fixed_tech(
    strat: LeaderStrategy, tech: TechParams, model: ExtendedModel
) -> BestResponse:
    """Unique profit-maximizing schedule for fixed taxes and technology."""
    if len(strat.tau) != model.T:
        raise ValueError("strategy length must equal the horizon T")
    k = model.follower_constants.get(tech.tech_id)
    if k is None or k.tech is not tech:
        # outside the table, or the table's id with other costs
        k = FollowerConstants.build(tech, model)
    beta_er = tech.beta_er
    periods = [(a - x - beta_er, c, h) for (a, c, h), x in zip(k.rows, strat.tau)]
    if k.discounted:
        # a pinned X_t leaves the periods after t as the same problem from b
        q: list[float] = []
        x0 = 0.0
        while len(q) < len(periods):
            tail, x0 = _shoot(len(q), x0, periods, k)
            q += tail
        total = sum(q)
        residual = _discounted_kkt_residual(q, periods, k.d, k.w, k.slopes, k.inner)
    else:
        q, lam = _waterfill(periods, k.slopes, k.inner)
        total = sum(q)
        # KKT residual, in units of extraction: q is q(lam) by construction,
        # and lam must be a subgradient of C at the total, which then covers
        # every stratum cheaper than lam and enters none dearer than it
        starts, slopes = k.starts, k.slopes
        residual = max(
            0.0,
            starts[bisect_left(slopes, lam)] - total,
            total - starts[bisect_right(slopes, lam)],
        )
    # -(sum_t d_t) gamma_er - sum_t w_t C(X_t) + sum_t d_t (a_t - c_t q_t) q_t,
    # with X_T = sum(q); at r = 0 every w_t before T is 0
    cost = k.cost
    profit = k.fixed_cost - k.w_last * cost(total)
    if k.discounted:
        for wt, x in zip(k.w_head, itertools.accumulate(q)):
            if wt:
                profit -= wt * cost(x)
    for (a, c, _), dt, v in zip(periods, k.d, q):
        profit += dt * ((a - c * v) * v)
    return BestResponse._make((
        tuple(q), tech.tech_id, profit,
        residual <= KKT_TOL * max(1.0, total), residual,
    ))
