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
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from minetax.lower import BestResponse, _crossing, _Periods, _schedule
from minetax.model import (
    ExtendedModel,
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
