"""Follower best-response solvers for the multi-period model.

For fixed taxes and a fixed technology the follower maximises

    sum_t d_t [g_t(q_t) - gamma_er] - sum_t w_t C(X_t),   0 <= q_t <= qbar_t,

with g_t(q) = (alpha_t - tau_t - beta_er) q - (beta_t + alpha_er) q^2,
discount factors d_t = (1 + r)^-(t-1), prefix sums X_t = q_1 + ... + q_t,
weights w_t = d_t - d_{t+1} (d_{T+1} = 0) and the piecewise-linear
cumulative cost C, convex because `TechParams` admits only nondecreasing
slopes. The objective is strictly concave, so the optimum is
unique, and it is found exactly. At r = 0 only X_T carries the cost, and
water-filling on its multiplier gives the schedule. At r > 0 the KKT
conditions read q_t = clip((a_t - S_t / d_t) / (2 c_t), 0, qbar_t) and
S_{t+1} = S_t - w_t mu_t, mu_t a subgradient of C at X_t, S_{T+1} = 0.
Shooting on S_1 with mu_t the slope of X_t's stratum gives W(S_1) = sum_t
w_t mu_t; a larger S_1 lowers every X_t, so S_1 - W(S_1) is increasing
and its root is the optimum. Bounds W(lo) and W(hi) close in on the root
until the strata agree on both sides (then the schedule is in closed
form) or stall. W(hi) is run first, and lo starts at the larger of its
initial value and W(hi): W does not increase, so the root stays
bracketed. On a stall the first X_t whose stratum differs is walked
across its breakpoints: the root lies inside one stratum, which is
fixed, or X_t is pinned on a breakpoint b with mu_t between its slopes,
and the periods after t are the same problem from extraction b.

Every answer carries its KKT residual. At r = 0 the schedule is q(lam) by
construction, so the residual is the subgradient check on lam alone; at
r > 0 it is `_discounted_kkt_residual`. That one would certify r = 0
answers too, but in its place it made an r = 0 solve 1.6 times as slow
at T = 1 and 1.5-1.7 times at T = 5, the lower figure with its bisects
skipped where w_t = 0. One profit sum, taken from the schedule, serves
both rates. What a solve reads of the model and the technology (C, c_t,
the strata, d, w, the first brackets of the shooting) is built once per
model and table technology, `ExtendedModel.follower_constants`; any
other technology record gets its constants, C included, built afresh.
A solve unpacks that record once, and builds its answer with
`tuple.__new__` from a literal tuple of the five fields, whose length
`BestResponse._make` would only check again.

Technology choice is a small enumeration on top; a technology that
another one dominates in cost is solved only when a profit-gap
certificate cannot rule it out of the follower's tie set. Which answer
each certificate starts from, and its fixed-cost part, are read off the
`Dominance` records built once per model, `ExtendedModel.dominance`, and
its c_t off the dominator's `FollowerConstants`. A table of one
technology skips the enumeration: its one answer is the follower's.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence

from .model import (
    Dominance,
    ExtendedModel,
    FollowerConstants,
    LeaderStrategy,
    TechParams,
    leader_objectives,
)

# ties in follower profit within this tolerance are broken in the leader's
# favor (optimistic bilevel position)
TIE_TOL = 1e-9

# a dominated technology is skipped only when its profit-gap bound clears
# the tie tolerance by this much more, relative to max(1, |best profit|),
# which covers rounding in the profits and in the bound (the bound exceeded
# the computed gap by at most 1.3e-14 of that scale over 30,000 generated
# calls)
CERT_MARGIN = 1e-12

# an answer is tagged optimal when its KKT residual is at most this times
# max(1, total extraction)
KKT_TOL = 1e-9
# the r > 0 certificate counts q_t as on a bound, and X_t as on a stratum
# breakpoint, within this times max(1, total extraction)
_ACTIVE_TOL = 1e-9


class BestResponse(namedtuple(
    "BestResponse", "q a profit optimality_tag kkt_residual", defaults=(None,)
)):
    """The follower's answer: per-period extraction schedule q, chosen
    technology a, and the profit they earn. Unchecked: q is the tuple its
    solver built, each q_t clipped into [0, qbar_t]."""

    __slots__ = ()
    q: tuple[float, ...]
    a: int
    profit: float
    optimality_tag: bool
    # KKT residual in units of extraction; set for every answer of this
    # module, None from the grid oracle, whose answers are lattice optima
    kkt_residual: float | None


# (lin_t, quad_t, hi_t) per period: period t adds d_t (lin_t - quad_t q_t) q_t
# to the profit, with 0 <= q_t <= hi_t
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
    The optimum is in stratum m*, the first m with S(s_m) <= b_m, or the
    last one. Each clipped term q_t(lam) is monotone in lam and `sum` adds
    them in a fixed order, so the computed S(s_m) does not increase with
    m, while the breakpoints b_m do not decrease: the test is false, then
    true, and bisection over the strata finds the m* a walk up them would.
    Either S(s_m*) lands in stratum m*, so lam = s_m*, or it drops below
    the stratum's start: then the total sits on that breakpoint, with lam
    strictly between s_{m*-1} and s_m*. The last stratum takes no test, so
    only b_1, ..., b_{M-1} are read.
    """
    lo, hi = 0, len(slopes) - 1
    probe = None  # (q, S) at slopes[hi], once probed
    while lo < hi:
        mid = (lo + hi) // 2
        q = _schedule(slopes[mid], periods)
        total = sum(q)
        if total <= breakpoints[mid]:
            hi, probe = mid, (q, total)
        else:
            lo = mid + 1
    if probe is None:
        q = _schedule(slopes[hi], periods)
        total = sum(q)
    else:
        q, total = probe
    if hi and total < breakpoints[hi - 1]:
        lam = _crossing(periods, breakpoints[hi - 1], slopes[hi - 1], slopes[hi])
        return _schedule(lam, periods), lam
    return q, slopes[hi]


def _crossing(periods: _Periods, target: float, lo: float, hi: float) -> float:
    """The lam in [lo, hi] at which sum_t q_t(lam) of `_schedule` falls to
    target. The sum is nonincreasing and linear between the kinks where a
    period meets a bound; lo or hi is returned where rounding leaves the
    sum at lo at most target, or at hi above it.
    """
    s_lo = sum(_schedule(lo, periods))
    if s_lo <= target:
        return lo
    ends = [v for a, c, h in periods for v in (a, a - 2.0 * c * h)]
    for k in sorted(v for v in ends if lo < v < hi) + [hi]:
        s_k = sum(_schedule(k, periods))
        if s_k <= target:
            return lo + (s_lo - target) / (s_lo - s_k) * (k - lo)
        lo, s_lo = k, s_k
    return hi


def _shoot(
    t0: int, x0: float, periods: _Periods, k: FollowerConstants
) -> tuple[list[float], float]:
    """Optimal q_t from period t0 on, given X_{t0-1} = x0, by shooting on
    S_{t0} (see the module docstring): the schedule to T, or, when X_{t*}
    is pinned on a breakpoint b, the schedule to t* and b. x0 = 0 at
    t0 = 0."""
    T = len(periods)
    d, w, slopes, inner = k.d, k.w, k.slopes, k.inner

    def run(s: float, fixed: list[int]) -> tuple[list[int], float]:
        """The strata m_t of the X_t from S_{t0} = s, the first len(fixed)
        of them given, and W(s) = sum_t w_t slopes[m_t]."""
        m, x, total = fixed[:], x0, 0.0
        given = t0 + len(fixed)
        for t in range(t0, T):
            a, c, h = periods[t]
            v = (a - s / d[t]) / (2.0 * c)
            x += 0.0 if v <= 0.0 else h if v >= h else v
            if t >= given:
                m.append(bisect_left(inner, x))
            u = w[t] * slopes[m[t - t0]]
            s -= u
            total += u
        return m, total

    # W is nonincreasing in s, so W(lo) and W(hi), first at x0's slope and
    # at the last one, bound the root in turn. W(hi) is run first, as lo's
    # first tightening: the first run at lo starts from it
    bracket = k.brackets[t0]
    lo, hi = bracket[bisect_left(inner, x0)], bracket[-1]
    fixed: list[int] = []
    m_hi, w_hi = run(hi, fixed)
    lo = max(lo, w_hi)
    m_lo, w_lo = run(lo, fixed)
    while m_lo != m_hi:
        if w_lo < hi:
            hi = w_lo
            m_hi, w_hi = run(hi, fixed)
        elif w_hi > lo:
            lo = w_hi
            m_lo, w_lo = run(lo, fixed)
        else:
            # stalled: the strata agree before period t0 + k, whose X falls
            # across breakpoints from lo to hi. There S_t = s - P_t, with P_t
            # the cost terms before t, so q_t(s) is `_schedule` of head
            k = next(i for i, (u, v) in enumerate(zip(m_lo, m_hi)) if u != v)
            fixed = m_lo[:k]
            cost = (w[t] * slopes[m] for t, m in zip(range(t0, T), fixed))
            head = [
                (dt * a + p, dt * c, h)
                for (a, c, h), dt, p in zip(
                    periods[t0:], d[t0:], itertools.accumulate(cost, initial=0.0)
                )
            ]
            # at the crossing s of each breakpoint, s - W(s) with the slope
            # above it and with the one below it tells where the root is
            stratum = m_hi[k]
            for j in range(m_lo[k] - 1, m_hi[k] - 1, -1):
                s = _crossing(head, inner[j] - x0, lo, hi)
                if s >= run(s, fixed + [j + 1])[1]:
                    hi, stratum = s, j + 1  # below s
                    break
                if s > run(s, fixed + [j])[1]:  # at s: X is pinned
                    return _schedule(s, head), inner[j]
                lo = s  # above s
            fixed.append(stratum)
            m_lo, w_lo = run(lo, fixed)
            m_hi, w_hi = run(hi, fixed)
    # the strata hold on [lo, hi], so S_t = sum_{s>=t} w_s slopes[m_s]
    q, s = [0.0] * (T - t0), 0.0
    for t in range(T - 1, t0 - 1, -1):
        a, c, h = periods[t]
        s += w[t] * slopes[m_lo[t - t0]]
        v = (a - s / d[t]) / (2.0 * c)
        q[t - t0] = 0.0 if v <= 0.0 else h if v >= h else v
    return q, x0


def _discounted_kkt_residual(
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
    # X_t = 0.0 + q_1 + ... + q_t; zipped forward, so that d and w pair
    # with q by index
    prefix = itertools.islice(itertools.accumulate(q, initial=0.0), 1, None)
    lo = hi = residual = 0.0
    for (a, c, h), dt, wt, v, x in reversed(list(zip(periods, d, w, q, prefix))):
        # the slopes below and above every breakpoint within eps of X_t
        c_lo = slopes[bisect_left(inner, x - eps)]
        c_hi = slopes[bisect_right(inner, x + eps)]
        lo, hi = lo + wt * c_lo, hi + wt * c_hi
        grad = dt * (a - 2.0 * c * v)
        need_lo = -math.inf if v >= h - eps else grad
        need_hi = math.inf if v <= eps else grad
        # max(lo, need_lo) and min(hi, need_hi), ties to lo and hi
        new_lo = need_lo if need_lo > lo else lo
        new_hi = need_hi if need_hi < hi else hi
        if new_lo <= new_hi:
            lo, hi = new_lo, new_hi
        else:
            gap = (new_lo - new_hi) / (2.0 * dt * c)
            if gap > residual:
                residual = gap
            # go on from the reachable value nearest the requirement
            lo = hi = hi if hi < need_lo else lo
    return residual


def best_response_fixed_tech(
    strat: LeaderStrategy, tech: TechParams, model: ExtendedModel
) -> BestResponse:
    """Unique profit-maximizing schedule for fixed taxes and technology."""
    tau = strat.tau
    if len(tau) != model.T:
        raise ValueError("strategy length must equal the horizon T")
    k = model.follower_constants.get(tech.tech_id)
    if k is None or k.tech is not tech:
        # outside the table, or the table's id with other costs
        k = FollowerConstants.build(tech, model)
    (_, cost, rows, slopes, inner, starts, d, w, w_head, w_last, discounted,
     fixed_cost, _) = k
    beta_er = tech.beta_er
    # a loop, not a comprehension: on Python 3.11 a comprehension is a call
    periods: list[tuple[float, float, float]] = []
    for (a, c, h), x in zip(rows, tau):
        periods.append((a - x - beta_er, c, h))
    if discounted:
        # a pinned X_t leaves the periods after t as the same problem from b
        q: list[float] = []
        x0 = 0.0
        while len(q) < len(periods):
            tail, x0 = _shoot(len(q), x0, periods, k)
            q += tail
        total = sum(q)
        residual = _discounted_kkt_residual(q, periods, d, w, slopes, inner)
    else:
        q, lam = _waterfill(periods, slopes, inner)
        total = sum(q)
        # KKT residual, in units of extraction: q is q(lam) by construction,
        # and lam must be a subgradient of C at the total, which then covers
        # every stratum cheaper than lam and enters none dearer than it:
        # max(0.0, short, over), by the comparisons `max` makes
        short = starts[bisect_left(slopes, lam)] - total
        residual = short if short > 0.0 else 0.0
        over = total - starts[bisect_right(slopes, lam)]
        if over > residual:
            residual = over
    # -(sum_t d_t) gamma_er - sum_t w_t C(X_t) + sum_t d_t (a_t - c_t q_t) q_t,
    # with X_T = sum(q); at r = 0 every w_t before T is 0
    profit = fixed_cost - w_last * cost(total)
    if discounted:
        for wt, x in zip(w_head, itertools.accumulate(q)):
            if wt:
                profit -= wt * cost(x)
    for (a, c, _), dt, v in zip(periods, d, q):
        profit += dt * ((a - c * v) * v)
    return tuple.__new__(BestResponse, (
        tuple(q), tech.tech_id, profit,
        residual <= KKT_TOL * max(1.0, total), residual,
    ))


def _pick_optimistic(
    candidates: list[BestResponse], strat: LeaderStrategy, model: ExtendedModel
) -> BestResponse:
    """Among profit-tied best responses, pick the one best for the leader.
    The tie-break ends in the technology id, so candidate order is free."""
    best_profit = max(c.profit for c in candidates)
    tol = max(TIE_TOL, TIE_TOL * abs(best_profit))
    tied = [c for c in candidates if c.profit >= best_profit - tol]
    if len(tied) == 1:
        return tied[0]

    def key(c: BestResponse):
        revenue, damage = leader_objectives(c, strat, model)
        return (-revenue, damage, c.a)

    return min(tied, key=key)


def _profit_gap_bound(
    q: Sequence[float], dom: Dominance, model: ExtendedModel, need: float
) -> float:
    """Lower bound G on profit_A* - profit_B* for A = dom.dominator and
    B = dom.tech, from A's optimal schedule q*; d_t are the model's
    discount factors.

    On any schedule q, B costs at least d_t (fixed_gap + unit_gap q_t) more
    than A per period (`Dominance`; the cumulative cost enters through
    sum_t w_t X_t = sum_t d_t q_t). A's profit is strongly concave with
    modulus d_t c_t, c_t = beta_t + alpha_er,A (read off A's
    `FollowerConstants` rows), so it lies at least sum_t d_t c_t (q_t -
    q*_t)^2 below its optimum. Hence, with delta = unit_gap, G = sum_t
    d_t [fixed_gap + m_t], m_t the least of c_t (q - q*_t)^2 + delta q
    over q >= 0: delta q*_t - delta^2 / (4 c_t) where q*_t >= delta /
    (2 c_t), else c_t q*_t^2. G is 0 at zero extraction when fixed_gap = 0.

    Every term is at least 0, so the sum stops as soon as it exceeds
    `need`: the partial sum returned then exceeds `need` as G does, and
    whether G > need is all the caller asks. At need = inf it is G.
    """
    delta, fixed_gap = dom.unit_gap, dom.fixed_gap
    rows = model.follower_constants[dom.dominator.tech_id].rows
    bound = 0.0
    for dt, (_, c, _), x in zip(model.discount_factors, rows, q):
        if 2.0 * c * x >= delta:
            m = delta * x - delta * delta / (4.0 * c)
        else:
            m = c * x * x
        bound += dt * (fixed_gap + m)
        if bound > need:
            break
    return bound


def best_response(strat: LeaderStrategy, model: ExtendedModel) -> BestResponse:
    """Follower optimum over schedule and the model's technologies.

    The undominated technologies are solved first, in table order. A
    technology that another one dominates (`ExtendedModel.dominance`) is
    solved only when `_profit_gap_bound` cannot show it out of the profit
    tie; the answer is the one the full enumeration gives. Each record
    holds what that skip reads: its dominator's position among the
    undominated answers and the bound's fixed-cost part. A model with one
    technology has no dominance and no tie to break, so that technology's
    answer is returned as it is, as is a lone answer after the skip.
    """
    if len(model.techs) == 1:
        return best_response_fixed_tech(strat, model.techs[0], model)
    # a loop, as in `best_response_fixed_tech`
    answers: list[BestResponse] = []
    for tech in model.undominated:
        answers.append(best_response_fixed_tech(strat, tech, model))
    # with nothing dominated this is the full enumeration
    dominance = model.dominance
    if dominance:
        # the best profit of the full enumeration is at least this one, so a
        # profit below best - slack stays out of its tie set too
        best = (
            answers[0].profit if len(answers) == 1
            else max(br.profit for br in answers)
        )
        slack = max(TIE_TOL, TIE_TOL * abs(best)) + CERT_MARGIN * max(1.0, abs(best))
        # appended answers go after the undominated ones, so each position
        # still names its dominator's answer
        for dom in dominance:
            ref = answers[dom.at]
            need = best - ref.profit + slack
            # the bound's fixed-cost part alone often settles it
            if ref.optimality_tag and (
                dom.fixed_part > need
                or _profit_gap_bound(ref.q, dom, model, need) > need
            ):
                continue
            answers.append(best_response_fixed_tech(strat, dom.tech, model))
    if len(answers) == 1:
        return answers[0]
    return _pick_optimistic(answers, strat, model)
