"""Follower best-response solvers for the multi-period model.

For fixed taxes and a fixed technology the follower maximises

    sum_t d_t [g_t(q_t) - gamma_er] - sum_t w_t C(X_t),   0 <= q_t <= qbar_t,

with g_t(q) = (alpha_t - tau_t - beta_er) q - (beta_t + alpha_er) q^2,
discount factors d_t = (1 + r)^-(t-1), prefix sums X_t = q_1 + ... + q_t,
weights w_t = d_t - d_{t+1} (d_{T+1} = 0) and the convex piecewise-linear
cumulative cost C. The objective is strictly concave, so the optimum is
unique, and it is found exactly: at r = 0 only X_T carries the cost, and
water-filling on its multiplier gives the schedule. At r > 0 a guess of
the stratum of each X_t gives the schedule in closed form, and the guess
is refined to a fixed point; it is kept when its KKT residual certifies
it (for 92-95% of random taxes and technologies on the bundled model, r
from 0.01 to 0.5), and otherwise, mostly where an X_t sits on a stratum
breakpoint, dynamic programming over the prefix sums gives the schedule.
Every answer carries its KKT residual. Technology choice is a small
enumeration on top; a technology that another one dominates in cost is
solved only when a profit-gap certificate cannot rule it out of the
follower's tie set.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import (
    Dominance,
    ExtendedModel,
    FollowerResponse,
    LeaderStrategy,
    TechParams,
    cumulative_cost,
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


@dataclass(frozen=True)
class BestResponse:
    response: FollowerResponse
    profit: float
    optimality_tag: bool
    # KKT residual in units of extraction; set for every answer of this
    # module, None from the grid oracle, whose answers are lattice optima
    kkt_residual: Optional[float] = None


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


# The derivative V' of a concave piecewise-quadratic V on [0, H], as the
# vertices (x, p) of a polyline with x nondecreasing and p nonincreasing,
# from x = 0 to x = H; a vertical piece (equal x) is a kink of V. Above its
# first vertex the curve goes on straight up and below its last straight
# down, so each level p has one x(p) = argmax_x V(x) - p x.
_Curve = list[tuple[float, float]]


def _x_at(curve: _Curve, levels: Sequence[float]) -> list[float]:
    """x(p) at each of the (descending) levels."""
    out = []
    i, n = 0, len(curve)
    for p in levels:
        while i < n and curve[i][1] > p:
            i += 1
        if i == 0:
            out.append(curve[0][0])
        elif i == n:
            out.append(curve[-1][0])
        else:
            (x0, p0), (x1, p1) = curve[i - 1], curve[i]
            out.append(x1 if p1 == p else x0 + (p0 - p) / (p0 - p1) * (x1 - x0))
    return out


def _level(curve: _Curve, x: float) -> float:
    """A level p with x(p) = x, for x on the curve's domain."""
    x0, p0 = curve[0]
    if x <= x0:
        return p0
    for x1, p1 in curve[1:]:
        if x == x1:
            return p1
        if x < x1:
            return p0 + (x - x0) / (x1 - x0) * (p1 - p0)
        x0, p0 = x1, p1
    return p0


def _sup_convolve(a: _Curve, b: _Curve) -> _Curve:
    """Curve of max_y A(y) + B(x - y): x(p) is the sum of the two x(p)."""
    levels = sorted({p for _, p in a} | {p for _, p in b}, reverse=True)
    return [
        (u + v, p) for u, v, p in zip(_x_at(a, levels), _x_at(b, levels), levels)
    ]


def _minus_cost(
    curve: _Curve, w: float, slopes: Sequence[float], inner: Sequence[float]
) -> _Curve:
    """Curve of V - w C: split at the inner breakpoints, then shift stratum
    m down by w s_m, which leaves a vertical piece at each breakpoint."""
    end = curve[-1][0]
    if end == 0.0:
        return [(0.0, curve[0][1] - w * slopes[0])]
    cuts = [b for b in inner if b < end]
    pts: _Curve = []
    k = 0
    for i, (x, p) in enumerate(curve):
        while k < len(cuts) and cuts[k] <= x:
            b = cuts[k]
            if b < x:
                x0, p0 = curve[i - 1]
                pts.append((b, p0 + (b - x0) / (x - x0) * (p - p0)))
            k += 1
        pts.append((x, p))
    xs = [x for x, _ in pts]
    bounds = [0.0] + cuts + [end]
    out: _Curve = []
    for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        shift = w * slopes[m]
        first, last = bisect.bisect_right(xs, lo) - 1, bisect.bisect_left(xs, hi)
        out.extend((x, p - shift) for x, p in pts[first : last + 1])
    return out


def _discounted_schedule(
    periods: _Periods, d: Sequence[float], w: Sequence[float],
    slopes: Sequence[float], inner: Sequence[float],
) -> list[float]:
    """Exact r > 0 optimum by dynamic programming over the prefix sums.

    V_1(X) = d_1 g_1(X) - w_1 C(X) and V_t(X) = max_y [V_{t-1}(y)
    + d_t g_t(X - y)] - w_t C(X) are concave, so each is kept as its
    derivative curve. X_T is where V_T' crosses 0; going back, the level
    at which the sup-convolution passes through X_t splits it into X_{t-1}
    and q_t, each read from its own curve, so bounds come out exact.
    """
    g = [
        [(0.0, dt * a), (h, dt * (a - 2.0 * c * h))]
        for (a, c, h), dt in zip(periods, d)
    ]
    # U_1 = d_1 g_1 and U_t = V_{t-1} (+) d_t g_t, with V_t = U_t - w_t C
    convolved = [g[0]]
    values = [_minus_cost(g[0], w[0], slopes, inner)]
    for t in range(1, len(periods)):
        convolved.append(_sup_convolve(values[-1], g[t]))
        values.append(_minus_cost(convolved[-1], w[t], slopes, inner))
    x = _x_at(values[-1], [0.0])[0]
    q = [0.0] * len(periods)
    for t in range(len(periods) - 1, 0, -1):
        p = _level(convolved[t], x)
        q[t] = _x_at(g[t], [p])[0]
        x = _x_at(values[t - 1], [p])[0]
    q[0] = min(max(x, 0.0), periods[0][2])
    return q


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
    prefix, x = [], 0.0
    for v in q:
        x += v
        prefix.append(x)
    lo = hi = residual = 0.0
    for t in range(len(q) - 1, -1, -1):
        a, c, h = periods[t]
        m = bisect.bisect_left(inner, prefix[t] - eps)
        c_lo = slopes[m]
        on_breakpoint = m < len(inner) and inner[m] <= prefix[t] + eps
        c_hi = slopes[m + 1] if on_breakpoint else c_lo
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


def _stratum_fixed_point(
    periods: _Periods, d: Sequence[float], w: Sequence[float],
    slopes: Sequence[float], inner: Sequence[float],
) -> list[float]:
    """The r > 0 schedule for a guessed stratum m_t of each prefix sum X_t.

    With X_t inside stratum m_t, the subgradient of C there is slopes[m_t],
    so S_t = sum_{s>=t} w_s slopes[m_s] and stationarity gives q_t in
    closed form. From m = 0, each round sets m_t to the stratum of the new
    X_t. A larger m raises S, which lowers q and the X_t, so the round is
    order-reversing: from the bottom, even rounds climb and odd rounds
    descend, and the rounds end in a fixed point or a 2-cycle. The last
    schedule is returned either way; only the KKT residual tells whether
    it is the optimum (it is not when an X_t is pinned on a breakpoint).
    """
    T = len(periods)
    m, prev = [0] * T, None
    while True:
        q, S = [0.0] * T, 0.0
        for t in range(T - 1, -1, -1):
            a, c, h = periods[t]
            S += w[t] * slopes[m[t]]
            x = (a - S / d[t]) / (2.0 * c)
            q[t] = 0.0 if x <= 0.0 else h if x >= h else x
        new, total = [], 0.0
        for v in q:
            total += v
            new.append(bisect.bisect_left(inner, total))
        if new == m or new == prev:
            return q
        m, prev = new, m


def _discounted_best_response(
    periods: _Periods, tech: TechParams, model: ExtendedModel
) -> BestResponse:
    d, w = model.discount_factors, model.cost_weights
    inner = model.strata.breakpoints[:-1]
    q = _stratum_fixed_point(periods, d, w, tech.slopes, inner)
    residual = _discounted_kkt_residual(q, periods, d, w, tech.slopes, inner)
    if residual > KKT_TOL * max(1.0, sum(q)):
        q = _discounted_schedule(periods, d, w, tech.slopes, inner)
        residual = _discounted_kkt_residual(q, periods, d, w, tech.slopes, inner)
    profit = x = prev_cost = 0.0
    for (a, c, _), dt, v in zip(periods, d, q):
        x += v
        cost = cumulative_cost(x, tech, model.strata)
        profit += dt * ((a - c * v) * v - tech.gamma_er - (cost - prev_cost))
        prev_cost = cost
    return BestResponse(
        response=FollowerResponse(q=tuple(q), a=tech.tech_id),
        profit=profit,
        optimality_tag=residual <= KKT_TOL * max(1.0, sum(q)),
        kkt_residual=residual,
    )


def best_response_fixed_tech(
    strat: LeaderStrategy, tech: TechParams, model: ExtendedModel
) -> BestResponse:
    """Unique profit-maximizing schedule for fixed taxes and technology."""
    if len(strat.tau) != model.T:
        raise ValueError("strategy length must equal the horizon T")
    slopes, breakpoints = tech.slopes, model.strata.breakpoints
    if any(b < a for a, b in zip(slopes, slopes[1:])):
        raise ValueError(
            f"technology {tech.tech_id}: stratum slopes must be nondecreasing "
            "(convex cumulative cost) to solve the follower"
        )
    periods = [
        (a - x - tech.beta_er, b + tech.alpha_er, h)
        for a, b, x, (_, h) in zip(model.alpha, model.beta, strat.tau, model.q_bounds)
    ]
    if model.r > 0.0:
        return _discounted_best_response(periods, tech, model)
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


def _profit_gap_bound(
    q: Sequence[float], dom: Dominance, model: ExtendedModel, d: Sequence[float]
) -> float:
    """Lower bound G on profit_A* - profit_B* for A = dom.dominator and
    B = dom.tech, from A's optimal schedule q*; d holds the discount factors.

    On any schedule q, B costs at least d_t (fixed_gap + unit_gap q_t) more
    than A per period (`Dominance`; the cumulative cost enters through
    sum_t w_t X_t = sum_t d_t q_t). A's profit is strongly concave with
    modulus d_t c_t, c_t = beta_t + alpha_er,A, so it lies at least
    sum_t d_t c_t (q_t - q*_t)^2 below its optimum. Hence, with delta =
    unit_gap, G = sum_t d_t [fixed_gap + m_t], m_t the least of
    c_t (q - q*_t)^2 + delta q over q >= 0: delta q*_t - delta^2 / (4 c_t)
    where q*_t >= delta / (2 c_t), else c_t q*_t^2. G is 0 at zero
    extraction when fixed_gap = 0.
    """
    delta = dom.unit_gap
    bound = 0.0
    for dt, beta, x in zip(d, model.beta, q):
        c = beta + dom.dominator.alpha_er
        if 2.0 * c * x >= delta:
            m = delta * x - delta * delta / (4.0 * c)
        else:
            m = c * x * x
        bound += dt * (dom.fixed_gap + m)
    return bound


def _best_response_skipping(
    strat: LeaderStrategy, model: ExtendedModel
) -> BestResponse:
    """`best_response` over every technology, solving a dominated one only
    when its dominator's certificate cannot keep it out of the tie set."""
    dominated = model.dominated_technologies
    answers = {
        tech.tech_id: best_response_fixed_tech(strat, tech, model)
        for tech in model.techs
        if tech.tech_id not in dominated
    }
    # the best profit of the full enumeration is at least this one, so a
    # profit below best - tol stays out of its tie set too
    best = max(br.profit for br in answers.values())
    slack = max(TIE_TOL, TIE_TOL * abs(best)) + CERT_MARGIN * max(1.0, abs(best))
    d = model.discount_factors
    discounted_periods = sum(d)
    for dom in model.dominance:
        ref = answers[dom.dominator.tech_id]
        need = best - ref.profit + slack
        # the bound's fixed-cost part alone often settles it
        if ref.optimality_tag and (
            dom.fixed_gap * discounted_periods > need
            or _profit_gap_bound(ref.response.q, dom, model, d) > need
        ):
            continue
        answers[dom.tech.tech_id] = best_response_fixed_tech(strat, dom.tech, model)
    candidates = [answers[t.tech_id] for t in model.techs if t.tech_id in answers]
    return _pick_optimistic(candidates, strat, model)


def best_response(
    strat: LeaderStrategy,
    model: ExtendedModel,
    tech_filter: Optional[int] = None,
) -> BestResponse:
    """Follower optimum over schedule and technology choice.

    Without a filter, a technology that another one dominates
    (`ExtendedModel.dominance`) is solved only when
    `_profit_gap_bound` cannot show it out of the profit tie; the answer
    is the one the full enumeration gives.
    """
    # a table with a nonconvex technology takes the full enumeration, which
    # rejects it
    if tech_filter is None and model.dominated_technologies and model.convex_costs:
        return _best_response_skipping(strat, model)
    techs = (
        model.techs if tech_filter is None else (model.tech(tech_filter),)
    )
    candidates = [best_response_fixed_tech(strat, tech, model) for tech in techs]
    return _pick_optimistic(candidates, strat, model)
