"""Independent r > 0 follower reference: dynamic programming over the
prefix sums, and the stratum fixed point that the DP once backed up.

The library solves the discounted follower by shooting on S_1
(`minetax.lower`); these two solvers share none of its logic and stay
here so the tests can compare against them. `_discounted_schedule` is
exact; `_stratum_fixed_point` is exact only where the KKT residual
certifies its answer.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from minetax.lower import _Periods

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
