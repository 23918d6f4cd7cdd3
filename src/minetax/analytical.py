"""Closed-form solution of the single-period taxation game.

The follower's concave profit gives a linear best response in the tax; the
leader's weighted objective (weight w on revenue, 1-w on damage) then has a
closed-form optimal tax. Sweeping w traces the exact Pareto frontier.
"""

from __future__ import annotations

from collections import namedtuple

from .model import AnalyticalParams


class WeightedSolution(
    namedtuple("WeightedSolution", "w tau_star q_star revenue damage profit")
):
    """One weighted-sum optimum of the leader."""

    __slots__ = ()
    w: float
    tau_star: float
    q_star: float
    revenue: float
    damage: float
    profit: float


def follower_best_response(tau: float, p: AnalyticalParams) -> float:
    """Profit-maximizing extraction for a given per-unit tax, clamped at 0."""
    if tau < 0:
        raise ValueError("tax must be nonnegative")
    return max(0.0, (p.alpha - p.gamma - tau) / (2.0 * (p.beta + p.delta)))


def follower_profit(q: float, tau: float, p: AnalyticalParams) -> float:
    """Mine profit at extraction q under tax tau."""
    return (
        (p.alpha - p.beta * q) * q
        - (p.delta * q * q + p.gamma * q + p.phi)
        - tau * q
    )


def optimal_tax(w: float, p: AnalyticalParams) -> float:
    """Leader's optimal tax for revenue weight w in (0, 1]."""
    if w <= 0:
        raise ValueError("weight must be positive")
    return (p.alpha - p.gamma - p.k) / 2.0 + p.k / (2.0 * w)


def optimal_extraction(w: float, p: AnalyticalParams) -> float:
    """Induced extraction at the optimal tax, clamped at 0."""
    if w <= 0:
        raise ValueError("weight must be positive")
    q = (w * (p.alpha - p.gamma) - (1.0 - w) * p.k) / (4.0 * w * (p.beta + p.delta))
    return max(0.0, q)


def feasibility_threshold(p: AnalyticalParams) -> float:
    """Smallest weight with nonnegative induced extraction."""
    return p.k / (p.alpha - p.gamma + p.k)


def solve_weighted(w: float, p: AnalyticalParams) -> WeightedSolution:
    tau = optimal_tax(w, p)
    q = optimal_extraction(w, p)
    return WeightedSolution(
        w=w,
        tau_star=tau,
        q_star=q,
        revenue=tau * q,
        damage=p.k * q,
        profit=follower_profit(q, tau, p),
    )


def pareto_sweep(p: AnalyticalParams, n_points: int) -> list[WeightedSolution]:
    """Exact Pareto frontier on a uniform weight grid over [w_min, 1].

    Returned sorted by damage (equivalently by w); consecutive points are
    mutually nondominated.
    """
    if n_points < 2:
        raise ValueError("need at least two sweep points")
    # with k = 0 the threshold is 0, where the leader would be indifferent
    # to every tax; every weight in (0, 1] then has the same optimum
    w_min = feasibility_threshold(p) or 1.0 / n_points
    step = (1.0 - w_min) / (n_points - 1)
    sols = [solve_weighted(w_min + i * step, p) for i in range(n_points)]
    return sorted(sols, key=lambda s: s.damage)


def sweep_to_csv(solutions: list[WeightedSolution], path: str) -> None:
    # one format string per row and CRLF row ends, as the cli writers write
    with open(path, "w", newline="") as f:
        f.write("w,tau,q,revenue,damage,profit\r\n")
        f.writelines(
            "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\r\n"
            % (s.w, s.tau_star, s.q_star, s.revenue, s.damage, s.profit)
            for s in solutions
        )
