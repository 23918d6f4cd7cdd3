"""Independent checks of the solver's written frontier.

Everything here is derived from the model's equations and the config JSON
the benchmark writes; nothing imports the program under test. The checks:

- objectives: revenue, damage and profit recomputed from each row's tau, q
  and technology;
- nondominance: the rows are mutually nondominated;
- a KKT certificate for each row's fixed-technology follower problem
  (any discount rate);
- an exact follower reference for r = 0, by water-filling on the
  multiplier of the cumulative-cost term;
- the closed-form frontier of the single-period analytical model.

Follower problem for taxes tau and technology a, with discount factors
d_t = (1 + r)^-(t-1) and prefix sums X_t = q_1 + ... + q_t:

    max  sum_t d_t [(alpha_t - tau_t - beta_er) q_t - (beta_t + alpha_er) q_t^2
                    - gamma_er]  -  sum_t w_t C(X_t),   0 <= q_t <= qbar_t,

where w_t = d_t - d_{t+1} (d_{T+1} = 0) telescopes the per-period charges
C(X_t) - C(X_{t-1}) and C is the piecewise-linear cumulative cost.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

# Tolerances, set from measurements of the solver's frontiers on the three
# benchmark workloads (see README.md for the measured maxima).
OBJECTIVE_RTOL = 1e-8
KKT_TOL = 1e-5
PROFIT_GAP_TOL = 1e-7
# the solver breaks follower-profit ties within this relative tolerance in
# the leader's favour
TIE_RTOL = 1e-9
HV_RTOL = 1e-7
# frontier.csv prints 12 significant digits
PRINT_RTOL = 1e-11
# activity thresholds of the KKT certificate: a q_t this close to a bound,
# or a prefix sum this close to a stratum breakpoint, counts as on it
ACTIVE_EPS = 1e-6


@dataclass(frozen=True)
class Tech:
    tech_id: int
    k: float
    alpha_er: float
    beta_er: float
    gamma_er: float
    slopes: tuple[float, ...]


@dataclass(frozen=True)
class Model:
    T: int
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    r: float
    breakpoints: tuple[float, ...]
    techs: tuple[Tech, ...]
    q_max: tuple[float, ...]

    @staticmethod
    def from_config(ext: dict) -> "Model":
        """Model of the 'extended' section of a config JSON.

        Absent q_bounds default to the revenue-maximising quantity
        alpha_t / (2 beta_t), as documented for the extended model.
        """
        T = int(ext["T"])
        alpha = tuple(float(a) for a in ext["alpha"])
        beta = tuple(float(b) for b in ext["beta"])
        cum, total = [], 0.0
        for amount in ext["strata"]:
            total += float(amount)
            cum.append(total)
        techs = tuple(
            Tech(
                tech_id=int(td["tech_id"]),
                k=float(td["k"]),
                alpha_er=float(td["alpha_er"]),
                beta_er=float(td["beta_er"]),
                gamma_er=float(td["gamma_er"]),
                slopes=tuple(float(s) for s in td["slopes"]),
            )
            for td in ext["technologies"]
        )
        if ext.get("q_bounds") is not None:
            q_max = tuple(float(hi) for _, hi in ext["q_bounds"])
        else:
            q_max = tuple(a / (2.0 * b) for a, b in zip(alpha, beta))
        return Model(
            T=T,
            alpha=alpha,
            beta=beta,
            r=float(ext.get("r", 0.0)),
            breakpoints=tuple(cum),
            techs=techs,
            q_max=q_max,
        )

    def tech(self, tech_id: int) -> Tech:
        for t in self.techs:
            if t.tech_id == tech_id:
                return t
        raise KeyError(f"unknown technology id {tech_id}")

    def discounts(self) -> list[float]:
        return [(1.0 + self.r) ** -t for t in range(self.T)]

    def cost_weights(self) -> list[float]:
        d = self.discounts() + [0.0]
        return [d[t] - d[t + 1] for t in range(self.T)]

    def reference_point(self, tech_ids: Sequence[int]) -> tuple[float, float]:
        """Hypervolume reference (0, k_max * sum_t qbar_t)."""
        k_max = max(self.tech(a).k for a in tech_ids)
        return 0.0, k_max * sum(self.q_max)


def cumulative_cost(x: float, tech: Tech, breakpoints: Sequence[float]) -> float:
    """C(x): slope s_m on stratum m; the last slope extends past the stock."""
    cost, prev = 0.0, 0.0
    for slope, b in zip(tech.slopes[:-1], breakpoints[:-1]):
        if x <= b:
            return cost + slope * (x - prev)
        cost += slope * (b - prev)
        prev = b
    return cost + tech.slopes[-1] * (x - prev)


def subdifferential(
    x: float, tech: Tech, breakpoints: Sequence[float], eps: float
) -> tuple[float, float]:
    """Interval of subgradients of C at x; within eps of an inner
    breakpoint it spans the two adjacent slopes."""
    for m, b in enumerate(breakpoints[:-1]):
        if abs(x - b) <= eps:
            lo, hi = tech.slopes[m], tech.slopes[m + 1]
            return min(lo, hi), max(lo, hi)
        if x < b:
            return tech.slopes[m], tech.slopes[m]
    return tech.slopes[-1], tech.slopes[-1]


def objectives(
    model: Model, tech: Tech, tau: Sequence[float], q: Sequence[float]
) -> tuple[float, float, float]:
    """(revenue, damage, profit): discounted tax revenue, undiscounted
    damage k * sum(q), and the follower's discounted profit."""
    d = model.discounts()
    w = model.cost_weights()
    revenue = sum(d[t] * tau[t] * q[t] for t in range(model.T))
    damage = tech.k * sum(q)
    profit, x = 0.0, 0.0
    for t in range(model.T):
        x += q[t]
        smooth = (
            (model.alpha[t] - tau[t] - tech.beta_er) * q[t]
            - (model.beta[t] + tech.alpha_er) * q[t] * q[t]
            - tech.gamma_er
        )
        profit += d[t] * smooth - w[t] * cumulative_cost(x, tech, model.breakpoints)
    return revenue, damage, profit


def kkt_residual(
    model: Model,
    tech: Tech,
    tau: Sequence[float],
    q: Sequence[float],
    eps: float = ACTIVE_EPS,
) -> float:
    """Largest violation of the follower's KKT conditions at q (0 if met).

    Stationarity asks for subgradients c_s in dC(X_s) with
    S_t = sum_{s >= t} w_s c_s equal to the smooth gradient g_t where q_t is
    interior, S_t >= g_t where q_t = 0 and S_t <= g_t where q_t = qbar_t.
    The set of reachable S_t is an interval, built backwards from
    S_{T+1} = 0; an empty intersection is a violation, measured as the gap.
    """
    d = model.discounts()
    w = model.cost_weights()
    prefix, x = [], 0.0
    for v in q:
        x += v
        prefix.append(x)
    lo, hi = 0.0, 0.0
    residual = 0.0
    for t in range(model.T - 1, -1, -1):
        g = d[t] * (
            model.alpha[t]
            - tau[t]
            - tech.beta_er
            - 2.0 * (model.beta[t] + tech.alpha_er) * q[t]
        )
        c_lo, c_hi = subdifferential(prefix[t], tech, model.breakpoints, eps)
        lo, hi = lo + w[t] * c_lo, hi + w[t] * c_hi
        need_lo = -math.inf if q[t] >= model.q_max[t] - eps else g
        need_hi = math.inf if q[t] <= eps else g
        new_lo, new_hi = max(lo, need_lo), min(hi, need_hi)
        if new_lo <= new_hi:
            lo, hi = new_lo, new_hi
        else:
            residual = max(residual, new_lo - new_hi)
            # continue from the reachable point nearest the requirement
            lo = hi = hi if hi < need_lo else lo
    return residual


def waterfill(
    model: Model, tech: Tech, tau: Sequence[float]
) -> tuple[list[float], float]:
    """Exact follower optimum (schedule, profit) for r = 0.

    With no discounting the cost term is C(sum q), so
    q_t(lam) = clip((alpha_t - tau_t - beta_er - lam) / (2 (beta_t + alpha_er)),
    0, qbar_t) with lam in dC(sum q). The total is nonincreasing and
    piecewise linear in lam, so either some slope s_m yields a total inside
    stratum m, or the total sits on a breakpoint and lam is found exactly
    between the two adjacent slopes.
    """
    if model.r != 0.0:
        raise ValueError("water-filling reference covers r = 0 only")
    if any(b < a for a, b in zip(tech.slopes, tech.slopes[1:])):
        raise ValueError("stratum slopes must be nondecreasing (convex cost)")
    lin = [model.alpha[t] - tau[t] - tech.beta_er for t in range(model.T)]
    quad = [model.beta[t] + tech.alpha_er for t in range(model.T)]

    def schedule(lam: float) -> list[float]:
        return [
            min(max((lin[t] - lam) / (2.0 * quad[t]), 0.0), model.q_max[t])
            for t in range(model.T)
        ]

    def total(lam: float) -> float:
        return sum(schedule(lam))

    def solve_total(target: float, lam_lo: float, lam_hi: float) -> float:
        """lam in [lam_lo, lam_hi] with total(lam) = target; exact, since
        total is linear between the kinks of the clipped terms."""
        kinks = sorted(
            {lam_lo, lam_hi}
            | {
                v
                for t in range(model.T)
                for v in (lin[t], lin[t] - 2.0 * quad[t] * model.q_max[t])
                if lam_lo < v < lam_hi
            }
        )
        for a, b in zip(kinks, kinks[1:]):
            ta, tb = total(a), total(b)
            if tb <= target <= ta:
                if ta == tb:
                    return a
                return a + (ta - target) / (ta - tb) * (b - a)
        raise ArithmeticError("no bracket for the breakpoint total")

    slopes, bps = tech.slopes, model.breakpoints
    lam: Optional[float] = None
    for m, s in enumerate(slopes):
        lo_x = bps[m - 1] if m > 0 else 0.0
        hi_x = bps[m] if m < len(slopes) - 1 else math.inf
        if lo_x <= total(s) <= hi_x:
            lam = s
            break
    if lam is None:
        for m in range(len(slopes) - 1):
            b = bps[m]
            if total(slopes[m + 1]) <= b <= total(slopes[m]):
                lam = solve_total(b, slopes[m], slopes[m + 1])
                break
    if lam is None:
        raise ArithmeticError("water-filling found no multiplier")
    q = schedule(lam)
    return q, objectives(model, tech, tau, q)[2]


def analytical_front_hypervolume(p: dict, ref_damage: float) -> float:
    """Hypervolume of the closed-form frontier of the single-period model.

    The follower plays q = (alpha - gamma - tau) / (2 (beta + delta)), so the
    leader's attainable points are revenue (alpha - gamma - 2 (beta + delta) q) q
    at damage k q; revenue rises with q up to its peak, after which points
    are dominated. Reference point (0, ref_damage).
    """
    alpha, beta, delta, gamma, k = (
        float(p[name]) for name in ("alpha", "beta", "delta", "gamma", "k")
    )
    a, b = alpha - gamma, 2.0 * (beta + delta)
    q_hi = min(a / (2.0 * b), alpha / (2.0 * beta))
    top = (a - b * q_hi) * q_hi
    area = k * (a * q_hi**2 / 2.0 - b * q_hi**3 / 3.0)
    return area + (ref_damage - k * q_hi) * top


def hypervolume(
    points: Sequence[tuple[float, float]], ref: tuple[float, float]
) -> float:
    """Area dominated by (revenue, damage) points; revenue up, damage down."""
    ref_r, ref_d = ref
    pts = sorted((d, r) for r, d in points if d <= ref_d and r >= ref_r)
    hv, best = 0.0, ref_r
    for i, (d, r) in enumerate(pts):
        best = max(best, r)
        d_next = pts[i + 1][0] if i + 1 < len(pts) else ref_d
        hv += (best - ref_r) * (d_next - d)
    return hv


@dataclass(frozen=True)
class Row:
    tech: int
    revenue: float
    damage: float
    profit: float
    tau: tuple[float, ...]
    q: tuple[float, ...]


def read_frontier(path: str, T: int) -> list[Row]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return [
            Row(
                tech=int(rec["tech"]),
                revenue=float(rec["revenue"]),
                damage=float(rec["damage"]),
                profit=float(rec["profit"]),
                tau=tuple(float(rec[f"tau_{t}"]) for t in range(1, T + 1)),
                q=tuple(float(rec[f"q_{t}"]) for t in range(1, T + 1)),
            )
            for rec in reader
        ]


def dominated_rows(rows: Sequence[Row]) -> int:
    """Rows that another row beats in both objectives by more than the
    printed precision; closer pairs cannot be ordered from the output."""
    order = sorted(rows, key=lambda x: x.damage)
    bad, j, best_rev = 0, 0, -math.inf
    for row in order:
        limit = row.damage - PRINT_RTOL * max(1.0, abs(row.damage))
        while j < len(order) and order[j].damage < limit:
            best_rev = max(best_rev, order[j].revenue)
            j += 1
        if best_rev > row.revenue + PRINT_RTOL * max(1.0, abs(row.revenue)):
            bad += 1
    return bad


@dataclass
class FrontierReport:
    rows: int
    hypervolume: float
    failed_rows: int
    dominated: int
    max_objective_rel_err: float
    max_kkt_residual: float
    max_profit_gap: Optional[float]
    errors: list[str]


def check_frontier(
    rows: Sequence[Row], model: Model, tech_ids: Sequence[int]
) -> FrontierReport:
    """Run every row-level check; return the worst figures and a count of
    rows failing any of them.

    tech_ids are the technologies the follower could choose in this run.
    """
    exact = model.r == 0.0
    failed = 0
    worst_obj = worst_kkt = 0.0
    worst_gap: Optional[float] = 0.0 if exact else None
    errors: list[str] = []
    for i, row in enumerate(rows):
        problems = []
        if row.tech not in tech_ids:
            failed += 1
            errors.append(f"row {i}: technology {row.tech} not allowed")
            continue
        tech = model.tech(row.tech)
        revenue, damage, profit = objectives(model, tech, row.tau, row.q)
        for name, got, want in (
            ("revenue", row.revenue, revenue),
            ("damage", row.damage, damage),
            ("profit", row.profit, profit),
        ):
            err = abs(got - want) / max(1.0, abs(want))
            worst_obj = max(worst_obj, err)
            if err > OBJECTIVE_RTOL:
                problems.append(f"{name} {got!r} != {want!r}")
        kkt = kkt_residual(model, tech, row.tau, row.q)
        worst_kkt = max(worst_kkt, kkt)
        if kkt > KKT_TOL:
            problems.append(f"KKT residual {kkt:.3g}")
        if exact:
            refs = {a: waterfill(model, model.tech(a), row.tau)[1] for a in tech_ids}
            gap = abs(refs[row.tech] - profit)
            worst_gap = max(worst_gap, gap)
            if gap > PROFIT_GAP_TOL * max(1.0, abs(profit)):
                problems.append(f"profit gap {gap:.3g} to the exact optimum")
            best = max(refs.values())
            if best - profit > TIE_RTOL * max(1.0, abs(best)) + PROFIT_GAP_TOL * max(
                1.0, abs(profit)
            ):
                problems.append(f"another technology earns {best - profit:.3g} more")
        if problems:
            failed += 1
            errors.append(f"row {i}: " + "; ".join(problems))
    ref = model.reference_point(tech_ids)
    return FrontierReport(
        rows=len(rows),
        hypervolume=hypervolume([(r.revenue, r.damage) for r in rows], ref),
        failed_rows=failed,
        dominated=dominated_rows(rows),
        max_objective_rel_err=worst_obj,
        max_kkt_residual=worst_kkt,
        max_profit_gap=worst_gap,
        errors=errors,
    )
