"""Verification checks: closed-form consistency, oracle equivalence,
telescoping, convexity, and evolutionary frontier convergence.

Each check returns a CheckResult with the measured deviation so the CLI can
print a pass/fail table; the test suite reuses the same functions at the
acceptance budgets.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import namedtuple

from . import analytical as ana
from .bilevel import EaConfig, evolve
from .lower import best_response
from .model import (
    AnalyticalParams,
    ExtendedModel,
    LeaderStrategy,
    analytical_as_extended,
)
from .oracle import GridSpec, grid_best_response, weighted_scalar_check


class CheckResult(
    namedtuple("CheckResult", "name passed deviation detail", defaults=("",))
):
    __slots__ = ()
    name: str
    passed: bool
    deviation: float
    detail: str


FOC_WEIGHTS = (0.02, 0.1, 0.25, 0.5, 0.75, 1.0)
# tax grid step of the closed-form check, and its tolerance on the tax
FOC_GRID_STEP = 1e-3
# samples of the closed-form frontier, uniform in damage
FRONTIER_SAMPLES = 4001


# central-difference step, relative to the scale of the point (absolute
# below 1). Both differenced objectives are quadratics where they are
# differenced, so a step of any size has no truncation error; their rounding
# grows like alpha^2 / (beta + delta), and a step that grows with the point
# keeps it small against 1e-6
FD_STEP = 1e-4


def _fd_central(f, x: float, scale: float, cap: float = math.inf) -> float:
    """Central difference of f at x, with a step of FD_STEP relative to
    `scale`, and at most `cap`."""
    h = min(FD_STEP * max(1.0, scale), cap)
    return (f(x + h) - f(x - h)) / (2.0 * h)


def check_closed_form(p: AnalyticalParams) -> CheckResult:
    """First-order conditions and grid-oracle agreement of the closed forms,
    at the weights above the instance's feasibility threshold (below it the
    induced extraction is clamped at 0 and the FOCs do not hold)."""
    w_min = ana.feasibility_threshold(p)
    weights = [w for w in FOC_WEIGHTS if w > w_min]
    grid = GridSpec(lows=(0.0,), highs=(p.alpha,), step=FOC_GRID_STEP)
    # a tax error h moves the extraction by h / (2 (beta + delta))
    q_step = FOC_GRID_STEP / (2 * (p.beta + p.delta))
    worst = 0.0
    for w, (tau_grid, _) in zip(weights, weighted_scalar_check(p, weights, grid)):
        tau = ana.optimal_tax(w, p)
        q = ana.optimal_extraction(w, p)
        # follower FOC at the induced extraction
        d_pi = _fd_central(lambda x: ana.follower_profit(x, tau, p), q, q)
        # leader FOC in the tax, with the follower on its best response
        def leader(t: float) -> float:
            qt = ana.follower_best_response(t, p)
            return w * t * qt - (1.0 - w) * p.k * qt

        # its step stays short of alpha - gamma, where the extraction
        # clamps at 0 and the leader's objective has a kink: at most half
        # the way there, as a weight just above w_min puts the tax nearer
        # to it than the step of 1e-4 kept below a scale of 1
        room = p.alpha - p.gamma - tau
        cap = 0.5 * room if room > 0.0 else math.inf
        d_f = _fd_central(leader, tau, min(tau, room), cap)
        worst = max(worst, abs(d_pi), abs(d_f))
        worst = max(worst, abs(tau_grid - tau) - FOC_GRID_STEP)
        q_grid = ana.follower_best_response(tau_grid, p)
        worst = max(worst, abs(q_grid - q) - q_step)
    return CheckResult(
        name="closed-form first-order conditions and grid oracle",
        passed=worst <= 1e-6,
        deviation=worst,
    )


def check_threshold(p: AnalyticalParams) -> CheckResult:
    """The threshold is the weight where induced extraction starts: 0 at
    w_min and positive one step of 1e-9 above it."""
    w_min = ana.feasibility_threshold(p)
    dev = ana.optimal_extraction(w_min, p) if w_min > 0 else 0.0
    above = ana.optimal_extraction(w_min + 1e-9, p)
    return CheckResult(
        name="feasibility threshold",
        passed=dev <= 1e-12 and above > 0,
        deviation=dev,
        detail=f"w_min {w_min:.6g}, extraction {above:.3e} one step above",
    )


def check_frontier_endpoints(p: AnalyticalParams) -> CheckResult:
    """The sweep runs from no extraction, induced at the feasibility
    threshold, to the revenue optimum. With k = 0 the threshold is 0 and
    every weight has the revenue optimum, so both ends are that point."""
    sweep = ana.pareto_sweep(p, 100)
    low, high = sweep[0], sweep[-1]
    expected = ana.solve_weighted(1.0, p)
    if ana.feasibility_threshold(p) == 0.0:
        low_revenue, low_damage = expected.revenue, expected.damage
    else:
        low_revenue = low_damage = 0.0
    dev = max(
        abs(low.revenue - low_revenue),
        abs(low.damage - low_damage),
        abs(high.revenue - expected.revenue),
        abs(high.damage - expected.damage),
    )
    return CheckResult(
        name="frontier endpoints",
        passed=dev <= 1e-9,
        deviation=dev,
    )


def check_telescoping(model: ExtendedModel, n_schedules: int) -> CheckResult:
    """Per-period increments of each charged cost curve must sum to C."""
    rng = random.Random(0)
    worst = 0.0
    costs = [k.cost for k in model.follower_constants.values()]
    for _ in range(n_schedules):
        q = [hi * rng.random() for _, hi in model.q_bounds]
        for cost in costs:
            total = cum = 0.0
            for x in q:
                nxt = cum + x
                total += cost(nxt) - cost(cum)
                cum = nxt
            worst = max(worst, abs(total - cost(cum)))
    return CheckResult(
        name="telescoping of extraction/purification increments",
        passed=worst <= 1e-9,
        deviation=worst,
    )


def check_cost_convexity(model: ExtendedModel) -> CheckResult:
    """Midpoint convexity of the cost curve each technology's follower
    charges (`FollowerConstants.cost`) at 200 random pairs. `TechParams`
    already rejects decreasing slopes; this tests that the curve computes
    the convex cost they define."""
    worst = 0.0
    rng = random.Random(0)
    span = 1.5 * model.strata.stock
    costs = [k.cost for k in model.follower_constants.values()]
    for _ in range(200):
        x, y = span * rng.random(), span * rng.random()
        for cost in costs:
            gap = cost((x + y) / 2.0) - 0.5 * (cost(x) + cost(y))
            if gap > 1e-9:
                worst = max(worst, gap)
    return CheckResult(
        name="convexity of the piecewise-linear cost",
        passed=worst == 0.0,
        deviation=worst,
    )


def random_strategies(
    model: ExtendedModel, n: int, seed: int
) -> list[LeaderStrategy]:
    rng = random.Random(seed)
    bounds = model.tau_bounds
    return [
        LeaderStrategy(tau=tuple(lo + (hi - lo) * rng.random() for lo, hi in bounds))
        for _ in range(n)
    ]


def check_oracle_equivalence(model: ExtendedModel, n_strategies: int) -> CheckResult:
    """Deterministic best response vs brute-force grid plus refinement, on
    the grid 0, 5, ..., 90 per period cut to the extraction box."""
    highs = tuple(min(90.0, hi) for _, hi in model.q_bounds)
    grid = GridSpec(lows=(0.0,) * model.T, highs=highs, step=5.0)
    worst = 0.0
    for strat in random_strategies(model, n_strategies, 7):
        solver = best_response(strat, model)
        oracle = grid_best_response(strat, model, grid)
        worst = max(worst, abs(solver.profit - oracle.profit))
    return CheckResult(
        name="lower-solver vs grid oracle profit",
        passed=worst <= 1e-2,
        deviation=worst,
        detail=f"{n_strategies} random strategies",
    )


def frontier_metrics(entries, p: AnalyticalParams) -> tuple[float, float]:
    """Max normalized distance of archive points to the closed-form
    frontier, and the fraction of the damage range the archive spans.

    The frontier is sampled uniformly in damage: on it the tax satisfies
    the follower's inverted best response tau = alpha - gamma -
    2(beta+delta)q, so revenue follows in closed form.
    """
    q_top = ana.optimal_extraction(1.0, p)
    step = q_top / (FRONTIER_SAMPLES - 1)
    curve_q = [i * step for i in range(FRONTIER_SAMPLES - 1)] + [q_top]
    curve_d = [p.k * q for q in curve_q]
    curve_r = [(p.alpha - p.gamma - 2.0 * (p.beta + p.delta) * q) * q for q in curve_q]
    rev_range = max(curve_r) - min(curve_r)
    dam_range = max(curve_d) - min(curve_d)
    if not entries:
        return float("inf"), 0.0
    # with k = 0 nothing does damage: there is no damage range to scale by,
    # and any archive spans all of it
    dam_scale = dam_range or 1.0
    dist = 0.0
    for e in entries:
        rev, dam = e.revenue, e.damage
        # curve_d is nondecreasing (k >= 0): scan outward from the point's
        # damage, and stop a direction once the damage gap alone, which
        # only grows along it, is no nearer than the best sample
        best = math.inf
        start = bisect.bisect_left(curve_d, dam)
        for side in (range(start, FRONTIER_SAMPLES), range(start - 1, -1, -1)):
            for j in side:
                dd = (dam - curve_d[j]) / dam_scale
                if math.sqrt(dd * dd) >= best:
                    break
                dr = (rev - curve_r[j]) / rev_range
                best = min(best, math.sqrt(dr * dr + dd * dd))
        dist = max(dist, best)
    damages = [e.damage for e in entries]
    if dam_range == 0.0:
        return dist, 1.0
    return dist, (max(damages) - min(damages)) / dam_range


def check_frontier_convergence(
    p: AnalyticalParams, population_size: int, max_generations: int
) -> CheckResult:
    """The bilevel EA on the embedded single-period instance must land
    within normalised distance 0.01 of the closed-form frontier and span 90%
    of its damage range."""
    model = analytical_as_extended(p)
    config = EaConfig(
        population_size=population_size,
        max_generations=max_generations,
        seed=1,
    )
    archive = evolve(model, config).archive
    dist, coverage = frontier_metrics(archive.entries, p)
    return CheckResult(
        name="bilevel EA convergence to the closed-form frontier",
        passed=dist <= 0.01 and coverage >= 0.9,
        deviation=dist,
        detail=f"damage coverage {coverage:.3f}, archive {len(archive)}",
    )


def run_all_checks(
    p: AnalyticalParams,
    model: ExtendedModel | None,
    quick: bool = False,
) -> list[CheckResult]:
    """Execute the verification battery; `quick` trims the slow budgets."""
    results = [
        check_closed_form(p),
        check_threshold(p),
        check_frontier_endpoints(p),
    ]
    if model is not None:
        results.append(check_cost_convexity(model))
        results.append(
            check_telescoping(model, n_schedules=200 if quick else 1000)
        )
        results.append(
            check_oracle_equivalence(model, n_strategies=5 if quick else 50)
        )
    results.append(
        check_frontier_convergence(
            p,
            population_size=24 if quick else 60,
            max_generations=40 if quick else 200,
        )
    )
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        lines.append(f"[{status}] {r.name}: deviation {r.deviation:.3e}{detail}")
    return "\n".join(lines)
