"""Brute-force grid verifiers. Test/verification support only: the solver
modules never call into this code, and of the lower solver it uses only
the result type and the optimistic tie-break."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .lower import BestResponse, _pick_optimistic
from .model import (
    AnalyticalParams,
    ExtendedModel,
    LeaderStrategy,
    TechParams,
    cumulative_cost,
)

# DP steps the exhaustive grid of one grid_best_response may take over all
# technologies, before refinement: about 4-7 s at the 1.4-2.3e6 steps/s
# measured on 2 shared cores (Python 3.11)
EVALUATION_CAP = 10**7

# points one grid axis may hold: check_closed_form, whose tax axis is the
# longest, peaked at 168 MB RSS with 1e6 points and 321 MB with 2e6
AXIS_CAP = 2 * 10**6

# halvings of the grid step that refine each technology's grid winner
REFINE_HALVINGS = 30


class GridSpec(namedtuple("GridSpec", "lows highs step")):
    __slots__ = ()
    lows: tuple[float, ...]
    highs: tuple[float, ...]
    step: float

    def __new__(cls, lows, highs, step):
        if step <= 0:
            raise ValueError("grid step must be positive")
        if len(lows) != len(highs):
            raise ValueError("lows and highs must have equal length")
        if any(lo > hi for lo, hi in zip(lows, highs)):
            raise ValueError("grid bounds must be ordered")
        return super().__new__(cls, lows, highs, step)

    def axis(self, i: int) -> list[float]:
        """The points lows[i] + k * step, k = 0, 1, ..., up to highs[i]."""
        lo, hi = self.lows[i], self.highs[i]
        # a float first: an infinite count cannot reach int()
        n = (hi - lo) / self.step
        if not n + 2 <= AXIS_CAP:
            raise ValueError(f"grid axis {i}: {n + 2:.10g} points (cap {AXIS_CAP})")
        # one point more than the division promises, in case it rounds down
        n = int(n) + 2
        return [x for x in (lo + k * self.step for k in range(n)) if x <= hi]


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
    # the model's own discount_factors are among what this oracle checks,
    # and so is the solver's cost curve: C is `cumulative_cost`'s own walk
    d = [(1.0 + model.r) ** (-(t - 1)) for t in range(1, model.T + 1)]
    w = [a - b for a, b in zip(d, d[1:] + [0.0])]
    # X_t -> (-profit, schedule) of the best prefix: the least pair has the
    # largest profit and, among exact ties, the first schedule
    levels = {0.0: (0.0, ())}
    for t in range(model.T):
        axis = grid.axis(t)
        lin = model.alpha[t] - tau[t] - tech.beta_er
        quad = model.beta[t] + tech.alpha_er
        gains = [d[t] * (lin * q - quad * q * q) for q in axis]
        # adding 0.0 leaves every float unchanged
        fixed = sum(d) * tech.gamma_er if t == model.T - 1 else 0.0
        # w_t C(X) is 0.0 where w_t = 0 (every t < T at r = 0)
        costs = {
            x: w[t] * cumulative_cost(x, tech, model.strata) if w[t] else 0.0
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


def _refine(
    tau: tuple[float, ...],
    tech: TechParams,
    model: ExtendedModel,
    q: tuple[float, ...],
    step: float,
) -> tuple[tuple[float, ...], float]:
    """Best schedule, and its profit, on the lattice of q refined to step
    step / 2**REFINE_HALVINGS, within the extraction box.

    In the prefix sums X_t the profit is sum_t d_t g_t(X_t - X_{t-1})
    - sum_t w_t C(X_t) with concave g_t, w_t >= 0 and C convex (its
    slopes are nondecreasing), so the profit is L-natural-concave on every
    lattice h Z^T. There a schedule that no move X + h chi_S or X - h chi_S
    improves is best on the whole lattice (Murota, Discrete Convex
    Analysis, SIAM 2003, ch. 7), and such a move changes each q_t by at
    most h. So each halving of h searches the window of +-2h per period
    around the incumbent with the grid DP, and recentres while the winner
    lies on a window edge the box does not impose. It recentres only while
    the profit strictly rises: at fine steps float ties would let it walk.
    """
    box = model.q_bounds
    q, value = _grid_argmax_fixed_tech(tau, tech, model, GridSpec(q, q, step))
    for _ in range(REFINE_HALVINGS):
        step /= 2.0
        while True:
            # +-2 steps per period, cut to the lattice points inside the box
            lows = tuple(
                next(x - k * step for k in (2, 1, 0) if x - k * step >= lo)
                for x, (lo, _) in zip(q, box)
            )
            highs = tuple(min(x + 2.0 * step, hi) for x, (_, hi) in zip(q, box))
            best, best_value = _grid_argmax_fixed_tech(
                tau, tech, model, GridSpec(lows, highs, step)
            )
            if best_value <= value:
                break
            q, value = best, best_value
            # a free edge: a neighbour inside the box but outside the window
            if not any(
                lo <= x - step < w_lo or w_hi < x + step <= hi
                for x, w_lo, w_hi, (lo, hi) in zip(q, lows, highs, box)
            ):
                break
    return q, value


def grid_best_response(
    strat: LeaderStrategy,
    model: ExtendedModel,
    grid: GridSpec,
) -> BestResponse:
    """Exhaustive grid search over schedules and technologies, each grid
    winner refined on the grid's lattice by _refine. The answer is tagged
    optimal: it is the optimum on the finest lattice."""
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
        q, profit = _refine(strat.tau, tech, model, q, grid.step)
        candidates.append(
            BestResponse(q=q, a=tech.tech_id, profit=profit, optimality_tag=True)
        )
    return _pick_optimistic(candidates, strat, model)


def weighted_scalar_check(
    p: AnalyticalParams, weights: Sequence[float], grid: GridSpec
) -> list[tuple[float, float]]:
    """Grid argmax of the leader's weighted objective with the follower on
    its closed-form best response: one (tau, objective value) per weight.
    The tax axis and the follower's responses on it are built once."""
    if not all(0.0 < w <= 1.0 for w in weights):
        raise ValueError("weights must lie in (0, 1]")
    taus = grid.axis(0)
    # left-to-right evaluation groups these factors so anyway: same floats
    margin, slope = p.alpha - p.gamma, 2.0 * (p.beta + p.delta)
    qs = [max(0.0, (margin - t) / slope) for t in taus]
    best = []
    for w in weights:
        harm = (1.0 - w) * p.k
        values = [w * t * q - harm * q for t, q in zip(taus, qs)]
        i = values.index(max(values))  # the first of equal maxima
        best.append((taus[i], values[i]))
    return best
