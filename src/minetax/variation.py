"""Real-coded variation operators, SBX crossover and polynomial mutation,
with the constants they use."""

from __future__ import annotations

# distribution indices of SBX crossover and polynomial mutation, and the
# probability that a pair of parents is crossed (each gene then mutates
# with probability 1 / len(x))
ETA_CROSSOVER = 15.0
ETA_MUTATION = 20.0
CROSSOVER_RATE = 0.9
# the exponents both operators raise to, computed once: 1 / (eta + 1) of
# each, and the mutation's eta + 1
_SBX_POWER = 1.0 / (ETA_CROSSOVER + 1.0)
_MUTATION_POWER = 1.0 / (ETA_MUTATION + 1.0)
_MUTATION_ORDER = ETA_MUTATION + 1.0


def sbx_crossover(p1, p2, lows, highs, rng):
    """Simulated binary crossover of two parent vectors within box bounds.

    Returns two children; with probability 1 - CROSSOVER_RATE the parents
    pass through unchanged.
    """
    c1, c2 = list(p1), list(p2)
    draw = rng.random
    if draw() > CROSSOVER_RATE:
        return c1, c2
    for i in range(len(p1)):
        if draw() > 0.5:
            continue
        x1, x2 = p1[i], p2[i]
        if abs(x1 - x2) < 1e-14:
            continue
        # min(x1, x2), max(x1, x2): the parents differ here
        lo, hi = (x2, x1) if x2 < x1 else (x1, x2)
        u = draw()
        beta = (
            (2.0 * u) ** _SBX_POWER
            if u <= 0.5
            else (1.0 / (2.0 * (1.0 - u))) ** _SBX_POWER
        )
        # each child is min(max(y, low), high), ties to y and then to high
        low, high = lows[i], highs[i]
        y = 0.5 * ((1.0 + beta) * lo + (1.0 - beta) * hi)
        y = low if low > y else y
        c1[i] = high if high < y else y
        y = 0.5 * ((1.0 - beta) * lo + (1.0 + beta) * hi)
        y = low if low > y else y
        c2[i] = high if high < y else y
    return c1, c2


def polynomial_mutation(x, lows, highs, rng):
    """Polynomial mutation; each variable mutates with probability
    1 / len(x)."""
    rate = 1.0 / len(x)
    y = list(x)
    draw = rng.random
    for i in range(len(y)):
        if draw() > rate:
            continue
        lo, hi = lows[i], highs[i]
        span = hi - lo
        if span <= 0:
            continue
        u = draw()
        v = y[i]
        d1 = (v - lo) / span
        d2 = (hi - v) / span
        if u <= 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** _MUTATION_ORDER
            delta = val**_MUTATION_POWER - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** _MUTATION_ORDER
            delta = 1.0 - val**_MUTATION_POWER
        # min(max(v, lo), hi), ties to v and then to hi
        v += delta * span
        v = lo if lo > v else v
        y[i] = hi if hi < v else v
    return y
