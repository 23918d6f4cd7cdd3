"""Real-coded variation operators, SBX crossover and polynomial mutation,
with the constants they use."""

from __future__ import annotations

# distribution indices of SBX crossover and polynomial mutation, and the
# probability that a pair of parents is crossed (each gene then mutates
# with probability 1 / len(x))
ETA_CROSSOVER = 15.0
ETA_MUTATION = 20.0
CROSSOVER_RATE = 0.9


def sbx_crossover(p1, p2, lows, highs, rng):
    """Simulated binary crossover of two parent vectors within box bounds.

    Returns two children; with probability 1 - CROSSOVER_RATE the parents
    pass through unchanged.
    """
    eta = ETA_CROSSOVER
    c1, c2 = list(p1), list(p2)
    if rng.random() > CROSSOVER_RATE:
        return c1, c2
    for i in range(len(p1)):
        if rng.random() > 0.5:
            continue
        x1, x2 = p1[i], p2[i]
        if abs(x1 - x2) < 1e-14:
            continue
        lo, hi = min(x1, x2), max(x1, x2)
        u = rng.random()
        beta = (
            (2.0 * u) ** (1.0 / (eta + 1.0))
            if u <= 0.5
            else (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        )
        c1[i] = 0.5 * ((1.0 + beta) * lo + (1.0 - beta) * hi)
        c2[i] = 0.5 * ((1.0 - beta) * lo + (1.0 + beta) * hi)
        c1[i] = min(max(c1[i], lows[i]), highs[i])
        c2[i] = min(max(c2[i], lows[i]), highs[i])
    return c1, c2


def polynomial_mutation(x, lows, highs, rng):
    """Polynomial mutation; each variable mutates with probability
    1 / len(x)."""
    eta = ETA_MUTATION
    rate = 1.0 / len(x)
    y = list(x)
    for i in range(len(y)):
        if rng.random() > rate:
            continue
        lo, hi = lows[i], highs[i]
        span = hi - lo
        if span <= 0:
            continue
        u = rng.random()
        d1 = (y[i] - lo) / span
        d2 = (hi - y[i]) / span
        mpow = 1.0 / (eta + 1.0)
        if u <= 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
            delta = val**mpow - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
            delta = 1.0 - val**mpow
        y[i] = min(max(y[i] + delta * span, lo), hi)
    return y
