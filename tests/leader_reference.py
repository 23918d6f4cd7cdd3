"""Leader references for the tests.

`dominates` is Pareto dominance (revenue up, damage down), which the
brute-force references build on.

`detect_strata_kinks` flags the stratum boundaries at which a frontier
shows a kink, for the acceptance criterion on strata discontinuities.

`generator_leader_objectives` is `minetax.model.leader_objectives` as it
was before the revenue was summed over `map(mul, ...)`: one generator of
d_t * tau_t * q_t. The reference the objectives must equal to the bit.

`full_pass_hypervolume` is `ParetoArchive.hypervolume` as it was before
the archive kept its area up to date in `insert`: one pass over the
entries per call. It is the reference the kept area must stay close to.

`ThreeListArchive` and `negated_key_select` are the Pareto archive and the
NSGA-II truncation of `minetax.bilevel` as they were before the archive
kept one sorted list of entries: three parallel lists, and a truncation
sorted on -cd[i]. The references the one-list archive and `_select` must
match exactly.

`minmax_sbx_crossover` and `minmax_polynomial_mutation` are the variation
operators of `minetax.variation` as they were before they bound
`rng.random` once and clipped with comparisons: `rng.random()` looked up
at every draw, and `min`/`max` calls for the parents' order and the
clips. The references both operators must match bit for bit, in the
children and in the draws they take.

`interleaved_evolve` is `minetax.bilevel.evolve` as it was before it bred a
whole generation, then solved it, then archived it: each child drawn,
solved (`_evaluate`) and archived (`make`, or `copy_of` for a verbatim
copy of its parent) before the next child's draws. The reference the
phased run must match bit for bit. It calls the follower, the objectives
and the variation operators through `minetax.bilevel`, as `evolve` does.
"""

import bisect
import itertools
import random
from collections.abc import Sequence

import minetax.bilevel as bilevel
from minetax.bilevel import (
    ArchiveEntry,
    EaConfig,
    EvolveResult,
    ParetoArchive,
    _same_floats,
    _select,
    crowding_distance,
    nondominated_sort,
    reference_point,
)
from minetax.model import ExtendedModel, LeaderStrategy
from minetax.variation import (
    _MUTATION_ORDER,
    _MUTATION_POWER,
    _SBX_POWER,
    CROSSOVER_RATE,
)


def dominates(a, b) -> bool:
    """True if a is at least as good as b (revenue up, damage down) and
    strictly better in one objective."""
    if a.revenue < b.revenue or a.damage > b.damage:
        return False
    return a.revenue > b.revenue or a.damage < b.damage


def generator_leader_objectives(resp, strat, model) -> tuple[float, float]:
    """Leader's (revenue, damage) at the follower's answer: revenue
    discounted, damage not."""
    if len(resp.q) != model.T or len(strat.tau) != model.T:
        raise ValueError("schedule lengths must equal the horizon T")
    revenue = sum(
        d * x * v for d, x, v in zip(model.discount_factors, strat.tau, resp.q)
    )
    return revenue, model.tech(resp.a).k * sum(resp.q)


def full_pass_hypervolume(
    rows: Sequence[ArchiveEntry], ref_revenue: float, ref_damage: float
) -> float:
    """Area dominated by archive entries `rows` (sorted by damage) up to a
    reference point whose revenue is no better than any entry's. Entries at
    or beyond the reference damage add nothing, and the area ends at
    ref_damage."""
    n = bisect.bisect_left(rows, (ref_damage,))
    if not n:
        return 0.0
    # each row's revenue times the damage gap to the next row, in row order
    hv = 0.0
    prev = rows[0]
    for row in itertools.islice(rows, 1, n):
        hv += (prev[1] - ref_revenue) * (row[0] - prev[0])
        prev = row
    return hv + (prev[1] - ref_revenue) * (ref_damage - prev[0])


class ThreeListArchive:
    """Nondominated set kept sorted by damage (and hence by revenue)."""

    def __init__(self):
        self._entries: list[ArchiveEntry] = []
        self._damages: list[float] = []
        self._revenues: list[float] = []

    @property
    def entries(self) -> list[ArchiveEntry]:
        return list(self._entries)

    def insert(self, entry: ArchiveEntry) -> bool:
        if not entry.response.optimality_tag:
            raise ValueError("archive only admits lower-level-optimal entries")
        r, d = entry.revenue, entry.damage
        revenues = self._revenues
        i = bisect.bisect_left(self._damages, d)
        if i > 0 and revenues[i - 1] >= r:
            return False
        if i < len(revenues) and self._damages[i] == d and revenues[i] >= r:
            return False
        j = i
        while j < len(revenues) and revenues[j] <= r:
            j += 1
        del self._entries[i:j]
        del self._damages[i:j]
        del revenues[i:j]
        self._entries.insert(i, entry)
        self._damages.insert(i, d)
        revenues.insert(i, r)
        return True

    def hypervolume(self, ref_revenue: float, ref_damage: float) -> float:
        hv = 0.0
        n = bisect.bisect_left(self._damages, ref_damage)
        damages = self._damages[:n]
        for r, d, d_next in zip(
            self._revenues, damages, damages[1:] + [ref_damage]
        ):
            hv += (r - ref_revenue) * (d_next - d)
        return hv


def negated_key_select(merged, n):
    """`bilevel._select` with the last front truncated on -cd[i]."""
    survivors, rank, crowd = [], [], []
    for fi, front in enumerate(nondominated_sort(merged)):
        cd = crowding_distance(front, merged)
        if len(survivors) + len(front) > n:
            front = sorted(front, key=lambda i: -cd[i])[: n - len(survivors)]
        survivors.extend(merged[i] for i in front)
        rank.extend([fi] * len(front))
        crowd.extend(cd[i] for i in front)
        if len(survivors) == n:
            break
    return survivors, rank, crowd


def detect_strata_kinks(
    entries: Sequence[ArchiveEntry], boundaries: Sequence[float]
) -> list[float]:
    """Boundaries in cumulative extraction where the frontier shows a kink.

    For each boundary, finds the consecutive frontier pair (sorted by
    damage) whose total extraction brackets it and flags the boundary when
    the damage gap there is over 5 times the median gap or the local
    revenue-vs-damage slope changes by more than half, relative.
    """
    pts = sorted(
        ((e.damage, e.revenue, sum(e.response.q)) for e in entries),
        key=lambda p: p[0],
    )
    if len(pts) < 3:
        return []
    gaps = sorted(pts[i + 1][0] - pts[i][0] for i in range(len(pts) - 1))
    i = len(gaps) // 2
    median_gap = gaps[i] if len(gaps) % 2 else (gaps[i - 1] + gaps[i]) / 2
    detected = []
    for b in boundaries:
        hit = None
        for i in range(len(pts) - 1):
            if pts[i][2] <= b + 1e-6 < pts[i + 1][2]:
                hit = i
                break
        if hit is None:
            continue
        d0, r0, _ = pts[hit]
        d1, r1, _ = pts[hit + 1]
        gap = d1 - d0
        if median_gap > 0 and gap > 5.0 * median_gap:
            detected.append(b)
            continue
        if hit >= 1 and gap > 0:
            dm, rm, _ = pts[hit - 1]
            if d0 - dm > 0:
                slope_before = (r0 - rm) / (d0 - dm)
                slope_across = (r1 - r0) / (d1 - d0)
                scale = max(abs(slope_before), abs(slope_across), 1e-12)
                if abs(slope_across - slope_before) / scale > 0.5:
                    detected.append(b)
    return detected


def minmax_sbx_crossover(p1, p2, lows, highs, rng):
    """Simulated binary crossover of two parent vectors within box bounds.

    Returns two children; with probability 1 - CROSSOVER_RATE the parents
    pass through unchanged.
    """
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
            (2.0 * u) ** _SBX_POWER
            if u <= 0.5
            else (1.0 / (2.0 * (1.0 - u))) ** _SBX_POWER
        )
        c1[i] = 0.5 * ((1.0 + beta) * lo + (1.0 - beta) * hi)
        c2[i] = 0.5 * ((1.0 - beta) * lo + (1.0 + beta) * hi)
        c1[i] = min(max(c1[i], lows[i]), highs[i])
        c2[i] = min(max(c2[i], lows[i]), highs[i])
    return c1, c2


def minmax_polynomial_mutation(x, lows, highs, rng):
    """Polynomial mutation; each variable mutates with probability
    1 / len(x)."""
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
        if u <= 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** _MUTATION_ORDER
            delta = val**_MUTATION_POWER - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** _MUTATION_ORDER
            delta = 1.0 - val**_MUTATION_POWER
        y[i] = min(max(y[i] + delta * span, lo), hi)
    return y


def _evaluate(tau: Sequence[float], model: ExtendedModel) -> ArchiveEntry:
    # `evolve` draws every tax inside tau_bounds and `variation` clips it
    # there, and ExtendedModel checked those bounds finite and nonnegative,
    # so the strategy is built by tuple's constructor, without
    # LeaderStrategy's check. Both records are literal tuples of their
    # fields: the namedtuple's `_make` would only check their length
    strat = tuple.__new__(LeaderStrategy, (tuple(tau),))
    br = bilevel.best_response(strat, model)
    revenue, damage = bilevel.leader_objectives(br, strat, model)
    return tuple.__new__(ArchiveEntry, (damage, revenue, strat, br))


def interleaved_evolve(model: ExtendedModel, config: EaConfig) -> EvolveResult:
    """NSGA-II evolution of tax strategies with a bilevel archive.

    The follower chooses among the model's technologies; a frontier for
    one technology is the run on a model whose table holds only that one.
    `_select` sorts each merged population once; the ranks and crowding
    distances it returns drive the next generation's binary tournaments.
    A child that is its own parent's tax vector bit for bit, as crossover
    passes a parent through and mutation may leave every gene alone, is
    that parent's entry again: no solve and no archive insert.
    The run stops after `max_generations`, or when the archive's
    hypervolume has stalled (`HV_STALL_TOL`, `HV_STALL_GENERATIONS`).
    Every draw is `random.Random(config.seed).random()`, a sequence Python
    keeps across versions, so a seed reproduces the archive on any
    interpreter.
    """
    rng = random.Random(config.seed)
    lows = [lo for lo, _ in model.tau_bounds]
    highs = [hi for _, hi in model.tau_bounds]
    ref_r, ref_d = reference_point(model)
    archive = ParetoArchive(ref_r, ref_d)
    failed = 0

    def make(tau: Sequence[float]) -> ArchiveEntry:
        nonlocal failed
        entry = _evaluate(tau, model)
        if entry.response.optimality_tag:
            archive.insert(entry)
        else:
            failed += 1
        return entry

    def copy_of(parent: ArchiveEntry) -> ArchiveEntry:
        """The entry of a child that is its parent's tax vector bit for
        bit: the parent's own. The follower would give the same answer, and
        the archive has already seen its objectives, so there is nothing
        to solve or insert; an untagged answer still counts as failed."""
        nonlocal failed
        if not parent.response.optimality_tag:
            failed += 1
        return parent

    n = config.population_size
    draw = rng.random
    pop, rank, crowd = _select(
        [
            make([lo + (hi - lo) * draw() for lo, hi in zip(lows, highs)])
            for _ in range(n)
        ],
        n,
    )

    def tournament() -> ArchiveEntry:
        i = int(n * draw())
        j = int(n * draw())
        if rank[i] != rank[j]:
            return pop[i if rank[i] < rank[j] else j]
        return pop[i if crowd[i] >= crowd[j] else j]

    hv_history = [archive.hypervolume()]
    reason = "max_generations"
    for _ in range(config.max_generations):
        offspring = []
        while len(offspring) < n:
            parents = tournament(), tournament()
            children = bilevel.sbx_crossover(
                parents[0].strategy.tau, parents[1].strategy.tau, lows, highs, rng
            )
            # child i comes from parent i's genes, crossed or not
            for parent, c in zip(parents, children):
                tau = tuple(bilevel.polynomial_mutation(c, lows, highs, rng))
                offspring.append(
                    copy_of(parent) if _same_floats(tau, parent.strategy.tau)
                    else make(tau)
                )
        pop, rank, crowd = _select(pop + offspring, n)
        hv_history.append(archive.hypervolume())
        # at zero reference damage every hypervolume is 0, so a flat history
        # says nothing about progress; the history holds one value more
        # than the generations run
        if (
            ref_d > 0.0
            and len(hv_history) > bilevel.HV_STALL_GENERATIONS
            and hv_history[-1] - hv_history[-1 - bilevel.HV_STALL_GENERATIONS]
            < bilevel.HV_STALL_TOL
        ):
            reason = "hv_stall"
            break
    return EvolveResult(archive, tuple(hv_history), failed, reason)
