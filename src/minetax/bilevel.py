"""Upper-level multi-objective evolutionary solver.

Evolves tax vectors, obtains follower best responses from the lower solver,
and maintains an archive of lower-level-optimal, mutually nondominated
(revenue up, damage down) solutions approximating the bilevel Pareto
frontier.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence

from .lower import BestResponse, best_response
from .model import ExtendedModel, LeaderStrategy, leader_objectives
from .variation import polynomial_mutation, sbx_crossover

# `evolve` stops when the hypervolume gains less than HV_STALL_TOL over
# HV_STALL_GENERATIONS generations
HV_STALL_TOL = 1e-4
HV_STALL_GENERATIONS = 20


class ArchiveEntry(
    namedtuple("ArchiveEntry", "damage revenue strategy response")
):
    """One evaluated tax vector: the leader's two objectives, the strategy
    and the follower's answer to it, which holds the profit and the
    optimality tag. Damage leads, so that the archive can bisect its
    entries on (damage,) without ever comparing past it."""

    __slots__ = ()
    damage: float
    revenue: float
    strategy: LeaderStrategy
    response: BestResponse


class ParetoArchive:
    """Nondominated set kept as one list of entries, sorted by damage (and
    hence by revenue), with the area it dominates up to a reference point
    whose revenue is no better than any entry's. Entries at or beyond the
    reference damage add nothing, and the area ends at ref_damage."""

    def __init__(self, ref_revenue: float, ref_damage: float):
        self._rows: list[ArchiveEntry] = []
        self._ref_revenue = ref_revenue
        self._ref_damage = ref_damage
        self._hv = 0.0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def entries(self) -> list[ArchiveEntry]:
        return list(self._rows)

    def insert(self, entry: ArchiveEntry) -> bool:
        """Insert if nondominated; evict entries the newcomer dominates.

        Untagged entries are rejected with an error. Returns True if the
        entry was admitted. Duplicate objective pairs are ignored.
        """
        d, r, _, response = entry
        if not response.optimality_tag:
            raise ValueError("archive only admits lower-level-optimal entries")
        rows = self._rows
        # (d,) sorts before every entry of damage d, so entries compare by
        # damage alone and never past it
        i = bisect_left(rows, (d,))
        # rows with strictly smaller damage sit before i; the one at i-1
        # carries the largest revenue among them
        if i > 0 and rows[i - 1][1] >= r:
            return False
        n = len(rows)
        if i < n and rows[i][0] == d and rows[i][1] >= r:
            return False
        j = i
        while j < n and rows[j][1] <= r:
            j += 1
        ref_d = self._ref_damage
        if d < ref_d:
            # the area gained: from d to each next damage up to rows[j]'s,
            # the newcomer's revenue over the height there before, which is
            # row i-1's (or the reference revenue) and then each evicted
            # row's. No term is negative, so the kept area never falls
            below = rows[i - 1][1] if i else self._ref_revenue
            hv, start = self._hv, d
            for k in range(i, j + 1):
                edge = rows[k][0] if k < n else ref_d
                if edge >= ref_d:
                    hv += (r - below) * (ref_d - start)
                    break
                hv += (r - below) * (edge - start)
                below, start = rows[k][1], edge
            self._hv = hv
        rows[i:j] = [entry]
        return True

    def hypervolume(self) -> float:
        """Area dominated by the archive up to its reference point, kept
        up to date by `insert`."""
        return self._hv


def nondominated_sort(points: Sequence[ArchiveEntry]) -> list[list[int]]:
    """Nondominated fronts F1, F2, ... as lists of indices into `points`,
    each in index order. Identical points share a front.

    Two objectives allow O(N log N) (Jensen, 2003). Ranks come from one
    sweep in (revenue down, damage up) order: every point seen before a
    new one has at least its revenue, so a front dominates it exactly when
    the front's least damage so far is no larger, and those least damages
    rise with the front.
    """
    n = len(points)
    damages = [p.damage for p in points]
    revenues = [p.revenue for p in points]
    # two stable sorts order as one on (-revenue, damage) pairs, ties by index
    order = sorted(range(n), key=damages.__getitem__)
    order.sort(key=revenues.__getitem__, reverse=True)
    rank = [0] * n
    least_damage: list[float] = []
    prev_r = prev_d = math.nan
    f = 0
    for i in order:
        r, d = revenues[i], damages[i]
        if r != prev_r or d != prev_d:
            prev_r, prev_d = r, d
            f = bisect_right(least_damage, d)
            if f == len(least_damage):
                least_damage.append(d)
            else:
                least_damage[f] = d
        rank[i] = f
    fronts: list[list[int]] = [[] for _ in least_damage]
    for i in range(n):
        fronts[rank[i]].append(i)
    return fronts


def crowding_distance(
    front: Sequence[int], points: Sequence[ArchiveEntry]
) -> dict[int, float]:
    """Crowding distance of each index in `front` (Deb et al., 2002): per
    objective, the gap between the two neighbours in a stable sort, over
    the objective's span; inf at both ends."""
    n = len(front)
    if n <= 2:
        return {i: math.inf for i in front}
    dist = [0.0] * n
    for values in (
        [points[i].revenue for i in front],
        [points[i].damage for i in front],
    ):
        order = sorted(range(n), key=values.__getitem__)
        ranked = [values[k] for k in order]
        lo, hi = ranked[0], ranked[-1]
        dist[order[0]] = dist[order[-1]] = math.inf
        span = hi - lo if hi > lo else 1.0
        for k, below, above in zip(order[1:-1], ranked, ranked[2:]):
            dist[k] += (above - below) / span
    return dict(zip(front, dist))


class EaConfig(namedtuple("EaConfig", "population_size max_generations seed")):
    __slots__ = ()
    population_size: int
    max_generations: int
    seed: int

    def __new__(cls, population_size, max_generations, seed):
        if population_size < 4 or population_size % 2:
            raise ValueError("population size must be even and at least 4")
        # 0 is valid: the initial population only
        if max_generations < 0:
            raise ValueError("number of generations must be nonnegative")
        # random.Random would silently seed with abs(seed)
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        return super().__new__(cls, population_size, max_generations, seed)


class EvolveResult(namedtuple(
    "EvolveResult", "archive hv_history failed_evaluations termination_reason"
)):
    """The archive, its hypervolume after the initial population and after
    each generation, the count of untagged follower answers, and why the
    run stopped: "max_generations" or "hv_stall"."""

    __slots__ = ()
    archive: ParetoArchive
    hv_history: tuple[float, ...]
    failed_evaluations: int
    termination_reason: str

    @property
    def generations_run(self) -> int:
        return len(self.hv_history) - 1


def _solve(taus: Sequence[tuple[float, ...]], model: ExtendedModel) -> list:
    """Each tax vector's entry, in order: the follower's answer and the
    leader's objectives there. `evolve` keeps every tax inside tau_bounds,
    which ExtendedModel checked finite and nonnegative, so both records are
    literal tuples, built without LeaderStrategy's or `_make`'s check."""
    entries = []
    for tau in taus:
        strat = tuple.__new__(LeaderStrategy, (tau,))
        br = best_response(strat, model)
        revenue, damage = leader_objectives(br, strat, model)
        entries.append(tuple.__new__(ArchiveEntry, (damage, revenue, strat, br)))
    return entries


def _same_floats(x: tuple[float, ...], y: tuple[float, ...]) -> bool:
    """x and y hold the same floats bit for bit; -0.0 and 0.0 differ."""
    return x == y and all(
        a or math.copysign(1.0, a) == math.copysign(1.0, b) for a, b in zip(x, y)
    )


def reference_point(model: ExtendedModel) -> tuple[float, float]:
    """Fixed hypervolume reference: zero revenue, and the worst-case
    damage over the model's technologies."""
    k_max = max(t.k for t in model.techs)
    return 0.0, k_max * sum(hi for _, hi in model.q_bounds)


def _select(
    merged: Sequence[ArchiveEntry], n: int
) -> tuple[list[ArchiveEntry], list[int], list[float]]:
    """NSGA-II environmental selection (Deb et al., 2002): whole fronts in
    rank order while they fit, then the members of the next front with the
    largest crowding distance over that whole front, ties in index order.
    Returns the n survivors with their front ranks and crowding distances,
    which the next generation's tournament reads."""
    survivors: list[ArchiveEntry] = []
    rank: list[int] = []
    crowd: list[float] = []
    for fi, front in enumerate(nondominated_sort(merged)):
        cd = crowding_distance(front, merged)
        if len(survivors) + len(front) > n:
            # the sort is stable, so equal distances stay in index order
            front = sorted(front, key=cd.__getitem__, reverse=True)[
                : n - len(survivors)
            ]
        survivors.extend(merged[i] for i in front)
        rank.extend([fi] * len(front))
        crowd.extend(cd[i] for i in front)
        if len(survivors) == n:
            break
    return survivors, rank, crowd


def evolve(model: ExtendedModel, config: EaConfig) -> EvolveResult:
    """NSGA-II evolution of tax strategies with a bilevel archive.

    The follower chooses among the model's technologies; a frontier for
    one technology is the run on a model whose table holds only that one.
    As in NSGA-II, the initial population and each generation are bred,
    then solved, then archived. Breeding draws every child: tournaments
    on `_select`'s ranks and crowding distances, SBX, mutation. A child
    that is its parent's taxes bit for bit (crossover passes parents
    through; mutation may move no gene) is the parent's entry again, with
    nothing to solve or insert. `_solve` answers the others back to back,
    faster than one at a time; the archive gets each new tagged entry in
    child order, and untagged answers, new or copied, count as failed.
    The follower draws no random numbers, so a seed gives the same run as
    solving and archiving each child as it is drawn.
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

    def settle(offspring: list, taus: list) -> list[ArchiveEntry]:
        """Solve and archive bred children: `offspring` holds each copy's
        parent entry, and None where `taus` holds the child's taxes."""
        nonlocal failed
        fresh = iter(_solve(taus, model))
        for i, entry in enumerate(offspring):
            if entry is None:
                entry = offspring[i] = next(fresh)
                if entry.response.optimality_tag:
                    archive.insert(entry)
            if not entry.response.optimality_tag:
                failed += 1
        return offspring

    n = config.population_size
    draw = rng.random
    taus = [
        tuple([lo + (hi - lo) * draw() for lo, hi in zip(lows, highs)])
        for _ in range(n)
    ]
    pop, rank, crowd = _select(settle([None] * n, taus), n)

    def tournament() -> ArchiveEntry:
        i = int(n * draw())
        j = int(n * draw())
        if rank[i] != rank[j]:
            return pop[i if rank[i] < rank[j] else j]
        return pop[i if crowd[i] >= crowd[j] else j]

    hv_history = [archive.hypervolume()]
    reason = "max_generations"
    for _ in range(config.max_generations):
        offspring, taus = [], []
        while len(offspring) < n:
            parents = tournament(), tournament()
            children = sbx_crossover(
                parents[0].strategy.tau, parents[1].strategy.tau, lows, highs, rng
            )
            # child i comes from parent i's genes, crossed or not
            for parent, c in zip(parents, children):
                tau = tuple(polynomial_mutation(c, lows, highs, rng))
                if _same_floats(tau, parent.strategy.tau):
                    offspring.append(parent)
                else:
                    offspring.append(None)
                    taus.append(tau)
        pop, rank, crowd = _select(pop + settle(offspring, taus), n)
        hv_history.append(archive.hypervolume())
        # at zero reference damage every hypervolume is 0, so a flat history
        # says nothing about progress; the history holds one value more
        # than the generations run
        if (
            ref_d > 0.0
            and len(hv_history) > HV_STALL_GENERATIONS
            and hv_history[-1] - hv_history[-1 - HV_STALL_GENERATIONS]
            < HV_STALL_TOL
        ):
            reason = "hv_stall"
            break
    return EvolveResult(archive, tuple(hv_history), failed, reason)
