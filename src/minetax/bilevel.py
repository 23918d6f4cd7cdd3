"""Upper-level multi-objective evolutionary solver.

Evolves tax vectors, obtains follower best responses from the lower solver,
and maintains an archive of lower-level-optimal, mutually nondominated
(revenue up, damage down) solutions approximating the bilevel Pareto
frontier.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .lower import best_response
from .model import (
    ExtendedModel,
    FollowerResponse,
    LeaderStrategy,
    ObjectivePoint,
)
from .variation import polynomial_mutation, sbx_crossover

# distribution indices of SBX crossover and polynomial mutation, and the
# probability that a pair of parents is crossed (each gene then mutates
# with probability 1/T)
ETA_CROSSOVER = 15.0
ETA_MUTATION = 20.0
CROSSOVER_RATE = 0.9


@dataclass(frozen=True)
class ArchiveEntry:
    strategy: LeaderStrategy
    response: FollowerResponse
    objectives: ObjectivePoint
    optimality_tag: bool


def dominates(a: ObjectivePoint, b: ObjectivePoint) -> bool:
    """True if a is at least as good as b (revenue up, damage down) and
    strictly better in one objective."""
    if a.revenue < b.revenue or a.damage > b.damage:
        return False
    return a.revenue > b.revenue or a.damage < b.damage


class ParetoArchive:
    """Nondominated set kept sorted by damage (and hence by revenue)."""

    def __init__(self):
        self._entries: list[ArchiveEntry] = []
        self._damages: list[float] = []
        self._revenues: list[float] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ArchiveEntry]:
        return iter(self._entries)

    @property
    def entries(self) -> list[ArchiveEntry]:
        return list(self._entries)

    def insert(self, entry: ArchiveEntry) -> bool:
        """Insert if nondominated; evict entries the newcomer dominates.

        Untagged entries are rejected with an error. Returns True if the
        entry was admitted. Duplicate objective pairs are ignored.
        """
        if not entry.optimality_tag:
            raise ValueError("archive only admits lower-level-optimal entries")
        r, d = entry.objectives.revenue, entry.objectives.damage
        revenues = self._revenues
        i = bisect.bisect_left(self._damages, d)
        # entries with strictly smaller damage sit before i; the one at i-1
        # carries the largest revenue among them
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
        """Area dominated by the archive up to a reference point whose
        revenue is no better than any entry's. Entries at or beyond the
        reference damage add nothing, and the area ends at ref_damage."""
        hv = 0.0
        n = bisect.bisect_left(self._damages, ref_damage)
        damages = self._damages[:n]
        for r, d, d_next in zip(
            self._revenues, damages, damages[1:] + [ref_damage]
        ):
            hv += (r - ref_revenue) * (d_next - d)
        return hv


def nondominated_sort(points: Sequence[ObjectivePoint]) -> list[list[int]]:
    """Nondominated fronts F1, F2, ... as lists of indices into `points`.

    Returns exactly what the fast nondominated sort of Deb et al. (NSGA-II,
    2002) returns, order included: F1 in index order, and F(i+1) in the
    order its decrement queue emits points, which is by the largest
    position in F(i) of a point that dominates it, then by index.
    Survivors and tournaments are taken in this order, so it fixes the
    random stream and the archive of a seeded `evolve`.

    Two objectives allow O(N log N) (Jensen, 2003). Ranks come from one
    sweep in (revenue down, damage up) order: every point seen before a
    new one has at least its revenue, so a front dominates it exactly when
    the front's least damage so far is no larger, and those least damages
    rise with the front. Identical points share a rank.
    """
    n = len(points)
    order = sorted(range(n), key=lambda i: (-points[i].revenue, points[i].damage))
    rank = [0] * n
    least_damage: list[float] = []
    prev = None
    f = 0
    for i in order:
        p = points[i]
        if (p.revenue, p.damage) != prev:
            prev = (p.revenue, p.damage)
            f = bisect.bisect_right(least_damage, p.damage)
            if f == len(least_damage):
                least_damage.append(p.damage)
            else:
                least_damage[f] = p.damage
        rank[i] = f
    members: list[list[int]] = [[] for _ in least_damage]
    for i in range(n):
        members[rank[i]].append(i)
    fronts = members[:1]
    for nxt in members[1:]:
        # sorted by damage, the last front also rises in revenue, so the
        # points dominating q are one contiguous run of it
        last = [points[i] for i in fronts[-1]]
        by_damage = sorted(
            range(len(last)), key=lambda k: (last[k].damage, last[k].revenue)
        )
        damages = [last[k].damage for k in by_damage]
        revenues = [last[k].revenue for k in by_damage]
        # sparse table: table[j][x] is the largest position in
        # by_damage[x : x + 2**j]
        table = [by_damage]
        while 2 ** len(table) <= len(by_damage):
            row, half = table[-1], 2 ** (len(table) - 1)
            table.append([a if a > b else b for a, b in zip(row, row[half:])])
        last_dominator = {}
        for q in nxt:
            lo = bisect.bisect_left(revenues, points[q].revenue)
            hi = bisect.bisect_right(damages, points[q].damage)
            j = (hi - lo).bit_length() - 1
            a, b = table[j][lo], table[j][hi - 2**j]
            last_dominator[q] = a if a > b else b
        # stable, so ties keep index order
        fronts.append(sorted(nxt, key=last_dominator.__getitem__))
    return fronts


def crowding_distance(
    front: Sequence[int], points: Sequence[ObjectivePoint]
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


@dataclass(frozen=True)
class EaConfig:
    population_size: int = 40
    max_generations: int = 100
    seed: int = 0
    hv_stall_tol: float = 1e-4
    hv_stall_generations: int = 20

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population size must be even and at least 4")
        # 0 is valid: the initial population only
        if self.max_generations < 0:
            raise ValueError("number of generations must be nonnegative")
        if self.hv_stall_generations < 1:
            raise ValueError("hypervolume stall window must be at least 1")
        # random.Random would silently seed with abs(seed)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class EvolveResult:
    """The archive, its hypervolume after the initial population and after
    each generation, the count of untagged follower answers, and why the
    run stopped: "max_generations" or "hv_stall"."""

    archive: ParetoArchive
    hv_history: tuple[float, ...]
    generations_run: int
    failed_evaluations: int
    termination_reason: str


def _evaluate(
    tau: Sequence[float], model: ExtendedModel, tech_filter: Optional[int]
) -> ArchiveEntry:
    strat = LeaderStrategy(tau=tau)
    br = best_response(strat, model, tech_filter=tech_filter)
    q = br.response.q
    # `leader_objectives`' revenue and damage, summed in its order; the
    # profit is the solver's own
    revenue = sum(d * x * v for d, x, v in zip(model.discount_factors, strat.tau, q))
    obj = ObjectivePoint(
        revenue=revenue,
        damage=model.tech(br.response.a).k * sum(q),
        profit=br.profit,
    )
    return ArchiveEntry(
        strategy=strat,
        response=br.response,
        objectives=obj,
        optimality_tag=br.optimality_tag,
    )


def reference_point(
    model: ExtendedModel, tech_filter: Optional[int] = None
) -> tuple[float, float]:
    """Fixed hypervolume reference: zero revenue, worst-case damage."""
    techs = model.techs if tech_filter is None else (model.tech(tech_filter),)
    k_max = max(t.k for t in techs)
    return 0.0, k_max * sum(hi for _, hi in model.q_bounds)


def evolve(
    model: ExtendedModel,
    config: EaConfig,
    tech_filter: Optional[int] = None,
) -> EvolveResult:
    """NSGA-II-style evolution of tax strategies with a bilevel archive.

    Every draw is `random.Random(config.seed).random()`, a sequence Python
    keeps across versions, so a seed reproduces the archive on any
    interpreter.
    """
    rng = random.Random(config.seed)
    lows = [lo for lo, _ in model.tau_bounds]
    highs = [hi for _, hi in model.tau_bounds]
    mut_rate = 1.0 / model.T
    ref_r, ref_d = reference_point(model, tech_filter)
    archive = ParetoArchive()
    failed = 0

    def make(tau: Sequence[float]) -> ArchiveEntry:
        nonlocal failed
        entry = _evaluate(tau, model, tech_filter)
        if entry.optimality_tag:
            archive.insert(entry)
        else:
            failed += 1
        return entry

    pop = [
        make([lo + (hi - lo) * rng.random() for lo, hi in zip(lows, highs)])
        for _ in range(config.population_size)
    ]
    hv_history = [archive.hypervolume(ref_r, ref_d)]
    gens = 0
    reason = "max_generations"
    for _ in range(config.max_generations):
        points = [e.objectives for e in pop]
        fronts = nondominated_sort(points)
        rank = [0] * len(pop)
        crowd = [0.0] * len(pop)
        for fi, front in enumerate(fronts):
            cd = crowding_distance(front, points)
            for i in front:
                rank[i] = fi
                crowd[i] = cd[i]

        def tournament() -> tuple[float, ...]:
            i = int(len(pop) * rng.random())
            j = int(len(pop) * rng.random())
            if rank[i] != rank[j]:
                return pop[i if rank[i] < rank[j] else j].strategy.tau
            return pop[i if crowd[i] >= crowd[j] else j].strategy.tau

        offspring = []
        while len(offspring) < config.population_size:
            c1, c2 = sbx_crossover(
                tournament(),
                tournament(),
                lows,
                highs,
                ETA_CROSSOVER,
                CROSSOVER_RATE,
                rng,
            )
            for c in (c1, c2):
                offspring.append(
                    make(
                        polynomial_mutation(
                            c, lows, highs, ETA_MUTATION, mut_rate, rng
                        )
                    )
                )
        offspring = offspring[: config.population_size]
        # environmental selection on the merged population
        merged = pop + offspring
        points = [e.objectives for e in merged]
        fronts = nondominated_sort(points)
        survivors: list[ArchiveEntry] = []
        for front in fronts:
            if len(survivors) + len(front) <= config.population_size:
                survivors.extend(merged[i] for i in front)
            else:
                cd = crowding_distance(front, points)
                chosen = sorted(front, key=lambda i: -cd[i])
                survivors.extend(
                    merged[i]
                    for i in chosen[: config.population_size - len(survivors)]
                )
                break
        pop = survivors
        gens += 1
        hv_history.append(archive.hypervolume(ref_r, ref_d))
        stall = config.hv_stall_generations
        # at zero reference damage every hypervolume is 0, so a flat history
        # says nothing about progress
        if (
            ref_d > 0.0
            and gens >= stall
            and hv_history[-1] - hv_history[-1 - stall] < config.hv_stall_tol
        ):
            reason = "hv_stall"
            break
    return EvolveResult(archive, tuple(hv_history), gens, failed, reason)


def detect_strata_kinks(
    entries: Sequence[ArchiveEntry],
    boundaries: Sequence[float],
    gap_factor: float = 5.0,
    slope_change: float = 0.5,
) -> list[float]:
    """Boundaries in cumulative extraction where the frontier shows a kink.

    For each boundary, finds the consecutive frontier pair (sorted by
    damage) whose total extraction brackets it and flags the boundary when
    the damage gap there is an outlier or the local revenue-vs-damage slope
    changes by more than `slope_change` relative.
    """
    pts = sorted(
        (
            (
                e.objectives.damage,
                e.objectives.revenue,
                sum(e.response.q),
            )
            for e in entries
        ),
        key=lambda p: p[0],
    )
    if len(pts) < 3:
        return []
    gaps = [pts[i + 1][0] - pts[i][0] for i in range(len(pts) - 1)]
    median_gap = statistics.median(gaps)
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
        if median_gap > 0 and gap > gap_factor * median_gap:
            detected.append(b)
            continue
        if hit >= 1 and gap > 0:
            dm, rm, _ = pts[hit - 1]
            if d0 - dm > 0:
                slope_before = (r0 - rm) / (d0 - dm)
                slope_across = (r1 - r0) / (d1 - d0)
                scale = max(abs(slope_before), abs(slope_across), 1e-12)
                if abs(slope_across - slope_before) / scale > slope_change:
                    detected.append(b)
    return detected
