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
    leader_objectives,
)
from .variation import polynomial_mutation, sbx_crossover

# distribution indices of SBX crossover and polynomial mutation, and the
# probability that a pair of parents is crossed (each gene then mutates
# with probability 1/T)
ETA_CROSSOVER = 15.0
ETA_MUTATION = 20.0
CROSSOVER_RATE = 0.9
# `evolve` stops when the hypervolume gains less than HV_STALL_TOL over
# HV_STALL_GENERATIONS generations
HV_STALL_TOL = 1e-4
HV_STALL_GENERATIONS = 20


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
    """Nondominated fronts F1, F2, ... as lists of indices into `points`,
    each in index order. Identical points share a front.

    Two objectives allow O(N log N) (Jensen, 2003). Ranks come from one
    sweep in (revenue down, damage up) order: every point seen before a
    new one has at least its revenue, so a front dominates it exactly when
    the front's least damage so far is no larger, and those least damages
    rise with the front.
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
    fronts: list[list[int]] = [[] for _ in least_damage]
    for i in range(n):
        fronts[rank[i]].append(i)
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

    def __post_init__(self):
        if self.population_size < 4 or self.population_size % 2:
            raise ValueError("population size must be even and at least 4")
        # 0 is valid: the initial population only
        if self.max_generations < 0:
            raise ValueError("number of generations must be nonnegative")
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
    revenue, damage = leader_objectives(br.response, strat, model)
    return ArchiveEntry(
        strategy=strat,
        response=br.response,
        objectives=ObjectivePoint(revenue, damage, br.profit),
        optimality_tag=br.optimality_tag,
    )


def reference_point(
    model: ExtendedModel, tech_filter: Optional[int] = None
) -> tuple[float, float]:
    """Fixed hypervolume reference: zero revenue, worst-case damage."""
    techs = model.techs if tech_filter is None else (model.tech(tech_filter),)
    k_max = max(t.k for t in techs)
    return 0.0, k_max * sum(hi for _, hi in model.q_bounds)


def _select(
    merged: Sequence[ArchiveEntry], n: int
) -> tuple[list[ArchiveEntry], list[int], list[float]]:
    """NSGA-II environmental selection (Deb et al., 2002): whole fronts in
    rank order while they fit, then the members of the next front with the
    largest crowding distance over that whole front, ties in index order.
    Returns the n survivors with their front ranks and crowding distances,
    which the next generation's tournament reads."""
    points = [e.objectives for e in merged]
    survivors: list[ArchiveEntry] = []
    rank: list[int] = []
    crowd: list[float] = []
    for fi, front in enumerate(nondominated_sort(points)):
        cd = crowding_distance(front, points)
        if len(survivors) + len(front) > n:
            front = sorted(front, key=lambda i: -cd[i])[: n - len(survivors)]
        survivors.extend(merged[i] for i in front)
        rank.extend([fi] * len(front))
        crowd.extend(cd[i] for i in front)
        if len(survivors) == n:
            break
    return survivors, rank, crowd


def evolve(
    model: ExtendedModel,
    config: EaConfig,
    tech_filter: Optional[int] = None,
) -> EvolveResult:
    """NSGA-II evolution of tax strategies with a bilevel archive.

    `_select` sorts each merged population once; the ranks and crowding
    distances it returns drive the next generation's binary tournaments.
    The run stops after `max_generations`, or when the archive's
    hypervolume has stalled (`HV_STALL_TOL`, `HV_STALL_GENERATIONS`).
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

    n = config.population_size
    pop, rank, crowd = _select(
        [
            make([lo + (hi - lo) * rng.random() for lo, hi in zip(lows, highs)])
            for _ in range(n)
        ],
        n,
    )

    def tournament() -> tuple[float, ...]:
        i = int(n * rng.random())
        j = int(n * rng.random())
        if rank[i] != rank[j]:
            return pop[i if rank[i] < rank[j] else j].strategy.tau
        return pop[i if crowd[i] >= crowd[j] else j].strategy.tau

    hv_history = [archive.hypervolume(ref_r, ref_d)]
    gens = 0
    reason = "max_generations"
    for _ in range(config.max_generations):
        offspring = []
        while len(offspring) < n:
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
        pop, rank, crowd = _select(pop + offspring, n)
        gens += 1
        hv_history.append(archive.hypervolume(ref_r, ref_d))
        # at zero reference damage every hypervolume is 0, so a flat history
        # says nothing about progress
        if (
            ref_d > 0.0
            and gens >= HV_STALL_GENERATIONS
            and hv_history[-1] - hv_history[-1 - HV_STALL_GENERATIONS]
            < HV_STALL_TOL
        ):
            reason = "hv_stall"
            break
    return EvolveResult(archive, tuple(hv_history), gens, failed, reason)


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
