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
"""

import bisect
import itertools
from collections.abc import Sequence

from minetax.bilevel import ArchiveEntry, crowding_distance, nondominated_sort


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
