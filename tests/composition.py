"""Frontier composition when the follower chooses the technology.

The mine (follower) picks its purification technology as part of its best
response, so the regulator (leader) cannot mandate one. Let a*(tau) be the
follower's free choice at tax vector tau and F_a(tau) the leader outcome
when the follower is restricted to technology a. The free-choice frontier
is drawn from {F_{a*(tau)}(tau)}, which gives exactly two inclusions:

- upper: the nondominated union of the per-technology frontiers covers the
  free-choice frontier;
- lower: the free-choice frontier covers every per-technology point
  F_a(tau) with a*(tau) = a, the points the follower would actually play.

Equality with the union would need the leader to choose the technology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from follower_reference import answer, follower_total_profit

from minetax import ArchiveEntry, ExtendedModel, best_response
from minetax.lower import TIE_TOL


@dataclass(frozen=True)
class Composition:
    eps_lower: float  # free-choice covers the played per-technology points
    eps_upper: float  # per-technology union covers free-choice
    eps_union: float  # free-choice covers the whole union (not a model property)
    refuted: int  # per-technology points ruled out by the same-schedule test
    solved: int  # per-technology points settled by a best_response call
    played: int  # per-technology points entering the lower inclusion


def epsilon_indicator(
    approx: Sequence[tuple[float, float]],
    reference: Sequence[tuple[float, float]],
    rev_scale: float,
    dam_scale: float,
) -> float:
    """Additive epsilon indicator for (maximize revenue, minimize damage),
    normalized per objective: smallest shift making `approx` weakly
    dominate every reference point."""
    eps = -math.inf
    for r, d in reference:
        shift = min(max((r - a) / rev_scale, (b - d) / dam_scale) for a, b in approx)
        eps = max(eps, shift)
    return eps


def _pairs(entries: Sequence[ArchiveEntry]) -> list[tuple[float, float]]:
    return [(e.revenue, e.damage) for e in entries]


def _nondominated(entries: Sequence[ArchiveEntry]) -> list[ArchiveEntry]:
    """Nondominated subset by one sweep in order of increasing damage."""
    ordered = sorted(entries, key=lambda e: (e.damage, -e.revenue))
    front = []
    for e in ordered:
        if not front or e.revenue > front[-1].revenue:
            front.append(e)
    return front


def _outplayed(entry: ArchiveEntry, model: ExtendedModel) -> bool:
    """True if another technology earns more with the same schedule at the
    same tax vector, beyond the follower's tie tolerance.

    The other technology's own optimum is then better still, so the
    follower never plays this point.
    """
    own = entry.response.profit
    tol = max(TIE_TOL, TIE_TOL * abs(own))
    return any(
        follower_total_profit(
            answer(q=entry.response.q, a=tech.tech_id),
            entry.strategy,
            model,
        )
        > own + tol
        for tech in model.techs
        if tech.tech_id != entry.response.a
    )


def frontier_composition(
    model: ExtendedModel,
    tech_frontiers: Mapping[int, Sequence[ArchiveEntry]],
    full_frontier: Sequence[ArchiveEntry],
    tol: float,
) -> Composition:
    """Normalised epsilon indicators of both inclusions.

    Objectives are normalised by their ranges over the per-technology union
    and the free-choice frontier together. A per-technology point enters
    the lower inclusion unless the same-schedule test refutes it; one that
    the free-choice frontier misses by more than `tol` enters only if
    `best_response` confirms the follower picks its technology.
    """
    pool = [e for entries in tech_frontiers.values() for e in entries]
    union = _nondominated(pool)
    full = _pairs(full_frontier)
    all_pts = _pairs(union) + full
    rev_scale = max(r for r, _ in all_pts) - min(r for r, _ in all_pts)
    dam_scale = max(d for _, d in all_pts) - min(d for _, d in all_pts)

    def eps(approx, reference):
        return epsilon_indicator(approx, reference, rev_scale, dam_scale)

    candidates = [e for e in pool if not _outplayed(e, model)]
    played = []
    solved = 0
    for e in candidates:
        if eps(full, _pairs([e])) > tol:
            solved += 1
            if best_response(e.strategy, model).a != e.response.a:
                continue
        played.append(e)
    return Composition(
        eps_lower=eps(full, _pairs(played)),
        eps_upper=eps(_pairs(union), full),
        eps_union=eps(full, _pairs(union)),
        refuted=len(pool) - len(candidates),
        solved=solved,
        played=len(played),
    )
