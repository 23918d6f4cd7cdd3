"""The CSV writers of `minetax.cli` and `minetax.analytical` as they were
before rows were written with one format string each: `csv.writer` with
every float as `_fmt`. The reference the new writers must match byte for
byte.
"""

import csv
from pathlib import Path

from follower_reference import period_profits

from minetax.analytical import WeightedSolution
from minetax.bilevel import ArchiveEntry


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _write_frontier(path: Path, entries: list[ArchiveEntry], T: int) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["id", "tech", "revenue", "damage", "profit"]
            + [f"tau_{t}" for t in range(1, T + 1)]
            + [f"q_{t}" for t in range(1, T + 1)]
        )
        for i, e in enumerate(entries):
            writer.writerow(
                [i, e.response.a]
                + [
                    _fmt(v)
                    for v in (
                        e.revenue,
                        e.damage,
                        e.response.profit,
                    )
                ]
                + [_fmt(v) for v in e.strategy.tau]
                + [_fmt(v) for v in e.response.q]
            )


def _write_schedules(path: Path, entries: list[ArchiveEntry], model) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "id",
                "period",
                "tau",
                "q",
                "period_profit",
                "cumulative_extraction",
                "active_stratum",
            ]
        )
        for i, e in enumerate(entries):
            profits = period_profits(
                e.response.q, e.strategy.tau, model.tech(e.response.a), model
            )
            cum = 0.0
            for t, pi in enumerate(profits, 1):
                cum += e.response.q[t - 1]
                writer.writerow(
                    [
                        i,
                        t,
                        _fmt(e.strategy.tau[t - 1]),
                        _fmt(e.response.q[t - 1]),
                        _fmt(pi),
                        _fmt(cum),
                        model.strata.active_stratum(cum),
                    ]
                )


def sweep_to_csv(solutions: list[WeightedSolution], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["w", "tau", "q", "revenue", "damage", "profit"])
        for s in solutions:
            writer.writerow(
                [
                    f"{v:.12g}"
                    for v in (s.w, s.tau_star, s.q_star, s.revenue, s.damage, s.profit)
                ]
            )
