"""Command-line front end.

Loads model parameters from JSON, runs the analytical sweep or the
evolutionary bilevel solver, and writes plot-ready CSV/JSON artifacts
(`_write_outputs`). Exit codes: 0 success, 1 usage/config error (argparse
errors included) or a stdout closed before the output was written
(`minetax ... | head`), 2 verification failure, 3 empty-result warning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from bisect import bisect_left
from pathlib import Path

from . import analytical as ana
from .bilevel import ArchiveEntry, EaConfig, evolve
from .model import ModelConfig, default_config, load_config, replace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_EMPTY = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load(cfg: argparse.Namespace, section: str) -> ModelConfig:
    """The config of --config, or the bundled one; it must hold `section`."""
    path = cfg.config_path
    models = default_config() if path is None else load_config(path)
    if getattr(models, section) is None:
        raise ValueError(f"config has no '{section}' section")
    return models


def run_analytical(cfg: argparse.Namespace) -> int:
    p = _load(cfg, "analytical").analytical
    if cfg.points < 2:
        raise ValueError("'points' must be at least 2")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep = ana.pareto_sweep(p, cfg.points)
    path = out / "sweep.csv"
    ana.sweep_to_csv(sweep, str(path))
    lo, hi = sweep[0], sweep[-1]
    print(
        f"wrote {path}: {len(sweep)} points, w in "
        f"[{_fmt(lo.w)}, {_fmt(hi.w)}], "
        f"revenue [{_fmt(lo.revenue)}, {_fmt(hi.revenue)}], "
        f"damage [{_fmt(lo.damage)}, {_fmt(hi.damage)}]"
    )
    return EXIT_OK


def _write_outputs(out: Path, entries: list[ArchiveEntry], model) -> None:
    """frontier.csv and schedule.csv of `entries`, in one pass: each tau_t
    and q_t is formatted once for both files, each entry is one write to
    each, and each period profit has the float expressions of the tests'
    reference `period_profits`, with C, alpha_er, beta_er and gamma_er
    read off `model.follower_constants` once per technology and call.
    Period 1 takes no empty prefix: X_1 = q_1 and C(0) = 0, so its charge
    is C(q_1) and its cumulative column is q_1's string ("0" for -0.0).
    Unchecked: `entries` come from `evolve` on this `model`."""
    T, alpha, beta = model.T, model.alpha, model.beta
    # the solver's stratum rule: past b_{M-1} is the last stratum
    inner = model.strata.breakpoints[:-1]
    techs = {a: (k.cost, k.tech.alpha_er, k.tech.beta_er, k.tech.gamma_er)
             for a, k in model.follower_constants.items()}
    # "%.12g" % x is _fmt(x); rows end in "\r\n" as csv.writer ends them
    fmt = "%.12g".__mod__
    front = "%s,%s,%.12g,%.12g,%.12g,%s,%s\r\n"
    sched = "%s,%s,%s,%s,%.12g,%.12g,%s\r\n"
    first = "%s,%s,%s,%s,%.12g,%s,%s\r\n"  # period 1's X_1 is q_1's string
    with open(out / "frontier.csv", "w", newline="") as ff, \
            open(out / "schedule.csv", "w", newline="") as sf:
        ff.write(",".join(
            ["id", "tech", "revenue", "damage", "profit"]
            + [f"tau_{t}" for t in range(1, T + 1)]
            + [f"q_{t}" for t in range(1, T + 1)]
        ) + "\r\n")
        sf.write(
            "id,period,tau,q,period_profit,cumulative_extraction,"
            "active_stratum\r\n"
        )
        for i, e in enumerate(entries):
            resp = e.response
            q, tau, a = resp.q, e.strategy.tau, resp.a
            cost, alpha_er, beta_er, gamma_er = techs[a]
            qs, taus = [*map(fmt, q)], [*map(fmt, tau)]
            ff.write(front % (
                i, a, e.revenue, e.damage, resp.profit, ",".join(taus), ",".join(qs)
            ))
            rows, cum = [], 0.0
            for t, (tau_t, q_t) in enumerate(zip(tau, q)):
                cum += q_t
                if t:
                    # X_t, the extraction through this period, is a fresh sum:
                    # from Python 3.12 it is compensated, so cum could be
                    # another float
                    x_t = sum(q[:t + 1])
                    charge = cost(x_t) - cost(x_t - q_t)
                    row, shown = sched, cum
                else:
                    # X_1 = q_1 and C(0) = 0.0, and 0.0 + q_1 is q_1 bit for
                    # bit, apart from -0.0, which the sum makes 0
                    charge = cost(q_t)
                    row, shown = first, qs[0] if q_t else "0"
                pi = ((alpha[t] - beta[t] * q_t) * q_t
                      - (alpha_er * q_t * q_t + beta_er * q_t + gamma_er)
                      - charge
                      - tau_t * q_t)
                rows.append(row % (i, t + 1, taus[t], qs[t], pi, shown,
                                   bisect_left(inner, cum) + 1))
            sf.write("".join(rows))


def run_extended(cfg: argparse.Namespace) -> int:
    # a NaN bound keeps no point, and meta.json cannot hold NaN or Infinity
    for flag, bound in (("--min-revenue", cfg.min_revenue),
                        ("--max-damage", cfg.max_damage)):
        if bound is not None and not math.isfinite(bound):
            raise ValueError(f"{flag} must be a finite number, got {bound}")
    ea = EaConfig(
        population_size=cfg.pop_size,
        max_generations=cfg.generations,
        seed=cfg.seed,
    )
    model = _load(cfg, "extended").extended
    # read from the full table, also for a run of one technology
    dominated = model.dominated_technologies
    if cfg.tech != "all":
        try:
            tech = model.tech(int(cfg.tech))
        except (ValueError, KeyError):
            ids = ", ".join(str(t.tech_id) for t in model.techs)
            raise ValueError(
                "--tech must be 'all' or one of the technology ids "
                f"{ids}, got {cfg.tech!r}"
            ) from None
        # a run of technology k is the model with k alone in its table
        model = replace(model, techs=(tech,))
    # every input is checked and the output directory made before the solve
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.tech == "all" and dominated and len(dominated) == len(model.techs) - 1:
        (top,) = set(dominated.values())
        print(
            f"warning: technology {top} dominates all others in cost; the mine "
            "picks another only on a profit tie, so the free-choice frontier "
            f"is technology {top}'s apart from ties"
        )
    start = time.perf_counter()
    result = evolve(model, ea)
    elapsed = time.perf_counter() - start
    entries = result.archive.entries
    # without a bound every entry is kept, in order: no pass over them
    if cfg.min_revenue is None and cfg.max_damage is None:
        filtered = entries
    else:
        filtered = [
            e
            for e in entries
            if (cfg.min_revenue is None or e.revenue >= cfg.min_revenue)
            and (cfg.max_damage is None or e.damage <= cfg.max_damage)
        ]
    _write_outputs(out, filtered, model)
    meta = {
        "config": vars(cfg),
        "seed": cfg.seed,
        "generations_executed": result.generations_run,
        "termination_reason": result.termination_reason,
        "dominated_technologies": dominated,
        "archive_size": len(entries),
        "filtered_size": len(filtered),
        "failed_evaluations": result.failed_evaluations,
        "wall_time_seconds": elapsed,
    }
    with open(out / "meta.json", "w") as f:
        json.dump(meta, f, indent=2)
    print(
        f"wrote {out / 'frontier.csv'}: {len(filtered)} of {len(entries)} "
        f"archive points after filtering, {result.generations_run} generations, "
        f"{elapsed:.1f}s"
    )
    if not filtered:
        print("warning: objective-bound filter excluded every solution")
        return EXIT_EMPTY
    return EXIT_OK


def run_verify(cfg: argparse.Namespace) -> int:
    # imported here so that a solve does not compile the battery: with no
    # bytecode cache that is a few ms of every start-up
    from .verify import format_report, run_all_checks

    models = _load(cfg, "analytical")
    results = run_all_checks(models.analytical, models.extended, quick=cfg.quick)
    print(format_report(results))
    if all(r.passed for r in results):
        print("all checks passed")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a failed --verify."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minetax",
        description=(
            "Bilevel mining-taxation game: analytical Pareto sweep, "
            "evolutionary bilevel solver, and verification oracles."
        ),
    )
    parser.add_argument(
        "--model",
        choices=["analytical", "extended"],
        default="analytical",
        help="which model to run",
    )
    parser.add_argument(
        "--config", dest="config_path", help="JSON parameter file (default: bundled)"
    )
    parser.add_argument(
        "--tech",
        default="all",
        help="technology of the extended model ('all' or an id)",
    )
    parser.add_argument(
        "--points", type=int, default=100, help="analytical sweep size"
    )
    parser.add_argument("--pop-size", type=int, default=40)
    parser.add_argument("--generations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--min-revenue", type=float, default=None)
    parser.add_argument("--max-damage", type=float, default=None)
    parser.add_argument(
        "--verify", action="store_true", help="run the verification battery"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller budgets for --verify"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    run = (run_verify if cfg.verify
           else run_analytical if cfg.model == "analytical" else run_extended)
    try:
        rc = run(cfg)
        # a reader gone from stdout shows here, not in the flush at exit
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # as in Python's SIGPIPE recipe: the rest of stdout goes to devnull,
        # so the flush at exit stays quiet, and the exit code is 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
