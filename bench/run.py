"""Benchmark of the minetax bilevel solver.

Runs one workload (or all of them) through ``minetax.cli.main`` in this
process for a fixed time, checks every written frontier independently
(``reference.py``), prints each metric by name with its unit, and ends with
one JSON line: correct, attempted, failed and metrics.

    python3 bench/run.py --workload free_choice_r0 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Outputs go to ``.bench_out/<workload>/``. With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are reported, with ``--trace 1`` the
per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import calibration
import layers
import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUNDLED = SRC / "minetax" / "data" / "default_config.json"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# an untraced run makes at least one CLI run at each of this many EA seeds
SEEDS_PER_RUN = 4
PROBE = calibration.Probe()


def _free_choice(bundled: dict) -> dict:
    return {"extended": bundled["extended"]}


def _discounted(bundled: dict) -> dict:
    return {"extended": dict(bundled["extended"], r=0.05)}


def _analytical_embedding(bundled: dict) -> dict:
    """T = 1 extended instance equal to the single-period model: the
    quadratic cost delta q^2 + gamma q becomes alpha_er = delta plus one
    stratum of slope gamma, sized beyond any optimum."""
    p = bundled["analytical"]
    return {
        "extended": {
            "T": 1,
            "alpha": [p["alpha"]],
            "beta": [p["beta"]],
            "r": 0.0,
            "strata": [p["alpha"] / p["beta"]],
            "technologies": [
                {
                    "tech_id": 1,
                    "k": p["k"],
                    "alpha_er": p["delta"],
                    "beta_er": 0.0,
                    "gamma_er": 0.0,
                    "slopes": [p["gamma"]],
                }
            ],
        }
    }


@dataclass(frozen=True)
class Workload:
    config: Callable[[dict], dict]
    pop_size: int
    generations: int
    tech: str = "all"
    closed_form: bool = False


# Why each workload: see README.md.
WORKLOADS = {
    "free_choice_r0": Workload(_free_choice, pop_size=40, generations=20),
    "discounted_tech4": Workload(_discounted, pop_size=40, generations=10, tech="4"),
    "wide_population_t1": Workload(
        _analytical_embedding, pop_size=400, generations=20, closed_form=True
    ),
}


@dataclass
class Solve:
    seed: int
    out: Path
    seconds: float
    rc: int
    # each phase's wall time over the probe's time at its two ends, times
    # calibration.REFERENCE_S
    normalised: list[float]
    probe_s: float


def measure_setup(config_path: Path) -> list[float]:
    """Seconds from process start until minetax is imported and the
    workload's model is loaded, in fresh interpreters, each normalised by
    the calibration probe run in that interpreter right after."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import minetax.cli\n"
        "from minetax.model import load_config\n"
        f"load_config({str(config_path)!r})\n"
        "ready = time.monotonic()\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import calibration, statistics\n"
        "probe = calibration.Probe()\n"
        "print(ready, statistics.median(probe() for _ in range(3)))\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        # the monotonic clock is system-wide, so the child's reading and
        # this one share an origin
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        ready, probe = map(float, done.stdout.split()[-2:])
        samples.append((ready - t0) / probe * calibration.REFERENCE_S)
    return samples


def ea_seeds(seed: int) -> list[int]:
    """EA seeds of a run: the work of one CLI run varies from seed to seed
    (by a third on `discounted_tech4`), so a run averages over several."""
    return [1000 * seed + j for j in range(SEEDS_PER_RUN)]


def cli_args(wl: Workload, config_path: Path, seed: int, out: Path) -> list[str]:
    return [
        "--model", "extended",
        "--config", str(config_path),
        "--tech", wl.tech,
        "--pop-size", str(wl.pop_size),
        "--generations", str(wl.generations),
        "--seed", str(seed),
        "--out", str(out),
    ]


def run_cli(argv: list[str], seed: int, out: Path, tracer=None) -> Solve:
    """One CLI run, traced by `tracer` if given; an uncaught exception is
    reported and counts as exit code -1.

    The calibration probe runs before and after the CLI run and, untraced,
    at each phase mark: the CLI start up to the initial population's
    hypervolume, each generation, and the rest of the run through the
    output. Its own time is left out of the run's."""
    from minetax.cli import main

    # (phase end, probe seconds, next phase start)
    marks: list[tuple[float, float, float]] = []

    def mark() -> None:
        t = time.perf_counter()
        probe = PROBE()
        marks.append((t, probe, time.perf_counter()))

    instrument = layers.traced(tracer) if tracer else layers.phase_marks(mark)
    with contextlib.redirect_stdout(io.StringIO()), instrument:
        mark()
        try:
            rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        mark()
    phases = [end[0] - start[2] for start, end in zip(marks, marks[1:])]
    probes = [m[1] for m in marks]
    normalised = [
        calibration.REFERENCE_S * p / ((a + b) / 2)
        for p, a, b in zip(phases, probes, probes[1:])
    ]
    return Solve(seed, out, sum(phases), rc, normalised, statistics.median(probes))


def normalised_run(solves: list[Solve]) -> float:
    """Normalised seconds of one CLI run: the sum over its phases of each
    phase's median over the repeats. The repeats run one seed, so a phase
    does the same work in each."""
    return sum(statistics.median(p) for p in zip(*(s.normalised for s in solves)))


@dataclass
class Checked:
    attempted: int
    failed: int
    correct: bool
    hypervolume: float
    meta: dict


def check_solve(
    solve: Solve,
    wl: Workload,
    model: ref.Model,
    tech_ids: list[int],
    hv_bound: Optional[float],
) -> Checked:
    planned = wl.pop_size * (wl.generations + 1)
    if solve.rc != 0:
        print(f"seed {solve.seed}: CLI exit code {solve.rc}", file=sys.stderr)
        return Checked(planned, planned, False, 0.0, {})
    meta = json.loads((solve.out / "meta.json").read_text())
    rows = ref.read_frontier(str(solve.out / "frontier.csv"), model.T)
    report = ref.check_frontier(rows, model, tech_ids)
    correct = True
    problems = list(report.errors)
    if not rows or len(rows) != meta["archive_size"]:
        correct = False
        problems.append(f"{len(rows)} rows for an archive of {meta['archive_size']}")
    if report.dominated:
        correct = False
        problems.append(f"{report.dominated} dominated rows")
    if hv_bound is not None and report.hypervolume > hv_bound * (1.0 + ref.HV_RTOL):
        correct = False
        problems.append(
            f"hypervolume {report.hypervolume!r} exceeds the closed form {hv_bound!r}"
        )
    for p in problems[:10]:
        print(f"seed {solve.seed}: {p}", file=sys.stderr)
    print(
        f"  checked seed {solve.seed}: {report.rows} rows, "
        f"max objective rel err {report.max_objective_rel_err:.2g}, "
        f"max KKT residual {report.max_kkt_residual:.2g}, "
        f"max profit gap {report.max_profit_gap if report.max_profit_gap is not None else 'n/a'}, "
        f"failed rows {report.failed_rows}"
    )
    return Checked(
        attempted=wl.pop_size * (meta["generations_executed"] + 1),
        failed=meta["failed_evaluations"] + report.failed_rows,
        correct=correct,
        hypervolume=report.hypervolume,
        meta=meta,
    )


def same_outputs(a: Path, b: Path) -> bool:
    return all(
        (a / f).read_bytes() == (b / f).read_bytes()
        for f in ("frontier.csv", "schedule.csv")
    )


def layer_metrics(
    tracer: layers.Tracer, wall: float, meta: dict, out: Path
) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in layers.LAYERS:
        calls, seconds = tracer.totals(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = seconds
    br_calls = m["lower.best_response.calls"]
    m["lower.best_response.ms_per_call"] = (
        1e3 * m["lower.best_response.s"] / br_calls if br_calls else 0.0
    )
    m["lower.untagged"] = tracer.untagged
    m["bilevel.leader_self_s"] = m["bilevel.evolve.s"] - m["lower.best_response.s"]
    m["bilevel.archive_admitted"] = tracer.admitted
    inserts = m["bilevel.archive_insert.calls"]
    m["bilevel.archive_admit_ratio"] = tracer.admitted / inserts if inserts else 0.0
    m["bilevel.archive_size"] = meta["archive_size"]
    m["bilevel.generations"] = meta["generations_executed"]
    m["cli.io_s"] = wall - m["bilevel.evolve.s"]
    m["cli.output_bytes"] = sum(
        f.stat().st_size for f in out.iterdir() if f.is_file()
    )
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (correct, attempted, failed, metrics)."""
    wl = WORKLOADS[name]
    bundled = json.loads(BUNDLED.read_text())
    config = wl.config(bundled)
    wdir = OUT / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    config_path = wdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    model = ref.Model.from_config(config["extended"])
    tech_ids = (
        [t.tech_id for t in model.techs] if wl.tech == "all" else [int(wl.tech)]
    )
    hv_bound = (
        ref.analytical_front_hypervolume(
            bundled["analytical"], model.reference_point(tech_ids)[1]
        )
        if wl.closed_form
        else None
    )

    setup = [] if trace else measure_setup(config_path)

    # the CLI runs cycle through the run's EA seeds
    seeds = ea_seeds(seed)
    solves: list[Solve] = []
    traced: list[tuple[Solve, layers.Tracer]] = []
    start = time.perf_counter()
    i = 0
    # a traced run pairs each CLI run with a traced one, so one pair will do
    least = 1 if trace else len(seeds)
    while i < least or time.perf_counter() - start < seconds:
        s = seeds[i % len(seeds)]
        out = wdir / f"solve_{i}"
        solves.append(run_cli(cli_args(wl, config_path, s, out), s, out))
        if trace:
            tracer = layers.Tracer()
            tout = wdir / f"traced_{i}"
            tsolve = run_cli(cli_args(wl, config_path, s, tout), s, tout, tracer)
            traced.append((tsolve, tracer))
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the first run of each seed is checked; its repeats must write the same
    firsts: dict[int, tuple[Solve, Checked]] = {}
    checked = []
    for solve in solves:
        if solve.seed in firsts:
            prior, c = firsts[solve.seed]
            if solve.rc == prior.rc == 0 and same_outputs(solve.out, prior.out):
                checked.append(c)
                continue
        c = check_solve(solve, wl, model, tech_ids, hv_bound)
        if solve.seed in firsts and solve.rc == 0:
            c.correct = False
            print(
                f"{solve.out.name}: differs from its seed's first run", file=sys.stderr
            )
        firsts.setdefault(solve.seed, (solve, c))
        checked.append(c)
    correct = all(c.correct for c in checked)
    attempted = sum(c.attempted for c in checked)
    failed = sum(c.failed for c in checked)

    if not trace:
        walls = [s.seconds for s in solves]
        probes = [s.probe_s for s in solves]
        # a seed with one or two repeats can still carry a spell the probe
        # did not fully follow, so the seeds are combined by their median
        per_seed = [normalised_run([x for x in solves if x.seed == s]) for s in seeds]
        print(
            f"  {len(solves)} CLI runs at seeds {seeds}: wall time median "
            f"{statistics.median(walls):.3f} s [{min(walls):.3f}-{max(walls):.3f}], "
            f"probe median {1e3 * statistics.median(probes):.3f} ms "
            f"[{1e3 * min(probes):.3f}-{1e3 * max(probes):.3f}], normalised "
            + " ".join(f"{t:.3f}" for t in per_seed)
            + " s"
        )
        evals = [firsts[s][1].attempted for s in seeds]
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(per_seed),
            "evals_per_s": statistics.median(e / t for e, t in zip(evals, per_seed)),
            "hypervolume": statistics.median(firsts[s][1].hypervolume for s in seeds),
            "peak_rss_mb": peak_rss_mb,
        }
        return correct, attempted, failed, metrics

    per_solve, overheads, shares = [], [], []
    for (tsolve, tracer), solve, c in zip(traced, solves, checked):
        attempted += c.attempted
        if tsolve.rc != 0 or solve.rc != 0:
            correct = False
            failed += c.attempted
            continue
        failed += c.failed
        if not same_outputs(tsolve.out, solve.out):
            correct = False
            print(f"{tsolve.out.name}: outputs differ from untraced", file=sys.stderr)
        per_solve.append(layer_metrics(tracer, tsolve.seconds, c.meta, tsolve.out))
        overheads.append(tsolve.seconds - solve.seconds)
        shares.append(overheads[-1] / solve.seconds)
        with open(wdir / f"spans_{tsolve.out.name}.jsonl", "w") as f:
            for rec in tracer.as_records():
                f.write(json.dumps(rec) + "\n")
    if not per_solve:
        return False, attempted, failed, {}
    metrics = {
        key: statistics.median(m[key] for m in per_solve) for key in per_solve[0]
    }
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_share"] = statistics.median(shares)
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        default="all",
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to run each in turn in this process",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "minetax" / "__init__.py").is_file() or not BUNDLED.is_file():
        print(f"error: no minetax source tree under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    import minetax

    if Path(minetax.__file__).resolve().parent != (SRC / "minetax").resolve():
        print(f"error: imported minetax from {minetax.__file__}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, values = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        correct &= ok
        attempted += att
        failed += fail
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"{name}: correct={ok} attempted={att} failed={fail}")
        for m in wanted:
            if m["name"] not in values:
                print(f"error: metric {m['name']} not measured", file=sys.stderr)
                return 1
            value = values[m["name"]]
            print(f"  {m['name']:<40} {value:>16.6f} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
