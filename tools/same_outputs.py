"""Check that two source trees write the same frontier and schedule bytes.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Each case runs `python -m minetax.cli --model extended` once per tree, in a
fresh interpreter with PYTHONPATH=<root>/src and the same config file:

- the three workloads of bench/run.py, at the four EA seeds of its seed 0,
  with the workload's config and CLI arguments taken from bench/run.py;
- the bundled config at r = 0 and r = 0.05, with --tech all and --tech 4,
  at seeds 0-3 and the CLI's default budget;
- the bundled table with technology 3's beta_er set to 1.5, at r = 0 and
  r = 0.05, with --tech all at seeds 0-3: technologies 3 and 4 are then
  both undominated (1 is dominated by 3, 2 by 4), so `best_response`
  weighs the profit-gap certificate against a second solved technology;
- the bundled table with tau_bounds [5, 30] in every period, at r = 0 and
  r = 0.05, with --tech all at seeds 0-3: SBX and mutation then clip many
  genes onto the box edges, and those taxes reach the archive unchecked;
- the bundled table with period 1's tau_bounds pinned at [alpha_1,
  alpha_1] (the others [0, alpha_t]), at r = 0 and r = 0.05, with --tech
  all at seeds 0-3: then q_1 = 0 in every row, the edge case of the
  writer's first schedule row;
- the bundled config at r = 0 with --min-revenue 1000 --max-damage 400 at
  seeds 0-3, so the objective-bound filter keeps part of the archive.

Then frontier.csv and schedule.csv of each pair are compared byte for
byte, and meta.json with its wall_time_seconds left out. One line is
printed per pair; the exit code is 1 if any pair differs or fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402  (bench/run.py, found through sys.path)

SEEDS = range(4)


def cases() -> list[tuple[str, dict, list[str]]]:
    """(name, config, CLI arguments) of every case. Paths are relative to
    the case directory: the config is config.json, the output goes to out."""
    config, out = Path("config.json"), Path("out")
    bundled = json.loads(bench.BUNDLED.read_text())
    found = []
    for name, wl in bench.WORKLOADS.items():
        for seed in bench.ea_seeds(0):
            found.append((
                f"{name} seed {seed}",
                wl.config(bundled),
                bench.cli_args(wl, config, seed, out),
            ))
    two_top = [dict(t) for t in bundled["extended"]["technologies"]]
    (tech3,) = (t for t in two_top if t["tech_id"] == 3)
    tech3["beta_er"] = 1.5
    narrow = [[5, 30]] * bundled["extended"]["T"]
    alpha = bundled["extended"]["alpha"]
    pinned = [[alpha[0], alpha[0]]] + [[0, a] for a in alpha[1:]]
    tables = [
        ("bundled", bundled["extended"], ("all", "4")),
        ("two undominated", dict(bundled["extended"], technologies=two_top),
         ("all",)),
        ("tau_bounds [5, 30]", dict(bundled["extended"], tau_bounds=narrow),
         ("all",)),
        (f"tau_1 pinned at {alpha[0]}",
         dict(bundled["extended"], tau_bounds=pinned), ("all",)),
    ]
    for label, extended, techs in tables:
        for r in (0.0, 0.05):
            cfg = dict(bundled, extended=dict(extended, r=r))
            for tech in techs:
                for seed in SEEDS:
                    found.append((
                        f"{label} r={r} --tech {tech} seed {seed}",
                        cfg,
                        ["--model", "extended", "--config", str(config),
                         "--tech", tech, "--seed", str(seed), "--out", str(out)],
                    ))
    bounds = ["--min-revenue", "1000", "--max-damage", "400"]
    for seed in SEEDS:
        found.append((
            f"bundled r=0.0 {' '.join(bounds)} seed {seed}",
            dict(bundled, extended=dict(bundled["extended"], r=0.0)),
            ["--model", "extended", "--config", str(config), *bounds,
             "--seed", str(seed), "--out", str(out)],
        ))
    return found


def run_case(root: Path, where: Path, config: dict, args: list[str]) -> int:
    where.mkdir(parents=True)
    (where / "config.json").write_text(json.dumps(config, indent=2))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "minetax.cli", *args],
        cwd=where, env=env, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode


def differences(a: Path, b: Path) -> list[str]:
    """Names of the outputs that differ between output directories a, b."""
    found = [
        f for f in ("frontier.csv", "schedule.csv")
        if (a / f).read_bytes() != (b / f).read_bytes()
    ]
    metas = []
    for d in (a, b):
        meta = json.loads((d / "meta.json").read_text())
        del meta["wall_time_seconds"]
        metas.append(meta)
    if metas[0] != metas[1]:
        found.append("meta.json")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT",
              file=sys.stderr)
        return 2
    roots = [Path(p).resolve() for p in argv]
    for root in roots:
        if not (root / "src" / "minetax" / "cli.py").is_file():
            print(f"error: no minetax source tree under {root}", file=sys.stderr)
            return 2
    same = 0
    todo = cases()
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, config, args) in enumerate(todo):
            dirs = [Path(tmp) / side / str(k) for side in ("parent", "change")]
            codes = [run_case(r, d, config, args) for r, d in zip(roots, dirs)]
            if codes != [0, 0]:
                print(f"{name}: FAILED, exit codes {codes[0]} and {codes[1]}")
                continue
            diff = differences(dirs[0] / "out", dirs[1] / "out")
            if diff:
                print(f"{name}: DIFFERS in {', '.join(diff)}")
            else:
                same += 1
                print(f"{name}: identical")
    print(f"{same} of {len(todo)} pairs identical")
    return 0 if same == len(todo) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
