"""Compare two source trees on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \
        --pairs N --seed S --seconds X --out FILE

Each tree is copied to a temporary directory, without `__pycache__`,
`.bench_out` and `.git`, so that neither run reads the other's leftovers or
writes into its source. Pair i runs `bench/run.py --workload W --seed S+i
--seconds X --trace 0` once in each copy, in fresh interpreters with
PYTHONDONTWRITEBYTECODE=1; the parent's copy goes first in even pairs and
the change's in odd ones, so that a drift of the machine's speed over the
session falls on both sides alike.

A pair fails when either run is incorrect, reports failed operations or
exits nonzero, or when the two hypervolumes differ. For each end-to-end
metric of the change's BENCHMARK.json, the summary over the passing pairs
gives the parent's and the change's medians, the interquartile range of
the parent's values, the change of the median, and the number of pairs in
which the change is better. The summary is printed, one line per metric,
and written with every pair's values to FILE as a JSON record of kind
"pairs". The exit code is 1 if a pair failed, 2 on a usage error.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
IGNORED = shutil.ignore_patterns("__pycache__", ".bench_out", ".git")


def git_state(root: Path) -> dict:
    """The commit a tree is checked out at, and whether its files differ
    from it; None for both outside a git checkout."""
    def git(*args: str) -> str | None:
        done = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha, "dirty": None if status is None else bool(status)}


def src_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of the tree's `src/` files,
    which names the program measured whether or not it is committed."""
    h = hashlib.sha256()
    src = root / "src"
    for f in sorted(src.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(f.relative_to(src).as_posix().encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced `bench/run.py` run in `root`: its closing JSON record,
    or an incorrect one that holds the exit code and the error output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        record = None
    if record is None:
        return {"correct": False, "failed": None, "metrics": {},
                "exit_code": done.returncode, "stderr": done.stderr[-2000:]}
    return record


def problems(runs: dict) -> list[str]:
    """Why a pair fails: an incorrect run, failed operations, or unequal
    hypervolumes."""
    found = []
    for side in SIDES:
        run = runs[side]
        if run["correct"] is not True:
            found.append(f"{side} run incorrect")
        if run["failed"] != 0:
            found.append(f"{side} run has {run['failed']} failed operations")
    hv = [
        {k: v["value"] for k, v in runs[side]["metrics"].items()
         if k.split(".")[-1] == "hypervolume"}
        for side in SIDES
    ]
    if hv[0] != hv[1]:
        found.append(f"hypervolumes differ: {hv[0]} against {hv[1]}")
    return found


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric over the passing pairs: both medians, the parent's IQR,
    the relative change of the median and the pairs the change wins."""
    good = [p for p in pairs if not p["problems"]]
    out = {}
    if not good:
        return out
    names = good[0]["parent"]["metrics"]
    better = {m["name"]: m["better"] for m in end_to_end}
    for name in names:
        base = name.split(".")[-1]
        if base not in better:
            continue
        a = [p["parent"]["metrics"][name]["value"] for p in good]
        b = [p["change"]["metrics"][name]["value"] for p in good]
        sign = 1.0 if better[base] == "higher" else -1.0
        med_a, med_b = statistics.median(a), statistics.median(b)
        out[name] = {
            "unit": good[0]["parent"]["metrics"][name]["unit"],
            "better": better[base],
            "parent_median": med_a,
            "change_median": med_b,
            "parent_iqr": iqr(a),
            "change": (med_b - med_a) / med_a if med_a else None,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "pairs": len(good),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0 or args.seconds < 0:
        parser.error("--pairs must be positive, --seed and --seconds nonnegative")
    roots = [args.parent_root.resolve(), args.change_root.resolve()]
    for root in roots:
        if not (root / "bench" / "run.py").is_file():
            print(f"error: no bench/run.py under {root}", file=sys.stderr)
            return 2
    end_to_end = json.loads((roots[1] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for side, root in zip(SIDES, roots):
            copies[side] = Path(tmp) / side
            shutil.copytree(root, copies[side], ignore=IGNORED, symlinks=True)
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {
                side: bench_run(copies[side], args.workload, seed, args.seconds)
                for side in order
            }
            pair = {"seed": seed, "first": order[0], **runs}
            pair["problems"] = problems(runs)
            pairs.append(pair)
            print(f"pair {i + 1} of {args.pairs}, seed {seed}, {order[0]} first: "
                  + ("; ".join(pair["problems"]) or "ok"), flush=True)

    result = summary(pairs, end_to_end)
    for name, s in result.items():
        change = "n/a" if s["change"] is None else f"{100.0 * s['change']:+.1f}%"
        print(f"{name}: parent {s['parent_median']:.6g}, change "
              f"{s['change_median']:.6g} {s['unit']} (parent IQR "
              f"{s['parent_iqr']:.3g}), {change}, change better in "
              f"{s['wins']} of {s['pairs']} pairs ({s['better']} is better)")
    failed = sum(bool(p["problems"]) for p in pairs)
    if failed:
        print(f"{failed} of {len(pairs)} pairs failed")
    record = {
        "kind": "pairs",
        "trees": {
            side: {**git_state(root), "src_sha256": src_digest(root)}
            for side, root in zip(SIDES, roots)
        },
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "arguments": {
            "workload": args.workload, "pairs": args.pairs,
            "seed": args.seed, "seconds": args.seconds,
        },
        "pairs": pairs,
        "summary": result,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
