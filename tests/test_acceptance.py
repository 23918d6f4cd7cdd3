"""Acceptance suite: one test per headline requirement, each printing a
pass/fail line with the measured deviation and enforcing its runtime
budget."""

import time

import pytest

from composition import frontier_composition
from leader_reference import detect_strata_kinks
from minetax import EaConfig, evolve
from minetax.cli import main
from minetax.model import replace
from minetax.verify import (
    check_closed_form,
    check_frontier_convergence,
    check_frontier_endpoints,
    check_oracle_equivalence,
    check_telescoping,
    check_threshold,
)


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, detail


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def tech_frontiers(model):
    """Converged single-technology frontiers for the extended model."""
    cfg = EaConfig(population_size=60, max_generations=80, seed=2)
    return {
        tech.tech_id: evolve(
            replace(model, techs=(tech,)), cfg
        ).archive.entries
        for tech in model.techs
    }


@pytest.fixture(scope="module")
def full_frontier(model):
    """Frontier with the follower free to choose any technology."""
    cfg = EaConfig(population_size=60, max_generations=80, seed=2)
    return evolve(model, cfg).archive.entries


def test_criterion_1_closed_form_correctness(params):
    res, elapsed = _timed(check_closed_form, params)
    _report(
        1,
        res.passed and elapsed < 1.0,
        f"FOC/grid deviation {res.deviation:.3e} (tol 1e-6), {elapsed:.2f}s",
    )


def test_criterion_2_feasibility_threshold(params):
    res = check_threshold(params)
    _report(2, res.passed, f"threshold deviation {res.deviation:.3e} (tol 1e-12)")


def test_criterion_3_frontier_endpoints(params):
    res = check_frontier_endpoints(params)
    _report(3, res.passed, f"endpoint deviation {res.deviation:.3e} (tol 1e-9)")


def test_criterion_4_bilevel_ea_convergence(params):
    res, elapsed = _timed(
        check_frontier_convergence,
        params,
        population_size=60,
        max_generations=200,
    )
    _report(
        4,
        res.passed and elapsed < 120.0,
        f"frontier distance {res.deviation:.3e} (tol 0.01), "
        f"{res.detail}, {elapsed:.1f}s",
    )


def test_criterion_5_oracle_equivalence(model):
    res, elapsed = _timed(check_oracle_equivalence, model, n_strategies=50)
    _report(
        5,
        res.passed and elapsed < 300.0,
        f"profit deviation {res.deviation:.3e} (tol 1e-2), {elapsed:.1f}s",
    )


def test_criterion_6_telescoping_identity(model):
    res, elapsed = _timed(check_telescoping, model, n_schedules=1000)
    _report(
        6,
        res.passed and elapsed < 1.0,
        f"telescoping deviation {res.deviation:.3e} (tol 1e-9), {elapsed:.2f}s",
    )


def test_criterion_7_frontier_composition(model, tech_frontiers, full_frontier):
    # the follower chooses the technology, so the free-choice frontier is
    # bounded by two inclusions rather than equal to the per-tech union
    comp = frontier_composition(model, tech_frontiers, full_frontier, tol=0.005)
    _report(
        7,
        comp.eps_lower <= 0.005 and comp.eps_upper <= 0.005,
        f"free-choice covers played per-tech points eps={comp.eps_lower:.3e} "
        f"({comp.played} played, {comp.refuted} outplayed, "
        f"{comp.solved} solved); per-tech union covers free-choice "
        f"eps={comp.eps_upper:.3e} (tol 5e-3)",
    )


def test_criterion_8_strata_discontinuities(model, tech_frontiers):
    # the inner breakpoints, whatever the stratum sizes
    boundaries = model.strata.breakpoints[:-1]
    missing = []
    found = {}
    for tech_id, entries in tech_frontiers.items():
        kinks = detect_strata_kinks(entries, boundaries)
        found[tech_id] = kinks
        if not kinks:
            missing.append(tech_id)
    _report(
        8,
        not missing,
        f"kinks per technology {found}"
        + (f"; none detected for {missing}" if missing else ""),
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    args = ["--model", "extended", "--pop-size", "20",
            "--generations", "10", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    same = (a / "frontier.csv").read_bytes() == (b / "frontier.csv").read_bytes()
    _report(9, same, "frontier.csv byte-identical across identical seeded runs")
