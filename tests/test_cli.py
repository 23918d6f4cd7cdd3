import csv
import dataclasses
import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import minetax
import csv_writers
from minetax import analytical as ana
from minetax import verify
from minetax import (
    ArchiveEntry,
    EaConfig,
    FollowerResponse,
    LeaderStrategy,
    ObjectivePoint,
    analytical_as_extended,
    best_response,
    bilevel,
    evolve,
    leader_objectives,
)
from test_lower import full_enumeration
from minetax.cli import (
    EXIT_EMPTY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    _write_frontier,
    _write_schedules,
    main,
)


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.fixture()
def bad_analytical_config(tmp_path):
    # choke price below the unit cost: no tax can induce extraction
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"analytical": {
        "alpha": 1.0, "beta": 1.0, "delta": 1.0,
        "gamma": 2.0, "phi": 0.0, "k": 1.0,
    }}))
    return str(path)


@pytest.fixture()
def nonconvex_config(tmp_path):
    cfg = {
        "analytical": {
            "alpha": 100, "beta": 1, "delta": 1,
            "gamma": 1, "phi": 0, "k": 1,
        },
        "extended": {
            "T": 2,
            "alpha": [50, 55],
            "beta": [0.1, 0.1],
            "r": 0.0,
            "strata": [20, 20],
            "technologies": [
                {"tech_id": 1, "k": 3, "alpha_er": 0.5, "beta_er": 5,
                 "gamma_er": 10, "slopes": [2.0, 1.0]},
            ],
        },
    }
    path = tmp_path / "nonconvex.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _discounted(path, tmp_path, r=0.05):
    """Copy of the config at `path` with the extended model's rate set to r."""
    cfg = json.loads(Path(path).read_text())
    cfg["extended"]["r"] = r
    out = tmp_path / f"r{r}.json"
    out.write_text(json.dumps(cfg))
    return str(out)


def _bundled():
    text = resources.files("minetax").joinpath("data/default_config.json")
    return json.loads(text.read_text())


def _set(path, value):
    def edit(cfg):
        *parents, last = path
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value

    return edit


class TestInvalidConfigs:
    """Each invalid input ends in exit code 1 and a message, not a traceback."""

    @pytest.mark.parametrize(
        "model, edit",
        [
            ("extended", _set(("extended", "alpha", 0), float("nan"))),
            ("extended", _set(("extended", "r"), float("inf"))),
            ("extended", _set(("extended", "strata", 2), float("nan"))),
            ("extended",
             _set(("extended", "technologies", 0, "slopes", 1), float("inf"))),
            ("extended", _set(("extended", "q_bounds"), [[0, 90]] * 4)),
            ("extended", _set(("extended", "tau_bounds"), [[0, 50]] * 6)),
            ("extended",
             _set(("extended", "q_bounds"), [[1, 90]] + [[0, 90]] * 4)),
            ("extended",
             _set(("extended", "tau_bounds"), [[0, float("nan")]] * 5)),
            ("analytical", _set(("analytical", "alpha"), float("nan"))),
            ("extended",
             _set(("extended", "technologies", 1, "slopes"), [3, 3, 2, 2, 2])),
            ("analytical",
             _set(("extended", "technologies", 1, "slopes"), [3, 3, 2, 2, 2])),
        ],
        ids=[
            "nan-alpha", "inf-r", "nan-stratum", "inf-slope", "short-q-bounds",
            "long-tau-bounds", "nonzero-q-lower-bound", "nan-tau-bound",
            "nan-analytical", "decreasing-slopes", "decreasing-slopes-analytical",
        ],
    )
    def test_rejected_with_message(self, tmp_path, capsys, model, edit):
        cfg = _bundled()
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--model", model, "--config", str(path), "--pop-size", "4",
                   "--generations", "1", "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "model, edit",
        [
            ("extended", _set(("extended", "r"), None)),
            ("extended", _set(("extended", "alpha"), 5)),
            ("extended", _set(("extended", "technologies", 0, "slopes"), 3)),
            ("extended", _set(("extended", "technologies", 0, "k"), None)),
            ("extended", _set(("extended",), [])),
            ("extended", _set(("extended", "T"), 5.7)),
            ("extended", _set(("extended", "T"), True)),
            ("extended", _set(("extended", "technologies", 0, "tech_id"), 1.5)),
            ("analytical", _set(("analytical", "alpha"), None)),
            ("extended", _set(("extended", "alpha"), "56789")),
            ("extended",
             _set(("extended", "technologies", 0, "slopes"), "12345")),
            ("extended", _set(("extended", "strata"), "22222")),
            ("extended", _set(("extended", "tau_bounds"), ["05"] * 5)),
            ("extended", _set(("extended", "alpha", 0), True)),
            ("analytical", _set(("analytical", "k"), True)),
            ("analytical", _set(("analytical", "k"), "1")),
            ("extended", _set(("extended", "r"), "0.05")),
            ("extended",
             _set(("extended", "tau_bounds"), [[0, 1, 2]] + [[0, 50]] * 4)),
            ("extended", _set(("extended", "q_bounds"), [[0]] + [[0, 90]] * 4)),
        ],
        ids=[
            "null-r", "scalar-alpha", "scalar-slopes", "null-k", "list-section",
            "fractional-T", "bool-T", "fractional-tech-id", "null-analytical",
            "string-alpha", "string-slopes", "string-strata", "string-tau-bound",
            "bool-alpha", "bool-k", "string-k", "string-r",
            "triple-tau-bound", "single-q-bound",
        ],
    )
    def test_wrong_json_type_rejected(self, tmp_path, capsys, model, edit):
        # int() would run T = 5.7 as 5 and tech_id = 1.5 as 1; float() would
        # read "1" and true as 1, and tuple() the string "56789" as digits
        cfg = _bundled()
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--model", model, "--config", str(path), "--pop-size", "4",
                   "--generations", "1", "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {model} config")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lo", [-5, -1e-9])
    def test_negative_tax_bound_rejected_on_load(self, tmp_path, capsys, lo):
        # LeaderStrategy rejects a negative tax, so rejecting the bound at
        # load is the only check that does not depend on the draws: at
        # -1e-9 no draw of this run falls below 0
        cfg = _bundled()
        cfg["extended"]["tau_bounds"] = [[lo, 10]] * 5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--model", "extended", "--config", str(path), "--pop-size",
                   "8", "--generations", "2", "--seed", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tax lower bounds" in err
        assert not (tmp_path / "out").exists()

    def test_nonconvex_costs_rejected(self, tmp_path, nonconvex_config, capsys):
        rc = main(["--model", "extended", "--config", nonconvex_config,
                   "--pop-size", "4", "--generations", "1",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: technology 1: ") and "nondecreasing" in err

    def test_nonconvex_costs_rejected_when_discounted(
        self, tmp_path, nonconvex_config, capsys
    ):
        config = _discounted(nonconvex_config, tmp_path)
        rc = main(["--model", "extended", "--config", config,
                   "--pop-size", "4", "--generations", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: technology 1: ") and "nondecreasing" in err
        assert "Traceback" not in err


def _run_cli(*args):
    src = str(Path(minetax.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); "
         "from minetax.cli import main; sys.exit(main())", *args],
        capture_output=True, text=True,
    )


class TestExitCodes:
    """argparse's own exit code for a usage error is 2, which here means a
    failed --verify; a script must be able to tell the two apart."""

    @pytest.mark.parametrize(
        "args",
        [["--bogus"], ["--model", "extended", "--min-revenue", "-inf"]],
        ids=["unknown-flag", "option-like-value"],
    )
    def test_usage_error_exits_1(self, args):
        done = _run_cli(*args)
        assert done.returncode == EXIT_USAGE
        assert done.stderr.startswith("usage: minetax")
        assert "minetax: error: " in done.stderr
        assert "Traceback" not in done.stderr

    def test_failed_verification_exits_2(self, monkeypatch, capsys):
        failed = verify.CheckResult("stand-in check", False, 1.0)
        monkeypatch.setattr(verify, "run_all_checks", lambda *args, **kw: [failed])
        assert main(["--verify", "--quick"]) == EXIT_VERIFY_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] stand-in check" in out and "verification FAILED" in out


class TestAnalyticalRuns:
    def test_sweep_artifact(self, tmp_path, capsys):
        rc = main(["--model", "analytical", "--points", "50",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = _read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 50
        assert float(rows[0].get("revenue")) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[-1]["revenue"]) == pytest.approx(612.5625)
        assert float(rows[-1]["damage"]) == pytest.approx(12.375)
        assert "wrote" in capsys.readouterr().out

    def test_minimum_two_points(self, tmp_path):
        assert main(["--points", "2", "--out", str(tmp_path)]) == EXIT_OK
        assert len(_read_csv(tmp_path / "sweep.csv")) == 2

    def test_too_few_points_is_usage_error(self, tmp_path, capsys):
        rc = main(["--points", "1", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_infeasible_parameters_rejected(self, tmp_path, bad_analytical_config, capsys):
        rc = main(["--config", bad_analytical_config, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_no_damage_instance(self, tmp_path):
        path = tmp_path / "k0.json"
        path.write_text(json.dumps({"analytical": {
            "alpha": 100, "beta": 1, "delta": 1, "gamma": 1, "phi": 0, "k": 0,
        }}))
        rc = main(["--config", str(path), "--points", "5",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = _read_csv(tmp_path / "sweep.csv")
        assert [float(r["revenue"]) for r in rows] == [612.5625] * 5

    def test_missing_config_file(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE


class TestExtendedRuns:
    ARGS = ["--model", "extended", "--pop-size", "8",
            "--generations", "5", "--seed", "42"]

    def test_artifacts_written(self, tmp_path, model):
        rc = main(self.ARGS + ["--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = _read_csv(tmp_path / "frontier.csv")
        assert rows
        sched = _read_csv(tmp_path / "schedule.csv")
        assert len(sched) == len(rows) * model.T
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["seed"] == 42
        assert meta["archive_size"] >= len(rows)
        assert meta["config"]["pop_size"] == 8
        assert list(meta["config"]) == [
            "model", "config_path", "tech", "points", "pop_size", "generations",
            "seed", "out", "min_revenue", "max_damage", "verify", "quick",
        ]
        assert meta["failed_evaluations"] == 0
        assert meta["wall_time_seconds"] > 0

    def test_frontier_rows_reevaluate(self, tmp_path, model):
        main(self.ARGS + ["--out", str(tmp_path)])
        for row in _read_csv(tmp_path / "frontier.csv")[:3]:
            tau = tuple(float(row[f"tau_{t}"]) for t in range(1, 6))
            strat = LeaderStrategy(tau=tau)
            br = best_response(strat, model)
            revenue, damage = leader_objectives(br.response, strat, model)
            # CSV keeps 12 significant digits and the lower solver is only
            # accurate to its own tolerance, so allow a small slack
            assert revenue == pytest.approx(float(row["revenue"]), abs=1e-4)
            assert damage == pytest.approx(float(row["damage"]), abs=1e-4)

    def test_schedule_cumulative_column(self, tmp_path):
        main(self.ARGS + ["--out", str(tmp_path)])
        running = {}
        for row in _read_csv(tmp_path / "schedule.csv"):
            i = row["id"]
            running[i] = running.get(i, 0.0) + float(row["q"])
            assert float(row["cumulative_extraction"]) == pytest.approx(
                running[i], abs=1e-9
            )

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(self.ARGS + ["--out", str(a)])
        main(self.ARGS + ["--out", str(b)])
        assert (a / "frontier.csv").read_bytes() == (b / "frontier.csv").read_bytes()
        assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()

    def test_byte_identical_discounted_reruns(self, tmp_path):
        path = tmp_path / "bundled.json"
        path.write_text(json.dumps(_bundled()))
        config = _discounted(path, tmp_path)
        args = ["--model", "extended", "--config", config, "--pop-size", "20",
                "--generations", "10", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert (a / "frontier.csv").read_bytes() == (b / "frontier.csv").read_bytes()

    def test_filter_can_empty_the_archive(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--out", str(tmp_path),
                               "--min-revenue", "1e9"])
        assert rc == EXIT_EMPTY
        assert _read_csv(tmp_path / "frontier.csv") == []
        assert "warning" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bound", ["--min-revenue=nan", "--max-damage=inf", "--min-revenue=-inf"]
    )
    def test_non_finite_bound_rejected(self, tmp_path, capsys, bound):
        rc = main(self.ARGS + ["--out", str(tmp_path), bound])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and bound.split("=")[0] in err
        assert not (tmp_path / "meta.json").exists()

    def test_tech_filter(self, tmp_path):
        rc = main(self.ARGS + ["--out", str(tmp_path), "--tech", "2"])
        assert rc == EXIT_OK
        rows = _read_csv(tmp_path / "frontier.csv")
        assert rows and all(r["tech"] == "2" for r in rows)

    def test_unknown_tech_rejected(self, tmp_path):
        rc = main(self.ARGS + ["--out", str(tmp_path), "--tech", "9"])
        assert rc == EXIT_USAGE

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc = main(["--model", "extended", "--pop-size", "8", "--generations",
                   "1", "--seed", "-1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_negative_generations_rejected(self, tmp_path, capsys):
        rc = main(["--model", "extended", "--pop-size", "8", "--generations",
                   "-5", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and "generations" in err
        assert not (tmp_path / "frontier.csv").exists()

    def test_meta_records_termination_reason(self, tmp_path):
        main(self.ARGS + ["--out", str(tmp_path)])
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["termination_reason"] == "max_generations"
        assert meta["generations_executed"] == 5


def _embedding_config(tmp_path):
    """The bundled single-period model as a T = 1 extended instance: one
    technology, one stratum of slope gamma sized beyond any optimum."""
    p = _bundled()["analytical"]
    path = tmp_path / "embedding.json"
    path.write_text(json.dumps({"extended": {
        "T": 1, "alpha": [p["alpha"]], "beta": [p["beta"]], "r": 0.0,
        "strata": [p["alpha"] / p["beta"]],
        "technologies": [{"tech_id": 1, "k": p["k"], "alpha_er": p["delta"],
                          "beta_er": 0.0, "gamma_er": 0.0,
                          "slopes": [p["gamma"]]}],
    }}))
    return str(path)


class TestStreamedWriters:
    """The streamed writers give the bytes of the csv.writer ones."""

    @staticmethod
    def _same_bytes(tmp_path, entries, model):
        _write_frontier(tmp_path / "f_new.csv", entries, model.T)
        csv_writers._write_frontier(tmp_path / "f_ref.csv", entries, model.T)
        _write_schedules(tmp_path / "s_new.csv", entries, model)
        csv_writers._write_schedules(tmp_path / "s_ref.csv", entries, model)
        for name in ("f", "s"):
            new = (tmp_path / f"{name}_new.csv").read_bytes()
            assert new == (tmp_path / f"{name}_ref.csv").read_bytes()

    @staticmethod
    def _same_sweep_bytes(tmp_path, sweep):
        ana.sweep_to_csv(sweep, str(tmp_path / "w_new.csv"))
        csv_writers.sweep_to_csv(sweep, str(tmp_path / "w_ref.csv"))
        new = (tmp_path / "w_new.csv").read_bytes()
        assert new == (tmp_path / "w_ref.csv").read_bytes()

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_evolve_archive(self, tmp_path, model, r):
        model = dataclasses.replace(model, r=r)
        cfg = EaConfig(population_size=20, max_generations=5, seed=7)
        entries = evolve(model, cfg).archive.entries
        assert entries
        self._same_bytes(tmp_path, entries, model)

    def test_analytical_embedding(self, tmp_path, params):
        model = analytical_as_extended(params)
        cfg = EaConfig(population_size=100, max_generations=3, seed=7)
        self._same_bytes(tmp_path, evolve(model, cfg).archive.entries, model)

    @pytest.mark.parametrize("k", [1.0, 0.0])
    def test_analytical_sweep(self, tmp_path, params, k):
        sweep = ana.pareto_sweep(dataclasses.replace(params, k=k), 100)
        self._same_sweep_bytes(tmp_path, sweep)

    def test_awkward_floats(self, tmp_path, model):
        awkward = (0.0, 5e-324, 1e16, 123456789012.5, 3.0, 1.0 / 3.0)

        def entry(j, tech):
            pick = [awkward[(j + t) % len(awkward)] for t in range(model.T)]
            return ArchiveEntry(
                strategy=LeaderStrategy(tau=pick),
                response=FollowerResponse(q=pick[::-1], a=tech),
                objectives=ObjectivePoint(
                    revenue=awkward[j], damage=float(j), profit=-awkward[j] - 2.5
                ),
                optimality_tag=True,
            )

        entries = [
            entry(j, tech.tech_id)
            for j in range(len(awkward))
            for tech in model.techs
        ]
        self._same_bytes(tmp_path, entries, model)
        self._same_bytes(tmp_path, [], model)
        sweep = [
            ana.WeightedSolution(*(awkward[(j + i) % len(awkward)] for i in range(6)))
            for j in range(len(awkward))
        ]
        self._same_sweep_bytes(tmp_path, sweep)
        self._same_sweep_bytes(tmp_path, [])


class TestDominanceReport:
    ARGS = ["--model", "extended", "--pop-size", "8", "--generations", "5",
            "--seed", "42"]

    @staticmethod
    def _warnings(capsys):
        out = capsys.readouterr().out
        return [line for line in out.splitlines() if line.startswith("warning:")]

    def test_bundled_model_warns_once(self, tmp_path, capsys):
        assert main(self.ARGS + ["--out", str(tmp_path)]) == EXIT_OK
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["dominated_technologies"] == {"1": 4, "2": 4, "3": 4}
        (warning,) = self._warnings(capsys)
        assert "technology 4 dominates all others" in warning

    def test_fixed_technology_run_does_not_warn(self, tmp_path, capsys):
        assert main(self.ARGS + ["--tech", "2", "--out", str(tmp_path)]) == EXIT_OK
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["dominated_technologies"] == {"1": 4, "2": 4, "3": 4}
        assert self._warnings(capsys) == []

    def test_analytical_embedding_reports_none(self, tmp_path, capsys):
        config = _embedding_config(tmp_path)
        rc = main(self.ARGS + ["--config", config, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["dominated_technologies"] == {}
        assert self._warnings(capsys) == []

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_outputs_equal_full_enumeration(self, tmp_path, monkeypatch, r):
        cfg = _bundled()
        cfg["extended"]["r"] = r
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        args = ["--model", "extended", "--config", str(path), "--pop-size", "20",
                "--generations", "10", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        monkeypatch.setattr(bilevel, "best_response", full_enumeration)
        assert main(args + ["--out", str(b)]) == EXIT_OK
        for name in ("frontier.csv", "schedule.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dominated_nonconvex_technology_rejected(self, tmp_path, capsys):
        # technology 2 is dominated by technology 1, but its slopes decrease:
        # the table is rejected on load, also for a run of technology 1 alone
        cfg = _bundled()
        cfg["extended"]["technologies"] = [
            {"tech_id": 1, "k": 3, "alpha_er": 0.3, "beta_er": 2,
             "gamma_er": 5, "slopes": [1, 1, 1, 1, 1]},
            {"tech_id": 2, "k": 5, "alpha_er": 0.3, "beta_er": 4,
             "gamma_er": 9, "slopes": [3, 3, 2, 2, 2]},
        ]
        path = tmp_path / "cfg.json"
        for r, tech in itertools.product((0.0, 0.05), ("all", "1")):
            cfg["extended"]["r"] = r
            path.write_text(json.dumps(cfg))
            rc = main(self.ARGS + ["--config", str(path), "--tech", tech,
                                   "--out", str(tmp_path / "out")])
            assert rc == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == "error: technology 2: stratum slopes must be nondecreasing\n"
            assert not (tmp_path / "out").exists()


class TestPinnedStream:
    """Seeded output rests on random.Random(seed).random(), whose sequence
    Python keeps the same across versions. A change to the draw order must
    update these literals and say so."""

    def test_first_draws_and_first_frontier_row(self, tmp_path, monkeypatch):
        taus = []
        solve = bilevel.best_response

        def record(strat, *args, **kwargs):
            taus.append(strat.tau)
            return solve(strat, *args, **kwargs)

        monkeypatch.setattr(bilevel, "best_response", record)
        rc = main(["--model", "extended", "--pop-size", "8", "--generations",
                   "3", "--seed", "0", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert taus[0] == (
            42.2210925762524, 41.687492161716634, 25.2342948498507,
            16.82958876904262, 35.7892304958026,
        )
        rows = (tmp_path / "frontier.csv").read_text().splitlines()
        assert rows[1] == (
            "0,4,1155.30019108,216.618644858,47.8679041178,"
            "45.7787501886,48.0650705933,58.0261821863,53.1737702363,"
            "64.0529173931,1.65156226424,5.04366175833,0,11.1577872046,"
            "3.80885325863"
        )


def test_cli_import_leaves_out_numpy_and_verification():
    # -S: no site-packages, so nothing is imported that the package does
    # not import itself
    src = str(Path(minetax.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import minetax.cli; "
        "minetax.cli.default_config(); "
        "print([m for m in ('numpy', 'minetax.oracle', 'minetax.verify', 'csv', "
        "'importlib.resources') if m in sys.modules]); "
        "import minetax.verify; print('numpy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split("\n") == ["[]", "False", ""]


class TestVerify:
    def test_quick_battery_passes(self, capsys):
        rc = main(["--verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "all checks passed" in out
        assert "[FAIL]" not in out

    def test_quick_battery_needs_no_site_packages(self):
        # python -S leaves site-packages off sys.path: the battery runs on
        # the standard library alone
        src = str(Path(minetax.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-S", "-m", "minetax.cli", "--verify", "--quick"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert "all checks passed" in done.stdout

    def test_unpublished_instance_passes(self, tmp_path, capsys):
        # w_min = k / (alpha - gamma + k) = 3/51: above the smallest FOC
        # weight 0.02 and away from the published threshold 0.01
        cfg = _bundled()
        cfg["analytical"].update(alpha=50, gamma=2, k=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--verify", "--quick", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_zero_damage_instance_passes(self, tmp_path, capsys, r):
        # k = 0: the feasibility threshold is 0, the frontier is the revenue
        # optimum alone, and the embedded technology does no damage
        cfg = _bundled()
        cfg["analytical"]["k"] = 0
        cfg["extended"]["r"] = r
        path = tmp_path / "k0.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--verify", "--quick", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "[FAIL]" not in out

    def test_negative_damage_is_usage_error(self, tmp_path, capsys):
        cfg = _bundled()
        cfg["analytical"]["k"] = -1
        path = tmp_path / "k-1.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--verify", "--quick", "--config", str(path)])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_nonconvex_costs_fail_verification(self, nonconvex_config, capsys):
        # rejected on load, as every other invalid config: no check runs
        rc = main(["--verify", "--quick", "--config", nonconvex_config])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: technology 1: ") and "nondecreasing" in err

    def test_discounted_nonconvex_costs_fail_verification(
        self, tmp_path, nonconvex_config, capsys
    ):
        config = _discounted(nonconvex_config, tmp_path)
        rc = main(["--verify", "--quick", "--config", config])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: technology 1: ") and "nondecreasing" in err
