import csv
import itertools
import json
import math
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
    BestResponse,
    EaConfig,
    LeaderStrategy,
    analytical_as_extended,
    best_response,
    bilevel,
    evolve,
    leader_objectives,
)
from test_lower import full_enumeration
from minetax.model import replace
from minetax.cli import (
    EXIT_EMPTY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    _write_outputs,
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


def _del(path):
    def edit(cfg):
        *parents, last = path
        node = cfg
        for key in parents:
            node = node[key]
        del node[last]

    return edit


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
        "model, edit, message",
        [
            ("extended", _set(("extended", "alpha", 0), float("nan")),
             "alpha, beta and r must be finite"),
            ("extended", _set(("extended", "r"), float("inf")),
             "alpha, beta and r must be finite"),
            ("extended", _set(("extended", "strata", 2), float("nan")),
             "stratum amounts must be finite"),
            ("extended",
             _set(("extended", "technologies", 0, "slopes", 1), float("inf")),
             "technology parameters must be finite"),
            ("extended", _set(("extended", "q_bounds"), [[0, 90]] * 4),
             "tau_bounds and q_bounds must have length T"),
            ("extended", _set(("extended", "tau_bounds"), [[0, 50]] * 6),
             "tau_bounds and q_bounds must have length T"),
            ("extended",
             _set(("extended", "q_bounds"), [[1, 90]] + [[0, 90]] * 4),
             "extraction lower bounds must be 0"),
            ("extended",
             _set(("extended", "tau_bounds"), [[0, float("nan")]] * 5),
             "bounds must be finite"),
            ("analytical", _set(("analytical", "alpha"), float("nan")),
             "analytical parameters must be finite"),
            ("extended",
             _set(("extended", "technologies", 1, "slopes"), [3, 3, 2, 2, 2]),
             "technology 2: stratum slopes must be nondecreasing"),
            ("analytical",
             _set(("extended", "technologies", 1, "slopes"), [3, 3, 2, 2, 2]),
             "technology 2: stratum slopes must be nondecreasing"),
            ("extended", _set(("extended", "technologies", 0, "k"), -1),
             "pollution coefficient k must be nonnegative"),
            ("extended", _set(("extended", "technologies", 0, "alpha_er"), -1),
             "cost coefficients must be nonnegative"),
            ("extended", _set(("extended", "technologies", 0, "beta_er"), -1),
             "cost coefficients must be nonnegative"),
            ("extended", _set(("extended", "technologies", 0, "gamma_er"), -1),
             "cost coefficients must be nonnegative"),
            ("extended", _set(("extended", "technologies", 0, "slopes"), []),
             "at least one stratum slope required"),
            ("extended", _set(("extended", "strata", 2), 0),
             "stratum amounts must be positive"),
            ("extended", _set(("extended", "T"), 0),
             "horizon T must be at least 1"),
            ("extended", _set(("extended", "alpha"), [50, 55, 60, 65]),
             "alpha and beta must have length T"),
            ("extended", _set(("extended", "beta"), [0.1] * 6),
             "alpha and beta must have length T"),
            ("extended", _set(("extended", "beta", 3), 0),
             "price slopes beta_t must be positive"),
            ("extended", _set(("extended", "r"), -0.05),
             "discount rate must be nonnegative"),
            ("extended", _set(("extended", "technologies"), []),
             "at least one technology required"),
            ("extended", _set(("extended", "technologies", 1, "tech_id"), 1),
             "technology ids must be unique"),
            ("extended",
             _set(("extended", "technologies", 2, "slopes"), [1, 2, 3, 4]),
             "each technology needs one slope per stratum"),
            ("extended", _set(("extended", "q_bounds"), [[0, 90], [0, -1]] * 2
                              + [[0, 90]]),
             "bounds must be ordered low <= high"),
            ("extended", _del(("extended", "T")),
             "extended config missing field 'T'"),
            ("extended", _del(("extended", "technologies", 1, "k")),
             "extended config missing field 'k'"),
            ("extended", _set(("extended", "r"), 10**400),
             "extended config: int too large to convert to float"),
            ("extended",
             _set(("extended", "technologies", 0, "slopes", 2), 10**400),
             "extended config: int too large to convert to float"),
            ("analytical", _set(("analytical", "alpha"), 10**400),
             "analytical config: int too large to convert to float"),
            ("analytical", _del(("analytical",)),
             "config has no 'analytical' section"),
            ("extended", _del(("extended",)),
             "config has no 'extended' section"),
            ("verify", _del(("analytical",)),
             "config has no 'analytical' section"),
        ],
        ids=[
            "nan-alpha", "inf-r", "nan-stratum", "inf-slope", "short-q-bounds",
            "long-tau-bounds", "nonzero-q-lower-bound", "nan-tau-bound",
            "nan-analytical", "decreasing-slopes", "decreasing-slopes-analytical",
            "negative-tech-k", "negative-alpha-er", "negative-beta-er",
            "negative-gamma-er", "empty-slopes", "zero-stratum", "zero-T",
            "short-alpha", "long-beta", "zero-beta", "negative-r",
            "no-technologies", "duplicate-tech-ids", "short-slopes",
            "unordered-q-bound", "missing-T", "missing-tech-k", "huge-r",
            "huge-slope", "huge-analytical-alpha",
            "no-analytical-section", "no-extended-section",
            "verify-without-analytical",
        ],
    )
    def test_rejected_with_message(self, tmp_path, capsys, model, edit, message):
        cfg = _bundled()
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        if model == "verify":
            args = ["--verify", "--quick"]
        else:
            args = ["--model", model, "--pop-size", "4", "--generations", "1"]
        rc = main(args + ["--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize(
        "where, depth",
        [(("extended",), 100_000),
         (("extended", "technologies", 0, "slopes"), 50_000)],
        ids=["extended", "slopes"],
    )
    def test_deeply_nested_config_rejected(self, tmp_path, capsys, where, depth):
        # json.load recurses once per level, and so would json.dumps: the
        # nested array is spliced into the text
        cfg = _bundled()
        _set(where, "nested")(cfg)
        text = json.dumps(cfg).replace('"nested"', "[" * depth + "]" * depth)
        path = tmp_path / "deep.json"
        path.write_text(text)
        rc = main(["--model", "extended", "--config", str(path), "--pop-size",
                   "4", "--generations", "1", "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("text", ['{"extended": ', ""], ids=["truncated", "empty"])
    @pytest.mark.parametrize(
        "args",
        [["--model", "extended", "--pop-size", "4", "--generations", "1"],
         ["--verify", "--quick"]],
        ids=["extended", "verify"],
    )
    def test_invalid_json_names_the_file(self, tmp_path, capsys, text, args):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc = main(args + ["--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err
        assert err.count("\n") == 1

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
        # `evolve` builds its strategies without LeaderStrategy's check, so
        # rejecting the bound at load is what keeps every tax nonnegative,
        # whatever the draws: at -1e-9 no draw of this run falls below 0
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


class TestDiscountUnderflow:
    """At T = 5 a rate of about 1e81 or more rounds d_T = (1 + r)^-4 to 0,
    which the follower solvers divide by: the config is rejected on load."""

    COMMANDS = {
        "extended": ["--model", "extended", "--pop-size", "4",
                     "--generations", "1"],
        "verify": ["--verify", "--quick"],
    }

    @staticmethod
    def _config(tmp_path, r):
        cfg = _bundled()
        cfg["extended"]["r"] = r
        path = tmp_path / "rate.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_underflowing_rate_rejected(self, tmp_path, capsys, command):
        args = self.COMMANDS[command] + ["--config", self._config(tmp_path, 1e100)]
        rc = main(args + ["--out", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: discount rate r = 1e+100 ")
        assert "T = 5" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_largest_rate_that_holds_still_runs(self, tmp_path, capsys, command):
        args = self.COMMANDS[command] + ["--config", self._config(tmp_path, 1e80)]
        assert main(args + ["--out", str(tmp_path / "out")]) == EXIT_OK
        assert "error" not in capsys.readouterr().err


def _every(path, value):
    """Set `path` to value in each item of the list at its first key."""
    def edit(cfg):
        first, *rest = path
        for node in cfg["extended"][first]:
            _set(rest, value)(node)

    return edit


class TestOverflowingObjectives:
    """Finite configs whose objectives overflow on the box are rejected on
    load, with a message naming the quantity: at every alpha_t = 1e160 the
    free-choice follower's profits came out NaN and the run ended in a
    bare `min()` error, and at alpha_t = 1e300 (technology 4) or k = 1e308
    it wrote inf revenue and profit, or inf damage, and exited 0."""

    @pytest.mark.parametrize(
        "edit, tech, quantity",
        [
            (_set(("extended", "alpha"), [1e160] * 5), "all",
             "the price and tax terms"),
            (_set(("extended", "alpha"), [1e300] * 5), "4",
             "the price and tax terms"),
            (_every(("technologies", "k"), 1e308), "all",
             "the reference damage"),
        ],
        ids=["alpha-1e160", "alpha-1e300-tech-4", "k-1e308"],
    )
    def test_rejected_with_a_message(self, tmp_path, capsys, edit, tech,
                                     quantity):
        cfg = _bundled()
        edit(cfg)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = main(["--model", "extended", "--config", str(path),
                   "--pop-size", "8", "--generations", "2", "--tech", tech,
                   "--out", str(out_dir)])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {quantity} ")
        assert " may overflow: " in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_analytical_rejected_with_a_message(self, tmp_path, capsys):
        # at alpha = 1e160 the sweep wrote revenue inf and profit nan and
        # exited 0; the bound of the T = 1 embedding now rejects it on load
        cfg = _bundled()
        cfg["analytical"]["alpha"] = 1e160
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        rc = main(["--model", "analytical", "--config", str(path),
                   "--points", "5", "--out", str(out_dir)])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "error: analytical config: the price and tax terms may overflow: "
        )
        assert not out_dir.exists()

    def test_analytical_under_the_bound_is_finite(self, tmp_path):
        cfg = _bundled()
        cfg["analytical"]["alpha"] = 1e150
        path = tmp_path / "large.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--model", "analytical", "--config", str(path),
                   "--points", "5", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        rows = _read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 5
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())


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


def _no_solve(*args):
    raise AssertionError("solved before every input was checked")


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

    def test_output_path_checked_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("minetax.analytical.pareto_sweep", _no_solve)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["--out", str(taken)]) == EXIT_USAGE
        assert "File exists" in capsys.readouterr().err


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
            revenue, damage = leader_objectives(br, strat, model)
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

    def test_filter_keeps_the_points_within_both_bounds(self, tmp_path, model):
        entries = evolve(model, EaConfig(8, 5, 42)).archive.entries
        assert len(entries) >= 3
        # both bounds taken from archive points, so both are met with
        # equality; the archive rises in damage and revenue together
        low, high = entries[1].revenue, entries[-2].damage
        kept = [e for e in entries if e.revenue >= low and e.damage <= high]
        assert kept == entries[1:-1]
        rc = main(self.ARGS + ["--out", str(tmp_path / "run"),
                               "--min-revenue", repr(low),
                               "--max-damage", repr(high)])
        assert rc == EXIT_OK
        _write_outputs(tmp_path, kept, model)
        for name in ("frontier.csv", "schedule.csv"):
            written = (tmp_path / "run" / name).read_bytes()
            assert written == (tmp_path / name).read_bytes()
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert (meta["archive_size"], meta["filtered_size"]) == (
            len(entries), len(kept)
        )

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

    @pytest.mark.parametrize("tech", ["9", "x"])
    def test_unknown_tech_rejected(self, tmp_path, capsys, tech):
        out = tmp_path / "out"
        rc = main(self.ARGS + ["--out", str(out), "--tech", tech])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --tech must be 'all' or one of the technology ids "
            f"1, 2, 3, 4, got '{tech}'\n"
        )
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "args", [["--out", "taken"], ["--pop-size", "3"]],
        ids=["out-is-a-file", "odd-population"],
    )
    def test_bad_input_fails_before_the_solve(
        self, tmp_path, capsys, monkeypatch, args
    ):
        # nothing is printed but the error, and the solver never runs
        monkeypatch.setattr("minetax.cli.evolve", _no_solve)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        assert main(self.ARGS + args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

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
    """The one-pass writer gives the bytes of the csv.writer ones."""

    @staticmethod
    def _same_bytes(tmp_path, entries, model):
        _write_outputs(tmp_path, entries, model)
        csv_writers._write_frontier(tmp_path / "f_ref.csv", entries, model.T)
        csv_writers._write_schedules(tmp_path / "s_ref.csv", entries, model)
        for name, ref in (("frontier.csv", "f_ref.csv"),
                          ("schedule.csv", "s_ref.csv")):
            new = (tmp_path / name).read_bytes()
            assert new == (tmp_path / ref).read_bytes()

    @staticmethod
    def _same_sweep_bytes(tmp_path, sweep):
        ana.sweep_to_csv(sweep, str(tmp_path / "w_new.csv"))
        csv_writers.sweep_to_csv(sweep, str(tmp_path / "w_ref.csv"))
        new = (tmp_path / "w_new.csv").read_bytes()
        assert new == (tmp_path / "w_ref.csv").read_bytes()

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_evolve_archive(self, tmp_path, model, r):
        model = replace(model, r=r)
        cfg = EaConfig(population_size=20, max_generations=5, seed=7)
        entries = evolve(model, cfg).archive.entries
        assert entries
        self._same_bytes(tmp_path, entries, model)

    def test_analytical_embedding(self, tmp_path, params):
        model = analytical_as_extended(params)
        cfg = EaConfig(population_size=100, max_generations=3, seed=7)
        self._same_bytes(tmp_path, evolve(model, cfg).archive.entries, model)

    def test_discounted_analytical_embedding(self, tmp_path, params):
        # at T = 1 the rate changes nothing but the solver path
        model = replace(analytical_as_extended(params), r=0.05)
        cfg = EaConfig(population_size=100, max_generations=3, seed=7)
        self._same_bytes(tmp_path, evolve(model, cfg).archive.entries, model)

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_two_undominated_technologies(self, tmp_path, model, r):
        # technology 3 with beta_er = 1.5: then 3 and 4 are both undominated
        techs = tuple(
            replace(t, beta_er=1.5) if t.tech_id == 3 else t for t in model.techs
        )
        model = replace(model, techs=techs, r=r)
        assert {t.tech_id for t in model.undominated} == {3, 4}
        entries = evolve(model, EaConfig(20, 10, 1)).archive.entries
        assert {e.response.a for e in entries} == {3, 4}
        self._same_bytes(tmp_path, entries, model)

    def test_filtered_subset(self, tmp_path, model):
        entries = evolve(model, EaConfig(20, 5, 7)).archive.entries
        kept = [e for j, e in enumerate(entries) if j % 3 == 1]
        assert 1 < len(kept) < len(entries)
        self._same_bytes(tmp_path, kept, model)

    def test_empty_archive(self, tmp_path, model):
        self._same_bytes(tmp_path, [], model)
        assert (tmp_path / "frontier.csv").read_bytes().count(b"\r\n") == 1

    @pytest.mark.parametrize("k", [1.0, 0.0])
    def test_analytical_sweep(self, tmp_path, params, k):
        sweep = ana.pareto_sweep(replace(params, k=k), 100)
        self._same_sweep_bytes(tmp_path, sweep)

    def test_awkward_floats(self, tmp_path, model, params):
        # 20.0 is the bundled table's first breakpoint; every value here
        # starts some schedule, -0.0 included, whose cumulative extraction
        # prints as 0, not as q_1's "-0"
        awkward = (0.0, 5e-324, 1e16, 123456789012.5, 3.0, 1.0 / 3.0, -0.0,
                   model.strata.breakpoints[0])

        def entry(j, tech, T):
            pick = [awkward[(j + t) % len(awkward)] for t in range(T)]
            return ArchiveEntry(
                damage=float(j),
                revenue=awkward[j],
                strategy=LeaderStrategy(tau=pick),
                response=BestResponse(
                    q=tuple(pick[::-1]), a=tech, profit=-awkward[j] - 2.5,
                    optimality_tag=True,
                ),
            )

        for m in (model, analytical_as_extended(params)):
            entries = [
                entry(j, tech.tech_id, m.T)
                for j in range(len(awkward))
                for tech in m.techs
            ]
            self._same_bytes(tmp_path, entries, m)
            self._same_bytes(tmp_path, [], m)
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

    @pytest.mark.parametrize("r", [0.0, 0.05])
    def test_fixed_technology_run_equals_its_one_technology_table(self, tmp_path, r):
        # --tech k solves the model with k alone in its table
        cfg = _bundled()
        cfg["extended"]["r"] = r
        full = tmp_path / "full.json"
        full.write_text(json.dumps(cfg))
        args = ["--model", "extended", "--pop-size", "20", "--generations", "10",
                "--seed", "5"]
        for tech in cfg["extended"]["technologies"]:
            k = tech["tech_id"]
            single = tmp_path / f"only{k}.json"
            single.write_text(json.dumps(
                {**cfg, "extended": {**cfg["extended"], "technologies": [tech]}}
            ))
            a, b = tmp_path / f"a{k}", tmp_path / f"b{k}"
            assert main(args + ["--config", str(full), "--tech", str(k),
                                "--out", str(a)]) == EXIT_OK
            assert main(args + ["--config", str(single), "--out", str(b)]) == EXIT_OK
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


def test_every_exported_name_resolves():
    for name in minetax.__all__:
        assert hasattr(minetax, name), name
    assert len(set(minetax.__all__)) == len(minetax.__all__)


def test_cli_import_leaves_out_numpy_and_verification():
    # -S: no site-packages, so nothing is imported that the package does
    # not import itself
    src = str(Path(minetax.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import minetax.cli; "
        "minetax.cli.default_config(); "
        "print([m for m in ('numpy', 'minetax.oracle', 'minetax.verify', 'csv', "
        "'importlib.resources', 'statistics', 'typing', 'dataclasses', 'inspect') "
        "if m in sys.modules]); "
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

    @pytest.mark.parametrize("beta, delta", [(0.05, 0.01), (0.1, 0.05), (0.15, 0.01)])
    def test_small_price_and_cost_slopes_pass(self, tmp_path, capsys, beta, delta):
        # 2 (beta + delta) < 1: a tax error h on the grid moves the
        # extraction by h / (2 (beta + delta)), more than h
        cfg = _bundled()
        cfg["analytical"].update(beta=beta, delta=delta)
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--verify", "--quick", "--config", str(path)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "[FAIL]" not in out

    @pytest.mark.parametrize(
        "alpha, beta, delta", [(500, 0.005, 0.005), (459, 0.02, 0.019)]
    )
    def test_closed_form_at_large_alpha_over_beta_plus_delta(
        self, params, alpha, beta, delta
    ):
        # the objectives grow like alpha^2 / (beta + delta): with an absolute
        # difference step of 1e-4 their rounding read 4.66e-6 and 1.16e-6
        p = replace(params, alpha=alpha, beta=beta, delta=delta)
        res = verify.check_closed_form(p)
        assert res.passed, res.deviation

    def test_closed_form_just_above_the_feasibility_threshold(self, params):
        # w_min = 0.49999 puts the weight 0.5 within 2e-3 in tax of
        # alpha - gamma, where the extraction clamps at 0: the leader's
        # difference step must stay short of it
        w_min = 0.49999
        k = (params.alpha - params.gamma) * w_min / (1.0 - w_min)
        res = verify.check_closed_form(replace(params, k=k))
        assert res.passed, res.deviation

    def test_closed_form_nearer_the_feasibility_threshold(
        self, params, tmp_path, capsys
    ):
        # w_min = 0.4999999 puts the tax at the weight 0.5 within 1.98e-5 of
        # alpha - gamma, under the step of 1e-4 kept below a scale of 1:
        # that step crossed the kink and read 6.0e-6
        k = 98.99996040000792
        p = replace(params, k=k)
        assert ana.feasibility_threshold(p) == pytest.approx(0.4999999, abs=1e-15)
        res = verify.check_closed_form(p)
        assert res.passed, res.deviation
        # and the whole quick battery, as CI runs it
        cfg = _bundled()
        cfg["analytical"]["k"] = k
        path = tmp_path / "near.json"
        path.write_text(json.dumps(cfg))
        assert main(["--verify", "--quick", "--config", str(path)]) == EXIT_OK
        assert "[FAIL]" not in capsys.readouterr().out

    @pytest.mark.parametrize("alpha, beta, delta", [(100, 1, 1), (500, 0.005, 0.005)])
    def test_closed_form_catches_a_wrong_tax(
        self, params, monkeypatch, alpha, beta, delta
    ):
        p = replace(params, alpha=alpha, beta=beta, delta=delta)
        tax = ana.optimal_tax
        monkeypatch.setattr(ana, "optimal_tax", lambda w, p: 1.001 * tax(w, p))
        res = verify.check_closed_form(p)
        assert not res.passed
        assert res.deviation > 1e-3

    def test_fixed_cost_leaves_the_report_unchanged(self, tmp_path, capsys):
        # phi is the embedded technology's fixed charge: it moves no
        # optimum, so every check reads as at phi = 0
        reports = []
        for phi in (0, 5):
            cfg = _bundled()
            cfg["analytical"]["phi"] = phi
            path = tmp_path / f"phi{phi}.json"
            path.write_text(json.dumps(cfg))
            assert main(["--verify", "--quick", "--config", str(path)]) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "all checks passed" in reports[1]

    @pytest.mark.parametrize("alpha", [2500.0, 1e6])
    def test_tax_grid_scales_with_alpha(self, tmp_path, capsys, alpha):
        # the closed-form check's tax grid steps alpha / 1e5: with a fixed
        # step of 1e-3 it held alpha / 1e-3 points, over the axis cap of
        # 2e6 from alpha = 2000 on
        cfg = _bundled()
        cfg["analytical"]["alpha"] = alpha
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(cfg))
        assert main(["--verify", "--quick", "--config", str(path)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "all checks passed" in out and err == ""

    def test_overflowing_alpha_is_usage_error(self, tmp_path, capsys):
        # rejected on load, before any check runs
        cfg = _bundled()
        cfg["analytical"]["alpha"] = 1e308
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(cfg))
        rc = main(["--verify", "--quick", "--config", str(path)])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            "error: analytical config: the price and tax terms may overflow: "
        )

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


class TestClosedStdout:
    @pytest.mark.parametrize("args", [
        ["--model", "analytical", "--points", "5"],
        ["--verify", "--quick"],
    ])
    def test_exits_1_without_a_message(self, tmp_path, args):
        # the reader of stdout is gone before the CLI writes to it, as in
        # `minetax ... | head` once head has what it wants
        src = str(Path(minetax.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "minetax.cli", *args, "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait() == EXIT_USAGE
        # no "error:" line, no traceback, no "Exception ignored" at exit
        assert err == ""
