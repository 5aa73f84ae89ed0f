"""Command-line interface tests: exit codes, outputs, reproducibility."""

import argparse
import concurrent.futures
import csv
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pctsim
from pctsim import cli, core, metrics

BASE_YAML = """\
population_size: 200
num_days: 8
global_mobility_scale: 3.7
initial_exposed_fraction: 0.02
rng_seed: 4
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(BASE_YAML)
    return str(path)


# the flags each command reads
FLAGS = {
    "run": {"--config", "--policy", "--predictor", "--seed", "--out"},
    "pareto": {"--config", "--jobs", "--predictor", "--seeds", "--scales", "--policies",
               "--out"},
    "adoption": {"--config", "--jobs", "--predictor", "--seeds", "--adoptions",
                 "--policies", "--out"},
    "datagen": {"--config", "--jobs", "--policy", "--predictor", "--n-runs", "--out"},
    "calibrate": {"--config", "--jobs", "--seeds", "--target-contacts", "--tolerance",
                  "--out"},
}
# the other flags of a small run of each command
SMALL = {"run": [], "pareto": ["--scales", "1.0", "--seeds", "0"],
         "adoption": ["--adoptions", "0.3", "--seeds", "0"], "datagen": ["--n-runs", "1"],
         "calibrate": ["--seeds", "0"]}


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _fresh_python(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's pctsim."""
    env = {k: v for k, v in os.environ.items() if k != "TRACE_SIM_SEED"}
    src = str(Path(pctsim.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def _fail_runs(monkeypatch, fails):
    """Make ``core.run`` raise for each config where ``fails(cfg)``; run the others."""
    run = core.run

    def failing(cfg):
        if fails(cfg):
            raise RuntimeError(f"seed {cfg.rng_seed} failed")
        return run(cfg)

    monkeypatch.setattr(core, "run", failing)


class TestParsingAndErrors:
    def test_missing_config_file_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        rc = cli.main(["run", "--config", missing])
        assert rc == cli.EXIT_USAGE
        assert "nope.yaml" in capsys.readouterr().err

    def test_config_path_of_a_directory_exit_1(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("content,problem", [
        (b"population_size: [1, 2\n", "not valid YAML at line 2, column 1"),
        ("policy: \u00e9t\u00e9\n".encode("latin-1"), "not UTF-8 text"),
        (b"num_days: 5\n\x01\n", "not valid YAML: "),
    ], ids=["not-yaml", "not-utf8", "control-character"])
    def test_malformed_config_exit_1(self, content, problem, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_bytes(content)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: {problem}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content,keys", [
        ("1: 2\n", "1"), ("null: 2\n", "None"), ("on: 1\n", "True"),
        ("num_days: 2\nzeta: 1\n1: 2\nnull: 2\n", "1, None, zeta"),
    ], ids=["int", "null", "yaml-1.1-bool", "mixed"])
    def test_a_key_yaml_reads_as_no_string_is_unknown_exit_1(self, content, keys, tmp_path,
                                                             capsys):
        # YAML reads 1, null and on (YAML 1.1's true) as an int, None and a bool
        cfg, out = tmp_path / "config.yaml", tmp_path / "out"
        cfg.write_text(content)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown config key(s): {keys}\n"
        assert not out.exists()

    def test_external_predictions_of_a_directory_exit_1(self, tmp_path, capsys):
        preds = tmp_path / "preds"
        preds.mkdir()
        cfg = tmp_path / "config.yaml"
        cfg.write_text(BASE_YAML + "policy: pct\npredictor: external\n"
                       f"external_predictions: {json.dumps(str(preds))}\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: external_predictions: ") and str(preds) in err

    @pytest.mark.parametrize("command,field", [
        ("run", "policy"), ("run", "predictor"), ("datagen", "policy")])
    def test_an_empty_name_is_an_unknown_one_exit_1(self, cfg_path, tmp_path, capsys,
                                                    command, field):
        out = tmp_path / "out"
        rc = cli.main([command, "--config", cfg_path, f"--{field}", "", "--out", str(out)]
                      + SMALL[command])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {field}: unknown value ''")
        assert not out.exists()

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["pareto"])  # missing required --config/--scales
        assert err.value.code == cli.EXIT_USAGE

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == cli.EXIT_USAGE

    def test_invalid_config_value_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("population_size: 1\n")
        rc = cli.main(["run", "--config", str(path)])
        assert rc == cli.EXIT_USAGE
        assert "population_size" in capsys.readouterr().err

    @pytest.mark.parametrize("line,field", [
        ("global_mobility_scale: .nan", "global_mobility_scale"),
        ("global_mobility_scale: .inf", "global_mobility_scale"),
        ("predictor_add_sigma: .nan", "predictor_add_sigma"),
        ("predictor_mul_sigma: .nan", "predictor_mul_sigma"),
        ("rng_seed: -1", "rng_seed"),
        ("rng_seed: 1.5", "rng_seed"),
        ("num_days: .inf", "num_days"),
    ])
    def test_non_finite_or_negative_value_exit_1(self, tmp_path, capsys, line, field):
        path = tmp_path / "bad.yaml"
        path.write_text(BASE_YAML.replace("rng_seed: 4\n", "") + line + "\n")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line,field", [
        ("global_mobility_scale: abc", "global_mobility_scale"),
        ("population_size: ten", "population_size"),
        ("adoption_rate: [0.1]", "adoption_rate"),
        ("psi_table: [a]", "psi_table"),
        ("risk_thresholds: 5", "risk_thresholds"),
        ('population_size: "50"', "population_size"),
        ('adoption_rate: "0.5"', "adoption_rate"),
        ("carefulness: true", "carefulness"),
        ('psi_table: "1111222233334444"', "psi_table"),
        ("psi_table: [true, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]", "psi_table"),
        ("psi_table: [1.5, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]", "psi_table"),
        ("risk_thresholds: [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.1,"
         " 0.11, 0.12, 0.13, 0.14, true]", "risk_thresholds"),
        ('policy: pct\nrecord_estimates: "false"', "record_estimates"),
        ("record_observables: 0", "record_observables"),
        ("record_encounter_log: [true]", "record_encounter_log"),
        ("policy: pct\npredictor: external\nexternal_predictions: 5", "external_predictions"),
    ])
    def test_value_of_the_wrong_type_exit_1(self, tmp_path, capsys, line, field):
        path = tmp_path / "bad.yaml"
        path.write_text(line + "\n")
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_an_integer_too_large_for_a_float_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(f"population_size: {'9' * 400}\n")
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: population_size: must be a number")
        assert not out.exists()

    @pytest.mark.parametrize("env", ["abc", "1.5", ""])
    def test_bad_env_seed_exit_1(self, cfg_path, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv("TRACE_SIM_SEED", env)
        rc = cli.main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        assert "TRACE_SIM_SEED" in capsys.readouterr().err

    def test_seed_list_forms(self):
        assert cli._parse_seed_list("0,1,5") == [0, 1, 5]
        assert cli._parse_seed_list("0..3") == [0, 1, 2, 3]

    @pytest.mark.parametrize("command,seeds", [
        ("pareto", "5..2"), ("pareto", ","), ("calibrate", "3..1"), ("adoption", "")])
    def test_empty_seed_list_is_a_usage_error(self, cfg_path, tmp_path, capsys,
                                              command, seeds):
        extra = {"pareto": ["--scales", "1.0"], "adoption": ["--adoptions", "0.3"],
                 "calibrate": []}[command]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", cfg_path, "--seeds", seeds,
                      "--out", str(out)] + extra)
        assert err.value.code == cli.EXIT_USAGE
        assert "--seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,values", [
        ("pareto", "--scales", ","), ("adoption", "--adoptions", "")])
    def test_empty_sweep_list_is_a_usage_error(self, cfg_path, tmp_path, capsys,
                                               command, flag, values):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", cfg_path, "--seeds", "0", "--jobs", "1",
                      flag, values, "--out", str(out)])
        assert err.value.code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pareto", "adoption"])
    def test_unknown_policy_is_a_usage_error(self, cfg_path, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", cfg_path, "--policies", "pct,bctt", "--jobs", "1",
                      "--out", str(out)] + SMALL[command])
        assert err.value.code == cli.EXIT_USAGE
        err_text = capsys.readouterr().err
        assert "--policies" in err_text and "'bctt'" in err_text
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, cfg_path, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        for command in ("pareto", "adoption", "datagen", "calibrate"):
            with pytest.raises(SystemExit) as err:
                cli.main([command, "--config", cfg_path, "--jobs", jobs, "--out", str(out)]
                         + SMALL[command])
            assert err.value.code == cli.EXIT_USAGE, command
            err_text = capsys.readouterr().err
            assert "--jobs" in err_text and "must be at least 1" in err_text, command
            assert not out.exists(), command

    @pytest.mark.parametrize("command,flag,value", [
        ("run", "--jobs", "2"),
        ("pareto", "--policy", "pct"),
        ("adoption", "--policy", "pct"),
        ("calibrate", "--policy", "pct"),
        ("calibrate", "--predictor", "oracle"),
        ("calibrate", "--target-r", "1.2"),
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(
            self, cfg_path, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", cfg_path, flag, value, "--out", str(out)]
                     + SMALL[command])
        assert err.value.code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "datagen"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_that_cannot_be_a_directory_is_a_usage_error(self, cfg_path, tmp_path, capsys,
                                                              command, below):
        # an existing file, or a path below one: refused before any run starts
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", cfg_path, "--out", str(taken / below)]
                     + SMALL[command])
        assert err.value.code == cli.EXIT_USAGE
        assert "--out" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "taken"]

    @pytest.mark.parametrize("command", ["pareto", "adoption", "calibrate"])
    @pytest.mark.parametrize("out", ["", "taken/out", "missing/out"])
    def test_out_that_cannot_be_a_file_is_a_usage_error(self, cfg_path, tmp_path, capsys,
                                                         command, out):
        # a directory, or a path below a file or below nothing: refused before any run starts
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--config", cfg_path, "--jobs", "1", "--out", str(tmp_path / out)]
                     + SMALL[command])
        assert err.value.code == cli.EXIT_USAGE
        assert "--out" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "taken"]

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_the_command_reads(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == cli.EXIT_OK
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == FLAGS[command] | {"--help"}

    def test_readme_flag_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| command     | flags |\n", 1)[1].split("\n\n", 1)[0]
        documented = {command: re.findall(r"`(--[a-z-]+)`", flags)
                      for command, flags in re.findall(r"^\| `([a-z]+)` +\|(.*)\|$", table, re.M)}
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        parsed = {command: [flag for action in parser._actions for flag in action.option_strings
                            if flag not in ("-h", "--help")]
                  for command, parser in commands.items()}
        assert documented == parsed

    @pytest.mark.parametrize("n_runs", ["0", "-3"])
    def test_n_runs_below_one_is_a_usage_error(self, cfg_path, tmp_path, capsys, n_runs):
        out = tmp_path / "dataset"
        with pytest.raises(SystemExit) as err:
            cli.main(["datagen", "--config", cfg_path, "--n-runs", n_runs, "--jobs", "1",
                      "--out", str(out)])
        assert err.value.code == cli.EXIT_USAGE
        assert "--n-runs" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_outputs_and_reproducibility(self, cfg_path, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg_path, "--out", str(out_b)]) == 0
        for name in ("trace.jsonl", "events.jsonl", "metrics.csv"):
            assert (out_a / name).exists()
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False)
        assert "contacts" in capsys.readouterr().out

    def test_a_failed_run_leaves_the_outputs_as_they_were(self, cfg_path, tmp_path, monkeypatch,
                                                          capsys):
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == cli.EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        step = core.step_day

        def failing(world, observers=()):
            if world.day == 2:  # after two day lines were written
                raise RuntimeError("day 2 failed")
            return step(world, observers)

        monkeypatch.setattr(core, "step_day", failing)
        assert cli.main(["run", "--config", cfg_path, "--seed", "5",
                         "--out", str(out)]) == cli.EXIT_RUNTIME
        assert "RuntimeError: day 2 failed" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(before) == ["events.jsonl", "metrics.csv", "trace.jsonl"]

    @pytest.mark.parametrize("command,extra,written,n_records", [
        ("run", [], ["events.jsonl", "metrics.csv", "trace.jsonl"], 0),
        ("datagen", ["--n-runs", "1", "--jobs", "1"],
         ["manifest.json", "metrics.csv", "split.json"], 1),
    ], ids=["run", "datagen"])
    def test_runs_without_scipy(self, cfg_path, tmp_path, command, extra, written, n_records):
        # scipy is a test dependency only: the package must run and export where it is missing
        out = tmp_path / "o"
        argv = [command, "--config", cfg_path, *extra, "--out", str(out)]
        script = ("import sys; sys.modules['scipy'] = None; from pctsim import cli; "
                  f"sys.exit(cli.main({argv!r}))")
        done = _fresh_python(script)
        assert done.returncode == 0, done.stderr
        records = sorted(out.glob("*.records.jsonl"))
        assert sorted(p.name for p in out.iterdir() if p not in records) == written
        assert len(records) == n_records

    def test_a_run_loads_no_pool_machinery(self, cfg_path, tmp_path):
        # a pool's modules load only when --jobs makes a pool; pytest's own process has them,
        # so the run goes in a fresh interpreter
        argv = ["run", "--config", cfg_path, "--out", str(tmp_path / "o")]
        script = ("import sys; from pctsim import cli; "
                  f"assert cli.main({argv!r}) == 0; "
                  "print(*(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))")
        done = _fresh_python(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False"

    def test_seed_precedence_env_over_file_flag_over_env(
            self, cfg_path, tmp_path, monkeypatch):
        def run_seed(extra, env=None):
            if env is not None:
                monkeypatch.setenv("TRACE_SIM_SEED", env)
            else:
                monkeypatch.delenv("TRACE_SIM_SEED", raising=False)
            out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
            cli.main(["run", "--config", cfg_path, "--out", str(out)] + extra)
            return _read_csv(out / "metrics.csv")[0]["seed"]

        assert run_seed([]) == "4"
        assert run_seed([], env="77") == "77"
        assert run_seed(["--seed", "5"], env="77") == "5"

    def test_a_flag_replaces_an_invalid_file_value(self, tmp_path):
        path = tmp_path / "bogus.yaml"
        path.write_text(BASE_YAML + "policy: bogus\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--policy", "pct"]) == 0
        assert _read_csv(out / "metrics.csv")[0]["policy"] == "pct"

    def test_policy_override_flag(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        cli.main(["run", "--config", cfg_path, "--out", str(out),
                  "--policy", "bct"])
        assert _read_csv(out / "metrics.csv")[0]["policy"] == "bct"

    def test_predictor_override_flag(self, tmp_path):
        # the flag writes what a config naming the same predictor writes
        outs = {}
        for name, predictor, extra in [("flag", "oracle", ["--predictor", "noisy_oracle"]),
                                       ("file", "noisy_oracle", []), ("oracle", "oracle", [])]:
            path = tmp_path / f"{name}.yaml"
            path.write_text(BASE_YAML + f"policy: pct\npredictor: {predictor}\n")
            outs[name] = tmp_path / name
            assert cli.main(["run", "--config", str(path), "--out", str(outs[name]), *extra]) == 0
        for file in ("trace.jsonl", "events.jsonl"):
            assert (outs["flag"] / file).read_bytes() == (outs["file"] / file).read_bytes()
        assert ((outs["flag"] / "trace.jsonl").read_bytes()
                != (outs["oracle"] / "trace.jsonl").read_bytes())


class TestSweepCommands:
    def test_pareto_grid_rows(self, cfg_path, tmp_path):
        out = tmp_path / "pareto.csv"
        rc = cli.main(["pareto", "--config", cfg_path, "--scales", "0.5,1.0",
                       "--seeds", "0,1", "--policies", "no_tracing,bct",
                       "--jobs", "1", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) == 8
        assert {r["policy"] for r in rows} == {"no_tracing", "bct"}
        assert {float(r["mobility_scale"]) for r in rows} == {0.5, 1.0}
        assert all(r["status"] == "ok" for r in rows)

    def test_pareto_parallel_jobs(self, cfg_path, tmp_path):
        out_serial = tmp_path / "s.csv"
        out_parallel = tmp_path / "p.csv"
        args = ["pareto", "--config", cfg_path, "--scales", "1.0",
                "--seeds", "0,1", "--policies", "no_tracing"]
        assert cli.main(args + ["--jobs", "1", "--out", str(out_serial)]) == 0
        assert cli.main(args + ["--jobs", "2", "--out", str(out_parallel)]) == 0
        assert filecmp.cmp(out_serial, out_parallel, shallow=False)

    def test_adoption_dedupes_with_warning(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "adoption.csv"
        rc = cli.main(["adoption", "--config", cfg_path,
                       "--adoptions", "0.3,0.3,0.6", "--seeds", "0",
                       "--policies", "bct", "--jobs", "1", "--out", str(out)])
        assert rc == 0
        assert "duplicate" in capsys.readouterr().err
        assert len(_read_csv(out)) == 2

    def test_policy_names_are_read_as_in_a_config(self, cfg_path, tmp_path):
        out = tmp_path / "adoption.csv"
        assert cli.main(["adoption", "--config", cfg_path, "--adoptions", "0.3",
                         "--seeds", "0", "--policies", "PCT,nt", "--jobs", "1",
                         "--out", str(out)]) == 0
        assert [r["policy"] for r in _read_csv(out)] == ["pct", "no_tracing"]

    def test_adoption_out_of_range_exit_1(self, cfg_path, tmp_path, capsys):
        rc = cli.main(["adoption", "--config", cfg_path, "--adoptions", "0.9",
                       "--seeds", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_USAGE
        assert "smartphone_rate" in capsys.readouterr().err

    def test_pareto_drops_repeats_on_every_axis(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "pareto.csv"
        rc = cli.main(["pareto", "--config", cfg_path, "--scales", "1,1.0", "--seeds", "0,0",
                       "--policies", "pct,PCT", "--jobs", "1", "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.count("duplicate") == 3
        assert [(r["mobility_scale"], r["seed"], r["policy"]) for r in _read_csv(out)] == \
            [("1.0", "0", "pct")]

    @pytest.mark.parametrize("command,flag,values", [
        ("pareto", "--scales", "1.0,-1,nan"), ("pareto", "--scales", "nan"),
        ("pareto", "--seeds", "0,-1"), ("adoption", "--adoptions", "0.3,0.9")])
    def test_every_point_is_checked_before_any_run(self, cfg_path, tmp_path, monkeypatch,
                                                   capsys, command, flag, values):
        runs = []
        monkeypatch.setattr(cli, "_sweep_worker", runs.append)
        args = {"pareto": ["--scales", "1.0"], "adoption": ["--adoptions", "0.3"]}[command]
        out = tmp_path / "x.csv"
        rc = cli.main([command, "--config", cfg_path, *args, "--seeds", "0", f"{flag}={values}",
                       "--policies", "no_tracing", "--jobs", "1", "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert runs == [] and not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


class TestDatagenCommand:
    def test_campaign_outputs_and_determinism(self, cfg_path, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            rc = cli.main(["datagen", "--config", cfg_path, "--n-runs", "3",
                           "--jobs", "1", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        manifest = json.loads((outs[0] / "manifest.json").read_text())
        assert len(manifest["runs"]) == 3
        assert all(e["status"] == "ok" for e in manifest["runs"])
        assert (outs[0] / "split.json").exists()
        assert (outs[0] / "metrics.csv").exists()
        for entry in manifest["runs"]:
            assert (outs[0] / entry["records_file"]).exists()
        assert filecmp.cmp(outs[0] / "manifest.json", outs[1] / "manifest.json",
                           shallow=False)

    def test_parallel_jobs_write_identical_files(self, cfg_path, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            assert cli.main(["datagen", "--config", cfg_path, "--n-runs", "3",
                             "--jobs", jobs, "--out", str(outs[jobs])]) == 0
        names = sorted(p.name for p in outs["1"].iterdir())
        assert names == sorted(p.name for p in outs["2"].iterdir())
        assert {"manifest.json", "split.json", "metrics.csv"} <= set(names)
        assert sum(name.endswith(".records.jsonl") for name in names) == 3
        for name in names:
            assert filecmp.cmp(outs["1"] / name, outs["2"] / name, shallow=False), name

    def test_split_covers_all_ok_runs(self, cfg_path, tmp_path):
        out = tmp_path / "d"
        cli.main(["datagen", "--config", cfg_path, "--n-runs", "3",
                  "--jobs", "1", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        split = json.loads((out / "split.json").read_text())
        run_ids = {e["run_id"] for e in manifest["runs"]}
        assert set(split["train"]) | set(split["valid"]) == run_ids
        assert set(split["train"]) & set(split["valid"]) == set()

    def test_a_draw_the_base_config_rules_out_exits_1_before_any_run(self, tmp_path, capsys,
                                                                     monkeypatch):
        # adoption is drawn from [0.3, 0.6]: most draws exceed a smartphone rate of 0.35
        monkeypatch.setattr(core, "run", lambda *a: pytest.fail("a run started"))
        cfg = tmp_path / "phones.yaml"
        cfg.write_text(BASE_YAML + "smartphone_rate: 0.35\nadoption_rate: 0.3\n")
        out = tmp_path / "d"
        assert cli.main(["datagen", "--config", str(cfg), "--n-runs", "3", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert re.match(r"error: adoption_rate: \S+ exceeds smartphone_rate 0.35", capsys.readouterr().err)
        assert not (out / "manifest.json").exists()


    def test_a_finished_run_is_named_by_its_run_id(self, tmp_path):
        # a replay's run id names the predictions file by its content, not its path
        preds = tmp_path / "preds.jsonl"
        preds.write_text("")
        cfg = tmp_path / "replay.yaml"
        cfg.write_text("population_size: 300\nnum_days: 5\npolicy: pct\npredictor: external\n"
                       f"external_predictions: {json.dumps(str(preds))}\n")
        out = tmp_path / "d"
        assert cli.main(["datagen", "--config", str(cfg), "--n-runs", "2", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        rows = _read_csv(out / "metrics.csv")
        assert [e["status"] for e in runs] == ["ok", "ok"] and len(rows) == 2
        for entry, row in zip(runs, rows):
            assert entry["config_hash"] == entry["run_id"].rsplit("-", 1)[0] == row["config_hash"]


class TestFailedRuns:
    """A failed sweep point or campaign run is flagged, and the others go on."""

    def test_a_failed_sweep_point_is_a_flagged_row(self, cfg_path, tmp_path, monkeypatch):
        _fail_runs(monkeypatch, lambda cfg: cfg.rng_seed == 1)
        out = tmp_path / "pareto.csv"
        assert cli.main(["pareto", "--config", cfg_path, "--scales", "1.0", "--seeds", "0..2",
                         "--policies", "no_tracing", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        with open(out) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == metrics.CSV_FIELDS
        assert [(r["seed"], r["status"]) for r in rows] == [
            ("0", "ok"), ("1", "error: RuntimeError: seed 1 failed"), ("2", "ok")]
        assert all(rows[1][field] not in ("", None) for field in metrics.CSV_FIELDS)
        assert rows[1]["config_hash"] == rows[0]["config_hash"]

    def test_a_failed_sweep_point_is_reported(self, cfg_path, tmp_path, monkeypatch, capsys):
        _fail_runs(monkeypatch, lambda cfg: cfg.rng_seed == 1)
        assert cli.main(["adoption", "--config", cfg_path, "--adoptions", "0.3",
                         "--seeds", "0..2", "--policies", "bct", "--jobs", "1",
                         "--out", str(tmp_path / "a.csv")]) == cli.EXIT_OK
        assert capsys.readouterr().err == "run 2/3 failed: error: RuntimeError: seed 1 failed\n"

    @pytest.mark.parametrize("command,axis", [("pareto", ["--scales", "1.0,2.0"]),
                                              ("adoption", ["--adoptions", "0.3,0.5"])])
    def test_a_sweep_without_a_finished_point_exits_2(self, cfg_path, tmp_path, monkeypatch,
                                                      capsys, command, axis):
        _fail_runs(monkeypatch, lambda cfg: True)
        out = tmp_path / "sweep.csv"
        assert cli.main([command, "--config", cfg_path, *axis, "--seeds", "0",
                         "--policies", "bct", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.splitlines() == [
            f"run {i}/2 failed: error: RuntimeError: seed 0 failed" for i in (1, 2)]
        assert [r["status"] for r in _read_csv(out)] == ["error: RuntimeError: seed 0 failed"] * 2

    def test_a_sweep_of_unreadable_predictions_exits_2(self, cfg_path, tmp_path, capsys):
        # each point fails as it builds its world, so none finishes
        cfg = Path(cfg_path)
        missing = tmp_path / "missing.jsonl"
        cfg.write_text(cfg.read_text() + f"policy: pct\npredictor: external\n"
                                         f"external_predictions: {missing}\n")
        out = tmp_path / "adoption.csv"
        assert cli.main(["adoption", "--config", cfg_path, "--adoptions", "0.3",
                         "--seeds", "0,1", "--policies", "pct", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:3] for line in err] == [
            [f"run {i}/2 failed", "error", "ConfigError"] for i in (1, 2)]
        assert all(r["status"].startswith("error: ConfigError: ") for r in _read_csv(out))

    def test_a_failed_campaign_run_is_flagged_and_left_out_of_the_split(
            self, cfg_path, tmp_path, monkeypatch, capsys):
        calls = []
        _fail_runs(monkeypatch, lambda cfg: calls.append(cfg) or len(calls) == 2)
        out = tmp_path / "d"
        assert cli.main(["datagen", "--config", cfg_path, "--n-runs", "3", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        failed_seed = calls[1].rng_seed
        assert (f"run 2/3 failed: error: RuntimeError: seed {failed_seed} failed"
                in capsys.readouterr().err)
        manifest = json.loads((out / "manifest.json").read_text())
        runs = manifest["runs"]
        assert [e["status"] for e in runs] == [
            "ok", f"error: RuntimeError: seed {failed_seed} failed", "ok"]
        # a failed entry names the config as given
        failed = runs[1]
        assert "run_id" not in failed and failed["seed"] == failed_seed
        assert failed["config_hash"] == metrics.config_hash(failed["config"])
        finished = [runs[0], runs[2]]
        split = json.loads((out / "split.json").read_text())
        assert manifest["split"] == split
        assert sorted(split["train"] + split["valid"]) == sorted(e["run_id"] for e in finished)
        assert [r["seed"] for r in _read_csv(out / "metrics.csv")] == [
            str(e["seed"]) for e in finished]
        assert sorted(p.name for p in out.glob("*.records.jsonl")) == sorted(
            e["records_file"] for e in finished)

    def test_a_campaign_without_a_finished_run_exits_2(self, cfg_path, tmp_path, monkeypatch,
                                                       capsys):
        _fail_runs(monkeypatch, lambda cfg: True)
        out = tmp_path / "d"
        assert cli.main(["datagen", "--config", cfg_path, "--n-runs", "2", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "run 1/2 failed: error: " in err and "run 2/2 failed: error: " in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(e["status"].startswith("error: ") for e in manifest["runs"])
        assert manifest["split"] == {"train": [], "valid": []}
        assert _read_csv(out / "metrics.csv") == []

    def test_one_finished_run_is_all_train(self, cfg_path, tmp_path, monkeypatch):
        calls = []
        _fail_runs(monkeypatch, lambda cfg: calls.append(cfg) or len(calls) == 1)
        out = tmp_path / "d"
        assert cli.main(["datagen", "--config", cfg_path, "--n-runs", "2", "--jobs", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert [e["status"] == "ok" for e in runs] == [False, True]
        assert json.loads((out / "split.json").read_text()) == {
            "train": [runs[1]["run_id"]], "valid": []}


class TestCalibrateCommand:
    def test_a_target_no_scale_lands_near_does_not_converge(self, capsys):
        # contacts jump from 0 to 10 at scale 1.5: no scale lands within 0.5 of 5
        with pytest.raises(RuntimeError, match="calibration did not converge"):
            cli._fit_scale(lambda scale: (0.0 if scale < 1.5 else 10.0, 1.0), 5.0, 0.5)

    def test_unreachable_target_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("population_size: 120\nnum_days: 6\nrng_seed: 0\n")
        rc = cli.main(["calibrate", "--config", str(cfg), "--seeds", "0",
                       "--target-contacts", "5000",
                       "--out", str(tmp_path / "cal.json")])
        assert rc == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "range" in err

    def test_small_target_calibrates(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("population_size: 200\nnum_days: 8\nrng_seed: 0\n")
        out = tmp_path / "cal.json"
        rc = cli.main(["calibrate", "--config", str(cfg), "--seeds", "0,1",
                       "--target-contacts", "1.0", "--tolerance", "0.5",
                       "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert abs(result["achieved_contacts"] - 1.0) <= 0.5
        assert len(result["thresholds"]) == 15
        assert result["thresholds"] == sorted(result["thresholds"])

    @pytest.mark.parametrize("adoption", ["0", "0.002"])  # 0.002 of 200 agents rounds to none
    def test_a_config_with_no_app_agent_exits_1_before_any_run(self, tmp_path, capsys,
                                                               monkeypatch, adoption):
        monkeypatch.setattr(core, "run", lambda *a: pytest.fail("a run started"))
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(f"population_size: 200\nnum_days: 8\nadoption_rate: {adoption}\n")
        out = tmp_path / "cal.json"
        rc = cli.main(["calibrate", "--config", str(cfg), "--seeds", "0", "--target-contacts",
                       "1.0", "--tolerance", "0.5", "--jobs", "1", "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        printed, err = capsys.readouterr()
        assert "scale" not in printed
        assert err.startswith("error: adoption_rate: ") and "no app agent" in err
        assert not out.exists()

    def test_no_positive_estimate_names_the_scale_and_seed(self, tmp_path, capsys):
        # no agent is ever exposed and the noise adds nothing, so each app agent's estimate is 0
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("population_size: 200\nnum_days: 8\ninitial_exposed_fraction: 0\n"
                       "predictor_add_sigma: 0\n")
        out = tmp_path / "cal.json"
        rc = cli.main(["calibrate", "--config", str(cfg), "--seeds", "3", "--target-contacts",
                       "1.0", "--tolerance", "0.5", "--jobs", "1", "--out", str(out)])
        assert rc == cli.EXIT_RUNTIME
        printed, err = capsys.readouterr()
        scale = re.fullmatch(r"runtime failure: RuntimeError: calibration: no positive estimate "
                             r"at scale (\d+\.\d{4}), seed 3\n", err).group(1)
        assert f"scale {scale}: contacts" in printed
        assert not out.exists()

    def test_a_spelling_of_a_number_does_not_change_the_hash(self):
        hashes = {cli.calibrate(core.SimConfig(population_size=size, num_days=8), 1.0, [0],
                                0.5)["config_hash"] for size in (200, 200.0)}
        assert len(hashes) == 1

    def test_a_repeated_seed_runs_once(self, monkeypatch, capsys):
        cfg = core.SimConfig(population_size=200, num_days=8, rng_seed=0)
        run, calls = core.run, []
        monkeypatch.setattr(core, "run", lambda c, *observers: calls.append(
            (c.policy, c.global_mobility_scale, c.rng_seed)) or run(c, *observers))
        results = {}
        for seeds in ([0], [0, 0]):
            calls.clear()
            result = cli.calibrate(cfg, 1.0, seeds, 0.5)
            results[len(seeds)] = json.dumps(result, sort_keys=True), list(calls)
        assert results[2] == results[1]
        assert json.loads(results[2][0])["seeds"] == [0]
        assert capsys.readouterr().err.count("warning: duplicate seed 0 ignored") == 1

    @pytest.mark.parametrize("flag", ["--target-contacts", "--tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "x"])
    def test_target_and_tolerance_must_be_finite_and_positive(self, cfg_path, tmp_path,
                                                              monkeypatch, capsys, flag, value):
        monkeypatch.setattr(cli, "calibrate", lambda *a, **k: pytest.fail("calibration ran"))
        out = tmp_path / "cal.json"
        with pytest.raises(SystemExit) as err:
            cli.main(["calibrate", "--config", cfg_path, "--seeds", "0", f"{flag}={value}",
                      "--out", str(out)])
        assert err.value.code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_config_hash_covers_only_what_calibration_reads(self, tmp_path):
        base = "population_size: 200\nnum_days: 8\nrng_seed: 0\n"
        files = {}
        for name, extra in [("nt", ""), ("bct", "policy: bct\n"),
                            ("pct", "policy: pct\npredictor: noisy_oracle\n"
                                    "global_mobility_scale: 2.5\nrecord_observables: false\n"),
                            ("careful", "carefulness: 0.5\n")]:
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(base + extra)
            files[name] = tmp_path / f"{name}.json"
            assert cli.main(["calibrate", "--config", str(cfg), "--seeds", "0,1",
                             "--target-contacts", "1.0", "--tolerance", "0.5", "--jobs", "1",
                             "--out", str(files[name])]) == 0
        assert files["nt"].read_bytes() == files["bct"].read_bytes() == files["pct"].read_bytes()
        hashes = {name: json.loads(path.read_text())["config_hash"]
                  for name, path in files.items()}
        assert hashes["careful"] != hashes["nt"]

    def test_parallel_jobs_write_identical_calibration(self, tmp_path, monkeypatch):
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, **kwargs)
                pools.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text("population_size: 200\nnum_days: 8\nrng_seed: 0\n")
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"cal{jobs}.json"
            assert cli.main(["calibrate", "--config", str(cfg), "--seeds", "0..3",
                             "--target-contacts", "1.0", "--tolerance", "0.5",
                             "--jobs", jobs, "--out", str(outs[jobs])]) == 0
        assert outs["1"].read_bytes() == outs["2"].read_bytes()
        assert pools == [2]  # one pool for the whole --jobs 2 calibration
