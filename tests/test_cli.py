"""Command-line interface tests: exit codes, outputs, reproducibility."""

import csv
import filecmp
import json
import re
from concurrent.futures import ProcessPoolExecutor

import pytest

from pctsim import cli

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


class TestParsingAndErrors:
    def test_missing_config_file_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        rc = cli.main(["run", "--config", missing])
        assert rc == cli.EXIT_USAGE
        assert "nope.yaml" in capsys.readouterr().err

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
    ])
    def test_value_of_the_wrong_type_exit_1(self, tmp_path, capsys, line, field):
        path = tmp_path / "bad.yaml"
        path.write_text(line + "\n")
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        assert field in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_the_command_reads(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == cli.EXIT_OK
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == FLAGS[command] | {"--help"}

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

    def test_policy_override_flag(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        cli.main(["run", "--config", cfg_path, "--out", str(out),
                  "--policy", "bct"])
        assert _read_csv(out / "metrics.csv")[0]["policy"] == "bct"


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


class TestCalibrateCommand:
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

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                super().__init__(max_workers, **kwargs)
                pools.append(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountedPool)
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
