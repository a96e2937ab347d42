"""Tests for config parsing and the command line driver."""

import ast
import glob
import hashlib
import importlib
import importlib.util
import json
import math
import os
import sys
import types

import pytest

from roadcorr.analytic import rho
from roadcorr.cli import RunConfig, _pcf_rows, load_config_file, main, parse_config
from roadcorr.errors import ConfigError
from roadcorr.sim import estimate_curve
from roadcorr.model import (
    NetworkGeometry,
    TrafficModel,
    normalized_pair_correlation,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParseConfig:
    def test_defaults_match_shipped_config(self):
        shipped = load_config_file(os.path.join(REPO_ROOT, "configs",
                                                "default.cfg"))
        assert shipped == RunConfig()

    def test_traffic_and_scalars(self):
        config = parse_config(
            "traffic = lambda=0.02 c=4\n"
            "traffic = lambda=0.05 c=0\n"
            "r0 = 100\n"
            "t_points = 5\n"
            "methods = ppp, pcf-approx\n"
        )
        assert config.traffics == ((0.02, 4.0), (0.05, 0.0))
        assert config.r0 == 100.0
        assert config.t_points == 5
        assert config.methods == ("ppp", "pcf-approx")

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("# header\n\nseed = 7  # trailing\n")
        assert config.seed == 7

    def test_repeated_scalar_overwrites(self):
        assert parse_config("seed = 1\nseed = 2\n").seed == 2

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("r0 = 100\n\nwavelength = 3\n")
        assert err.value.line == 3
        assert "unknown key" in str(err.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("t_points = soon\n")
        assert err.value.line == 1

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("r0 100\n")

    def test_traffic_line_errors(self):
        for bad in ("traffic = lambda=0.05\n",
                    "traffic = lambda=x c=4\n",
                    "traffic = rate=0.05 c=4\n"):
            with pytest.raises(ConfigError):
                parse_config(bad)

    @pytest.mark.parametrize("text,line", [
        ("traffic = lambda=0.05 lambda=0.2 c=4\n", 1),
        ("traffic = lambda=0.05 c=4\nr0 = 100\ntraffic = lambda=5e-2 c=4.0\n", 3),
        ("t_points = 3\nmethods = ppp,ppp,expansion\n", 2),
    ])
    def test_duplicate_entries_report_line(self, text, line):
        """A field set twice on a traffic line, a repeated traffic line or a
        method listed twice is refused at its line: the repeats would each
        recompute a curve and overwrite its one file."""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == line

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("methods = magic\n")

    def test_simulation_sample_floor(self):
        with pytest.raises(ConfigError):
            parse_config("methods = simulation\nn_samples = 500\n")
        config = parse_config("methods = ppp\nn_samples = 500\n")
        assert config.n_samples == 500

    def test_overfull_road_rejected_when_built(self):
        config = parse_config("traffic = lambda=0.3 c=4\n")
        with pytest.raises(ConfigError):
            config.traffic_models()

    def test_bad_lag_range(self):
        with pytest.raises(ConfigError):
            parse_config("t_lo = 5\nt_hi = 1\n")


class TestRunCommand:
    def run_main(self, tmp_path, config_text, extra=()):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config_text, encoding="utf-8")
        out = tmp_path / "results"
        code = main(["run", "--config", str(cfg), "--out", str(out), *extra])
        return code, out

    ANALYTIC = (
        "traffic = lambda=0.05 c=4\n"
        "methods = ppp,expansion,pcf-approx\n"
        "t_lo = 0\nt_hi = 30\nt_points = 7\n"
    )

    def test_analytic_sweep(self, tmp_path):
        code, out = self.run_main(tmp_path, self.ANALYTIC)
        assert code == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert set(manifest["files"]) == {
            "curve_ppp_lam0.05_c4.0.csv",
            "curve_expansion_lam0.05_c4.0.csv",
            "curve_pcf-approx_lam0.05_c4.0.csv",
        }

        traffic = TrafficModel.from_intensity(0.05, 4.0)
        geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=3.0,
                               speed=10.0)
        for name, entry in manifest["files"].items():
            body = (out / name).read_bytes()
            assert hashlib.sha256(body).hexdigest() == entry["sha256"]
            rows = read_csv(out / name)
            assert len(rows) == entry["rows"] == 7
            method = rows[0]["method"]
            # the hardcore routes are undefined at the window edges
            want_invalid = [] if method == "ppp" else [0, 6]
            assert entry["invalid_points"] == want_invalid
            for i, row in enumerate(rows):
                if i in want_invalid:
                    assert row["value"] == "" and row["stderr"] == ""
                    assert row["valid"] == "false"
                else:
                    t = float(row["t"])
                    assert float(row["value"]) == rho(t, traffic, geom, method)
                    assert row["valid"] == "true"

    def test_ppp_curve_ignores_traffic(self, tmp_path):
        code, out = self.run_main(
            tmp_path,
            "traffic = lambda=0.05 c=4\ntraffic = lambda=0.02 c=4\n"
            "methods = ppp\nt_points = 7\n")
        assert code == 0
        a = read_csv(out / "curve_ppp_lam0.05_c4.0.csv")
        b = read_csv(out / "curve_ppp_lam0.02_c4.0.csv")
        assert [r["value"] for r in a] == [r["value"] for r in b]

    def test_rerun_is_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, out_a = self.run_main(tmp_path / "a", self.ANALYTIC)
        _, out_b = self.run_main(tmp_path / "b", self.ANALYTIC)
        for name in os.listdir(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_simulation_sweep(self, tmp_path):
        code, out = self.run_main(
            tmp_path,
            "traffic = lambda=0.05 c=4\nmethods = simulation\n"
            "t_lo = 1\nt_hi = 5\nt_points = 3\nn_samples = 1000\n")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["files"]["curve_simulation_lam0.05_c4.0.csv"]
        assert entry["invalid_points"] == []
        assert entry["truncation_bias_bound"] > 0.0
        for row in read_csv(out / "curve_simulation_lam0.05_c4.0.csv"):
            assert float(row["stderr"]) > 0.0
            assert -1.0 <= float(row["value"]) <= 1.0

    def test_simulation_lags_past_t_max_are_invalid(self, tmp_path):
        code, out = self.run_main(
            tmp_path,
            "traffic = lambda=0.05 c=4\nmethods = simulation\n"
            "t_lo = 0\nt_hi = 40\nt_points = 9\nn_samples = 1000\n")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["files"]["curve_simulation_lam0.05_c4.0.csv"]
        rows = read_csv(out / "curve_simulation_lam0.05_c4.0.csv")
        late = [i for i, row in enumerate(rows) if float(row["t"]) > 30.0]
        assert late == [7, 8]
        assert entry["invalid_points"] == late
        for i, row in enumerate(rows):
            if i in late:
                assert row["value"] == "" and row["stderr"] == ""
                assert row["valid"] == "false"
            else:
                assert -1.0 <= float(row["value"]) <= 1.0
                assert float(row["stderr"]) > 0.0
                assert row["valid"] == "true"

    def test_bias_bound_describes_the_sampled_window(self, tmp_path):
        # lags past t_max = 30 s are not simulated, so the window is sized
        # for the largest simulated lag, and the bound is the largest over
        # the simulated lags
        code, out = self.run_main(
            tmp_path,
            "traffic = lambda=0.05 c=4\nmethods = simulation\n"
            "t_lo = 0\nt_hi = 40\nt_points = 9\nn_samples = 1000\n")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["files"]["curve_simulation_lam0.05_c4.0.csv"]
        traffic = TrafficModel.from_intensity(0.05, 4.0)
        geom = NetworkGeometry(guard_radius=150.0, pathloss_exponent=3.0,
                               speed=10.0)
        curve = estimate_curve(traffic, geom, (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                               1000, RunConfig().seed)
        assert entry["truncation_bias_bound"] == max(est.bias_bound for est in curve)

    def test_simulation_of_unwindowed_stream_is_all_invalid(self, tmp_path):
        # a minimum gap above r0 / 2 leaves no lag window: nothing is
        # simulated, so no bias bound is written
        code, out = self.run_main(
            tmp_path,
            "traffic = lambda=0.005 c=80\nmethods = simulation\n"
            "t_points = 4\nn_samples = 1000\n")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entry = manifest["files"]["curve_simulation_lam0.005_c80.0.csv"]
        assert entry["invalid_points"] == [0, 1, 2, 3]
        assert "truncation_bias_bound" not in entry

    def test_seed_override_lands_in_manifest(self, tmp_path):
        code, out = self.run_main(
            tmp_path, "methods = ppp\nt_points = 3\n", extra=("--seed", "7"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_json_format(self, tmp_path):
        code, out = self.run_main(tmp_path, self.ANALYTIC,
                                  extra=("--format", "json"))
        assert code == 0
        rows = json.loads((out / "curve_pcf-approx_lam0.05_c4.0.json")
                          .read_text())
        assert len(rows) == 7
        assert rows[0]["value"] is None and rows[0]["valid"] is False
        assert isinstance(rows[1]["value"], float) and rows[1]["valid"] is True

    def test_no_temp_files_left_behind(self, tmp_path):
        _, out = self.run_main(tmp_path, self.ANALYTIC)
        assert not [n for n in os.listdir(out) if n.endswith(".tmp")]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        """An output name taken by a directory makes the rename fail: one
        config error line, exit 1, and the temporary file is removed."""
        out = tmp_path / "results"
        (out / "pcf_lam0.05_c4.0.csv").mkdir(parents=True)
        assert main(["pcf", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not [n for n in os.listdir(out) if n.endswith(".tmp")]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_config_contents(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_partitions_key_is_retired(self, tmp_path, capsys):
        # Counts 1 to 20 never changed an output and still parse; every
        # other value, and the flag, is refused.
        sweep = ("traffic = lambda=0.05 c=4\nmethods = simulation\n"
                 "t_lo = 1\nt_hi = 5\nt_points = 3\nn_samples = 1000\n")
        outputs = []
        for extra_line in ("", "n_partitions = 8\n", "n_partitions = 20\n"):
            case = tmp_path / f"case{len(outputs)}"
            case.mkdir()
            code, out = self.run_main(case, sweep + extra_line)
            assert code == 0
            outputs.append((out / "curve_simulation_lam0.05_c4.0.csv").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

        for value in ("0", "21", "600", "x"):
            code, out = self.run_main(tmp_path, f"n_partitions = {value}\n"
                                                f"methods = ppp\n")
            assert code == 1
            err = capsys.readouterr().err
            assert "line 1" in err and "20 blocks" in err
            assert not out.exists()
        code, out = self.run_main(tmp_path, "methods = ppp\n",
                                  extra=("--partitions", "8"))
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_seed_beyond_64_bits_is_a_config_error(self, tmp_path, capsys):
        code, out = self.run_main(tmp_path, "methods = ppp\n",
                                  extra=("--seed", "18446744073709551616"))
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "pcf"])
    def test_out_naming_a_file_is_a_config_error(self, tmp_path, command, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main([command, "--out", str(taken)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and str(taken) in err[0]

    def test_bad_flag(self, capsys):
        assert main(["run", "--nope"]) == 1
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()


class TestPcfCommand:
    def test_pcf_tables(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("traffic = lambda=0.05 c=4\ntraffic = lambda=0.02 c=4\n",
                       encoding="utf-8")
        out = tmp_path / "results"
        assert main(["pcf", "--config", str(cfg), "--out", str(out)]) == 0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "pcf"
        assert set(manifest["files"]) == {"pcf_lam0.05_c4.0.csv",
                                          "pcf_lam0.02_c4.0.csv"}

        for lam in (0.05, 0.02):
            traffic = TrafficModel.from_intensity(lam, 4.0)
            rows = read_csv(out / f"pcf_lam{lam!r}_c4.0.csv")
            assert len(rows) == 64
            for row in rows:
                d = float(row["d_over_c"])
                value = float(row["value"])
                assert value == normalized_pair_correlation(d, traffic)
                assert float(row["asymptote"]) == 1.0 - lam * 4.0
                if d < 1.0:
                    assert value == 0.0
            last = rows[-1]
            assert float(last["d_over_c"]) == 8.0
            assert abs(float(last["value"]) - float(last["asymptote"])) <= 1e-3

    @pytest.mark.parametrize("lam,c", [(0.05, 0.0), (0.02, 4.0), (0.05, 4.0), (0.1, 4.0),
                                       (0.15, 4.0), (0.2, 4.0), (0.012, 20.0)])
    def test_rows_are_the_scalar_density(self, lam, c):
        """One density call per stream gives, value for value, the scalar
        normalized_pair_correlation at each grid point; 1.0 exactly for a
        Poisson stream."""
        traffic = TrafficModel.from_intensity(lam, c)
        rows = _pcf_rows(traffic)
        assert [row[0] for row in rows] == [k / 8 for k in range(1, 65)]
        assert repr([row[1] for row in rows]) == repr(
            [normalized_pair_correlation(k / 8, traffic) for k in range(1, 65)])
        if c == 0.0:
            assert all(row[1] == 1.0 for row in rows)

    def test_pcf_default_config(self, tmp_path):
        out = tmp_path / "results"
        assert main(["pcf", "--out", str(out)]) == 0
        assert (out / "pcf_lam0.05_c4.0.csv").exists()


def test_benchmark_configs_parse():
    """The benchmark's CLI configs parse: they are why the retired
    n_partitions key is still accepted."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for workload in ("canonical-run", "occupancy-sweep"):
        parse_config(workloads.config_text(workload, 20260816))


def test_benchmark_boundaries_resolve():
    """Every function the benchmark's tracer wraps is still bound where it
    looks for it; the tracer leaves a missing one out of its metrics."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    for module_name, attr, _, _ in tracer.BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(REPO_ROOT, "scripts", "*.py"))),
                         ids=os.path.basename)
def test_script_names_resolve(path):
    """Each script under scripts/ imports (its main is guarded, so nothing
    runs), and every module attribute it reads, such as analytic._far_field, is
    still bound: the scripts reach private names and run outside the test
    suite, so a rename would otherwise break them unseen."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "script_" + os.path.basename(path)[:-3], path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = getattr(module, node.value.id, None)
            if isinstance(target, types.ModuleType):
                assert hasattr(target, node.attr), f"{node.value.id}.{node.attr}"
