"""Command-line interface: configs, artifacts, exit codes, determinism."""
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_reference
from adaptive_mlmc import driver
from adaptive_mlmc.cli import (EXPERIMENTS, ConfigError, _build_run,
                               _parse_config_file, build_parser, main,
                               write_artifacts)
from adaptive_mlmc.driver import SAMPLE_DTYPE, MlmcEstimate
from adaptive_mlmc.experiments import get_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"
FAST_RUN = """\
[run]
experiment = harmonic-standard
epsilon = 100
refinement = uniform
seed = 3
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        path = write_config(tmp_path, """\
[run]
experiment = lorenz
epsilon = 1e-4
refinement = dwr
seed = 7
jobs = 2
dump_grids = yes
""")
        s = _parse_config_file(path)
        assert s["experiment"] == "lorenz"
        assert s["epsilon"] == 1e-4
        assert s["refinement"] == "dwr"
        assert s["seed"] == 7
        assert s["jobs"] == 2
        assert s["dump_grids"] is True
        assert s["config_path"] == path

    def test_defaults(self, tmp_path):
        """Keys a config leaves out read as their defaults."""
        path = write_config(tmp_path, "[run]\nexperiment = lorenz\n")
        assert _parse_config_file(path) == {
            "experiment": "lorenz", "epsilon": None, "refinement": None,
            "seed": 0, "jobs": 1, "output_dir": ".", "dump_grids": False,
            "config_path": path}

    def test_missing_run_section(self, tmp_path):
        path = write_config(tmp_path, "# experiment = lorenz\n")
        with pytest.raises(ConfigError, match="missing required"):
            _parse_config_file(path)

    def test_unknown_key_reports_line(self, tmp_path):
        path = write_config(tmp_path, """\
[run]
experiment = lorenz
epsilom = 1e-4
""")
        with pytest.raises(ConfigError, match=r"run\.ini:3.*epsilom"):
            _parse_config_file(path)

    @pytest.mark.parametrize("comment", ["# page\x0cbreak", "# line\u2028separator"])
    def test_line_numbers_count_newlines_only(self, tmp_path, comment):
        """Line numbers count the line ends configparser reads, not every
        character str.splitlines splits at."""
        path = write_config(tmp_path, f"[run]\n{comment}\nexperiment = lorenz\n"
                                      "epsilom = 1e-4\n")
        with pytest.raises(ConfigError, match=r"run\.ini:4: unknown key 'epsilom'"):
            _parse_config_file(path)

    def test_continuation_line_is_not_a_key(self, tmp_path, capsys):
        """An indented line after a key continues that key's value (here
        `output_dir`'s), so the unknown key is the one on line 4."""
        path = write_config(tmp_path, "[run]\noutput_dir = a\n  epsilom = 3\n"
                                      "epsilom = 1e-4\nexperiment = lorenz\n")
        assert run_cli("run", "--config", path) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:4: unknown key 'epsilom' in [run]\n")

    def test_unknown_key_matched_case_insensitively(self, tmp_path):
        path = write_config(tmp_path, """\
[run]
experiment = lorenz
Epsilom = 1e-4
""")
        with pytest.raises(ConfigError, match=r"run\.ini:3: unknown key 'epsilom'"):
            _parse_config_file(path)

    def test_known_keys_in_any_case(self, tmp_path):
        path = write_config(tmp_path, """\
[run]
Experiment = lorenz
EPSILON = 1e-4
""")
        s = _parse_config_file(path)
        assert (s["experiment"], s["epsilon"]) == ("lorenz", 1e-4)

    @pytest.mark.parametrize("header", ["Refinement", "refinment", "runn"])
    def test_unknown_section_reports_line(self, tmp_path, header):
        path = write_config(tmp_path, f"""\
[run]
experiment = lorenz

[{header}]
dwr_fraction = 0.3
""")
        with pytest.raises(ConfigError, match=rf"run\.ini:4: unknown section "
                                              rf"\[{header}\]; expected \[run\]$"):
            _parse_config_file(path)

    def test_refinement_section_is_unknown(self, tmp_path, capsys):
        """The strategy is [run] refinement, the meso values are constants
        and DWR's come with the experiment: a [refinement] section is an
        unknown section, reported at its header."""
        path = write_config(tmp_path, """\
[run]
experiment = lorenz
refinement = dwr

[refinement]
dwr_fraction = 0.3
""")
        assert run_cli("run", "--config", path,
                       "--output-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:5: unknown section [refinement]; expected [run]\n")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 3\n\n[run]\nexperiment = lorenz\n",
        "[DEFAULT]\nseed = 3\n\n[run]\nexperiment = lorenz\n\n[refinement]\n"
        "dwr_fraction = 0.3\n",
        "[DEFAULT]\n[run]\nexperiment = lorenz\n",
    ])
    def test_default_section_is_unknown(self, tmp_path, capsys, text):
        """[DEFAULT] is an ordinary section, rejected at its line whether or
        not it holds keys: its keys are never merged into [run]."""
        path = write_config(tmp_path, text)
        assert run_cli("run", "--config", path,
                       "--output-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:1: unknown section [DEFAULT]; expected [run]\n")
        assert not (tmp_path / "out").exists()

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path,
                            "[run]\nexperiment = lorenz\nepsilon = tiny\n")
        with pytest.raises(ConfigError, match="invalid value"):
            _parse_config_file(path)

    def test_bad_boolean_rejected(self, tmp_path):
        path = write_config(tmp_path, "[run]\nexperiment = lorenz\n"
                                      "dump_grids = maybe\n")
        with pytest.raises(ConfigError, match=r"run\.ini:3: invalid value"):
            _parse_config_file(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            _parse_config_file("/nonexistent/run.ini")

    @pytest.mark.parametrize("section,key,value", [
        ("run", "n_schedule", "100, 50, 20"),
        ("run", "max_levels", "10"),
        ("run", "initial_intervals", "27"),
        ("run", "uniform_factor", "2"),
        ("run", "meso_q", "2.0"),
        ("run", "meso_target_multiplier", "2.0"),
        ("run", "dwr_fraction", "0.5"),
        ("run", "dwr_factor", "3"),
    ])
    def test_fixed_parameters_are_unknown_keys(self, tmp_path, capsys, section,
                                               key, value):
        """The warm-up schedule, the level cap, the initial mesh, the uniform
        halving, the meso constants and each experiment's DWR values are
        fixed: a config that sets one fails at its line."""
        path = write_config(tmp_path, f"[{section}]\nexperiment = harmonic-standard\n"
                            f"{key} = {value}\n")
        assert run_cli("run", "--config", path,
                       "--output-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:3: unknown key {key!r} in [{section}]\n")

    def test_undecodable_config(self, tmp_path, capsys):
        """A config that is not UTF-8 is a config error under run and compare."""
        path = tmp_path / "run.ini"
        path.write_bytes(b"[run]\nexperiment = lorenz\n# caf\xff\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: cannot read "
                                              "config: 'utf-8' codec can't decode"):
            _parse_config_file(str(path))
        assert run_cli("run", "--config", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot read config: ")
        assert run_cli("compare", "--configs", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot read config: ")

    def test_values_are_literal(self, tmp_path):
        """A `%` is a character like any other: no interpolation, no error."""
        path = write_config(tmp_path, "[run]\nexperiment = lorenz\n"
                                      "output_dir = out%1\n")
        assert _parse_config_file(path)["output_dir"] == "out%1"
        path = write_config(tmp_path, "[run]\nexperiment = lorenz\n"
                                      "output_dir = %(experiment)s-out\n")
        assert _parse_config_file(path)["output_dir"] == "%(experiment)s-out"

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")),
                             ids=lambda path: path.name)
    def test_committed_config_resolves(self, path):
        """Each config under demos/configs reads and resolves into a model
        and a run config for the experiment it is named after; no run starts."""
        settings = _parse_config_file(str(path))
        _, cfg = _build_run(settings)
        assert settings["experiment"] == path.stem
        assert cfg.refinement == settings["refinement"]


# Lines a fuzzed config is built from: section headers, keys with plain and
# odd values, and raw bytes.
_KEYS = ["experiment", "epsilon", "refinement", "seed", "jobs", "output_dir",
         "dump_grids", "dwr_fraction", "dwr_factor", "meso_q",
         "meso_target_multiplier", "n_schedule"]
_VALUES = ["lorenz", "advection-diffusion-1d", "dwr", "meso", "1e-3", "nan",
           "-1", "0", "2", "yes", "out%1", "%(experiment)s", "caf\xe9"]
_CONFIG_LINE = st.one_of(
    st.sampled_from([b"[run]", b"[refinement]", b"[DEFAULT]", b"[other]", b""]),
    st.builds(lambda key, value: f"{key} = {value}".encode(),
              st.sampled_from(_KEYS), st.sampled_from(_VALUES) | st.text(max_size=8)),
    st.binary(max_size=12),
)


class TestConfigFuzz:
    @given(st.lists(_CONFIG_LINE, max_size=8).map(b"\n".join))
    @settings(max_examples=100, deadline=None)
    @example(b"[run]\nexperiment = lorenz\n# \xff\n")
    @example(b"[run]\nexperiment = lorenz\noutput_dir = out%1\n")
    def test_any_bytes_parse_or_raise_config_error(self, data):
        """Whatever bytes a config holds, reading it and resolving the
        settings return or raise ConfigError; no run starts."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "fuzz.ini")
            path.write_bytes(data)
            try:
                _build_run(_parse_config_file(str(path)))
            except ConfigError:
                pass


class TestRunCommand:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_RUN)
        out_dir = tmp_path / "out"
        code = run_cli("run", "--config", config, "--output-dir", str(out_dir))
        assert code == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[0] == ("total_variance,squared_bias,mse,estimate,"
                               "total_cost,n_levels,converged")
        assert captured[1].endswith(",1,true")
        for name in ("levels.csv", "summary.csv", "samples.csv"):
            assert (out_dir / name).exists()
        levels = (out_dir / "levels.csv").read_text().splitlines()
        assert levels[0] == "level,elems,cost_per_sample,n_samples,variance"
        assert len(levels) == 2  # single level at huge epsilon
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[1] == captured[1]

    def test_levels_csv_round_trip(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_RUN)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--config", config,
                       "--output-dir", str(out_dir)) == 0
        capsys.readouterr()
        rows = (out_dir / "levels.csv").read_text().splitlines()[1:]
        for row in rows:
            level, elems, cost, n, var = row.split(",")
            # 17 significant digits re-serialize bit-exactly
            assert "%.17g" % float(cost) == cost
            assert "%.17g" % float(var) == var
            assert int(level) >= 0 and int(elems) > 0 and int(n) >= 2

    def test_samples_csv_audit_columns(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_RUN)
        out_dir = tmp_path / "out"
        run_cli("run", "--config", config, "--output-dir", str(out_dir))
        capsys.readouterr()
        rows = (out_dir / "samples.csv").read_text().splitlines()
        assert rows[0] == ("level,index,status,q_fine,q_coarse,y,"
                           "error_estimate,denominator")
        body = [r.split(",") for r in rows[1:]]
        assert all(r[0] == "0" and r[2] == "ok" for r in body)
        # highest (here: only) level carries per-sample error estimates
        assert all(r[6] != "" for r in body)
        # level 0 telescopes against nothing
        assert all(float(r[4]) == 0.0 for r in body)

    @given(st.lists(st.tuples(
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=False),
        st.one_of(st.just(0.0), st.just(-0.0), st.floats(allow_nan=False,
                                                          allow_infinity=False)),
        st.one_of(st.just(np.nan), st.floats(allow_infinity=False)),
        st.one_of(st.just(1.0), st.just(np.nan), st.floats(allow_infinity=False)),
    ), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_samples_csv_lines_match_per_field_formatter(self, rows):
        """Every line equals the per-field %.17g formatter's, for tables built
        as the driver builds them: y = q_fine - q_coarse, NaN on failed rows."""
        table = np.zeros(len(rows), SAMPLE_DTYPE)
        table["level"] = np.arange(len(rows)) % 3
        table["index"] = np.arange(len(rows))
        for k, (ok, qf, qc, err, den) in enumerate(rows):
            table[k]["ok"] = ok
            for name, value in (("q_fine", qf), ("q_coarse", qc),
                                ("error_estimate", err), ("denominator", den)):
                table[k][name] = value if ok else np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            table["y"] = table["q_fine"] - table["q_coarse"]
        estimate = MlmcEstimate(0.0, 0.0, 0.0, 0.0, (), 0.0, True, (), table)
        with tempfile.TemporaryDirectory() as out:
            write_artifacts(estimate, out, False)
            written = Path(out, "samples.csv").read_text().splitlines(True)
        assert written[1:] == list(cli_reference.sample_lines(table))

    def test_dump_grids_keep_17_significant_digits(self, tmp_path, capsys):
        """Each grid file holds one node per line, written with %.17g, so the
        nodes read back bit for bit."""
        out_dir = tmp_path / "out"
        assert run_cli("run", "--experiment", "harmonic-standard",
                       "--epsilon", "100", "--dump-grids",
                       "--output-dir", str(out_dir)) == 0
        capsys.readouterr()
        nodes = get_experiment("harmonic-standard").initial_mesh().nodes
        lines = (out_dir / "grid_L0.txt").read_text().splitlines()
        assert lines == ["%.17g" % x for x in nodes]
        assert np.array_equal([float(x) for x in lines], nodes)
        assert max(len(x.replace(".", "").lstrip("0")) for x in lines) == 17

    def test_dump_grids(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_RUN + "dump_grids = true\n")
        out_dir = tmp_path / "out"
        run_cli("run", "--config", config, "--output-dir", str(out_dir))
        capsys.readouterr()
        grid = out_dir / "grid_L0.txt"
        assert grid.exists()
        nodes = np.array([float(x) for x in grid.read_text().split()])
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(3.0)
        assert np.all(np.diff(nodes) > 0)

    def test_flags_override_config(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_RUN)
        out_dir = tmp_path / "out"
        code = run_cli("run", "--config", config, "--epsilon", "120",
                       "--seed", "9", "--output-dir", str(out_dir))
        assert code == 0
        capsys.readouterr()

    def test_not_converged_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(driver, "MAX_LEVELS", 1)
        config = write_config(tmp_path, """\
[run]
experiment = harmonic-standard
epsilon = 0.05
""")
        code = run_cli("run", "--config", config,
                       "--output-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().out.splitlines()[1].endswith(",false")

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, "[run]\nexperiment = unknown-model\n")
        code = run_cli("run", "--config", config,
                       "--output-dir", str(tmp_path / "out"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment_lists_every_choice(self, tmp_path, capsys):
        """The error names the five experiments `--experiment` accepts, the
        stationary problem included, under run and under compare."""
        config = write_config(tmp_path, "[run]\nexperiment = nope\n")
        message = (f"{config}:2: unknown experiment 'nope'; choose from "
                   "['harmonic-nonstandard', 'harmonic-standard', 'lorenz', "
                   "'two-body', 'advection-diffusion-1d']")
        assert f"choose from {list(EXPERIMENTS)}" in message
        for name in EXPERIMENTS:  # each one `--experiment` accepts
            build_parser().parse_args(["run", "--experiment", name])
        assert run_cli("run", "--config", config,
                       "--output-dir", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run_cli("compare", "--configs", config) == 1
        assert capsys.readouterr().out.splitlines()[1] == \
            f"{config},default,FAILED,,,,{message}"

    @pytest.mark.parametrize("experiment,epsilon,strategy", [
        ("advection-diffusion-1d", "5e-6", "dwr"),
        ("harmonic-standard", "1e-2", "uniform"),
    ])
    def test_default_strategy_is_the_models(self, tmp_path, capsys, experiment,
                                            epsilon, strategy):
        """Without --refinement a run takes its model's default strategy,
        byte for byte, and builds a second level with it."""
        written = []
        for tag, extra in (("default", ()), ("named", ("--refinement", strategy))):
            out = tmp_path / tag
            assert run_cli("run", "--experiment", experiment, "--epsilon", epsilon,
                           "--seed", "1", "--output-dir", str(out), *extra) == 0
            written.append({name: (out / name).read_bytes()
                            for name in ("levels.csv", "summary.csv", "samples.csv")})
        capsys.readouterr()
        assert written[0] == written[1]
        assert len(written[0]["levels.csv"].splitlines()) >= 3

    @pytest.mark.parametrize("text", [
        "[run]\nexperiment = harmonic-standard\nrefinement = bisection\n",
        "[run]\nexperiment = advection-diffusion-1d\nrefinement = bisection\n",
    ])
    def test_invalid_refinement_is_a_config_error(self, tmp_path, capsys, text):
        config = write_config(tmp_path, text)
        code = run_cli("run", "--config", config,
                       "--output-dir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: ")

    def test_no_experiment_selected(self, capsys):
        assert run_cli("run") == 1
        assert "no experiment selected" in capsys.readouterr().err

    @pytest.mark.parametrize("output_dir", ["file", "file/out"])
    def test_unusable_output_dir(self, tmp_path, capsys, output_dir):
        """An output directory that is a file or lies under one ends after the
        run as one error line naming it, exit 1; the file is left as it was."""
        (tmp_path / "file").write_text("keep\n")
        out = tmp_path / output_dir
        code = run_cli("run", "--experiment", "harmonic-standard",
                       "--epsilon", "100", "--output-dir", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {out}: cannot write artifacts: ")
        assert len(err.splitlines()) == 1
        assert (tmp_path / "file").read_text() == "keep\n"


class TestRunSettingsRejected:
    """Settings the run cannot honour exit 1 before the run starts, with the
    config error on stderr and no traceback."""

    def assert_rejected(self, code, capsys, message, out_dir=None):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert out_dir is None or not out_dir.exists()

    @pytest.mark.parametrize("flags,message", [
        (("--seed", "-1"), "master_seed must be >= 0"),
        (("--epsilon", "inf"), "epsilon must be positive and finite"),
    ])
    def test_bad_flag(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "out"
        code = run_cli("run", "--experiment", "lorenz", *flags,
                       "--output-dir", str(out_dir))
        self.assert_rejected(code, capsys, message, out_dir)

    @pytest.mark.parametrize("text,message", [
        ("[run]\nexperiment = lorenz\nseed = -5\n", "master_seed must be >= 0"),
    ])
    def test_bad_config(self, tmp_path, capsys, text, message):
        config = write_config(tmp_path, text)
        out_dir = tmp_path / "out"
        code = run_cli("run", "--config", config, "--output-dir", str(out_dir))
        self.assert_rejected(code, capsys, message, out_dir)
        code = run_cli("compare", "--configs", config)
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[1].startswith(f"{config},") and ",FAILED," in lines[1]
        assert message in lines[1]

    @pytest.mark.parametrize("setting,target", [
        ("epsilon = 1e-14", "1.76e+13"),   # 128 TiB of draw indices
        ("epsilon = 1e-30", "1.76e+29"),   # more than one array can index
        ("epsilon = 1e-320", "inf"),       # subnormal: 2/eps overflows
        ("epsilon = 5e-324", "inf"),
    ])
    def test_huge_sample_target(self, tmp_path, capsys, setting, target):
        """A sample target whose draw indices cannot be held, or that is not
        finite, fails at once, before any allocation succeeds: one error line
        naming the target and a FAILED row under compare."""
        config = write_config(tmp_path, "[run]\nexperiment = harmonic-standard\n"
                              f"{setting}\n")
        out_dir = tmp_path / "out"
        code = run_cli("run", "--config", config, "--output-dir", str(out_dir))
        err = capsys.readouterr().err
        assert code == 1 and not out_dir.exists()
        assert err == f"error: cannot take {target} samples on level 0\n"
        code = run_cli("compare", "--configs", config)
        lines = capsys.readouterr().out.splitlines()
        assert code == 1 and ",FAILED," in lines[1]
        assert f"cannot take {target} samples" in lines[1]


class TestDeterminism:
    def _run(self, tmp_path, tag, *extra):
        out_dir = tmp_path / tag
        code = run_cli("run", "--experiment", "harmonic-standard",
                       "--epsilon", "100", "--seed", "5",
                       "--output-dir", str(out_dir), *extra)
        assert code == 0
        return {name: (out_dir / name).read_bytes()
                for name in ("levels.csv", "summary.csv", "samples.csv")}

    def test_identical_reruns_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        capsys.readouterr()
        assert a == b

    def test_jobs_do_not_change_output(self, tmp_path, capsys):
        serial = self._run(tmp_path, "serial")
        threaded = self._run(tmp_path, "threaded", "--jobs", "4")
        capsys.readouterr()
        assert serial == threaded


class TestCompareCommand:
    def test_single_config_single_row(self, tmp_path, capsys):
        config = write_config(tmp_path, FAST_RUN)
        code = run_cli("compare", "--configs", config)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "config,strategy,levels,total_cost,estimate,mse,converged"
        assert len(lines) == 2
        assert lines[1].startswith(f"{config},uniform,1,")

    def test_duplicate_configs_identical_rows(self, tmp_path, capsys):
        a = write_config(tmp_path, FAST_RUN, "a.ini")
        b = write_config(tmp_path, FAST_RUN, "b.ini")
        code = run_cli("compare", "--configs", f"{a},{b}")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        row_a = lines[1].split(",", 1)[1]
        row_b = lines[2].split(",", 1)[1]
        assert row_a == row_b

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        """compare has no --jobs: exit 1 with argparse's usage message."""
        config = write_config(tmp_path, FAST_RUN)
        assert run_cli("compare", "--configs", config, "--jobs", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mlmc ")
        assert err.endswith("mlmc: error: unrecognized arguments: --jobs 2\n")

    def test_configs_share_the_first_seed(self, tmp_path, capsys):
        """A second config's own seed is overridden by the first one's."""
        a = write_config(tmp_path, FAST_RUN, "a.ini")
        b = write_config(tmp_path, FAST_RUN.replace("seed = 3", "seed = 8"), "b.ini")
        assert run_cli("compare", "--configs", f"{a},{b}") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",", 1)[1] == lines[2].split(",", 1)[1]

    def test_stationary_default_strategy_is_printed(self, tmp_path, capsys):
        """A config without a `refinement` key runs and prints the model's
        own strategy: dwr for the stationary problem."""
        config = write_config(tmp_path, "[run]\nexperiment = advection-diffusion-1d\n"
                                        "epsilon = 1e-3\n")
        assert run_cli("compare", "--configs", config) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"{config},dwr,")

    def test_failure_marker_row(self, tmp_path, capsys):
        good = write_config(tmp_path, FAST_RUN, "good.ini")
        bad = write_config(tmp_path, "[run]\nexperiment = unknown\n", "bad.ini")
        code = run_cli("compare", "--configs", f"{good},{bad}")
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAILED" in lines[2]


def run_fresh(script, *args):
    """`script` in a new interpreter that imports this package, so the
    modules this test process has loaded cannot hide what an import loads."""
    import adaptive_mlmc
    env = {**os.environ, "PYTHONPATH": str(Path(adaptive_mlmc.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


LOADED_SCIPY = """\
import sys
import adaptive_mlmc
import adaptive_mlmc.cli
code = adaptive_mlmc.cli.main(["run", *sys.argv[1:]])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

LOADED_NUMPY_MA = """\
import sys
import numpy
on_import = "numpy.ma" in sys.modules
import adaptive_mlmc.cli
code = adaptive_mlmc.cli.main(["run", *sys.argv[1:]])
print(code, on_import, "numpy.ma" in sys.modules)
"""


class TestColdStart:
    def test_ode_run_never_loads_scipy(self, tmp_path):
        """Importing the package and running an ODE preset loads no scipy."""
        proc = run_fresh(LOADED_SCIPY, "--experiment", "harmonic-standard",
                         "--epsilon", "100", "--output-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_ode_meso_run_never_loads_numpy_ma(self, tmp_path):
        """A lorenz meso run that overlays two region tilings loads no
        numpy.ma (np.unique would), unless importing numpy loads it."""
        proc = run_fresh(LOADED_NUMPY_MA, "--experiment", "lorenz", "--refinement",
                         "meso", "--epsilon", "1e-3", "--output-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, on_import, loaded = proc.stdout.splitlines()[-1].split()
        if on_import == "True":
            pytest.skip("this numpy loads numpy.ma when it is imported")
        levels = (tmp_path / "levels.csv").read_text().splitlines()
        assert len(levels) >= 3  # a header and two levels: one overlay ran
        assert (code, loaded) == ("0", "False")

    def test_stationary_run_loads_scipy_at_its_solve(self, tmp_path, capsys):
        """advection-diffusion-1d loads scipy.linalg when it first solves, and
        writes the same bytes as the same run in this process."""
        args = ("--experiment", "advection-diffusion-1d", "--epsilon", "1e-3")
        proc = run_fresh(LOADED_SCIPY, *args, "--output-dir", tmp_path / "fresh")
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0" and "'scipy.linalg'" in loaded
        assert run_cli("run", *args, "--output-dir", str(tmp_path / "here")) == 0
        capsys.readouterr()
        for name in ("levels.csv", "summary.csv", "samples.csv"):
            assert (tmp_path / "fresh" / name).read_bytes() == \
                (tmp_path / "here" / name).read_bytes()


class TestEntryPoint:
    @pytest.mark.parametrize("argv,message", [
        (["run", "--experiment", "lorenz", "--epsilon", "abc"],
         "argument --epsilon: invalid float value: 'abc'"),
        (["run", "--experiment", "lorenz", "--epsilom", "1"],
         "unrecognized arguments: --epsilom 1"),
        ([], "the following arguments are required: command"),
        # every config runs on the first one's seed
        (["compare", "--configs", "run.ini", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
    ])
    def test_usage_error_exits_1(self, capsys, argv, message):
        """Exit 2 means "not converged": a usage error exits 1, after
        argparse's usage message."""
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: mlmc") and err.endswith(f"error: {message}\n")

    def test_help_exits_0(self, capsys):
        assert run_cli("run", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: mlmc run ")

    def test_console_script_help(self):
        out = subprocess.run([sys.executable, "-m", "adaptive_mlmc.cli"],
                             capture_output=True, text=True)
        assert out.returncode != 0  # subcommand required

    def test_parser_experiment_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--experiment", "bogus"])
