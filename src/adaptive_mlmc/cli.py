"""Command-line entry points: `mlmc run` and `mlmc compare`.

Configs are INI files with one [run] section (experiment, epsilon, seed,
...); a `run` flag overrides the [run] key of the same name.  `run` writes
levels.csv, summary.csv, samples.csv (and per-level grid dumps on request)
and prints the summary row, and on stderr the bias with its standard error.
Exit codes:
0 converged, 2 not converged, 1 error (a usage error included).
"""
from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .driver import (MlmcError, MlmcEstimate, MlmcRunConfig, bias_and_error,
                     run_adaptive_mlmc)
from .experiments import EXPERIMENT_NAMES, get_experiment
from .refinement import STRATEGIES
from .stationary import BvpMlmcModel

EXPERIMENTS = EXPERIMENT_NAMES + (BvpMlmcModel.name,)  # every name a run accepts
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2

_FMT = "%.17g"
_SUMMARY_HEADER = "total_variance,squared_bias,mse,estimate,total_cost,n_levels,converged"


class ConfigError(ValueError):
    """Malformed configuration; the message carries file/line context."""


def _line_of(path: Optional[str], section: str, key: Optional[str] = None) -> str:
    """Best-effort 'file:line' locator of a '[section]' header or of a key in
    that section (matched case-insensitively like configparser keys)."""
    if path is None:
        return "<flags>"
    current, key_indent = None, math.inf
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")  # as configparser
        for lineno, line in enumerate(lines, 1):
            indent = len(line) - len(line.lstrip())  # deeper lines continue a value
            if line.strip()[:1] in ("", "#", ";") or indent > key_indent:
                continue
            header = configparser.ConfigParser.SECTCRE.match(line.strip())
            current = header["header"] if header else current
            key_indent = math.inf if header else indent
            name = None if header else line.split("=")[0].split(":")[0].strip().lower()
            if current == section and name == (key and key.lower()):
                return f"{path}:{lineno}"
    except OSError:
        pass
    return path


# Every [run] key: (parser, default), the seed's default read from
# MlmcRunConfig's master_seed.  A run's settings are one dict of these keys
# plus `config_path`.
_RUN_KEYS = {
    "experiment": (str, None), "epsilon": (float, None), "refinement": (str, None),
    "seed": (int, MlmcRunConfig.master_seed), "output_dir": (str, "."),
    "dump_grids": (lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
                   False),
}


def _settings(run: dict, path: Optional[str]) -> dict:
    """The [run] values over the defaults."""
    return {**{key: default for key, (_, default) in _RUN_KEYS.items()}, **run,
            "config_path": path}


def _parse_config_file(path: str) -> dict:
    # Values are literal.  No header line can name the default section "\n",
    # so [DEFAULT] is an ordinary section, rejected like any other but [run].
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for name in parser.sections():
        if name != "run":
            raise ConfigError(f"{_line_of(path, name)}: unknown section "
                              f"[{name}]; expected [run]")
    if not parser.has_section("run"):
        raise ConfigError(f"{path}:1: missing required [run] section")
    run = {}
    for key, text in parser["run"].items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"{_line_of(path, 'run', key)}: unknown key {key!r} "
                              "in [run]")
        try:
            run[key] = _RUN_KEYS[key][0](text)
        except (KeyError, ValueError) as exc:  # KeyError: not a boolean
            raise ConfigError(f"{_line_of(path, 'run', key)}: invalid value in "
                              f"[run]: {exc}") from exc
    if "experiment" not in run:
        raise ConfigError(f"{path}: [run] must set 'experiment'")
    return _settings(run, path)


def _build_run(settings: dict):
    """Resolve settings into (model, MlmcRunConfig); what a setting leaves
    open comes from the model, and an open strategy is filled into `settings`."""
    name = settings["experiment"]
    try:
        model = BvpMlmcModel() if name == BvpMlmcModel.name else get_experiment(name)
    except KeyError:
        raise ConfigError(
            f"{_line_of(settings['config_path'], 'run', 'experiment')}: unknown "
            f"experiment {name!r}; choose from {list(EXPERIMENTS)}") from None
    settings["refinement"] = settings["refinement"] or model.default_refinement
    try:
        cfg = MlmcRunConfig(epsilon=model.default_epsilon if settings["epsilon"] is None
                            else settings["epsilon"],
                            refinement=settings["refinement"],
                            master_seed=settings["seed"])
    except ValueError as exc:
        raise ConfigError(f"{settings['config_path'] or '<flags>'}: {exc}") from exc
    return model, cfg


def summary_row(estimate: MlmcEstimate) -> str:
    return ",".join([_FMT % estimate.total_variance, _FMT % estimate.squared_bias,
                     _FMT % estimate.mse, _FMT % estimate.value,
                     _FMT % estimate.total_cost, str(estimate.n_levels),
                     "true" if estimate.converged else "false"])


def bias_line(estimate: MlmcEstimate) -> str:
    """The stop's bias, its standard error and the top level's estimated
    ok draws out of its ok draws."""
    log = estimate.sample_log
    top = log[log["ok"] & (log["level"] == estimate.n_levels - 1)]
    bias, se = bias_and_error(top["error_estimate"])
    estimated = np.count_nonzero(~np.isnan(top["error_estimate"]))
    return (f"bias {bias:.6g}, standard error {se:.3g}: {estimated} of "
            f"{len(top)} top-level samples estimated")


def write_artifacts(estimate: MlmcEstimate, out_dir: str,
                    dump_grids: bool) -> None:
    """levels.csv, summary.csv, samples.csv (one line per row of the sample
    table, NaN as an empty field) and on request grid_L<level>.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "levels.csv", "w") as fh:
        fh.write("level,elems,cost_per_sample,n_samples,variance\n")
        for lv in estimate.levels:
            fh.write(f"{lv.level},{lv.elems},{_FMT % lv.cost_per_sample},"
                     f"{lv.n_samples},{_FMT % lv.variance}\n")
    (out / "summary.csv").write_text(f"{_SUMMARY_HEADER}\n{summary_row(estimate)}\n")
    with open(out / "samples.csv", "w") as fh:
        fh.write("level,index,status,q_fine,q_coarse,y,error_estimate,denominator\n")
        # each float formatted once: y is q_fine bit for bit where q_coarse is
        # +0.0, and +0.0 and 1.0 are written as %.17g writes them
        for level, index, ok, qf, qc, y, err, den in estimate.sample_log.tolist():
            if not ok:
                fh.write(f"{level},{index},failed,,,,,\n")
                continue
            qf_s = _FMT % qf
            qc_y = f"0,{qf_s}" if qc == 0.0 and math.copysign(1.0, qc) > 0.0 \
                else f"{_FMT % qc},{_FMT % y}"
            err_s = "" if math.isnan(err) else _FMT % err
            den_s = "1" if den == 1.0 else "" if math.isnan(den) else _FMT % den
            fh.write(f"{level},{index},ok,{qf_s},{qc_y},{err_s},{den_s}\n")
    if dump_grids:
        for level, mesh in enumerate(estimate.meshes):
            np.savetxt(out / f"grid_L{level}.txt", mesh.nodes, fmt=_FMT)


def _cmd_run(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("<flags>: jobs must be >= 1")
    settings = _parse_config_file(args.config) if args.config \
        else _settings({}, None)
    for key in _RUN_KEYS:  # flags win over the config file
        value = getattr(args, key, None)
        if value not in (None, ""):
            settings[key] = value
    if not settings["experiment"]:
        raise ConfigError("<flags>: no experiment selected "
                          "(use --config or --experiment)")
    model, cfg = _build_run(settings)
    estimate = run_adaptive_mlmc(model, cfg)
    bias = bias_line(estimate)
    try:
        write_artifacts(estimate, settings["output_dir"], settings["dump_grids"])
    except OSError as exc:
        raise ConfigError(f"{settings['output_dir']}: cannot write artifacts: "
                          f"{exc.strerror or exc}") from exc
    print(_SUMMARY_HEADER)
    print(summary_row(estimate))
    print(bias, file=sys.stderr)
    return EXIT_OK if estimate.converged else EXIT_NOT_CONVERGED


def _cmd_compare(args) -> int:
    paths = [p.strip() for p in args.configs.split(",") if p.strip()]
    if not paths:
        raise ConfigError("<flags>: --configs needs at least one path")
    settings_list = [_parse_config_file(p) for p in paths]
    print("config,strategy,levels,total_cost,estimate,mse,converged")
    worst = EXIT_OK
    for path, settings in zip(paths, settings_list):
        settings["seed"] = settings_list[0]["seed"]  # one seed for every config
        try:
            model, cfg = _build_run(settings)
            estimate = run_adaptive_mlmc(model, cfg)
        except (ConfigError, MlmcError) as exc:  # an unknown experiment: no strategy
            print(f"{path},{settings['refinement'] or 'default'},FAILED,,,,{exc}")
            worst = EXIT_ERROR
            continue
        print(f"{path},{cfg.refinement},{estimate.n_levels},"
              f"{_FMT % estimate.total_cost},{_FMT % estimate.value},"
              f"{_FMT % estimate.mse},"
              f"{'true' if estimate.converged else 'false'}")
        if not estimate.converged and worst == EXIT_OK:
            worst = EXIT_NOT_CONVERGED
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmc",
        description="Adaptive multilevel Monte Carlo for random-parameter "
                    "differential equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one MLMC experiment")
    run_p.add_argument("--config", help="INI config file")
    run_p.add_argument("--experiment", choices=EXPERIMENTS)
    run_p.add_argument("--epsilon", type=float)
    run_p.add_argument("--refinement", choices=STRATEGIES)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--jobs", type=int, metavar="N",
                       help="ignored, since runs are single-threaded; N must be >= 1")
    run_p.add_argument("--dump-grids", action="store_true", default=None)
    run_p.add_argument("--output-dir")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several configs, one table row each")
    cmp_p.add_argument("--configs", required=True,
                       help="comma-separated config paths")
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, MlmcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
