"""Command-line entry points: `mlmc run` and `mlmc compare`.

Configs are INI files with one [run] section (experiment, epsilon, seed,
...); a `run` flag overrides the [run] key of the same name.  configparser
reads them and rejects a repeated section or key, so a config error names
its file, section and key, which locate one line, and a value the run
cannot take names its key and where it came from (the file or `<flags>`).
`run` writes levels.csv, summary.csv, samples.csv and grids.csv and prints
the summary row, and on stderr the bias with its standard error.
Exit codes:
0 converged, 2 not converged, 1 error (a usage error included).
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import driver
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
    """Malformed configuration; the message names the file (or `<flags>`)
    and, where one is at fault, the section and key."""


# Every [run] key: (parser, default), the seed's default read from
# MlmcRunConfig's master_seed.  A run's settings are one dict of these keys
# plus `config_path`.
_RUN_KEYS = {
    "experiment": (str, None), "epsilon": (float, None), "refinement": (str, None),
    "seed": (int, MlmcRunConfig.master_seed), "output_dir": (str, "."),
}


def _settings(run: dict, path: Optional[str]) -> dict:
    """The [run] values over the defaults."""
    return {**{key: default for key, (_, default) in _RUN_KEYS.items()}, **run,
            "config_path": path}


def _parse_config_file(path: str) -> dict:
    # Values are literal, and a repeated section or key is an error (strict).
    # No header line can name the default section "\n", so [DEFAULT] is an
    # ordinary section, rejected like any other but [run].
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
            raise ConfigError(f"{path}: unknown section [{name}]; expected [run]")
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: missing required [run] section")
    run = {}
    for key, text in parser["run"].items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r} in [run]")
        try:
            run[key] = _RUN_KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid value of {key!r} in [run]: "
                              f"{exc}") from exc
    if "experiment" not in run:
        raise ConfigError(f"{path}: [run] must set 'experiment'")
    return _settings(run, path)


def _build_run(settings: dict, flagged=frozenset()):
    """Resolve settings into (model, MlmcRunConfig); what a setting leaves
    open comes from the model, and an open strategy is filled into `settings`.
    A bad value is blamed on `<flags>` if `flagged` has its key, else the file."""
    name, where = settings["experiment"], settings["config_path"] or "<flags>"
    try:
        model = BvpMlmcModel() if name == BvpMlmcModel.name else get_experiment(name)
    except KeyError:
        raise ConfigError(f"{where}: unknown experiment {name!r}; choose from "
                          f"{list(EXPERIMENTS)}") from None
    settings["refinement"] = settings["refinement"] or model.default_refinement
    # key by key over the model's valid defaults, so an error is one key's
    cfg = MlmcRunConfig(model.default_epsilon, model.default_refinement)
    for key, field in (("refinement", "refinement"), ("epsilon", "epsilon"),
                       ("seed", "master_seed")):
        try:
            if settings[key] is not None:
                cfg = dataclasses.replace(cfg, **{field: settings[key]})
        except ValueError as exc:
            raise ConfigError(f"{'<flags>' if key in flagged else where}: "
                              f"invalid value of {key!r}: {exc}") from exc
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


def _formatted(values: np.ndarray, fill: list, keep: np.ndarray) -> list:
    """`fill` with %.17g of `values` where `keep` is false."""
    out = list(fill)
    for k, x in zip(np.flatnonzero(~keep).tolist(), values[~keep].tolist()):
        out[k] = _FMT % x
    return out


def write_artifacts(estimate: MlmcEstimate, out_dir: str) -> None:
    """levels.csv, summary.csv, samples.csv (one line per row of the sample
    table, NaN as an empty field) and grids.csv (one line per node of each
    level's mesh, in level order)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "levels.csv", "w") as fh:
        fh.write("level,elems,cost_per_sample,n_samples,variance\n")
        for lv in estimate.levels:
            fh.write(f"{lv.level},{lv.elems},{_FMT % lv.cost_per_sample},"
                     f"{lv.n_samples},{_FMT % lv.variance}\n")
    (out / "summary.csv").write_text(f"{_SUMMARY_HEADER}\n{summary_row(estimate)}\n")
    log = estimate.sample_log
    with open(out / "samples.csv", "w") as fh:
        fh.write("level,index,status,q_fine,q_coarse,y,error_estimate,denominator\n")
        # CHUNK_SIZE rows at a time, column by column; a float is formatted
        # only where it prints: y is q_fine bit for bit where q_coarse is +0.0
        for start in range(0, len(log), driver.CHUNK_SIZE):
            block = log[start:start + driver.CHUNK_SIZE]
            qc, n = block["q_coarse"], len(block)
            plain = (qc == 0.0) & ~np.signbit(qc)
            q_fine = [_FMT % x for x in block["q_fine"].tolist()]
            estimates = (_formatted(block[name], [""] * n, np.isnan(block[name]))
                         for name in ("error_estimate", "denominator"))
            fields = zip(block["level"].tolist(), block["index"].tolist(),
                         block["ok"].tolist(), q_fine, _formatted(qc, ["0"] * n, plain),
                         _formatted(block["y"], q_fine, plain), *estimates)
            fh.write("".join(f"{lv},{i},ok,{qf},{c},{y},{e},{d}\n" if ok
                             else f"{lv},{i},failed,,,,,\n"
                             for lv, i, ok, qf, c, y, e, d in fields))
    (out / "grids.csv").write_text("level,node\n" + "".join(
        f"{level},{_FMT % x}\n" for level, mesh in enumerate(estimate.meshes)
        for x in mesh.nodes.tolist()))


def _cmd_run(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("<flags>: jobs must be >= 1")
    settings = _parse_config_file(args.config) if args.config \
        else _settings({}, None)
    flagged = {key: getattr(args, key) for key in _RUN_KEYS
               if getattr(args, key) not in (None, "")}
    settings.update(flagged)  # flags win over the config file
    if not settings["experiment"]:
        raise ConfigError("<flags>: no experiment selected "
                          "(use --config or --experiment)")
    model, cfg = _build_run(settings, flagged)
    estimate = run_adaptive_mlmc(model, cfg)
    bias = bias_line(estimate)
    try:
        write_artifacts(estimate, settings["output_dir"])
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
