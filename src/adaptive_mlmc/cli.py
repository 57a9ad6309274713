"""Command-line entry points: `mlmc run` and `mlmc compare`.

Configs are INI files with a [run] section (experiment, epsilon, seed, ...)
and an optional [refinement] section; every flag mirrors a config key and
flags win.  `run` writes levels.csv, summary.csv, samples.csv (and per-level
grid dumps on request) and prints the summary row.  Exit codes: 0 converged,
2 not converged, 1 error.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .driver import MlmcError, MlmcEstimate, MlmcRunConfig, run_adaptive_mlmc
from .experiments import EXPERIMENT_NAMES, OdeMlmcModel, get_experiment
from .refinement import RefinementConfig
from .stationary import (BVP_DEFAULT_EPSILON, BVP_INITIAL_ELEMENTS,
                         BvpMlmcModel, bvp_initial_mesh, bvp_refinement)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2

_FMT = "%.17g"


class ConfigError(ValueError):
    """Malformed configuration; the message carries file/line context."""


def _line_of(path: Optional[str], key: str) -> str:
    """Best-effort 'file:line' locator of a config key for error messages."""
    if path is None:
        return "<flags>"
    try:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            if line.split("=")[0].split(":")[0].strip() == key:
                return f"{path}:{lineno}"
    except OSError:
        pass
    return path


@dataclass
class RunSettings:
    """Fully resolved settings for one MLMC run."""

    experiment: str
    epsilon: Optional[float] = None
    strategy: Optional[str] = None
    seed: int = 0
    jobs: int = 1
    max_levels: int = 10
    n_schedule: tuple = (100, 50, 20)
    initial_intervals: Optional[int] = None
    output_dir: str = "."
    dump_grids: bool = False
    refinement_overrides: dict = None
    config_path: Optional[str] = None


def _parse_config_file(path: str) -> RunSettings:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    if not parser.has_section("run"):
        raise ConfigError(f"{path}:1: missing required [run] section")
    run = parser["run"]
    known_run = {"experiment", "epsilon", "refinement", "seed", "jobs",
                 "max_levels", "n_schedule", "initial_intervals",
                 "output_dir", "dump_grids"}
    for key in run:
        if key not in known_run:
            raise ConfigError(f"{_line_of(path, key)}: unknown key {key!r} in [run]")
    if "experiment" not in run:
        raise ConfigError(f"{path}: [run] must set 'experiment'")

    settings = RunSettings(experiment=run["experiment"], config_path=path)
    try:
        if "epsilon" in run:
            settings.epsilon = float(run["epsilon"])
        if "refinement" in run:
            settings.strategy = run["refinement"]
        if "seed" in run:
            settings.seed = int(run["seed"])
        if "jobs" in run:
            settings.jobs = int(run["jobs"])
        if "max_levels" in run:
            settings.max_levels = int(run["max_levels"])
        if "n_schedule" in run:
            settings.n_schedule = tuple(
                int(x) for x in run["n_schedule"].replace(",", " ").split())
        if "initial_intervals" in run:
            settings.initial_intervals = int(run["initial_intervals"])
        if "output_dir" in run:
            settings.output_dir = run["output_dir"]
        if "dump_grids" in run:
            settings.dump_grids = run.getboolean("dump_grids")
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid value in [run]: {exc}") from exc

    overrides = {}
    if parser.has_section("refinement"):
        ref = parser["refinement"]
        known_ref = {"strategy", "dwr_fraction", "dwr_factor", "uniform_factor",
                     "meso_q", "meso_target_multiplier"}
        for key in ref:
            if key not in known_ref:
                raise ConfigError(
                    f"{_line_of(path, key)}: unknown key {key!r} in [refinement]")
        try:
            if "strategy" in ref and settings.strategy is None:
                settings.strategy = ref["strategy"]
            for key in ("dwr_fraction", "meso_q", "meso_target_multiplier"):
                if key in ref:
                    overrides[key] = float(ref[key])
            for key in ("dwr_factor", "uniform_factor"):
                if key in ref:
                    overrides[key] = int(ref[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid value in [refinement]: {exc}") from exc
    settings.refinement_overrides = overrides
    return settings


def _apply_flags(settings: RunSettings, args) -> RunSettings:
    if getattr(args, "experiment", None):
        settings.experiment = args.experiment
    if getattr(args, "epsilon", None) is not None:
        settings.epsilon = args.epsilon
    if getattr(args, "refinement", None):
        settings.strategy = args.refinement
    if getattr(args, "seed", None) is not None:
        settings.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        settings.jobs = args.jobs
    if getattr(args, "output_dir", None):
        settings.output_dir = args.output_dir
    if getattr(args, "dump_grids", False):
        settings.dump_grids = True
    return settings


def _build_run(settings: RunSettings):
    """Resolve settings into (model, MlmcRunConfig)."""
    name = settings.experiment
    if name == "advection-diffusion-1d":
        model = BvpMlmcModel()
        refinement = bvp_refinement(settings.strategy or "dwr")
        mesh = bvp_initial_mesh(settings.initial_intervals or BVP_INITIAL_ELEMENTS)
        epsilon = settings.epsilon if settings.epsilon is not None \
            else BVP_DEFAULT_EPSILON
    else:
        try:
            experiment = get_experiment(name)
        except KeyError as exc:
            raise ConfigError(
                f"{_line_of(settings.config_path, 'experiment')}: {exc.args[0]}"
            ) from exc
        model = OdeMlmcModel(experiment)
        refinement = RefinementConfig(strategy=settings.strategy or "uniform")
        if settings.initial_intervals:
            experiment = replace(experiment,
                                 initial_intervals=settings.initial_intervals)
        mesh = experiment.initial_mesh()
        epsilon = settings.epsilon if settings.epsilon is not None \
            else experiment.default_epsilon
    if settings.refinement_overrides:
        refinement = replace(refinement, **settings.refinement_overrides)
    try:
        cfg = MlmcRunConfig(epsilon=epsilon, initial_mesh=mesh,
                            refinement=refinement,
                            n_schedule=settings.n_schedule,
                            master_seed=settings.seed,
                            max_levels=settings.max_levels,
                            jobs=settings.jobs)
    except ValueError as exc:
        raise ConfigError(f"{settings.config_path or '<flags>'}: {exc}") from exc
    return model, cfg


def _fmt(x) -> str:
    return _FMT % float(x)


def write_levels_csv(path, estimate: MlmcEstimate) -> None:
    with open(path, "w") as fh:
        fh.write("level,elems,cost_per_sample,n_samples,variance\n")
        for lv in estimate.levels:
            fh.write(f"{lv.level},{lv.elems},{_fmt(lv.cost_per_sample)},"
                     f"{lv.n_samples},{_fmt(lv.variance)}\n")


def summary_row(estimate: MlmcEstimate) -> str:
    return ",".join([_fmt(estimate.total_variance), _fmt(estimate.squared_bias),
                     _fmt(estimate.mse), _fmt(estimate.value),
                     _fmt(estimate.total_cost), str(estimate.n_levels),
                     "true" if estimate.converged else "false"])


def write_summary_csv(path, estimate: MlmcEstimate) -> None:
    with open(path, "w") as fh:
        fh.write("total_variance,squared_bias,mse,estimate,total_cost,"
                 "n_levels,converged\n")
        fh.write(summary_row(estimate) + "\n")


def write_samples_csv(path, estimate: MlmcEstimate) -> None:
    with open(path, "w") as fh:
        fh.write("level,index,status,q_fine,q_coarse,y,"
                 "error_estimate,denominator\n")
        for level, index, status, qf, qc, y, err, den in estimate.sample_log:
            err_s = _fmt(err) if err is not None else ""
            den_s = _fmt(den) if den is not None else ""
            if status == "ok":
                fh.write(f"{level},{index},{status},{_fmt(qf)},{_fmt(qc)},"
                         f"{_fmt(y)},{err_s},{den_s}\n")
            else:
                fh.write(f"{level},{index},{status},,,,,\n")


def write_artifacts(estimate: MlmcEstimate, out_dir: str,
                    dump_grids: bool) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_levels_csv(out / "levels.csv", estimate)
    write_summary_csv(out / "summary.csv", estimate)
    write_samples_csv(out / "samples.csv", estimate)
    if dump_grids:
        for level, mesh in enumerate(estimate.meshes):
            mesh.dump(out / f"grid_L{level}.txt")


def _cmd_run(args) -> int:
    settings = _parse_config_file(args.config) if args.config \
        else RunSettings(experiment=args.experiment or "")
    settings = _apply_flags(settings, args)
    if not settings.experiment:
        raise ConfigError("<flags>: no experiment selected "
                          "(use --config or --experiment)")
    model, cfg = _build_run(settings)
    estimate = run_adaptive_mlmc(model, cfg)
    write_artifacts(estimate, settings.output_dir, settings.dump_grids)
    print("total_variance,squared_bias,mse,estimate,total_cost,"
          "n_levels,converged")
    print(summary_row(estimate))
    return EXIT_OK if estimate.converged else EXIT_NOT_CONVERGED


def _cmd_compare(args) -> int:
    paths = [p.strip() for p in args.configs.split(",") if p.strip()]
    if not paths:
        raise ConfigError("<flags>: --configs needs at least one path")
    settings_list = [_parse_config_file(p) for p in paths]
    shared_seed = args.seed if args.seed is not None else settings_list[0].seed
    print("config,strategy,levels,total_cost,estimate,mse,converged")
    worst = EXIT_OK
    for path, settings in zip(paths, settings_list):
        settings.seed = shared_seed
        if args.jobs is not None:
            settings.jobs = args.jobs
        strategy = settings.strategy or "default"
        try:
            model, cfg = _build_run(settings)
            estimate = run_adaptive_mlmc(model, cfg)
        except (ConfigError, MlmcError) as exc:
            print(f"{path},{strategy},FAILED,,,,{exc}")
            worst = EXIT_ERROR
            continue
        strategy = cfg.refinement.strategy
        print(f"{path},{strategy},{estimate.n_levels},"
              f"{_fmt(estimate.total_cost)},{_fmt(estimate.value)},"
              f"{_fmt(estimate.mse)},"
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
    run_p.add_argument("--experiment", choices=EXPERIMENT_NAMES)
    run_p.add_argument("--epsilon", type=float)
    run_p.add_argument("--refinement", choices=("uniform", "dwr", "meso"))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument("--dump-grids", action="store_true")
    run_p.add_argument("--output-dir")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several configs, one table row each")
    cmp_p.add_argument("--configs", required=True,
                       help="comma-separated config paths")
    cmp_p.add_argument("--seed", type=int,
                       help="shared master seed (default: first config's)")
    cmp_p.add_argument("--jobs", type=int)
    cmp_p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MlmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
