"""Command-line interface.

Subcommands:
  run            one experiment from flags and/or a config file
  sweep          many experiments from config files, with a summary table
  reference      compute (and cache) the certified reference minimizer
  gen-synthetic  write a synthetic LibSVM dataset

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.  Flags mirror ExperimentConfig fields in kebab-case; `--config`
points at a flat "key = value" file whose entries the flags override.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataError, NumericalError
from .harness import (ExperimentConfig, build_objective, config_reference,
                      gen_classification, gen_regression, load_dataset,
                      parse_config_file, run_experiment, sweep, sweep_summary,
                      write_dataset)

_CONFIG_FLAG_FIELDS = (
    "data_path", "task", "l1_weight", "l2_weight", "method", "oracle",
    "sigma0", "lam0", "sigma", "lam", "T", "eps", "pass_budget", "seed",
    "normalize", "out_dir",
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat 'key = value' config file")
    p.add_argument("--data-path")
    p.add_argument("--task")
    p.add_argument("--l1-weight", type=float)
    p.add_argument("--l2-weight", type=float)
    p.add_argument("--method")
    p.add_argument("--oracle")
    p.add_argument("--sigma0", type=float)
    p.add_argument("--lam0", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--T", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--pass-budget", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--normalize", action="store_const", const=True, default=None)
    p.add_argument("--out", dest="out_dir", help="output directory")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {}
    if getattr(args, "config", None):
        kwargs.update(parse_config_file(args.config))
    for name in _CONFIG_FLAG_FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            kwargs[name] = v
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as err:
        raise ConfigError(str(err))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptreduce",
        description="adaptive reduction experiments for composite objectives")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, write a CSV trace")
    _add_config_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run several experiments")
    p_sweep.add_argument("configs", nargs="+", help="config files, one per run")
    p_sweep.add_argument("--out", dest="out_dir",
                         help="output directory override for every run")

    p_ref = sub.add_parser("reference",
                           help="compute and cache the reference minimizer")
    _add_config_flags(p_ref)

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset")
    p_gen.add_argument("--kind", required=True,
                       choices=("regression", "classification"))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-file", required=True)
    p_gen.add_argument("--sparsity", type=int, default=10)
    p_gen.add_argument("--planted-scale", type=float, default=2.0)
    p_gen.add_argument("--noise", type=float, default=0.08)
    p_gen.add_argument("--separation", type=float, default=2.0)
    p_gen.add_argument("--noise-scale", type=float, default=2.0)
    p_gen.add_argument("--flip-fraction", type=float, default=0.05)
    return parser


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    trace = run_experiment(config)
    print(f"wrote {config.out_path}  rows={len(trace.rows)}  "
          f"final_subopt={trace.final_subopt!r}  passes={trace.total_passes!r}")
    return 0


def _cmd_sweep(args) -> int:
    configs = []
    for path in args.configs:
        kwargs = parse_config_file(path)
        if args.out_dir is not None:
            kwargs["out_dir"] = args.out_dir
        try:
            configs.append(ExperimentConfig(**kwargs))
        except TypeError as err:
            raise ConfigError(f"{path}: {err}")
    results = sweep(configs)
    print(sweep_summary(results))
    for r in results:
        if r.error is not None:
            return _exit_code_for(r.error)
    return 0


def _cmd_reference(args) -> int:
    config = _config_from_args(args)
    config.validate()
    data = load_dataset(config)
    F = build_objective(data, config.task, config.l1_weight, config.l2_weight)
    x_ref, path = config_reference(config, data, F)
    print(f"reference cached at {path}")
    print(f"objective value at reference: {F.full_value(x_ref)!r}")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "regression":
        data = gen_regression(args.seed, args.n, args.d,
                              sparsity=args.sparsity,
                              planted_scale=args.planted_scale,
                              noise=args.noise)
    else:
        data = gen_classification(args.seed, args.n, args.d,
                                  separation=args.separation,
                                  noise_scale=args.noise_scale,
                                  flip_fraction=args.flip_fraction)
    write_dataset(data, args.out_file)
    print(f"wrote {args.out_file}  n={data.n}  dim={data.dim}")
    return 0


def _exit_code_for(err: Exception) -> int:
    if isinstance(err, ConfigError):
        return 2
    if isinstance(err, DataError):
        return 3
    if isinstance(err, NumericalError):
        return 4
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "reference": _cmd_reference, "gen-synthetic": _cmd_gen}
    try:
        return handlers[args.command](args)
    except (ConfigError, DataError, NumericalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
