"""Command-line front end: training, prediction, sweeps, baselines, export.

Every subcommand prints one summary line per run plus a ``wrote <path>``
line for each artifact it leaves under the output directory. Exit codes:
0 on success, 1 when training diverges, 2 for usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import benchmarks, experiments
from .data import NORMALIZER_KINDS, dataset_from_rows, load_csv, make_dataset, save_snapshot, write_csv
from .gan import (
    MODES,
    TrainingConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)

ENV_SEED = "MDFGAN_SEED"


class UsageError(Exception):
    """Bad flag combination, unreadable input, or invalid configuration."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_config_file(path: Path) -> dict:
    """Key=value lines; blank lines and #-comments are ignored."""
    doc = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        doc[key] = value
    return doc


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _config_value_parser(default):
    """Text-to-value parser for a config field, chosen by its default: tuples
    take comma-separated items, booleans one of the words in ``_BOOLEANS``."""
    if isinstance(default, bool):
        return lambda text: _BOOLEANS[text.lower()]
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda text: tuple(item(part.strip()) for part in text.split(","))
    return type(default)


def _base_seed(args, fallback: int = 0) -> int:
    """The base seed: --seed, then $MDFGAN_SEED, then ``fallback``."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if not env:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"${ENV_SEED} must be an integer, got {env!r}") from None


def resolve_config(args, defaults: TrainingConfig) -> TrainingConfig:
    """Layer the configuration: defaults, then config file, then flags."""
    doc = defaults.to_dict()
    if getattr(args, "config", None):
        parsers = {f.name: _config_value_parser(f.default) for f in fields(TrainingConfig)}
        for key, value in _parse_config_file(Path(args.config)).items():
            if key not in parsers:
                raise UsageError(f"unknown config key {key!r}")
            try:
                doc[key] = parsers[key](value)
            except (KeyError, ValueError):
                raise UsageError(f"bad value for config key {key!r}: {value!r}") from None
    for f in fields(TrainingConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            doc[f.name] = value
    if getattr(args, "hidden", None):
        doc["hidden_sizes"] = tuple(_int_list(args.hidden))
    if getattr(args, "activations", None):
        doc["hidden_activations"] = tuple(s.strip() for s in args.activations.split(","))
    if getattr(args, "no_supervised", False):
        doc["supervised_trick"] = False
    doc["seed"] = _base_seed(args, doc["seed"])
    try:
        return TrainingConfig.from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", None) or "mdfgan-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _announce(path: Path) -> None:
    print(f"wrote {path}")


def _require_benchmark(args) -> benchmarks.BenchmarkPair:
    if not getattr(args, "benchmark", None):
        raise UsageError("this subcommand needs --benchmark")
    try:
        return benchmarks.get(args.benchmark)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_dataset(args, pair, config):
    """Benchmark XOR csv pair; returns (dataset, description)."""
    use_csv = bool(getattr(args, "csv_lf", None) or getattr(args, "csv_hf", None))
    if use_csv and getattr(args, "benchmark", None):
        raise UsageError("give either --benchmark or a --csv-lf/--csv-hf pair, not both")
    if use_csv:
        if not (args.csv_lf and args.csv_hf):
            raise UsageError("csv input needs both --csv-lf and --csv-hf")
        if args.d1 is None:
            raise UsageError("csv input needs --d1 (and --d2 when responses are not scalar)")
        for flag, value in (("--d1", args.d1), ("--d2", args.d2), ("--il", args.il), ("--ih", args.ih)):
            if value is not None and value < 1:
                raise UsageError(f"{flag} must be at least 1, got {value}")
        try:
            lf = load_csv(args.csv_lf, args.d1, args.d2)
            hf = load_csv(args.csv_hf, args.d1, args.d2)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
        dataset = dataset_from_rows(lf, hf, args.il, args.ih, seed=config.seed)
        return dataset, f"csv {args.csv_lf}+{args.csv_hf}"
    n_lf = args.il if args.il is not None else 100 * pair.d1
    n_hf = args.ih if args.ih is not None else 5
    dataset = make_dataset(pair, n_lf, n_hf, config.seed, nested=getattr(args, "nested", False))
    return dataset, pair.name


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    pair = _require_benchmark(args) if args.benchmark else None
    if pair is None and not (args.csv_lf or args.csv_hf):
        raise UsageError("no data source: give --benchmark or --csv-lf/--csv-hf")
    defaults = pair.default_config if pair else TrainingConfig()
    config = resolve_config(args, defaults)
    dataset, source = _build_dataset(args, pair, config)
    out = _out_dir(args)
    model, trace = train(dataset, config)
    final = trace[-1].supervised if trace else float("nan")
    print(
        f"trained on {source}: I_L={dataset.n_lf} I_H={dataset.n_hf} "
        f"seed={config.seed} final supervised loss {final:.6g}"
    )
    _announce(save_checkpoint(model, config, out / "checkpoint.json"))
    _announce(write_loss_trace(trace, out / "loss_trace.csv"))
    if args.snapshot:
        for path in save_snapshot(dataset, out / "dataset", seed=config.seed).values():
            _announce(path)
    return 0


def cmd_predict(args) -> int:
    try:
        model, _config = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise UsageError(f"cannot read checkpoint: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad checkpoint: {exc}") from exc
    if bool(args.points) == bool(args.csv_in):
        raise UsageError("give exactly one of --points or --csv-in")
    if args.points:
        try:
            rows = [
                [float(v) for v in chunk.split(",")]
                for chunk in args.points.split(";")
                if chunk.strip()
            ]
        except ValueError:
            raise UsageError(f"cannot parse --points {args.points!r}") from None
        if not rows or any(len(row) != model.d1 for row in rows):
            raise UsageError(f"inputs must be rows of width {model.d1}")
        inputs = np.asarray(rows, dtype=float)
        if not np.isfinite(inputs).all():
            raise UsageError("inputs must be finite numbers")
    else:
        try:
            inputs, _ = load_csv(args.csv_in, model.d1, 0)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
        if len(inputs) == 0:
            raise UsageError(f"{args.csv_in} holds no input rows")
    outputs = model.predict(inputs)
    header = [f"x{i + 1}" for i in range(model.d1)] + [f"y{i + 1}" for i in range(model.d2)]
    path = write_csv(_out_dir(args) / "predictions.csv", header, np.hstack([inputs, outputs]).tolist())
    print(f"predicted {len(inputs)} point(s) with the {model.d1}->{model.d2} checkpoint")
    _announce(path)
    return 0


def _experiment_setup(args):
    """The benchmark, the configuration and the run options of an experiment subcommand."""
    pair = _require_benchmark(args)
    config = resolve_config(args, pair.default_config)
    return pair, config, {"test_size": args.test_points, "nested": args.nested, "n_jobs": args.jobs}


def _sweep(args, name: str, results) -> int:
    """Print one line per cell, then write ``<name>.csv`` and ``<name>_summary.json``."""
    for res in results:
        flag = " (partial)" if res.partial else ""
        print(
            f"{res.benchmark} I_L={res.n_lf} I_H={res.n_hf}: "
            f"mean NRMSE {res.mean_nrmse:.6g} over {len(res.records)} repeat(s){flag}"
        )
    out = _out_dir(args)
    _announce(experiments.write_results_csv(results, out / f"{name}.csv"))
    _announce(experiments.write_summary_json(results, out / f"{name}_summary.json"))
    return 0


def cmd_sweep_hf(args) -> int:
    pair, config, options = _experiment_setup(args)
    n_lf = args.il if args.il is not None else 100 * pair.d1
    results = experiments.run_hf_sweep(pair, n_lf, args.ih, config, args.repeats, **options)
    return _sweep(args, "sweep_hf", results)


def cmd_sweep_lf(args) -> int:
    pair, config, options = _experiment_setup(args)
    n_hf = args.ih if args.ih is not None else 5
    results = experiments.run_lf_sweep(pair, args.il, n_hf, config, args.repeats, **options)
    return _sweep(args, "sweep_lf", results)


def cmd_baselines(args) -> int:
    pair, config, options = _experiment_setup(args)
    n_lf = args.il if args.il is not None else 100 * pair.d1
    n_hf = args.ih if args.ih is not None else 5
    comparison = experiments.run_baselines(pair, n_lf, n_hf, config, args.repeats, **options)
    print(
        f"{pair.name} I_L={n_lf} I_H={n_hf}: mean NRMSE "
        f"full={comparison.gan.mean_nrmse:.6g} "
        f"no-supervised={comparison.pgan.mean_nrmse:.6g} "
        f"hf-only={comparison.hf_only.mean_nrmse:.6g}"
    )
    out = _out_dir(args)
    for tag, result in (("gan", comparison.gan), ("pgan", comparison.pgan), ("hf_only", comparison.hf_only)):
        _announce(experiments.write_results_csv([result], out / f"baselines_{tag}.csv"))
    summary = out / "baselines_summary.json"
    summary.write_text(json.dumps(comparison.to_dict(), indent=2) + "\n", encoding="utf-8")
    _announce(summary)
    return 0


def cmd_scatter(args) -> int:
    pair = _require_benchmark(args)
    points = experiments.emit_correlation_scatter(pair, args.points, _base_seed(args))
    print(f"{pair.name}: {len(points)} scatter point(s)")
    out = _out_dir(args)
    _announce(experiments.write_scatter_csv(points, out / "scatter.csv"))
    return 0


def cmd_list_benchmarks(args) -> int:
    for pair in benchmarks.registry():
        print(f"{pair.name}: {pair.d1} -> {pair.d2}")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="key=value configuration file; flags take precedence")
    sub.add_argument("--lr-lf", dest="lr_lf", type=float)
    sub.add_argument("--lr-disc", dest="lr_disc", type=float)
    sub.add_argument("--lr-gen", dest="lr_gen", type=float)
    sub.add_argument("--lr-sup", dest="lr_sup", type=float)
    sub.add_argument("--epochs-lf", dest="epochs_lf", type=int)
    sub.add_argument("--epochs-hf", dest="epochs_hf", type=int)
    sub.add_argument("--hidden", help="hidden layer widths, e.g. 32,32")
    sub.add_argument("--activations", help="hidden activation kinds, e.g. sigmoid,leaky_relu")
    sub.add_argument("--leaky-alpha", dest="leaky_alpha", type=float)
    sub.add_argument("--normalizer", choices=NORMALIZER_KINDS)
    sub.add_argument("--mode", choices=MODES)
    sub.add_argument("--no-supervised", dest="no_supervised", action="store_true",
                     help="drop the supervised refinement steps (pure adversarial)")
    sub.add_argument("--seed", type=int, help=f"base seed (default: ${ENV_SEED} or 0)")
    sub.add_argument("--out", help="output directory (default: mdfgan-out)")


def _add_source_flags(sub, csv_ok: bool = True) -> None:
    sub.add_argument("--benchmark", help="registered benchmark pair name")
    if csv_ok:
        sub.add_argument("--csv-lf", dest="csv_lf", help="low-fidelity samples: d1+d2 columns")
        sub.add_argument("--csv-hf", dest="csv_hf", help="high-fidelity samples: d1+d2 columns")
        sub.add_argument("--d1", type=int, help="input width of csv rows")
        sub.add_argument("--d2", type=int, default=1, help="response width of csv rows")
    sub.add_argument("--nested", action="store_true",
                     help="draw high-fidelity inputs as a subset of the low-fidelity ones")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdfgan",
        description="Fuse many cheap low-fidelity samples with a few "
        "high-fidelity ones into a high-fidelity surrogate.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("train", help="train one model and save a checkpoint")
    _add_source_flags(sub)
    _add_config_flags(sub)
    sub.add_argument("--il", type=int, help="low-fidelity sample count")
    sub.add_argument("--ih", type=int, help="high-fidelity sample count")
    sub.add_argument("--snapshot", action="store_true", help="also save the drawn dataset")
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("predict", help="evaluate a saved checkpoint at new inputs")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--points", help="semicolon-separated rows of comma-separated inputs")
    sub.add_argument("--csv-in", dest="csv_in", help="file with d1 input columns per row")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_predict)

    experiment_subcommands = (
        ("sweep-hf", "vary the high-fidelity budget", cmd_sweep_hf,
         {"type": int, "help": "fixed low-fidelity count (default 100*d1)"},
         {"type": _int_list, "required": True, "help": "comma list, e.g. 5,4,3,2"}),
        ("sweep-lf", "vary the low-fidelity budget", cmd_sweep_lf,
         {"type": _int_list, "help": "comma list (default 100d..20d)"},
         {"type": int, "help": "fixed high-fidelity count (default 5)"}),
        ("baselines", "compare against the two ablation baselines", cmd_baselines,
         {"type": int}, {"type": int}),
    )
    for name, help_text, func, il_flag, ih_flag in experiment_subcommands:
        sub = subs.add_parser(name, help=help_text)
        _add_source_flags(sub, csv_ok=False)
        _add_config_flags(sub)
        sub.add_argument("--il", **il_flag)
        sub.add_argument("--ih", **ih_flag)
        sub.add_argument("--repeats", type=int, default=10)
        sub.add_argument("--jobs", type=int, default=1)
        sub.add_argument("--test-points", dest="test_points", type=int, default=experiments.DEFAULT_TEST_SIZE)
        sub.set_defaults(func=func)

    sub = subs.add_parser("scatter", help="export paired low/high-fidelity responses")
    sub.add_argument("--benchmark", required=True)
    sub.add_argument("--points", type=int, default=1000)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_scatter)

    sub = subs.add_parser("list-benchmarks", help="print registered pairs and dimensions")
    sub.set_defaults(func=cmd_list_benchmarks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
