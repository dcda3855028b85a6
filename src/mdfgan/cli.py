"""Command-line front end: training, prediction, sweeps, baselines, export.

Every subcommand prints one summary line per run plus a ``wrote <path>``
line for each artifact it leaves under the output directory, which it makes
once its work is done. ``main`` alone maps a failure to an exit code, by its
class: 1 for a divergence; 2 for a ValueError or OSError, that is bad input or
a file that cannot be read or written; 3, with a traceback, for any other (a bug);
130 for an interrupt.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import benchmarks, experiments
from .data import (SNAPSHOT_FILES, dataset_from_rows, field_value, load_csv, make_dataset, read_text, save_snapshot,
                   write_csv, write_json)
from .gan import (
    ENV_SEED,
    TrainingConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)


def _parse_config_file(path: Path) -> dict:
    """Key=value lines; blank lines and #-comments are ignored."""
    doc = {}
    for lineno, line in enumerate(read_text(path, "config file").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        doc[key] = value
    return doc


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


# the list parsers of config values and their flags, named for argparse's error message
def name_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",")]


def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _config_value_parser(default):
    """Text-to-value parser for a config field and its flag, chosen by its default:
    tuples take comma-separated items, booleans one of the words in ``_BOOLEANS``."""
    if isinstance(default, bool):  # config file only: a boolean's flag is a switch
        return lambda text: _BOOLEANS[text.lower()]
    if isinstance(default, tuple):
        return int_list if isinstance(default[0], int) else name_list
    return type(default)


def _config_flags():
    """(field, flag, dest) per TrainingConfig field with a flag: ``flag`` metadata, else --name-with-dashes."""
    for f in fields(TrainingConfig):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if flag:
            yield f, flag, flag[2:].replace("-", "_")


def _base_seed(args, fallback: int = 0) -> int:
    """The base seed: --seed, then $MDFGAN_SEED, then ``fallback``; a seed
    is held to the seed field's rule under the name it came from."""
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    else:
        env = os.environ.get(ENV_SEED)
        if not env:
            return fallback
        try:
            seed, source = int(env), f"${ENV_SEED}"
        except ValueError:
            raise ValueError(f"${ENV_SEED} must be an integer, got {env!r}") from None
    rule = TrainingConfig.__dataclass_fields__["seed"]
    return field_value(source, seed, rule.default, rule.metadata)


def resolve_config(args, defaults: TrainingConfig) -> TrainingConfig:
    """Layer the configuration: defaults, then config file, then flags."""
    doc = defaults.to_dict()
    if getattr(args, "config", None):
        parsers = {f.name: _config_value_parser(f.default) for f in fields(TrainingConfig)}
        for key, value in _parse_config_file(Path(args.config)).items():
            try:
                doc[key] = parsers[key](value) if key in parsers else value  # from_dict rejects the key
            except (KeyError, ValueError):
                raise ValueError(f"bad value for config key {key!r}: {value!r}") from None
    for f, _, dest in _config_flags():
        value = getattr(args, dest, None)
        if isinstance(f.default, bool):  # a switch: given, it sets the opposite of the default
            value = not f.default if value else None
        if value is not None:
            doc[f.name] = value
    doc["seed"] = _base_seed(args, doc["seed"])
    try:
        return TrainingConfig.from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"invalid configuration: {exc}") from exc


# the files each subcommand writes under --out, in the order that it writes them
ARTIFACTS = {
    "train": ("checkpoint.json", "loss_trace.csv"),
    "predict": ("predictions.csv",),
    "sweep-hf": ("sweep_hf.csv", "sweep_hf_summary.json"),
    "sweep-lf": ("sweep_lf.csv", "sweep_lf_summary.json"),
    "baselines": ("baselines_gan.csv", "baselines_pgan.csv", "baselines_hf_only.csv", "baselines_summary.json"),
    "scatter": ("scatter.csv",),
}
SNAPSHOT_DIR = "dataset"  # where train --snapshot writes its SNAPSHOT_FILES


def _out_path(args) -> Path:
    return Path(args.out or "mdfgan-out")


def _artifacts(args) -> list[Path]:
    """The paths of the files ``args.command`` writes: its ``ARTIFACTS`` under
    --out, then those of a --snapshot."""
    if args.command not in ARTIFACTS:
        return []
    out = _out_path(args)
    paths = [out / name for name in ARTIFACTS[args.command]]
    if getattr(args, "snapshot", False):
        paths += [out / SNAPSHOT_DIR / name for name in SNAPSHOT_FILES.values()]
    return paths


def _check_out(args) -> None:
    """Reject an artifact path that is a directory, or that lies under
    something other than a directory, before any work and without making
    anything."""
    for path in _artifacts(args):
        if os.path.isdir(path):
            raise ValueError(f"cannot write {str(path)!r}: it is a directory")
        first = next((p for p in path.parents if os.path.exists(p)), None)  # no OSError
        if first is not None and not os.path.isdir(first):
            raise ValueError(f"cannot make output directory {str(path.parent)!r}: {str(first)!r} is not a directory")


def _make_out(args) -> list[Path]:
    """Make --out, then return ``_artifacts(args)``."""
    out = _out_path(args)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file in the way
        raise ValueError(f"cannot make output directory {str(out)!r}: {exc.strerror}") from exc
    return _artifacts(args)


def _announce(path: Path) -> None:
    print(f"wrote {path}")


def _require_benchmark(args) -> benchmarks.BenchmarkPair:
    if not getattr(args, "benchmark", None):
        raise ValueError("this subcommand needs --benchmark")
    return benchmarks.get(args.benchmark)


def _check_counts(args) -> None:
    """Hold each count flag, and each item of a list flag, to the rule of a count, under the flag's own name."""
    for flag in ("--d1", "--d2", "--il", "--ih", "--repeats", "--jobs", "--test-points", "--points"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if isinstance(value, (int, list)):  # predict's --points is text, not a count
            field_value(flag, value, (1,) if isinstance(value, list) else 1, {"min": 1})


def _budget(args, pair) -> tuple:
    """(--il, --ih), each as given or else its default: I_L = 100 * d1, I_H = 5."""
    return (100 * pair.d1 if args.il is None else args.il, 5 if args.ih is None else args.ih)


def _train_source(args) -> benchmarks.BenchmarkPair | None:
    """The benchmark pair that train draws from, or None for a csv pair.
    A missing flag, or a flag of the other source, is rejected before any
    file is read."""
    if args.benchmark:
        if args.csv_lf or args.csv_hf:
            raise ValueError("give either --benchmark or a --csv-lf/--csv-hf pair, not both")
        for flag, value in (("--d1", args.d1), ("--d2", args.d2)):
            if value is not None:
                raise ValueError(f"{flag} is for csv input: a --benchmark pair has its own widths")
        return benchmarks.get(args.benchmark)
    if not (args.csv_lf or args.csv_hf):
        raise ValueError("no data source: give --benchmark or --csv-lf/--csv-hf")
    if not (args.csv_lf and args.csv_hf):
        raise ValueError("csv input needs both --csv-lf and --csv-hf")
    if args.d1 is None:
        raise ValueError("csv input needs --d1 (and --d2 when responses are not scalar)")
    if args.nested:
        raise ValueError("--nested is for --benchmark input: csv rows are used as given")
    return None


def _build_dataset(args, pair, config):
    """The dataset that train fits, drawn from ``pair`` or read from the csv
    pair when ``pair`` is None; returns (dataset, description)."""
    if pair is None:
        d2 = 1 if args.d2 is None else args.d2
        lf, hf = (load_csv(path, args.d1, d2) for path in (args.csv_lf, args.csv_hf))
        dataset = dataset_from_rows(lf, hf, args.il, args.ih, seed=config.seed)
        return dataset, f"csv {args.csv_lf}+{args.csv_hf}"
    n_lf, n_hf = _budget(args, pair)
    return make_dataset(pair, n_lf, n_hf, config.seed, nested=args.nested), pair.name


# -- subcommands -----------------------------------------------------------------


def cmd_train(args) -> int:
    pair = _train_source(args)
    config = resolve_config(args, pair.default_config if pair else TrainingConfig())
    dataset, source = _build_dataset(args, pair, config)
    model, trace = train(dataset, config)
    checkpoint, loss_trace, *_ = _make_out(args)
    final = trace[-1].supervised if trace else float("nan")
    print(
        f"trained on {source}: I_L={dataset.n_lf} I_H={dataset.n_hf} "
        f"seed={config.seed} final supervised loss {final:.6g}"
    )
    _announce(save_checkpoint(model, config, checkpoint))
    _announce(write_loss_trace(trace, loss_trace))
    if args.snapshot:
        bounds = pair.bounds if pair else None  # csv rows come with no box
        for path in save_snapshot(dataset, _out_path(args) / SNAPSHOT_DIR, seed=config.seed, bounds=bounds).values():
            _announce(path)
    return 0


def cmd_predict(args) -> int:
    try:
        model, _config = load_checkpoint(args.checkpoint)
    except ValueError as exc:
        raise ValueError(f"bad checkpoint: {exc}") from exc
    if bool(args.points) == bool(args.csv_in):
        raise ValueError("give exactly one of --points or --csv-in")
    if args.points:
        try:
            rows = [[float(v) for v in chunk.split(",")] for chunk in args.points.split(";")]
        except ValueError:
            raise ValueError(f"cannot parse --points {args.points!r}") from None
        if any(len(row) != model.d1 for row in rows):
            raise ValueError(f"inputs must be rows of width {model.d1}")
        for row, values in enumerate(rows):
            field_value(f"--points row {row}", values, (0.0,), {})
        inputs = np.asarray(rows, dtype=float)
    else:
        inputs, _ = load_csv(args.csv_in, model.d1, 0)
        if len(inputs) == 0:
            raise ValueError(f"{args.csv_in} holds no input rows")
    outputs = model.predict(inputs)
    header = [f"x{i + 1}" for i in range(model.d1)] + [f"y{i + 1}" for i in range(model.d2)]
    (path,) = _make_out(args)
    write_csv(path, header, np.hstack([inputs, outputs]).tolist())
    print(f"predicted {len(inputs)} point(s) with the {model.d1}->{model.d2} checkpoint")
    _announce(path)
    return 0


def _experiment_setup(args):
    """The benchmark, the configuration and the run options of an experiment subcommand."""
    pair = _require_benchmark(args)
    config = resolve_config(args, pair.default_config)
    return pair, config, {"test_size": args.test_points, "nested": args.nested, "n_jobs": args.jobs}


def _sweep(args, results) -> int:
    """Print one line per cell, then write the results CSV and the summary JSON."""
    for res in results:
        flag = " (partial)" if res.partial else ""
        print(
            f"{res.benchmark} I_L={res.n_lf} I_H={res.n_hf}: "
            f"mean NRMSE {res.mean_nrmse:.6g} over {len(res.records)} repeat(s){flag}"
        )
    csv_path, summary_path = _make_out(args)
    _announce(experiments.write_results_csv(results, csv_path))
    _announce(experiments.write_summary_json(results, summary_path))
    return 0


def cmd_sweep_hf(args) -> int:
    pair, config, options = _experiment_setup(args)
    n_lf, _ = _budget(args, pair)
    results = experiments.run_hf_sweep(pair, n_lf, args.ih, config, args.repeats, **options)
    return _sweep(args, results)


def cmd_sweep_lf(args) -> int:
    pair, config, options = _experiment_setup(args)
    _, n_hf = _budget(args, pair)
    results = experiments.run_lf_sweep(pair, args.il, n_hf, config, args.repeats, **options)
    return _sweep(args, results)


def cmd_baselines(args) -> int:
    pair, config, options = _experiment_setup(args)
    n_lf, n_hf = _budget(args, pair)
    comparison = experiments.run_baselines(pair, n_lf, n_hf, config, args.repeats, **options)
    print(
        f"{pair.name} I_L={n_lf} I_H={n_hf}: mean NRMSE "
        f"full={comparison.gan.mean_nrmse:.6g} "
        f"no-supervised={comparison.pgan.mean_nrmse:.6g} "
        f"hf-only={comparison.hf_only.mean_nrmse:.6g}"
    )
    *csv_paths, summary_path = _make_out(args)
    for path, result in zip(csv_paths, (comparison.gan, comparison.pgan, comparison.hf_only)):
        _announce(experiments.write_results_csv([result], path))
    _announce(write_json(summary_path, comparison.to_dict()))
    return 0


def cmd_scatter(args) -> int:
    pair = _require_benchmark(args)
    points = experiments.emit_correlation_scatter(pair, args.points, _base_seed(args))
    print(f"{pair.name}: {len(points)} scatter point(s)")
    (path,) = _make_out(args)
    _announce(experiments.write_scatter_csv(points, path))
    return 0


def cmd_list_benchmarks(args) -> int:
    for pair in benchmarks.registry():
        print(f"{pair.name}: {pair.d1} -> {pair.d2}")
    return 0


# -- parser ----------------------------------------------------------------------


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="key=value configuration file; flags take precedence")
    for f, flag, _ in _config_flags():
        if isinstance(f.default, bool):
            sub.add_argument(flag, action="store_true", help=f.metadata.get("help"))
        else:
            sub.add_argument(flag, type=_config_value_parser(f.default), choices=f.metadata.get("choices"),
                             help=f.metadata.get("help"))
    sub.add_argument("--out", help="output directory (default: mdfgan-out)")


def _add_source_flags(sub, csv_ok: bool = True) -> None:
    sub.add_argument("--benchmark", help="registered benchmark pair name")
    if csv_ok:
        sub.add_argument("--csv-lf", dest="csv_lf", help="low-fidelity samples: d1+d2 columns")
        sub.add_argument("--csv-hf", dest="csv_hf", help="high-fidelity samples: d1+d2 columns")
        sub.add_argument("--d1", type=int, help="input width of csv rows")
        sub.add_argument("--d2", type=int, help="response width of csv rows (default 1)")
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
         {"type": int_list, "required": True, "help": "comma list, e.g. 5,4,3,2"}),
        ("sweep-lf", "vary the low-fidelity budget", cmd_sweep_lf,
         {"type": int_list, "help": "comma list (default 100d..20d)"},
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
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        _check_out(args)
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in mdfgan, not in its input", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
