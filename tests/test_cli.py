import hashlib
import json
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mdfgan import cli, experiments, gan
from mdfgan.benchmarks import get
from mdfgan.data import SNAPSHOT_FILES
from mdfgan.gan import load_checkpoint
from test_experiments import overflowing_pretrain_lf

FAST = [
    "--epochs-lf", "30", "--epochs-hf", "5", "--hidden", "6",
    "--test-points", "20", "--repeats", "2",
]
FAST_TRAIN = ["--epochs-lf", "30", "--epochs-hf", "5", "--hidden", "6"]


def wrote_paths(capsys):
    out = capsys.readouterr().out
    return [line.split(" ", 1)[1] for line in out.splitlines() if line.startswith("wrote ")]


def strip_wall_column(path):
    lines = path.read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_list_benchmarks(capsys):
    assert cli.main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out
    assert "forrester1d: 1 -> 1" in out
    assert "borehole8d: 8 -> 1" in out


def test_train_on_benchmark_writes_artifacts(tmp_path, capsys):
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "20", "--ih", "3",
         "--seed", "1", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0
    paths = wrote_paths(capsys)
    assert len(paths) == 2
    from pathlib import Path
    assert all(Path(p).exists() for p in paths)
    model, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert cfg.seed == 1 and cfg.epochs_lf == 30
    assert (tmp_path / "loss_trace.csv").read_text().startswith("iteration,")


def test_train_snapshot_flag(tmp_path, capsys):
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--snapshot", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0
    assert (tmp_path / "dataset" / "lf.csv").exists()
    assert (tmp_path / "dataset" / "dataset.json").exists()


def test_a_benchmark_snapshot_sidecar_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    """The sidecar of a borehole8d snapshot, whose box is not the unit box,
    pinned by the digest recorded while the box was a field of the dataset:
    handing it to save_snapshot instead changed no byte."""
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    rc = cli.main(
        ["train", "--benchmark", "borehole8d", "--il", "40", "--ih", "4",
         "--snapshot", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0, capsys.readouterr().err
    sidecar = (tmp_path / "dataset" / "dataset.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == "491912f49c1ff10b27efade4dc5c76c434ccab434d28df86c76e6baffce5b2da"
    assert json.loads(sidecar)["bounds"] == get("borehole8d").bounds.tolist()


def test_train_on_csv_pair(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lf = tmp_path / "lf.csv"
    hf = tmp_path / "hf.csv"
    x = rng.uniform(size=20)
    lf.write_text("".join(f"{v},{np.sin(v)}\n" for v in x))
    hf.write_text("".join(f"{v},{np.sin(v) * 2}\n" for v in x[:4]))
    rc = cli.main(
        ["train", "--csv-lf", str(lf), "--csv-hf", str(hf), "--d1", "1",
         "--out", str(tmp_path / "out"), *FAST_TRAIN]
    )
    assert rc == 0
    assert (tmp_path / "out" / "checkpoint.json").exists()


def test_train_missing_csv_is_a_usage_error(tmp_path, capsys):
    rc = cli.main(
        ["train", "--csv-lf", "missing.csv", "--csv-hf", "missing.csv",
         "--d1", "1", "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "missing.csv" in capsys.readouterr().err


def test_train_requires_exactly_one_source(tmp_path, capsys):
    assert cli.main(["train", "--out", str(tmp_path)]) == 2
    assert "data source" in capsys.readouterr().err
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--csv-lf", "x.csv",
         "--csv-hf", "y.csv", "--d1", "1", "--out", str(tmp_path)]
    )
    assert rc == 2


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--csv-lf", "lf.csv", "--csv-hf", "hf.csv", "--d1", "1", "--nested"],
         "--nested is for --benchmark input: csv rows are used as given"),
        (["--benchmark", "forrester1d", "--d1", "5"], "--d1 is for csv input: a --benchmark pair has its own widths"),
        (["--benchmark", "forrester1d", "--d2", "3"], "--d2 is for csv input: a --benchmark pair has its own widths"),
    ],
    ids=["csv-nested", "benchmark-d1", "benchmark-d2"],
)
def test_train_rejects_a_flag_of_the_other_source(tmp_path, capsys, monkeypatch, flags, message):
    """Each flag used to be ignored: the csv rows trained as given, or the
    1 -> 1 benchmark pair trained, and train exited 0. It is rejected before
    any file is read: the config file named here does not exist."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the source flags were checked")

    monkeypatch.setattr(cli, "train", no_training)
    out = tmp_path / "out"
    rc = cli.main(["train", *flags, "--config", str(tmp_path / "missing.cfg"), "--out", str(out), *FAST_TRAIN])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unknown_benchmark(tmp_path, capsys):
    rc = cli.main(["train", "--benchmark", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown benchmark" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_exits_one(tmp_path, capsys):
    lf = tmp_path / "lf.csv"
    hf = tmp_path / "hf.csv"
    lf.write_text("".join(f"0.{i},1e200\n" for i in range(1, 9)))
    hf.write_text("0.25,1e200\n0.75,1e200\n")
    rc = cli.main(
        ["train", "--csv-lf", str(lf), "--csv-hf", str(hf), "--d1", "1",
         "--normalizer", "none", "--out", str(tmp_path / "out"), *FAST_TRAIN]
    )
    assert rc == 1
    assert "diverged" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_diverged_train_leaves_no_output_directory(tmp_path, capsys):
    """The output directory used to be made before training, and a run that
    diverged left it behind empty."""
    out = tmp_path / "o1"
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--lr-lf", "1e300",
         "--epochs-lf", "5", "--epochs-hf", "2", "--out", str(out)]
    )
    assert rc == 1
    assert "diverged" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "predict", "sweep-hf", "scatter"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, command, below):
    """An --out naming a file, or a path under one, used to escape as a
    FileExistsError or NotADirectoryError traceback with exit 1, the
    divergence code."""
    if command == "predict":
        assert cli.main(
            ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--out", str(tmp_path), *FAST_TRAIN]
        ) == 0
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / below if below else afile
    args = {
        "train": ["--benchmark", "forrester1d", "--il", "10", "--ih", "2", *FAST_TRAIN],
        "predict": ["--checkpoint", str(tmp_path / "checkpoint.json"), "--points", "0.5"],
        "sweep-hf": ["--benchmark", "forrester1d", "--il", "10", "--ih", "2", *FAST],
        "scatter": ["--benchmark", "forrester1d", "--points", "5"],
    }[command]
    capsys.readouterr()
    assert cli.main([command, *args, "--out", str(out)]) == 2
    assert f"error: cannot make output directory {str(out)!r}: " in capsys.readouterr().err
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_train_rejects_an_out_under_a_file_before_training(tmp_path, capsys, monkeypatch, below):
    """train made --out only after training, so an --out naming a file, or
    a path under one, cost the whole training before exit 2."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started before --out was checked")

    monkeypatch.setattr(cli, "train", no_training)
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / below if below else afile
    assert cli.main(["train", "--benchmark", "forrester1d", "--il", "100", "--ih", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot make output directory {str(out)!r}: {str(afile)!r} is not a directory\n"
    )


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_preactivation_exits_one(tmp_path, capsys):
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--lr-lf", "1e308", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 1
    assert "non-finite input" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_non_finite_lf_feature_exits_one(monkeypatch, tmp_path, capsys):
    """The frozen LF block's forward pass on the HF inputs is part of the
    adversarial phase: a non-finite value there is a divergence, not bad input."""
    monkeypatch.setattr(gan, "pretrain_lf", overflowing_pretrain_lf(gan.pretrain_lf))
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "training diverged: adversarial training diverged in the low-fidelity feature stage"
    )


def test_train_rejects_non_finite_csv_responses(tmp_path, capsys):
    lf = tmp_path / "lf.csv"
    hf = tmp_path / "hf.csv"
    lf.write_text("".join(f"0.{i},{i}\n" for i in range(1, 9)))
    hf.write_text("0.15,1.0\n0.2,nan\n")
    rc = cli.main(
        ["train", "--csv-lf", str(lf), "--csv-hf", str(hf), "--d1", "1",
         "--out", str(tmp_path / "out"), *FAST_TRAIN]
    )
    assert rc == 2
    assert "hf.csv:2: non-finite" in capsys.readouterr().err


def test_non_finite_learning_rate_is_a_usage_error(tmp_path, capsys):
    """A nan rate used to train and then exit 1 as a divergence."""
    out = tmp_path / "out"
    rc = cli.main(["train", "--benchmark", "forrester1d", "--lr-sup", "nan", "--out", str(out), *FAST_TRAIN])
    assert rc == 2
    assert "lr_sup must be finite" in capsys.readouterr().err
    assert not out.exists()  # rejected before any training


@pytest.mark.parametrize(
    "flags",
    [
        ["--d1", "1", "--il", "-1"], ["--d1", "1", "--ih", "0"], ["--d1", "1", "--d2", "0"], ["--d1", "0"],
        ["train", "--benchmark", "forrester1d", "--il", "-1"],
        ["train", "--benchmark", "forrester1d", "--ih", "0"],
        ["sweep-hf", "--benchmark", "forrester1d", "--ih", "0"],
        ["sweep-lf", "--benchmark", "forrester1d", "--il", "0"],
        ["baselines", "--benchmark", "forrester1d", "--repeats", "0"],
        ["sweep-hf", "--benchmark", "forrester1d", "--ih", "3", "--jobs", "0"],
        ["sweep-lf", "--benchmark", "forrester1d", "--test-points", "0"],
        ["scatter", "--benchmark", "forrester1d", "--points", "0"],
    ],
)
def test_csv_counts_and_widths_below_one_name_the_flag(tmp_path, capsys, monkeypatch, flags):
    """Every count flag, on the CSV source (the first four cases, which
    name no subcommand) and on every benchmark subcommand, is rejected under
    its own name before any training."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the count flags were checked")

    for module in (gan, experiments):
        monkeypatch.setattr(module, "pretrain_lf", no_training)
    monkeypatch.setattr(experiments, "train_hf_only", no_training)
    for tag in ("lf", "hf"):
        (tmp_path / f"{tag}.csv").write_text("0.25,1.0\n0.75,2.0\n")
    command = flags if not flags[0].startswith("--") else [
        "train", "--csv-lf", str(tmp_path / "lf.csv"), "--csv-hf", str(tmp_path / "hf.csv"), *flags
    ]
    rc = cli.main([*command, "--out", str(tmp_path / "out")])
    assert rc == 2
    comma_lists = {("sweep-hf", "--ih"), ("sweep-lf", "--il")}  # a bad item is named by its index
    name, at = (f"{flags[-2]} item", " at index 0") if (command[0], flags[-2]) in comma_lists else (flags[-2], "")
    assert capsys.readouterr().err == f"error: {name} must be finite and at least 1, got {flags[-1]}{at}\n"


@pytest.mark.parametrize(
    "command",
    [["train"], ["sweep-hf", "--ih", "3", "--repeats", "2", "--test-points", "10"]],
    ids=["train", "sweep-hf"],
)
def test_an_infinite_leaky_relu_slope_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    """An inf slope used to pass the check: train pretrained and exited 1,
    and sweep-hf exited 0 with every repeat NaN. The field rule now holds
    every float to be finite, before leaky_relu sees the slope."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the slope was checked")

    for module in (gan, experiments):
        monkeypatch.setattr(module, "pretrain_lf", no_training)
    rc = cli.main(
        [*command, "--benchmark", "forrester1d", "--il", "20", "--activations", "leaky_relu",
         "--leaky-alpha", "inf", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 2
    assert "leaky_alpha must be finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--activations", "softplus"], "unknown activation kind 'softplus'"),
        (["--activations", "leaky_relu", "--leaky-alpha", "-1"], "leaky_alpha must be above 0, got -1.0"),
        (["--seed", "-1"], "--seed must be finite and at least 0, got -1"),
        (["--leaky-alpha", "nan"], "leaky_alpha must be finite, got nan"),
        (["--leaky-alpha", "0"], "error: invalid configuration: leaky_alpha must be above 0, got 0.0\n"),
    ],
    ids=["activation-kind", "leaky-slope", "seed", "unused-leaky-slope", "zero-leaky-slope"],
)
def test_a_bad_config_value_fails_before_any_data_or_directory(tmp_path, capsys, monkeypatch, flags, message):
    """Each used to draw the dataset and create the output directory (the
    activations), hit numpy's own message (the seed), or train to the end
    and then fail to write the NaN slope into the checkpoint (a slope no
    layer uses) before exiting 2. A zero slope was refused in words that
    named neither the field nor its flag."""
    def no_dataset(*args, **kwargs):
        raise AssertionError("the dataset was drawn before the configuration was checked")

    monkeypatch.setattr(cli, "make_dataset", no_dataset)
    out = tmp_path / "out"
    rc = cli.main(["train", "--benchmark", "forrester1d", *flags, "--out", str(out), *FAST_TRAIN])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_on_a_constant_input_column_past_2_52(tmp_path, capsys):
    """The input box of csv rows used to be their hull, widened where flat:
    x +- 0.5 rounds back to 1e16, so that needed an ulp step. Csv rows now
    come with no box, and the sidecar records none."""
    for tag in ("lf", "hf"):
        (tmp_path / f"{tag}.csv").write_text("1e16,0.0\n1e16,0.5\n")
    rc = cli.main(
        ["train", "--csv-lf", str(tmp_path / "lf.csv"), "--csv-hf", str(tmp_path / "hf.csv"), "--d1", "1",
         "--snapshot", "--out", str(tmp_path / "out"), *FAST_TRAIN]
    )
    assert rc == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "dataset" / "dataset.json").read_text())["bounds"] is None


@pytest.mark.parametrize(
    "doc",
    [[1, 2], {"format_version": 1, "model": [1]}, {"format_version": 1, "config": [1]}],
)
def test_predict_rejects_malformed_checkpoints(tmp_path, capsys, doc):
    if "config" in doc:  # a real model under a config that is not an object
        assert cli.main(
            ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
             "--out", str(tmp_path), *FAST_TRAIN]
        ) == 0
        doc = {**json.loads((tmp_path / "checkpoint.json").read_text()), **doc}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.5", "--out", str(tmp_path)]) == 2
    assert "bad checkpoint" in capsys.readouterr().err



def test_predict_rejects_a_format_1_checkpoint(tmp_path, capsys):
    """Format 1 repeated each network's architecture beside the config and
    the seed beside it; there is no reader for it, so it must be re-trained."""
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    doc = json.loads((tmp_path / "checkpoint.json").read_text())
    doc.update(format_version=1, seed=doc["config"]["seed"])
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.5", "--out", str(tmp_path)]) == 2
    assert "bad checkpoint: unsupported checkpoint format version 1" in capsys.readouterr().err


def test_predict_rejects_a_checkpoint_whose_config_changed_the_architecture(tmp_path, capsys):
    """The config is the one definition of the networks' layers: edited
    hidden sizes no longer fit the saved parameter vectors."""
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    path = tmp_path / "checkpoint.json"
    doc = json.loads(path.read_text())
    doc["config"]["hidden_sizes"] = [8]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad checkpoint: lf_block: expected 25 params for layer_sizes [1, 8, 1]\n"
    )

@pytest.mark.parametrize(
    "edit, message",
    [
        ({"params": None}, "lf_block: params item must be of type float, got None at index 0"),
        ({"d2": 10**12}, "lf_block: expected 7000000000012 params for layer_sizes [1, 6, 1000000000000]"),
    ],
    ids=["null-params", "huge-d2"],
)
def test_predict_rejects_checkpoint_params_before_building(tmp_path, capsys, edit, message):
    """Null params used to load as NaN, and predict then blamed the input
    row; a huge d2 escaped as a MemoryError traceback. Both are bad
    checkpoints, found before any network is allocated (numpy refuses the
    56 TB of this d2 at once, so the old path allocated nothing either)."""
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    path = tmp_path / "checkpoint.json"
    doc = json.loads(path.read_text())
    if "params" in edit:
        lf = doc["model"]["lf_block"]
        lf["params"] = [edit["params"]] * len(lf["params"])
    else:
        doc["model"].update(edit)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: bad checkpoint: {message}\n"


@pytest.fixture(scope="module")
def leaky_checkpoint(tmp_path_factory):
    """The document of a trained forrester1d checkpoint with leaky_relu layers."""
    out = tmp_path_factory.mktemp("leaky")
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--activations", "leaky_relu",
         "--out", str(out), *FAST_TRAIN]
    ) == 0
    return json.loads((out / "checkpoint.json").read_text())


DROP = object()  # an edit that deletes the key


def predict_edited(tmp_path, doc, where, key, value):
    """predict's exit code on ``doc`` with ``doc[*where][key]`` set to ``value``, or dropped."""
    doc = json.loads(json.dumps(doc))
    part = doc
    for name in where:
        part = part[name]
    if value is DROP:
        del part[key]
    else:
        part[key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return cli.main(["predict", "--checkpoint", str(path), "--points", "0.1", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hidden_activations", DROP, "missing config key 'hidden_activations'"),
        ("leaky_alpha", DROP, "missing config key 'leaky_alpha'"),
        ("extra", 1, "unknown config key 'extra'"),
        ("epochs_lf", 1.5, "epochs_lf must be of type int, got 1.5"),
        ("hidden_sizes", [6.7], "hidden_sizes item must be of type int, got 6.7 at index 0"),
        ("supervised_trick", "no", "supervised_trick must be of type bool, got 'no'"),
        ("seed", "a", "seed must be of type int, got 'a'"),
        ("leaky_alpha", 10**400, "leaky_alpha must be finite, got an int of 1329 bits"),
    ],
    ids=["no-activations", "no-slope", "extra-key", "float-epochs", "float-width", "str-bool", "str-seed", "huge-slope"],
)
def test_predict_reads_a_checkpoint_config_under_the_field_rule(tmp_path, capsys, leaky_checkpoint, key, value, message):
    """A dropped hidden_activations rebuilt sigmoid layers in place of the
    trained leaky_relu ones and predicted with exit 0, as did a float or
    str value of the wrong type; a str seed and an extra key gave Python's
    error text, and a huge int slope escaped as an OverflowError."""
    capsys.readouterr()
    assert predict_edited(tmp_path, leaky_checkpoint, ["config"], key, value) == 2
    assert capsys.readouterr().err == f"error: bad checkpoint: {message}\n"


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        (["model"], "d1", DROP, "missing model key 'd1'"),
        (["model"], "d1", True, "d1 must be of type int, got True"),
        (["model"], "d1", "1", "d1 must be of type int, got '1'"),
        (["model"], "d2", 0, "d2 must be finite and at least 1, got 0"),
        (["model", "lf_block"], "frozen", DROP, "missing lf_block key 'frozen'"),
        (["model", "hf_block"], "frozen", "no", "hf_block: frozen must be of type bool, got 'no'"),
        (["model", "normalizers"], "inputs", DROP, "missing normalizers key 'inputs'"),
        (["model", "normalizers"], "inputs", {"kind": "standard", "scale": [1.0]},
         "missing inputs normalizer key 'shift'"),
    ],
    ids=["no-d1", "bool-d1", "str-d1", "zero-d2", "no-frozen", "str-frozen", "no-normalizer", "no-shift"],
)
def test_predict_reads_the_checkpoint_model_under_its_key_and_type_rule(
    tmp_path, capsys, leaky_checkpoint, where, key, value, message
):
    """A missing key read as its bare name, such as 'frozen'; a bool d1
    loaded and predicted, a str d1 gave Python's error text, and the
    string "no" loaded as frozen."""
    capsys.readouterr()
    assert predict_edited(tmp_path, leaky_checkpoint, where, key, value) == 2
    assert capsys.readouterr().err == f"error: bad checkpoint: {message}\n"


def test_predict_rejects_a_deeply_nested_checkpoint(tmp_path, capsys):
    """100,000 nested lists escaped the JSON reader as a RecursionError
    traceback with exit 1, the divergence code."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: bad checkpoint: checkpoint nests too deeply to be read\n"


@pytest.mark.parametrize(
    "key, value, text",
    [("epochs_lf", -1, "-1"), ("epochs_lf", 1.5, "1.5"), ("hidden_sizes", [0], "0"),
     ("hidden_sizes", [4.7], "4.7"), ("lr_sup", float("inf"), "inf"), ("lf_batch_cap", 0, "0")],
)
def test_every_config_reader_rejects_a_value_under_its_key(
    tmp_path, capsys, monkeypatch, leaky_checkpoint, key, value, text
):
    """The Python API, a checkpoint, a config file and a flag reject the
    same value, and each message names the key or its flag."""
    monkeypatch.setattr(cli, "make_dataset", lambda *args, **kwargs: pytest.fail("the dataset was drawn"))
    with pytest.raises(ValueError, match=f"^{key}"):
        gan.TrainingConfig(**{key: value})
    capsys.readouterr()
    assert predict_edited(tmp_path, leaky_checkpoint, ["config"], key, value) == 2
    assert f"error: bad checkpoint: {key}" in capsys.readouterr().err
    out = tmp_path / "out"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    assert cli.main(["train", "--benchmark", "forrester1d", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    flags = {f.name: flag for f, flag, _ in cli._config_flags()}
    if key in flags:
        assert exit_code(["train", "--benchmark", "forrester1d", f"{flags[key]}={text}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err or flags[key] in err
    assert not out.exists()


@pytest.mark.parametrize("part, width", [("inputs", 1), ("lf_outputs", 2), ("hf_outputs", 2)])
def test_predict_rejects_normalizers_of_the_wrong_width(tmp_path, capsys, part, width):
    """A currin2d model (d1=2, d2=1) whose saved normalizer has the wrong
    number of columns would broadcast silently; it is a bad checkpoint."""
    assert cli.main(
        ["train", "--benchmark", "currin2d", "--il", "10", "--ih", "2", "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    path = tmp_path / "checkpoint.json"
    doc = json.loads(path.read_text())
    norm = doc["model"]["normalizers"][part]
    norm["shift"], norm["scale"] = [0.5] * width, [2.0] * width
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.5,0.5", "--out", str(tmp_path)]) == 2
    assert f"{part} normalizer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "part, value, message",
    [
        ("hf_outputs", {"scale": [None]}, "hf_outputs normalizer scale item must be of type float, got None at index 0"),
        ("hf_outputs", {"scale": [0.0]}, "hf_outputs normalizer scale must be nonzero, got 0 at index 0"),
        ("inputs", {"scale": [0.0]}, "inputs normalizer scale must be nonzero, got 0 at index 0"),
        ("inputs", {"shift": [True]}, "inputs normalizer shift item must be of type float, got True at index 0"),
        ("inputs", {"shift": [10**400]},
         "inputs normalizer shift item must be finite, got an int of 1329 bits at index 0"),
        ("lf_outputs", {"scale": [0.0]}, "lf_outputs normalizer scale must be nonzero, got 0 at index 0"),
        ("lf_outputs", {"shift": "0.5"}, "lf_outputs normalizer shift must be a sequence of items, not the string '0.5'"),
    ],
    ids=["null-hf-scale", "zero-hf-scale", "zero-input-scale", "bool-shift", "huge-shift", "zero-lf-scale",
         "str-shift"],
)
def test_predict_reads_checkpoint_normalizers_under_their_rule(
    tmp_path, capsys, leaky_checkpoint, part, value, message
):
    """A null output scale predicted nan for every point and a zero one the
    shift, both with exit 0; a zero input scale printed numpy's divide-by-zero
    warning and blamed the input; true read as 1.0, and a 400-digit int
    escaped as an OverflowError. The LF-output normalizer, unused by
    predict, loaded whatever it held."""
    norm = {"kind": "minmax", "shift": [0.0], "scale": [1.0], **value}
    capsys.readouterr()
    assert predict_edited(tmp_path, leaky_checkpoint, ["model", "normalizers"], part, norm) == 2
    assert capsys.readouterr().err == f"error: bad checkpoint: {message}\n"


def test_predict_names_the_role_of_params_that_are_not_a_list(tmp_path, capsys, leaky_checkpoint):
    """A params object reached the user as numpy's TypeError text, caught
    with no role named."""
    capsys.readouterr()
    assert predict_edited(tmp_path, leaky_checkpoint, ["model", "lf_block"], "params", {"a": 1}) == 2
    assert capsys.readouterr().err == (
        "error: bad checkpoint: lf_block: params must be a non-empty list or tuple, got {'a': 1}\n"
    )


def test_predict_reads_a_checkpoint_with_a_byte_order_mark(tmp_path, capsys, leaky_checkpoint):
    """Config and CSV files dropped a leading BOM; a checkpoint failed on it."""
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(leaky_checkpoint).encode())
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.1", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("error", [gan.FrozenNetworkError("frozen twice"), TypeError("a bug")], ids=type)
def test_a_bug_exits_three_with_its_traceback(tmp_path, capsys, monkeypatch, error):
    """An exception of no input or divergence class escaped main, and the
    process exited 1, the divergence code."""
    def broken_train(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "train", broken_train)
    assert cli.main(["train", "--benchmark", "forrester1d", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"{type(error).__name__}: {error}\ninternal error: this is a bug in mdfgan, not in its input\n")


def test_an_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch):
    """A KeyboardInterrupt escaped main with its traceback. It now prints one
    line and exits 130, and, as --out is made after the work, leaves none."""
    def interrupted_train(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train", interrupted_train)
    assert cli.main(["train", "--benchmark", "forrester1d", "--out", str(tmp_path / "out")]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 21.8 TiB for an array with shape (3000000000001,) and data type float64"),
         "error: Unable to allocate 21.8 TiB for an array with shape (3000000000001,) and data type float64\n"),
        (MemoryError(), "error: MemoryError\n"),
    ],
    ids=["numpy", "bare"],
)
def test_a_request_too_large_for_memory_exits_two(tmp_path, capsys, monkeypatch, error, line):
    """``--hidden 1000000000000`` printed numpy's allocation traceback and
    exited 3 as a bug. The allocation is faked: a host that overcommits
    memory could grant the real one."""
    def oversized_train(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "train", oversized_train)
    assert cli.main(["train", "--benchmark", "forrester1d", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == line
    assert not (tmp_path / "out").exists()


def test_an_artifact_that_cannot_be_written_exits_two(tmp_path, capsys, monkeypatch):
    """A checkpoint path that is a directory cost the whole training, then
    exited 2 with an error that named the temporary file."""
    monkeypatch.setattr(gan, "pretrain_lf", lambda *args, **kwargs: pytest.fail("training started"))
    (tmp_path / "checkpoint.json").mkdir()
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot write {str(tmp_path / 'checkpoint.json')!r}: it is a directory\n"


ARTIFACT_CALLS = {
    "train": ["--benchmark", "forrester1d", "--snapshot"],
    "predict": ["--checkpoint", "absent.json", "--points", "0.5"],
    "sweep-hf": ["--benchmark", "forrester1d", "--ih", "2"],
    "sweep-lf": ["--benchmark", "forrester1d"],
    "baselines": ["--benchmark", "forrester1d"],
    "scatter": ["--benchmark", "forrester1d"],
}


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command in ARTIFACT_CALLS for name in cli.ARTIFACTS[command]]
    + [("train", f"{cli.SNAPSHOT_DIR}/{name}") for name in SNAPSHOT_FILES.values()],
)
def test_every_artifact_path_is_checked_before_any_work(tmp_path, capsys, monkeypatch, command, name):
    """Each file a subcommand writes, snapshot files included, is checked
    before the subcommand reads, draws or trains anything."""
    for module, attr in [(cli, "load_checkpoint"), (cli, "make_dataset"), (experiments, "_run_cells"),
                         (experiments, "emit_correlation_scatter")]:
        monkeypatch.setattr(module, attr, lambda *args, **kwargs: pytest.fail("work started"))
    (tmp_path / name).mkdir(parents=True)
    assert cli.main([command, *ARTIFACT_CALLS[command], "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {str(tmp_path / name)!r}: it is a directory\n"


def test_a_snapshot_directory_under_a_file_is_checked_before_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(gan, "pretrain_lf", lambda *args, **kwargs: pytest.fail("training started"))
    (tmp_path / cli.SNAPSHOT_DIR).write_text("keep\n")
    assert cli.main(["train", "--benchmark", "forrester1d", "--snapshot", "--out", str(tmp_path)]) == 2
    snapshot = str(tmp_path / cli.SNAPSHOT_DIR)
    assert capsys.readouterr().err == f"error: cannot make output directory {snapshot!r}: {snapshot!r} is not a directory\n"


@pytest.mark.parametrize(
    "flag, named",
    [("--config", "config file"), ("--csv-lf", "CSV file"), ("--csv-in", "CSV file"),
     ("--checkpoint", "bad checkpoint: checkpoint")],
)
def test_a_file_that_is_not_utf8_exits_two_and_names_it(tmp_path, capsys, leaky_checkpoint, flag, named):
    """Each reader printed the codec's text, which names no file."""
    bad = tmp_path / "bad"
    bad.write_bytes(b"0.25,1.0\n\xff\n")
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("0.25,1.0\n0.75,2.0\n")
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(leaky_checkpoint))
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "--config": ["train", "--benchmark", "forrester1d", "--config", str(bad), *out],
        "--csv-lf": ["train", "--csv-lf", str(bad), "--csv-hf", str(good_csv), "--d1", "1", *out],
        "--csv-in": ["predict", "--checkpoint", str(checkpoint), "--csv-in", str(bad), *out],
        "--checkpoint": ["predict", "--checkpoint", str(bad), "--points", "0.1", *out],
    }[flag]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {named} {str(bad)!r} is not UTF-8 text: line 2, byte 9 is invalid start byte\n"


@pytest.mark.parametrize(
    "kind, rows", [("standard", ["0.5,1.0", "9e303,9e304"]), ("minmax", ["-1e308,1.0", "1e308,2.0"])]
)
def test_a_normalizer_that_overflows_is_bad_input(tmp_path, capsys, kind, rows):
    """A standard normalizer of inputs near 1e304 printed numpy's overflow
    warning, trained with an infinite scale, then failed to write it into
    the checkpoint; a minmax one over [-1e308, 1e308] printed three warnings
    and reported a divergence (exit 1)."""
    csv_file = tmp_path / "big.csv"
    csv_file.write_text("".join(f"{row}\n" for row in [*rows, "0.25,1.5"]))
    out = tmp_path / "out"
    rc = cli.main(["train", "--csv-lf", str(csv_file), "--csv-hf", str(csv_file), "--d1", "1",
                   "--normalizer", kind, "--out", str(out), *FAST_TRAIN])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {kind} normalizer: column(s) [0] spread past the float range\n"
    assert not out.exists()


def test_a_diverging_run_prints_only_its_divergence_line(tmp_path, capsys):
    """numpy's overflow warning printed ahead of the divergence line, and
    under an error filter for warnings it escaped main instead."""
    csv_file = tmp_path / "big.csv"
    csv_file.write_text("".join(f"0.{i},{i}\n" for i in range(1, 9)) + "9e303,9e304\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = cli.main(["train", "--csv-lf", str(csv_file), "--csv-hf", str(csv_file), "--d1", "1",
                       "--out", str(tmp_path / "out"), *FAST_TRAIN])
    assert rc == 1
    assert [str(w.message) for w in seen] == []
    err = capsys.readouterr().err
    assert err.startswith("training diverged: ") and err.count("\n") == 1


def test_sweeps_validate_every_cell_before_training(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining started before the grid was checked")

    monkeypatch.setattr(experiments, "pretrain_lf", no_training)
    rc = cli.main(
        ["sweep-hf", "--benchmark", "forrester1d", "--il", "50", "--ih", "5,1",
         "--out", str(tmp_path), *FAST]
    )
    assert rc == 2
    assert "two high-fidelity samples" in capsys.readouterr().err
    rc = cli.main(
        ["sweep-lf", "--benchmark", "forrester1d", "--il", "50,3", "--ih", "5",
         "--out", str(tmp_path), *FAST]
    )
    assert rc == 2
    assert "n_lf >= n_hf" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_baselines_reject_fewer_than_one_job_before_training(tmp_path, capsys, monkeypatch, jobs):
    def no_training(*args, **kwargs):
        raise AssertionError("training started before --jobs was checked")

    monkeypatch.setattr(experiments, "pretrain_lf", no_training)
    monkeypatch.setattr(experiments, "train_hf_only", no_training)
    rc = cli.main(
        ["baselines", "--benchmark", "forrester1d", "--il", "20", "--ih", "3", "--jobs", jobs,
         "--out", str(tmp_path), *FAST]
    )
    assert rc == 2
    assert f"--jobs must be finite and at least 1, got {jobs}" in capsys.readouterr().err


def test_train_rejects_one_hf_sample_before_pretraining(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining started before the high-fidelity count was checked")

    monkeypatch.setattr(gan, "pretrain_lf", no_training)
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "20", "--ih", "1",
         "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 2
    assert "two high-fidelity samples" in capsys.readouterr().err


def test_predict_round_trip(tmp_path, capsys):
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "15", "--ih", "3",
         "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    capsys.readouterr()
    rc = cli.main(
        ["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
         "--points", "0.25;0.75", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,y1"
    assert len(lines) == 3
    model, _ = load_checkpoint(tmp_path / "checkpoint.json")
    np.testing.assert_allclose(
        float(lines[1].split(",")[1]), model.predict(np.array([0.25]))[0], atol=1e-12
    )


def test_predict_from_csv_matches_points_and_ends_lines_in_crlf(tmp_path, capsys):
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    ckpt = str(tmp_path / "checkpoint.json")
    (tmp_path / "in.csv").write_text("x1\n0.25\n0.75\n")
    assert cli.main(["predict", "--checkpoint", ckpt, "--csv-in", str(tmp_path / "in.csv"), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["predict", "--checkpoint", ckpt, "--points", "0.25;0.75", "--out", str(tmp_path / "b")]) == 0
    from_csv = (tmp_path / "a" / "predictions.csv").read_bytes()
    assert from_csv == (tmp_path / "b" / "predictions.csv").read_bytes()
    assert from_csv.startswith(b"x1,y1\r\n0.25,") and from_csv.count(b"\r\n") == 3
    (tmp_path / "empty.csv").write_text("\n")
    capsys.readouterr()
    with pytest.warns(UserWarning, match="no data rows"):
        assert cli.main(["predict", "--checkpoint", ckpt, "--csv-in", str(tmp_path / "empty.csv")]) == 2
    assert capsys.readouterr().err.endswith("empty.csv holds no input rows\n")


def test_predict_input_validation(tmp_path, capsys):
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    ckpt = str(tmp_path / "checkpoint.json")
    assert cli.main(["predict", "--checkpoint", ckpt]) == 2
    assert cli.main(["predict", "--checkpoint", ckpt, "--points", "0.1,0.2"]) == 2
    assert cli.main(["predict", "--checkpoint", "missing.json", "--points", "0.5"]) == 2
    assert cli.main(["predict", "--checkpoint", ckpt, "--points", "abc"]) == 2


def test_predict_rejects_ragged_points(tmp_path, capsys):
    """Rows of unequal length are bad input: the width usage error, not
    numpy's inhomogeneous-shape error."""
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    ckpt = str(tmp_path / "checkpoint.json")
    for ragged in ("0.5;0.5,0.5", "0.5,0.5;0.5"):
        capsys.readouterr()
        assert cli.main(["predict", "--checkpoint", ckpt, "--points", ragged, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: inputs must be rows of width 1\n"


def test_predict_rejects_empty_points_rows(tmp_path, capsys):
    """An empty row is bad input, as an empty list-flag item is, not a row
    dropped in silence."""
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    ckpt = str(tmp_path / "checkpoint.json")
    for points in ("0.25;;0.5;", "0.25;0.5;", ";0.5", "0.25; ;0.5"):
        capsys.readouterr()
        assert cli.main(["predict", "--checkpoint", ckpt, "--points", points, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot parse --points {points!r}\n"
    assert not (tmp_path / "predictions.csv").exists()
    assert cli.main(["predict", "--checkpoint", ckpt, "--points", "0.25;0.5;0.75", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "predictions.csv").read_text().splitlines()) == 4


@pytest.mark.filterwarnings("ignore:overflow")
def test_predict_rejects_non_finite_points(tmp_path, capsys):
    assert cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--normalizer", "standard", "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    capsys.readouterr()
    ckpt = str(tmp_path / "checkpoint.json")
    for bad in ("nan", "0.5;inf"):
        assert cli.main(["predict", "--checkpoint", ckpt, "--points", bad, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err
    # a finite point that the input normalizer scales past the float range
    assert cli.main(["predict", "--checkpoint", ckpt, "--points", "1e308", "--out", str(tmp_path)]) == 2
    assert "error: input row 0 [1e+308] is out of range" in capsys.readouterr().err


def test_predict_rejects_a_row_whose_prediction_the_output_normalizer_overflows(tmp_path, capsys):
    """The output transform ran outside the overflow guard and its rows went
    unchecked: numpy warned, and predict wrote inf rows with exit 0 (exit 3
    under -W error, as in this suite)."""
    assert cli.main(
        ["train", "--benchmark", "nonlinear1d", "--il", "10", "--ih", "2", "--normalizer", "standard",
         "--out", str(tmp_path), *FAST_TRAIN]
    ) == 0
    path = tmp_path / "checkpoint.json"
    doc = json.loads(path.read_text())
    doc["model"]["normalizers"]["hf_outputs"]["scale"] = [10.0]
    doc["model"]["hf_block"]["params"][-1] = 1.7e308  # the output layer's bias: a finite prediction near the top
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["predict", "--checkpoint", str(path), "--points", "0.3;0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: input row 0 [0.3] is out of range: the output normalizer maps its prediction to a non-finite value\n"
    )
    assert not out.exists()


def test_sweep_hf_csv_layout_and_determinism(tmp_path, capsys):
    args = [
        "sweep-hf", "--benchmark", "forrester1d", "--il", "15", "--ih", "3,2",
        "--seed", "4", *FAST,
    ]
    assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0
    a, b = tmp_path / "a" / "sweep_hf.csv", tmp_path / "b" / "sweep_hf.csv"
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + 2 cells x 2 repeats
    assert strip_wall_column(a) == strip_wall_column(b)
    assert (tmp_path / "a" / "sweep_hf_summary.json").read_bytes() == (
        tmp_path / "b" / "sweep_hf_summary.json"
    ).read_bytes()


def test_sweep_lf_singleton_grid(tmp_path, capsys):
    rc = cli.main(
        ["sweep-lf", "--benchmark", "forrester1d", "--il", "12", "--ih", "3",
         "--out", str(tmp_path), *FAST]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "sweep_lf_summary.json").read_text())
    assert [r["i_l"] for r in doc["results"]] == [12]


def test_baselines_writes_three_variants(tmp_path, capsys):
    rc = cli.main(
        ["baselines", "--benchmark", "forrester1d", "--il", "12", "--ih", "3",
         "--out", str(tmp_path), *FAST]
    )
    assert rc == 0
    for tag in ("gan", "pgan", "hf_only"):
        assert (tmp_path / f"baselines_{tag}.csv").exists()
    doc = json.loads((tmp_path / "baselines_summary.json").read_text())
    assert set(doc) == {"gan", "pgan", "hf_only"}
    out = capsys.readouterr().out
    assert "no-supervised" in out



@pytest.mark.parametrize(
    "command, name", [(["sweep-lf", "--il", "20,12"], "sweep_lf"), (["baselines", "--il", "20"], "baselines")]
)
def test_tables_write_the_same_artifacts_at_every_job_count(tmp_path, capsys, command, name):
    """The process pool changes no byte of a summary and no result but the
    wall_ms column."""
    for jobs in ("1", "2"):
        rc = cli.main(
            [*command, "--benchmark", "forrester1d", "--ih", "3", "--jobs", jobs, "--out", str(tmp_path / jobs), *FAST]
        )
        assert rc == 0
    summary = f"{name}_summary.json"
    assert (tmp_path / "1" / summary).read_bytes() == (tmp_path / "2" / summary).read_bytes()
    tables = sorted(p.name for p in (tmp_path / "1").glob("*.csv"))
    assert tables and tables == sorted(p.name for p in (tmp_path / "2").glob("*.csv"))
    for table in tables:
        assert strip_wall_column(tmp_path / "1" / table) == strip_wall_column(tmp_path / "2" / table)


def test_scatter_subcommand(tmp_path, capsys):
    rc = cli.main(
        ["scatter", "--benchmark", "currin2d", "--points", "7", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "scatter.csv").read_text().strip().splitlines()
    assert lines[0] == "y_lf,y_hf"
    assert len(lines) == 8


def test_scatter_env_seed_matches_seed_flag(tmp_path, capsys, monkeypatch):
    base = ["scatter", "--benchmark", "currin2d", "--points", "7"]
    assert cli.main([*base, "--out", str(tmp_path / "default")]) == 0
    assert cli.main([*base, "--seed", "5", "--out", str(tmp_path / "flag")]) == 0
    monkeypatch.setenv(cli.ENV_SEED, "5")
    assert cli.main([*base, "--out", str(tmp_path / "env")]) == 0
    env = (tmp_path / "env" / "scatter.csv").read_bytes()
    assert env == (tmp_path / "flag" / "scatter.csv").read_bytes()
    assert env != (tmp_path / "default" / "scatter.csv").read_bytes()


@pytest.mark.parametrize("command", ["scatter", "train"])
@pytest.mark.parametrize(
    "flags, env, message",
    [(["--seed", "-1"], None, "--seed must be finite and at least 0, got -1"),
     ([], "-3", "$MDFGAN_SEED must be finite and at least 0, got -3")],
    ids=["flag", "env"],
)
def test_a_negative_seed_is_named_by_where_it_came_from(tmp_path, capsys, monkeypatch, command, flags, env, message):
    """scatter used to exit 2 with numpy's 'expected non-negative integer',
    which names neither the flag nor the variable."""
    if env is not None:
        monkeypatch.setenv(cli.ENV_SEED, env)
    out = tmp_path / "out"
    fast = FAST_TRAIN if command == "train" else []
    rc = cli.main([command, "--benchmark", "forrester1d", *flags, "--out", str(out), *fast])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_no_supervised_flag_lands_in_the_checkpoint(tmp_path, capsys):
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--no-supervised", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0
    _, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert cfg.supervised_trick is False


def test_mode_flag_accepted(tmp_path, capsys):
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--mode", "standard-gan", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0
    _, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert cfg.mode == "standard-gan"


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# experiment manifest\n"
        "lr_lf = 0.011\n"
        "epochs_lf = 25\n"
        "epochs_hf = 4\n"
        "hidden_sizes = 5\n"
        "normalizer = standard\n"
    )
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--config", str(cfg_file), "--lr-lf", "0.02", "--out", str(tmp_path)]
    )
    assert rc == 0
    _, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert cfg.lr_lf == 0.02  # the flag wins
    assert cfg.epochs_lf == 25 and cfg.normalizer == "standard"
    assert cfg.hidden_sizes == (5,)


def test_config_file_parses_every_field_kind(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "epochs_lf = 20\n"
        "epochs_hf = 3\n"
        "lr_gen = 0.0005\n"
        "lf_batch_cap = 8\n"
        "hidden_sizes = 4, 3\n"
        "hidden_activations = sigmoid, leaky_relu\n"
        "leaky_alpha = 0.2\n"
        "mode = standard-gan\n"
        "supervised_trick = No\n"
        "seed = 9\n"
    )
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--config", str(cfg_file), "--out", str(tmp_path)]
    )
    assert rc == 0
    _, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert (cfg.epochs_lf, cfg.epochs_hf, cfg.lr_gen, cfg.lf_batch_cap) == (20, 3, 0.0005, 8)
    assert cfg.hidden_sizes == (4, 3)
    assert cfg.hidden_activations == ("sigmoid", "leaky_relu")
    assert (cfg.leaky_alpha, cfg.mode, cfg.supervised_trick, cfg.seed) == (0.2, "standard-gan", False, 9)


def test_config_file_and_csv_in_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbfseed = 9\nepochs_lf = 20\nepochs_hf = 3\nhidden_sizes = 4\n")
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--config", str(cfg_file), "--out", str(tmp_path)]
    )
    assert rc == 0
    assert load_checkpoint(tmp_path / "checkpoint.json")[1].seed == 9
    ckpt = str(tmp_path / "checkpoint.json")
    (tmp_path / "in.csv").write_bytes(b"\xef\xbb\xbf0.25\n0.5\n0.75\n")
    assert cli.main(["predict", "--checkpoint", ckpt, "--csv-in", str(tmp_path / "in.csv"), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["predict", "--checkpoint", ckpt, "--points", "0.25;0.5;0.75", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "predictions.csv").read_bytes() == (tmp_path / "b" / "predictions.csv").read_bytes()


def test_config_file_rejects_bad_values(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    for line in ("epochs_lf = many", "hidden_sizes = 4,x", "lr_sup = fast"):
        cfg_file.write_text(line + "\n")
        rc = cli.main(
            ["train", "--benchmark", "forrester1d", "--config", str(cfg_file), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "bad value for config key" in capsys.readouterr().err


def test_config_file_booleans_are_strict(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    for word, value in (("ON", True), ("off", False), ("1", True), ("No", False)):
        cfg_file.write_text(f"supervised_trick = {word}\nepochs_lf = 5\nepochs_hf = 2\n")
        rc = cli.main(
            ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
             "--config", str(cfg_file), "--out", str(tmp_path)]
        )
        assert rc == 0
        assert load_checkpoint(tmp_path / "checkpoint.json")[1].supervised_trick is value
    cfg_file.write_text("supervised_trick = ture\n")
    rc = cli.main(["train", "--benchmark", "forrester1d", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert rc == 2
    assert "bad value for config key 'supervised_trick': 'ture'" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("momentum = 0.9\n")
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--config", str(cfg_file),
         "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "momentum" in capsys.readouterr().err



def exit_code(argv):
    """cli.main's return code, or argparse's exit code for a flag it rejects."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "flag, key, text, flag_error, key_error",
    [
        ("--hidden", "hidden_sizes", "", "argument --hidden: invalid int_list value: ''", "bad value"),
        ("--hidden", "hidden_sizes", "8,,8", "argument --hidden: invalid int_list value: '8,,8'", "bad value"),
        ("--hidden", "hidden_sizes", "8,", "argument --hidden: invalid int_list value: '8,'", "bad value"),
        ("--hidden", "hidden_sizes", "8,x", "argument --hidden: invalid int_list value: '8,x'", "bad value"),
        ("--activations", "hidden_activations", "", "unknown activation kind ''", "unknown activation kind ''"),
    ],
    ids=["hidden-empty", "hidden-empty-item", "hidden-trailing-comma", "hidden-not-an-int", "activations-empty"],
)
def test_a_list_flag_and_its_config_key_reject_the_same_text(
    tmp_path, capsys, monkeypatch, flag, key, text, flag_error, key_error
):
    """An empty --hidden or --activations was ignored and --hidden dropped an
    empty item, while the config key rejected each of these. An item that
    is not an integer is now rejected by argparse, not after it; an empty
    activation is an unknown kind either way."""
    def no_dataset(*args, **kwargs):
        raise AssertionError("the dataset was drawn before the configuration was checked")

    monkeypatch.setattr(cli, "make_dataset", no_dataset)
    out = tmp_path / "out"
    assert exit_code(["train", "--benchmark", "forrester1d", flag, text, "--out", str(out)]) == 2
    assert flag_error in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    assert exit_code(["train", "--benchmark", "forrester1d", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert key_error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["sweep-hf", "--ih", "5,x"], ["sweep-hf", "--ih", "5,,3"], ["sweep-lf", "--il", ""]],
    ids=["not-an-int", "empty-item", "empty"],
)
def test_a_bad_sweep_grid_item_exits_two(tmp_path, capsys, monkeypatch, flags):
    """A non-integer item escaped argparse as a traceback and exit 1, and an
    empty item was dropped."""
    def no_training(*args, **kwargs):
        raise AssertionError("training started on a bad grid")

    monkeypatch.setattr(experiments, "pretrain_lf", no_training)
    with pytest.raises(SystemExit) as exc:
        cli.main([*flags, "--benchmark", "forrester1d", "--out", str(tmp_path), *FAST])
    assert exc.value.code == 2
    assert f"argument {flags[1]}: invalid int_list value: {flags[2]!r}" in capsys.readouterr().err


# a value unlike TrainingConfig()'s for each field, as config-file text; a new
# field needs one here, and its flag and key then must agree like the others
NON_DEFAULT_TEXT = {
    "lr_lf": "0.04", "lr_disc": "0.004", "lr_gen": "0.0015", "lr_sup": "0.06",
    "epochs_lf": "7", "epochs_hf": "3", "lf_batch_cap": "8",
    "hidden_sizes": "4, 3", "hidden_activations": "ricker, leaky_relu", "leaky_alpha": "0.2",
    "normalizer": "standard", "mode": "standard-gan", "supervised_trick": "no", "seed": "5",
}


@pytest.mark.parametrize("field", fields(gan.TrainingConfig), ids=lambda f: f.name)
def test_a_config_key_and_its_flag_set_a_field_alike(tmp_path, monkeypatch, field):
    """The schema has one definition: each field's config key and flag take
    the same text to the same TrainingConfig; only lf_batch_cap has no flag."""
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    parser = cli.build_parser()

    def resolved(*argv):
        return cli.resolve_config(parser.parse_args(["train", *argv]), gan.TrainingConfig())

    text = NON_DEFAULT_TEXT[field.name]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{field.name} = {text}\n")
    from_key = resolved("--config", str(cfg_file))
    assert getattr(from_key, field.name) != getattr(gan.TrainingConfig(), field.name)
    flags = {f.name: flag for f, flag, _ in cli._config_flags()}
    if field.name == "lf_batch_cap":
        assert field.name not in flags
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--lf-batch-cap", text])
        return
    switch = isinstance(field.default, bool)
    assert resolved(flags[field.name], *([] if switch else [text])) == from_key

def test_env_seed_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "77")
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0
    _, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert cfg.seed == 77


def test_seed_flag_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "77")
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--seed", "3", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 0
    _, cfg = load_checkpoint(tmp_path / "checkpoint.json")
    assert cfg.seed == 3


def test_a_non_integer_env_seed_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "abc")
    rc = cli.main(["train", "--benchmark", "forrester1d", "--out", str(tmp_path), *FAST_TRAIN])
    assert rc == 2
    assert capsys.readouterr().err == "error: $MDFGAN_SEED must be an integer, got 'abc'\n"


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--benchmark", "forrester1d", "--normalizer", "bogus"])
    assert exc.value.code == 2


def test_console_script_is_installed(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mdfgan.cli", "list-benchmarks"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert "separable30d" in proc.stdout


# vars() of the namespace that build_parser() gives, with func replaced by
# its name, recorded before the experiment subcommands were built in a loop:
# first a call of each subcommand with its required flags only, then each
# `mdfgan ...` line of README's code blocks as changes to that call.
_CONFIG_FLAGS = {
    **dict.fromkeys(
        ["benchmark", "config", "lr_lf", "lr_disc", "lr_gen", "lr_sup", "epochs_lf", "epochs_hf",
         "hidden", "activations", "leaky_alpha", "normalizer", "mode", "seed", "out"]
    ),
    "nested": False,
    "no_supervised": False,
}
_EXPERIMENT_FLAGS = {**_CONFIG_FLAGS, "il": None, "ih": None, "repeats": 10, "jobs": 1, "test_points": 1000}
BARE_CALLS = {
    "mdfgan train": ("cmd_train", {
        **_CONFIG_FLAGS, "command": "train", "csv_lf": None, "csv_hf": None, "d1": None, "d2": None,
        "il": None, "ih": None, "snapshot": False,
    }),
    "mdfgan predict --checkpoint c.json": ("cmd_predict", {
        "command": "predict", "checkpoint": "c.json", "points": None, "csv_in": None, "out": None,
    }),
    "mdfgan sweep-hf --ih 5": ("cmd_sweep_hf", {**_EXPERIMENT_FLAGS, "command": "sweep-hf", "ih": [5]}),
    "mdfgan sweep-lf": ("cmd_sweep_lf", {**_EXPERIMENT_FLAGS, "command": "sweep-lf"}),
    "mdfgan baselines": ("cmd_baselines", {**_EXPERIMENT_FLAGS, "command": "baselines"}),
    "mdfgan scatter --benchmark forrester1d": ("cmd_scatter", {
        "command": "scatter", "benchmark": "forrester1d", "points": 1000, "seed": None, "out": None,
    }),
    "mdfgan list-benchmarks": ("cmd_list_benchmarks", {"command": "list-benchmarks"}),
}
README_CALLS = {
    "mdfgan list-benchmarks": {},
    "mdfgan train --benchmark forrester1d --il 100 --ih 5 --seed 0 --out run1":
        {"benchmark": "forrester1d", "il": 100, "ih": 5, "seed": 0, "out": "run1"},
    'mdfgan predict --checkpoint run1/checkpoint.json --points "0.25;0.5;0.75" --out run1':
        {"checkpoint": "run1/checkpoint.json", "points": "0.25;0.5;0.75", "out": "run1"},
    "mdfgan train --csv-lf lf.csv --csv-hf hf.csv --d1 2 --out run2":
        {"csv_lf": "lf.csv", "csv_hf": "hf.csv", "d1": 2, "out": "run2"},
    "mdfgan sweep-hf --benchmark forrester1d --il 100 --ih 10,5,2 --repeats 10 --out sweep":
        {"benchmark": "forrester1d", "il": 100, "ih": [10, 5, 2], "out": "sweep"},
    "mdfgan sweep-lf --benchmark currin2d --ih 5 --out sweep": {"benchmark": "currin2d", "ih": 5, "out": "sweep"},
    "mdfgan baselines --benchmark forrester1d --il 100 --ih 5 --out cmp":
        {"benchmark": "forrester1d", "il": 100, "ih": 5, "out": "cmp"},
    "mdfgan scatter --benchmark oscillatory1d --points 1000 --out viz":
        {"benchmark": "oscillatory1d", "out": "viz"},
}


def parsed(line):
    doc = vars(cli.build_parser().parse_args(shlex.split(line)[1:]))
    return doc.pop("func").__name__, doc


def test_parser_surface_is_pinned():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [
        line.strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("mdfgan ")
    ]
    assert sorted(lines) == sorted(README_CALLS)
    bare = {doc["command"]: (func, doc) for func, doc in BARE_CALLS.values()}
    for line, changes in README_CALLS.items():
        func, doc = bare[line.split()[1]]
        assert parsed(line) == (func, {**doc, **changes}), line
    for line, expected in BARE_CALLS.items():
        assert parsed(line) == expected, line
