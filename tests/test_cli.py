import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdfgan import cli, experiments, gan
from mdfgan.gan import load_checkpoint

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
def test_non_finite_preactivation_exits_one(tmp_path, capsys):
    rc = cli.main(
        ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2",
         "--lr-lf", "1e308", "--out", str(tmp_path), *FAST_TRAIN]
    )
    assert rc == 1
    assert "non-finite input" in capsys.readouterr().err


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
    [["--d1", "1", "--il", "-1"], ["--d1", "1", "--ih", "0"], ["--d1", "1", "--d2", "0"], ["--d1", "0"]],
)
def test_csv_counts_and_widths_below_one_name_the_flag(tmp_path, capsys, flags):
    for tag in ("lf", "hf"):
        (tmp_path / f"{tag}.csv").write_text("0.25,1.0\n0.75,2.0\n")
    rc = cli.main(
        ["train", "--csv-lf", str(tmp_path / "lf.csv"), "--csv-hf", str(tmp_path / "hf.csv"), *flags,
         "--out", str(tmp_path / "out"), *FAST_TRAIN]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {flags[-2]} must be at least 1, got {flags[-1]}\n"


def test_train_on_a_constant_input_column_past_2_52(tmp_path, capsys):
    """x +- 0.5 rounds back to 1e16, so the widened box must step by an ulp."""
    for tag in ("lf", "hf"):
        (tmp_path / f"{tag}.csv").write_text("1e16,0.0\n1e16,0.5\n")
    rc = cli.main(
        ["train", "--csv-lf", str(tmp_path / "lf.csv"), "--csv-hf", str(tmp_path / "hf.csv"), "--d1", "1",
         "--snapshot", "--out", str(tmp_path / "out"), *FAST_TRAIN]
    )
    assert rc == 0, capsys.readouterr().err
    [[lo, hi]] = json.loads((tmp_path / "out" / "dataset" / "dataset.json").read_text())["bounds"]
    assert lo < 1e16 < hi


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
    assert "n_jobs >= 1" in capsys.readouterr().err


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


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "mdfgan.cli", "list-benchmarks"],
        capture_output=True, text=True,
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
        **_CONFIG_FLAGS, "command": "train", "csv_lf": None, "csv_hf": None, "d1": None, "d2": 1,
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
