"""The benchmark's tracer wraps mdfgan functions by name and reads their
arguments and attributes by name; a rename in the package should fail here,
not later in a traced benchmark run. Reads perfbench/tracer.py, changes
nothing in it."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mdfgan import cli, gan
from mdfgan.nn import SIGMOID, AdamState, DenseNetwork, Tape, activations, network
from mdfgan.data import MultiFidelityDataset
from mdfgan.experiments import RunRecord
from mdfgan.gan import GanMdfModel, TrainingConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# parameters each after-call hook reads from the call's bound arguments
HOOK_ARGUMENTS = {
    "gan.pretrain_lf": ("model", "lf_x", "config"),
    "gan.train_adversarial": ("hf_x", "config"),
    "experiments.train_hf_only": ("dataset", "config"),
    "experiments.run_experiment": ("n_jobs",),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target):
    """The function a TARGETS entry names, looked up as the tracer installs it."""
    module_name, qualname = target
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return vars(owner).get(attr)


def test_every_wrapped_function_resolves(tracer):
    missing = [name for name, target in tracer.TARGETS.items() if resolve(target) is None]
    assert not missing


def test_hooks_bind_existing_parameters(tracer):
    assert set(HOOK_ARGUMENTS) <= set(tracer.AFTER)
    for name, arguments in HOOK_ARGUMENTS.items():
        parameters = inspect.signature(resolve(tracer.TARGETS[name])).parameters
        assert set(arguments) <= set(parameters), name


def test_hooks_read_existing_attributes(tracer):
    config_fields = {f.name for f in fields(TrainingConfig)}
    assert {"lf_batch_cap", "epochs_lf", "epochs_hf", "mode", "supervised_trick"} <= config_fields
    assert callable(GanMdfModel.lf_checksum)
    assert isinstance(MultiFidelityDataset.n_hf, property)
    assert "wall_ms" in {f.name for f in fields(RunRecord)}
    # the constants the hooks count Adam steps and iterations with
    assert tracer.HF_BATCH_CAP == gan.HF_BATCH_CAP
    assert gan.MODE_COUPLED == "coupled"


def test_the_checkpoint_holds_the_frozen_flag_the_benchmark_reads(tmp_path):
    """The CLI workload checks a trained checkpoint's LF block by reading
    doc["model"]["lf_block"]["frozen"]; a schema change must keep that key."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            ["train", "--benchmark", "forrester1d", "--il", "10", "--ih", "2", "--epochs-lf", "5",
             "--epochs-hf", "2", "--hidden", "4", "--out", str(tmp_path)]
        )
    assert code == 0
    doc = json.loads((tmp_path / "checkpoint.json").read_text(encoding="utf-8"))
    assert doc["model"]["lf_block"]["frozen"] is True


def test_a_training_step_calls_the_wrapped_kernels_by_name(monkeypatch):
    """The tracer counts kernel calls by rebinding module attributes
    (``adam_step`` where ``network`` imported it), so the engine must look
    these names up at call time: one supervised step on a three-layer net
    makes one activation call and one activation backward per layer, and
    one Adam step."""
    calls = {"apply": 0, "backward": 0, "adam_step": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(activations, "apply")
    counting(activations, "backward")
    counting(network, "adam_step")
    net = DenseNetwork([2, 4, 4, 1], [SIGMOID, SIGMOID], seed=0)
    x = np.random.default_rng(0).normal(size=(5, 2))
    gan._supervised_step(net, x, np.zeros((5, 1)), AdamState(net.params), 0.01, Tape(net))
    assert calls == {"apply": 3, "backward": 3, "adam_step": 1}
