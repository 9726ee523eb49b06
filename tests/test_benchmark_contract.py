"""The benchmark's view of the library still resolves.

``perfbench/tracing.py`` wraps named rakikit functions and reads named
arguments of some of them, and times ``nn_engine.forward`` layer by layer
on the activations it returns; ``perfbench/scenes.py`` imports rakikit's
public names and builds a ``TrainConfig`` by field name. A change that drops or renames one of these passes the
rest of the suite and fails every traced benchmark run, so both files
are loaded here by path (read only) and checked against the library.
"""

import ast
import importlib
import inspect
import math
import sys
import types
from pathlib import Path

import numpy as np

from rakikit import TrainConfig, init_model, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """Run ``perfbench/<name>.py`` as a module of a private name, compiled
    from its source so that nothing is written beside it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"_perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(), path, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def observed_arguments(source: str) -> dict[str, set[str]]:
    """For each ``OBSERVERS`` key, the names it reads as ``args["name"]``.

    An observer is a lambda or a module-level function; its first
    parameter is the bound-arguments dict.
    """
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    observers = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "OBSERVERS"
                for t in node.targets)
    )
    reads = {}
    for key, value in zip(observers.keys, observers.values):
        fn = functions[value.id] if isinstance(value, ast.Name) else value
        args = fn.args.args[0].arg
        reads[key.value] = {
            node.slice.value for node in ast.walk(fn)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == args
            and isinstance(node.slice, ast.Constant)
        }
    return reads


def test_traced_functions_resolve():
    tracing = load("tracing")
    missing = [f"{m}.{f}" for m, f in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"rakikit.{m}"),
                                       f, None))]
    assert not missing, f"traced functions gone from rakikit: {missing}"


def test_observed_arguments_are_parameters():
    tracing = load("tracing")
    reads = observed_arguments((PERFBENCH / "tracing.py").read_text())
    assert reads.keys() == tracing.OBSERVERS.keys()
    seen = set()
    for name, args in reads.items():
        module, func = name.split(".")
        params = inspect.signature(
            getattr(importlib.import_module(f"rakikit.{module}"), func)).parameters
        assert args <= params.keys(), f"{name} lost parameters {args - params.keys()}"
        seen |= args
    # the parser found what the observers read today
    assert {"acs", "mask", "kspace_masked", "cfg", "ts"} <= seen


def test_scenes_import():
    scenes = load("scenes")
    assert set(scenes.WORKLOADS) == {"c04_eraki", "desk_raki",
                                     "me_joint_t2", "kyt_grappa"}
    # the scenes pass TrainConfig its fields by name
    assert scenes.train_config(0, 8).widths == (8,) * 4


def test_conv_layer_metrics_time_every_layer():
    """``conv_layer_metrics`` runs on a trained model and its 4-D training
    input, the one call of ``forward(..., keep_activations=True)``."""
    tracing = load("tracing")
    rng = np.random.default_rng(0)
    cfg = TrainConfig(iterations=2, widths=(4, 3),
                      kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1)))
    x = rng.standard_normal((2, 8, 9, 10))
    target = rng.standard_normal((2, 6, 7, 6))
    model, _ = train(init_model(2, 2, cfg), x, target, cfg)
    m = tracing.conv_layer_metrics(model, x, len(model.layers), repeats=2)
    for i in range(len(model.layers)):
        for key in ("fwd_ms", "fwd_gflop"):
            value = m[f"nn_engine.conv{i}.{key}"]
            assert math.isfinite(value) and value > 0, (i, key, value)
