import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re
import warnings

import eivmix

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# names kept out of the package namespace; each is imported from its module
MODULE_ONLY = {
    "eivmix.data_io": [
        "RunManifest",
        "paired_subset",
        "read_fit_report",
        "split_indices",
        "worldbank_analog_path",
        "worldbank_analog_schema",
        "write_fit_report",
        "write_surface",
    ],
    "eivmix.dataset": [
        "cross_pair_expansion",
        "group_mean_pairs",
    ],
    "eivmix.densities": ["density_sample"],
    "eivmix.metrics": ["residual_summary"],
    "eivmix.models": ["model_eval", "model_eval_batch"],
    "eivmix.objective": [
        "CompiledGaussianPlane",
        "CompiledIntervalLine",
        "CompiledObjective",
    ],
    "eivmix.optimize": ["nelder_mead"],
}


def test_all_has_no_duplicates():
    assert len(eivmix.__all__) == len(set(eivmix.__all__))


def test_all_names_resolve():
    missing = [name for name in eivmix.__all__ if not hasattr(eivmix, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from eivmix import *", namespace)
    assert set(eivmix.__all__) <= set(namespace)


def _readme_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    return blocks


def _readme_imports():
    for block in _readme_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("eivmix"):
                yield node.module, [alias.name for alias in node.names]


def test_readme_imports_resolve():
    imports = list(_readme_imports())
    assert any(module == "eivmix" for module, _ in imports)
    for module, names in imports:
        if module == "eivmix":
            assert set(names) <= set(eivmix.__all__), names
        else:
            owner = importlib.import_module(module)
            assert all(hasattr(owner, name) for name in names), (module, names)


def test_readme_examples_run():
    # the blocks build on each other: run them in order in one namespace
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in _readme_blocks():
            exec(compile(block, str(README), "exec"), namespace)


def test_module_only_names():
    for module, names in MODULE_ONLY.items():
        owner = importlib.import_module(module)
        for name in names:
            assert hasattr(owner, name), (module, name)
            assert name not in eivmix.__all__, name


def test_closed_forms_take_only_the_data_and_alpha():
    # the error model is the dataset's densities: a closed form taking
    # scales beside them could evaluate data its kinds gate never saw
    for closed_form in (eivmix.nll_gaussian_hyperplane, eivmix.likelihood_interval_line):
        assert list(inspect.signature(closed_form).parameters) == ["ds", "alpha"], closed_form.__name__


def test_traced_names_resolve_and_no_traced_class_inherits_another():
    # the benchmark's tracer wraps the names in its LAYERS table by module
    # path and rebinds a class's __init__ and evaluate by name: a renamed
    # name drops its spans, and a traced class inheriting a method of
    # another traced class could have its calls wrapped twice or recorded
    # under the other's span name
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing, classes = [], set()
    for module, path, *_ in tracing.LAYERS:
        try:
            owner = tracing.resolve(module, path)[0]
        except (ImportError, AttributeError):
            missing.append(f"{module}.{path}")
            continue
        if isinstance(owner, type):
            classes.add(owner)
    assert missing == []
    assert {c.__name__ for c in classes} >= {"CompiledObjective", "CompiledGaussianPlane", "CompiledIntervalLine"}
    assert [(a, b) for a in classes for b in classes if a is not b and issubclass(a, b)] == []


def test_the_general_objective_has_no_concurrency_knob():
    # the general objective picks its worker threads from the CPUs the
    # process may run on: no constructor or evaluate parameter and no
    # config field selects them
    from eivmix.objective import CompiledObjective

    assert list(inspect.signature(CompiledObjective.__init__).parameters) == ["self", "ds", "model", "cfg"]
    assert list(inspect.signature(CompiledObjective.evaluate).parameters) == [
        "self", "alpha", "input_scales", "output_scales"
    ]
    assert [f.name for f in dataclasses.fields(eivmix.IntegrationConfig)] == [
        "method", "mc_samples", "grid_points_per_dim", "grid_halfwidth_sigmas", "seed"
    ]
    assert [f.name for f in dataclasses.fields(eivmix.OptimizerConfig)] == [
        "max_iters", "initial_simplex_scale", "restarts", "seed"
    ]
