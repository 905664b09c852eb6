import ast
import importlib
import pathlib
import re

import eivmix

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

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
    "eivmix.densities": ["density_eval", "density_sample"],
    "eivmix.metrics": ["residual_summary"],
    "eivmix.models": ["model_eval", "model_eval_batch"],
    "eivmix.objective": [
        "CompiledGaussianPlane",
        "CompiledIntervalLine",
        "CompiledObjective",
        "shared_gaussian_scales",
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


def _readme_imports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
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


def test_module_only_names():
    for module, names in MODULE_ONLY.items():
        owner = importlib.import_module(module)
        for name in names:
            assert hasattr(owner, name), (module, name)
            assert name not in eivmix.__all__, name
