"""The package's layers, read from each module's source with ``ast``.

``model`` holds the record types, the dataset, the optimizer's config
(``OptimizationConfig`` and the estimator names, so ``cli`` parses flags
without ``optimize``) and their checks, and imports no package module; it
computes no sample statistic and no verdict tally.
Those have one home each: the kernel in ``optimize`` (``sample_stats`` is an
adapter over it) and the tally in ``flakiness`` (with ``is_flaky`` and
``failure_rate``). ``ingest`` owns every file format. The algorithm modules
import ``model`` (and ``evaluate`` also ``optimize``) and touch no file.
``cli`` and ``__init__`` are the adapters on top and may import any module.
"""

import ast
from pathlib import Path

import pytest

import timeopt

SRC = Path(timeopt.__file__).parent

# module -> the package modules it may import, anywhere in its source
LAYERS = {
    "model": set(),
    "ingest": {"model"},
    "optimize": {"model"},
    "flakiness": {"model"},
    "simulate": {"model"},
    "evaluate": {"model", "optimize"},
}
ADAPTERS = {"cli", "__init__"}
NO_FILES = ("model", "optimize", "evaluate", "flakiness", "simulate")
FILE_MODULES = {"csv", "pathlib", "json"}
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(package modules, other top-level modules) the tree imports, in function
    bodies and under ``TYPE_CHECKING`` too; ``import timeopt`` counts as ``__init__``."""
    package, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            parts = node.module.split(".") if node.module else []
            names = [["timeopt", *parts, alias.name] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module.split(".") + [alias.name] for alias in node.names]
        else:
            continue
        for parts in names:
            if parts[0] != "timeopt":
                other.add(parts[0])
            elif len(parts) == 1:
                package.add("__init__")
            elif (SRC / f"{parts[1]}.py").exists():
                package.add(parts[1])
            else:  # a name imported from the package itself
                package.add("__init__")
    return package, other


def test_every_module_has_a_layer():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert modules == set(LAYERS) | ADAPTERS


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    package, _ = _imports(_tree(module))
    assert package <= LAYERS[module], package - LAYERS[module]


@pytest.mark.parametrize("module", NO_FILES)
def test_algorithm_module_touches_no_file(module):
    tree = _tree(module)
    _, other = _imports(tree)
    assert not other & FILE_MODULES, other & FILE_MODULES
    calls = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not calls & FILE_CALLS, calls & FILE_CALLS


def test_record_types_and_policy_file_have_one_home():
    from timeopt import evaluate, ingest, model

    assert timeopt.TimeoutPolicy is model.TimeoutPolicy
    assert timeopt.TimeoutChangeRecord is model.TimeoutChangeRecord
    for name in ("TimeoutPolicy", "load_timeout_policy", "write_timeout_policy"):
        assert not hasattr(evaluate, name), name
    for function in (ingest.load_timeout_policy, ingest.write_timeout_policy):
        assert function.__module__ == "timeopt.ingest"


def test_sample_statistics_and_verdict_tally_have_one_home():
    from timeopt import model, optimize

    assert timeopt.sample_stats is optimize.sample_stats
    for function in (timeopt.is_flaky, timeopt.failure_rate):
        assert function.__module__ == "timeopt.flakiness"
    moved = (
        "stats_of", "stats_around", "sample_stats", "_tallies", "_tally", "is_flaky",
        "failure_rate",
    )
    assert [name for name in moved if hasattr(model, name)] == []
