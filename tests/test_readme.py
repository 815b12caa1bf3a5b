"""The README's library example runs as written, and its list of
module-level caches is the package's."""

import functools
import importlib
import pkgutil
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


# The module-level dicts that are constants, not caches.
CONSTANTS = {"higher_cluster._EXPORTS", "higher_cluster.cli.CONFIG_KEYS"}
# The module-level caches, each named in the README's caches paragraph.
STATED_CACHES = {
    "hom._calculators",
    "model.enumerate_indecomposables",
    "model.object_ids",
    "tilting._families",
}


def test_module_level_caches_are_the_ones_the_readme_states():
    # every module-level dict and lru_cache of the package is a named
    # constant or a cache the README states, so none goes unbounded
    # unnoticed
    import higher_cluster

    modules = [higher_cluster] + [
        importlib.import_module(f"higher_cluster.{info.name}")
        for info in pkgutil.iter_modules(higher_cluster.__path__)
        if info.name != "__main__"  # runs the CLI on import
    ]
    found = set()
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, dict) and not name.startswith("__"):
                found.add(f"{module.__name__}.{name}")
            elif isinstance(value, functools._lru_cache_wrapper):
                found.add(f"{value.__module__}.{value.__wrapped__.__name__}")
    stated = {f"higher_cluster.{name}" for name in STATED_CACHES}
    assert found == CONSTANTS | stated
    text = README.read_text(encoding="utf-8")
    for name in STATED_CACHES:
        assert f"`{name}`" in text, name
