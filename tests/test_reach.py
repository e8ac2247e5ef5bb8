"""Reachability tooling and import integrity.

``benchmarks/reach.py`` classifies every function no entry point runs;
its classifier is tested here on a toy package.  The second test keeps
the package re-exports honest: a name deleted from a module but left in
its package's ``__all__`` fails here, not in a user's import.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "benchmarks" / "reach.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("reach", None)
    return module


TOY = '''\
import abc


def entered():
    return helper()


def helper():
    return 1


class Base(abc.ABC):
    @abc.abstractmethod
    def api(self):
        ...


def test_only():
    return 2
'''


def test_classifier_on_toy_package(tmp_path):
    reach = _load_reach()
    package_dir = tmp_path / "toy"
    package_dir.mkdir()
    (package_dir / "mod.py").write_text(TOY)
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_mod.py").write_text("from toy.mod import test_only\n\ntest_only()\n")

    package = reach.enumerate_defs(package_dir)
    assert {d.key for d in package.defs} == {
        "mod.py:entered", "mod.py:helper", "mod.py:Base.api", "mod.py:test_only",
    }
    entered = {("mod.py", d.line) for d in package.defs if d.qualname == "entered"}
    verdicts = reach.classify(
        package, entered, kept={}, test_names=reach.module_refs([tests_dir])
    )
    labels = {v.definition.qualname: v.label for v in verdicts}
    assert labels == {"helper": "a", "Base.api": "c", "test_only": "f"}
    assert "test-only" in next(v.reason for v in verdicts if v.label == "f")

    # --check accepts an untaken branch, and a declaration only once kept
    found = reach.problems(verdicts, package, kept={})
    assert [line.split()[0] for line in found] == ["mod.py:Base.api", "mod.py:test_only"]
    kept = {"mod.py:Base.api": "(c) declaration", "mod.py:gone": "(b) stale"}
    found = reach.problems(verdicts, package, kept)
    assert [line.split()[0] for line in found] == ["mod.py:test_only", "mod.py:gone"]


def test_every_reexport_resolves():
    stale = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
