"""The package namespace: every public name resolves to its submodule's object on use."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import apavoid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_public_names_are_their_submodules_objects():
    assert sorted(apavoid._HOME) == sorted(set(apavoid.__all__) - {"__version__"})
    for module, names in apavoid._EXPORTS.items():
        sub = importlib.import_module(f"apavoid.{module}")
        for name in names:
            value = getattr(apavoid, name)
            assert value is getattr(sub, name), name
            if callable(value):
                assert value.__module__ == sub.__name__, name


def test_names_are_resolved_on_use_not_stored():
    assert set(apavoid.__all__) <= set(dir(apavoid))
    assert not set(apavoid._HOME) & set(vars(apavoid))
    with pytest.raises(AttributeError, match=r"^module 'apavoid' has no attribute 'nope'$"):
        apavoid.nope


def test_a_bare_import_reaches_every_submodule(child_env):
    # each submodule is loaded by its first read, as an attribute of the package
    script = ("import apavoid; "
              "print(*(type(getattr(apavoid, m)).__name__ for m in sorted(apavoid._SUBMODULES)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["module"] * len(apavoid._SUBMODULES)


@pytest.mark.skipif(not TRACING.is_file(), reason="the benchmark's tracer is not in this tree")
def test_a_traced_name_is_unwrapped_after_uninstall():
    # the tracer rebinds a function in every loaded apavoid namespace; the
    # package holds no copy of it, so it reads the submodule's binding
    spec = importlib.util.spec_from_file_location("_apavoid_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    repetition = importlib.import_module("apavoid.repetition")
    real = repetition.find_repetition
    undo, _ = tracing.install(tracing.Tracer())
    try:
        assert apavoid.find_repetition.__wrapped__ is real
    finally:
        tracing.uninstall(undo)
    assert apavoid.find_repetition is real
    assert "find_repetition" not in vars(apavoid)
