"""The package ships only the pipeline; its test oracles live in ``tests/``."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import wgphase


def test_every_public_name_resolves():
    missing = [name for name in wgphase.__all__ if not hasattr(wgphase, name)]
    assert missing == []


def test_bloch_oracle_is_not_shipped():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("wgphase.bloch")


def test_oracles_import_only_state_types_from_wgphase():
    # the oracle stays independent of the closed forms it checks
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "wgphase" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wgphase":
            imported |= {alias.name for alias in node.names}
    assert imported == {"EmitterParams"}


def test_test_oracles_are_not_public():
    # the numeric searches cross-check the closed forms; they stay in their
    # modules (for the tests and the benchmark tracer), outside the package API
    oracles = {"phase_extrema_numeric", "NumericExtremum", "channel_model"}
    assert oracles.isdisjoint(wgphase.__all__)
    assert not any(hasattr(wgphase, name) for name in oracles)


def test_readme_library_tour_example_runs(capsys):
    # the README's library example, run as written: simulate, extract and fit
    # through the package's public names, recovering its emitter
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme[readme.index("## Library tour"):]
    example = example[example.index("```python\n") + 10:]
    scope = {}
    exec(example[:example.index("```")], scope)
    fit = scope["fit"]
    assert fit.converged, fit.message
    truth = {"beta1": 1.0, "gamma1": 12.3, "f01": 0.0, "gamma_dp": 3.9, "phi0": -0.25}
    for name, want in truth.items():
        assert abs(fit[name] - want) <= 3 * fit.error(name), name
    assert "'gamma_dp'" in capsys.readouterr().out
