"""Pinned results of every bundled config.

``tests/golden/results.json`` holds, per bundled config, the command it runs
and its canonical ``results`` block: floats rounded to 12 significant digits,
everything else (ints, bools, strings, tree fingerprints) exact.  A change
that moves any of them must regenerate the manifest on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import numbers
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lspkit.cli import bundled_config, run

MANIFEST = Path(__file__).parent / "golden" / "results.json"
_COMMAND_OF_PREFIX = {
    "transform": "transform",
    "fit": "fit-lsp",
    "boxdim": "boxdim",
    "minkowski": "minkowski",
    "cover": "cover",
    "cantor": "cantor-build",
    "randsim": "randsim",
}


def bundled_names():
    return sorted(
        p.name for p in resources.files("lspkit.configs").iterdir() if p.name.endswith(".json")
    )


def command_of(name):
    return _COMMAND_OF_PREFIX[name.split("_", 1)[0]]


def canonical(value):
    """JSON-ready copy of a results block with floats at 12 significant digits."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(f"{float(value):.12g}")
    return value


def golden_entry(name):
    command = command_of(name)
    code, report = run(command, bundled_config(name))
    assert code == 0
    return {"command": command, "results": canonical(report["results"])}


def test_manifest_lists_every_bundled_config():
    assert sorted(json.loads(MANIFEST.read_text())) == bundled_names()


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_results_match_golden(name):
    expected = json.loads(MANIFEST.read_text())[name]
    assert golden_entry(name) == expected


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = {name: golden_entry(name) for name in bundled_names()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
