"""Pinned results of every bundled config.

``tests/golden/results.json`` holds, per bundled config, the command it runs
and its canonical ``results`` block: floats rounded to 12 significant digits,
everything else (ints, bools, strings, tree fingerprints) exact.  A change
that moves any of them must regenerate the manifest on purpose:

    PYTHONPATH=src python tests/test_golden.py

``tests/golden/variants.json`` pins gasket variants that no bundled config
runs (ratios 0.45 and 0.491, the Euclidean metric, Minkowski content) to the
exact bit: every float is stored as ``float.hex``.  They use the bundled
gasket scales at 50,000 samples per scale, so the coarse scales test their
hits on a proxy tree and the fine ones walk the cylinder tree.  The numpy
version that recorded them is stored too; on another version the test fails
rather than compare loosely.  Regenerate on purpose with

    PYTHONPATH=src python tests/test_golden.py --variants
"""

import json
import math
import numbers
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from lspkit.cli import bundled_config, run

MANIFEST = Path(__file__).parent / "golden" / "results.json"
VARIANTS = Path(__file__).parent / "golden" / "variants.json"
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


def gasket(r):
    """Sierpinski gasket model with three maps of ratio r (r = 0.5: bundled)."""
    t = 1.0 - r
    maps = [[0.0, 0.0], [t, 0.0], [t / 2, t]]
    return {"variant": "ifs", "maps": [{"ratio": r, "translation": v} for v in maps], "osc": True}


def variant_configs():
    base = bundled_config("boxdim_sierpinski.json")
    base["samples_per_scale"] = 50_000
    out = {f"boxdim_r{r}": ("boxdim", {**base, "model": gasket(r)}) for r in (0.5, 0.45, 0.491)}
    out["boxdim_r0.5_euclidean"] = ("boxdim", {**base, "model": gasket(0.5), "metric": "euclidean"})
    out["minkowski_r0.5"] = ("minkowski", {**base, "model": gasket(0.5), "dimension": math.log2(3)})
    return out


def exact(value):
    """JSON-ready copy of a results block with every float as ``float.hex``."""
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, (bool, np.bool_, numbers.Integral)):
        return canonical(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return value


def variant_entry(name):
    command, cfg = variant_configs()[name]
    code, report = run(command, cfg)
    assert code == 0
    return {"command": command, "config": cfg, "results": exact(report["results"])}


@pytest.mark.parametrize("name", sorted(variant_configs()))
def test_gasket_variants_match_golden(name):
    pinned = json.loads(VARIANTS.read_text())
    if pinned["numpy"] != np.__version__:
        pytest.fail(
            f"variants.json was recorded with numpy {pinned['numpy']}, this is numpy "
            f"{np.__version__}; check the change and regenerate it with --variants"
        )
    assert sorted(pinned["variants"]) == sorted(variant_configs())
    assert variant_entry(name) == pinned["variants"][name]


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    if "--variants" in sys.argv[1:]:
        variants = {name: variant_entry(name) for name in sorted(variant_configs())}
        text = json.dumps({"numpy": np.__version__, "variants": variants}, indent=1, sort_keys=True)
        VARIANTS.write_text(text + "\n")
    else:
        manifest = {name: golden_entry(name) for name in bundled_names()}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
