"""Cantor parameter sets for the tests, read from the bundled configs.

``cantor_audit.json`` and ``cantor_holder.json`` are the audit and holder
parameter sets; the tests build them exactly as ``cantor-build`` does.
"""

from lspkit.cli import _cantor_params, _pair_from_config, bundled_config

# the square-root / identity gauge pair both bundled configs use
SQRT_PAIR = _pair_from_config(bundled_config("cantor_audit.json")["pair"])


def cantor_params(config, **changes):
    """ConstructionParams of a bundled config (by file name) or of a config
    dict, with the given top-level keys replaced."""
    if isinstance(config, str):
        config = bundled_config(config)
    return _cantor_params({**config, **changes})
