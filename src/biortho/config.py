"""Run configuration: the one table of every tolerance and grid default.

DEFAULTS is the only place a default is written.  The library's keyword
defaults read their values from it, so a library call that leaves a setting
out runs with the value the CLI uses without a config file.  A config file
of `key = value` lines (path via --config or the BIORTHO_CONFIG environment
variable; blank lines and '#' comments are ignored) overrides any of them.
Each value is parsed by the type of its default; an unknown or repeated key
and a value that does not parse are rejected with an InputError that names
the line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from .errors import InputError

DEFAULTS: Dict[str, float] = {
    # tolerances
    "quad_tol": 1e-10,          # relative target of the tanh-sinh rule
    "contour_tol": 1e-10,       # relative-to-peak target of the contour rule
    "biortho_tol": 1e-7,        # |I_j|/|I_n| threshold of biorthogonality
    "reduction_tol": 1e-9,      # alpha=1 reduction threshold (floored at 1)
    "bisect_tol": 1e-12,        # bracket width for angle inversions
    "envelope_threshold": 0.3,  # oscillation-factor filter of tables
    # grids
    "scan_grid": 2000,          # points of the lemma/claim angle scans
    "identity_samples": 1000,   # random samples per appendix identity
    "biortho_n_max": 4,         # largest degree of the biorthogonality suite
    "reduction_n_max": 20,      # largest degree of the reduction suite
}


def load_config(path: str | None) -> Dict[str, float]:
    """DEFAULTS with the overrides of the config file at path, if any: each
    line is parsed as it is read, so the first bad line is the one reported."""
    overrides: Dict[str, float] = {}
    try:
        text = Path(path).read_text() if path else ""
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in overrides:
            raise InputError(f"{path}:{lineno}: repeated config key {key!r}")
        kind = type(DEFAULTS[key])
        try:
            overrides[key] = kind(raw)
        except ValueError:
            raise InputError(f"{path}:{lineno}: {key} = {raw!r} is not a "
                             f"valid {kind.__name__}") from None
    return {**DEFAULTS, **overrides}
