"""Run configuration: every tolerance and grid constant in one place.

Values can be overridden by a config file of `key = value` lines (path via
--config or the BIORTHO_CONFIG environment variable).  Unknown keys and
values that do not parse as the key's type are rejected with InputError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from .errors import InputError

# Tolerances
#   quad_tol            relative target of the double-exponential rule
#   contour_tol         relative-to-peak target of the contour rule
#   biortho_tol         |I_j|/|I_n| threshold of the biorthogonality check
#   reduction_tol       alpha=1 reduction threshold (relative, floored at 1)
#   bisect_tol          bracket width for angle inversions
#   envelope_threshold  oscillation-factor filter of convergence tables
DEFAULT_TOLERANCES: Dict[str, float] = {
    "quad_tol": 1e-10,
    "contour_tol": 1e-10,
    "biortho_tol": 1e-7,
    "reduction_tol": 1e-9,
    "bisect_tol": 1e-12,
    "envelope_threshold": 0.3,
}

# Grids
#   scan_grid         points of the lemma/claim angle scans
#   identity_samples  random samples per appendix identity
#   biortho_n_max     largest degree of the default biorthogonality suite
#   reduction_n_max   largest degree of the default reduction suite
DEFAULT_GRIDS: Dict[str, int] = {
    "scan_grid": 2000,
    "identity_samples": 1000,
    "biortho_n_max": 4,
    "reduction_n_max": 20,
}

_FLOAT_KEYS = frozenset(DEFAULT_TOLERANCES)
_INT_KEYS = frozenset(DEFAULT_GRIDS)


@dataclass(frozen=True)
class RunConfig:
    tolerances: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TOLERANCES))
    grids: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_GRIDS))

    def with_overrides(self, overrides: Dict[str, str]) -> "RunConfig":
        tolerances = dict(self.tolerances)
        grids = dict(self.grids)
        for key, raw in overrides.items():
            if key in _FLOAT_KEYS:
                target, kind = tolerances, float
            elif key in _INT_KEYS:
                target, kind = grids, int
            else:
                raise InputError(f"unknown config key {key!r}")
            try:
                target[key] = kind(raw)
            except ValueError:
                raise InputError(f"config value {raw!r} of {key!r} is not "
                                 f"a valid {kind.__name__}") from None
        return RunConfig(tolerances=tolerances, grids=grids)


def parse_config_file(path: str) -> Dict[str, str]:
    """Read `key = value` lines; blank lines and '#' comments are ignored."""
    overrides: Dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        overrides[key] = value
    return overrides


def load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path:
        config = config.with_overrides(parse_config_file(path))
    return config
