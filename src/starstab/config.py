"""Plain-text configuration: one ``key = value`` per line, '#' comments.

Unknown keys are errors so that typos never silently fall back to defaults.
"""
from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


# the smallest value each count's consumer accepts; a 3-sigma error needs
# two draws per averaging level and per Gram average (one gives a spread of
# 0, so every Monte-Carlo bound drops it)
MINIMUMS = {"probes": 1, "group_probes": 1, "mc_width": 2,
            "unitarize_width": 2, "max_levels": 0}


@dataclass
class PipelineConfig:
    """Run settings; every construction, parsed, replaced or built in code,
    is checked against ``MINIMUMS`` and the two routes, and each count and
    the seed must be an integer (a numpy integer is taken as an int; a
    bool is refused)."""

    probes: int = 200              # unit-ball probes for defects and distances
    group_probes: int = 8          # unitary probe pairs for group-map stages
    mc_width: int = 256            # Haar samples per averaging level
    unitarize_width: int = 64      # Haar samples for the Gram average
    max_levels: int = 3            # averaging level cap
    path: str = "units"            # per-block route: "units" or "stone"
    seed: int = 0

    def __post_init__(self):
        if self.path not in ("units", "stone"):
            raise ConfigError("path must be 'units' or 'stone'")
        for key in (*MINIMUMS, "seed"):
            value = getattr(self, key)
            # bool is an Integral; numpy integers become ints, so reports serialize
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            setattr(self, key, int(value))
        for key, least in MINIMUMS.items():
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")

    def replace(self, **kw) -> "PipelineConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _coerce(key: str, raw: str):
    typ = _FIELDS[key]
    raw = raw.strip()
    try:
        return int(raw, 0) if typ == "int" else raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    cfg = base or PipelineConfig()
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return cfg.replace(**values)


def load_config(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    return parse_config(text, base)
