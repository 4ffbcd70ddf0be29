"""Plain-text configuration: one ``key = value`` per line, '#' comments.

Unknown keys are errors so that typos never silently fall back to defaults.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass
class PipelineConfig:
    probes: int = 200              # unit-ball probes for defects and distances
    group_probes: int = 8          # unitary probe pairs for group-map stages
    det_cap: int = 12              # deterministic probe cap inside defect estimation
    mc_width: int = 256            # Haar samples per averaging level
    unitarize_width: int = 64      # Haar samples for the Gram average
    mc_batches: int = 8            # batches behind the 3-sigma error estimate
    max_levels: int = 3            # averaging level cap
    tol: float = 1e-8              # averaging stop tolerance
    admissible_eps: float = 0.05   # largest defect the pipeline accepts
    generator_count: int = 4       # generators for the commutant solve
    K: float = 50.0                # correction constant: budget factor, asserted ||psi-phi||/eps
    path: str = "units"            # per-block route: "units" or "stone"
    seed: int = 0
    tower_slack: float = 3.0       # allowed growth of per-stage recovery ratios
    kk_tol: float = 0.1            # allowed distance of the recovered isomorphism

    def replace(self, **kw) -> "PipelineConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
# the smallest value each count's consumer accepts; a 3-sigma error needs
# two batches and two draws per Gram average (one gives a spread of 0, so
# every Monte-Carlo bound drops it)
MINIMUMS = {"probes": 1, "group_probes": 1, "det_cap": 1, "mc_width": 2,
            "unitarize_width": 2, "mc_batches": 2, "max_levels": 0,
            "generator_count": 2}


def _coerce(key: str, raw: str):
    typ = _FIELDS[key]
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw, 0)
        if typ == "float":
            return float(raw)
        return raw
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
    if values.get("path", cfg.path) not in ("units", "stone"):
        raise ConfigError("path must be 'units' or 'stone'")
    for key, least in MINIMUMS.items():
        if values.get(key, least) < least:
            raise ConfigError(f"{key} must be >= {least}, got {values[key]}")
    return cfg.replace(**values)


def load_config(path: str | Path, base: PipelineConfig | None = None) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    return parse_config(text, base)
