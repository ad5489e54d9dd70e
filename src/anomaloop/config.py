"""Simulation constants and the flat ``key = value`` file format.

The same one-entry-per-line format backs both scenario files and harness
config files.  ``#`` starts a comment, blank lines are ignored.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(Exception):
    """Malformed config/scenario file.  Carries line and field diagnostics."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field '{field}'")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)


def parse_kv_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse flat key-value text into ``{key: (raw_value, line_no)}``.

    Duplicate keys are an error so typos cannot silently shadow values.
    """
    out: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key '{key}'", line=lineno, field=key)
        out[key] = (value, lineno)
    return out


def parse_kv_file(path: str | Path) -> dict[str, tuple[str, int]]:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such file: {p}")
    return parse_kv_text(p.read_text())


def coerce_scalar(raw: str):
    """Best-effort scalar coercion: int, then float, then bare string."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    return raw


# Float fields for which zero means nothing: the tick length, speed and
# acceleration caps, and the body length.
_POSITIVE = frozenset({"dt", "v_max", "a_max", "a_cruise", "reverse_v_max", "relocate_v", "vehicle_length"})


@dataclass(frozen=True)
class SimConfig:
    """Kinematic and behavioural constants for the micro-world.

    Defaults are round urban values: 0.1 s ticks, 60 km/h cap, 4 m/s^2
    service braking, 2 m/s^2 cruise acceleration, 2 m + 1.0 s headway gap.
    """

    dt: float = 0.1
    v_max: float = 16.7
    a_max: float = 4.0
    a_cruise: float = 2.0
    gap_d0: float = 2.0
    gap_tau: float = 1.0
    reverse_v_max: float = 3.0
    relocate_v: float = 2.0
    cell_tolerance: float = 0.1
    vehicle_length: float = 4.5
    # Hard per-tick clamp: a vehicle never advances into the last
    # collision_margin metres of free room, whatever the rule says.
    collision_margin: float = 0.3
    accel_headroom: float = 1.0
    stopline_offset: float = 7.5
    # Yield decisions start this far before the stop line; must exceed the
    # stopping distance from v_max so held vehicles brake smoothly.
    claim_distance: float = 70.0
    lane_change_exclusion: float = 12.0
    box_adjacency: float = 1.5
    slow_pair_speed: float = 4.0
    warmup_ticks: int = 300
    deadlock_window: int = 50
    hold_limit: int = 50
    staleness_bound: int = 10
    exec_budget: int = 900
    after_window: int = 100

    def safe_gap(self, v: float) -> float:
        return self.gap_d0 + self.gap_tau * v

    @classmethod
    def from_mapping(cls, entries: dict[str, tuple[str, int]]) -> "SimConfig":
        """Build from parsed entries; every key must name a field.

        Integer fields take non-negative integers.  Float fields take finite
        numbers: positive for the ones in ``_POSITIVE``, non-negative otherwise.
        """
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, (raw, lineno) in entries.items():
            if key not in defaults:
                raise ConfigError(f"unknown key {key!r}", line=lineno, field=key)
            value = coerce_scalar(raw)
            if isinstance(defaults[key], int):
                if type(value) is not int or value < 0:
                    raise ConfigError(f"'{key}' must be a non-negative integer", line=lineno, field=key)
            elif type(value) not in (int, float) or not math.isfinite(value):
                raise ConfigError(f"'{key}' must be a finite number", line=lineno, field=key)
            elif key in _POSITIVE and value <= 0:
                raise ConfigError(f"'{key}' must be positive", line=lineno, field=key)
            elif value < 0:
                raise ConfigError(f"'{key}' must not be negative", line=lineno, field=key)
            else:
                value = float(value)
            kwargs[key] = value
        return cls(**kwargs)
