"""Flat `key = value` run configuration with sections and line diagnostics.

The format is deliberately minimal: `[section]` headers, one `key = value`
pair per line, `#` comments, blank lines ignored.  Each section sets the
scalar fields of one dataclass (see `SECTIONS`); the keys, their types, their
defaults and their checks are that dataclass's fields and `__post_init__`.
Every key has a default except the RNG seed, which is mandatory for random
samplers.  Parse and validation errors carry the offending line number.  See
configs/desk.ini for a complete annotated example.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fem import MeshSpec, ParameterBox, ParameterPoint, TimeGrid
from .hierarchy import HierarchyConfig
from .kernel import KernelConfig

__all__ = ["ConfigError", "SweepConfig", "RunConfig", "parse_config", "load_config", "sample_parameters"]

SAMPLERS = ("uniform_random", "halton", "grid")


class ConfigError(Exception):
    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message)
        self.lineno = lineno


@dataclass(frozen=True)
class SweepConfig:
    n_queries: int = 200
    sampler: str = "uniform_random"
    seed: int | None = None

    def __post_init__(self):
        if self.n_queries < 0:
            raise ValueError("n_queries must be >= 0")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {', '.join(SAMPLERS)}; got {self.sampler!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class RunConfig:
    mesh: MeshSpec = field(default_factory=lambda: MeshSpec(256))
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1.0, 256))
    box: ParameterBox = field(default_factory=ParameterBox)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    kernel: KernelConfig | None = None  # None means KernelConfig(box)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_dir: Path = Path("hiermor-out")
    save_model: bool = False

    def __post_init__(self):
        if self.kernel is None:
            self.kernel = KernelConfig(self.box)


# Config section -> the RunConfig field it builds.  [output] sets RunConfig's
# own scalar fields.
SECTIONS = {"mesh": "mesh", "time": "grid", "parameters": "box", "hierarchy": "hierarchy",
            "kernel": "kernel", "sweep": "sweep"}


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section name", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("missing key before '='", lineno)
        if not section:
            raise ConfigError(f"key {key!r} appears before any [section]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {section}.{key}", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


class _Entries:
    """Typed access to the parsed key/value pairs with consumption tracking."""

    def __init__(self, entries):
        self._entries = entries
        self._seen: set[tuple[str, str]] = set()

    def get(self, section, key, conv, default):
        item = self._entries.get((section, key))
        if item is None:
            return default
        self._seen.add((section, key))
        value, lineno = item
        try:
            return conv(value)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: {exc}", lineno) from None

    def lineno(self, section, key) -> int | None:
        """Line of section.key, else of the section's first key, else None."""
        item = self._entries.get((section, key))
        lines = (lineno for (sec, _), (_, lineno) in self._entries.items() if sec == section)
        return item[1] if item else next(lines, None)

    def unknown(self):
        return [
            (sec, key, lineno)
            for (sec, key), (_, lineno) in self._entries.items()
            if (sec, key) not in self._seen
        ]


def _to_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"not an integer: {value!r}")


def _to_float(value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"not a number: {value!r}")
    if not math.isfinite(out):
        raise ValueError(f"not finite: {value!r}")
    return out


def _to_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


_CONVERTERS = {int: _to_int, float: _to_float, bool: _to_bool, str: str, Path: Path}


def _keys(cls) -> list[tuple[str, typing.Callable]]:
    """(name, converter) of each init field of `cls` that a config line can set:
    those annotated int, float, bool, str or Path, or one of these `| None`."""
    hints = typing.get_type_hints(cls)
    keys = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        base = next((a for a in typing.get_args(hint) if a is not type(None)), hint)
        if f.init and base in _CONVERTERS:
            keys.append((f.name, _CONVERTERS[base]))
    return keys


def parse_config(text: str) -> RunConfig:
    """Build a validated RunConfig from config text; raises ConfigError."""
    ent = _Entries(_parse_lines(text))

    def build(section, default):
        """`default` with the section's keys set, checked by its dataclass."""
        values = {name: ent.get(section, name, conv, getattr(default, name))
                  for name, conv in _keys(type(default))}
        try:
            return dataclasses.replace(default, **values)
        except ValueError as exc:
            # Every validation message starts with the offending field's name.
            key = str(exc).split(" ", 1)[0]
            raise ConfigError(f"{section}.{exc}", ent.lineno(section, key)) from None

    defaults = RunConfig()
    parts = {}
    for section, name in SECTIONS.items():
        default = KernelConfig(parts["box"]) if name == "kernel" else getattr(defaults, name)
        parts[name] = build(section, default)
    config = build("output", dataclasses.replace(defaults, **parts))

    for sec, key, lineno in ent.unknown():
        raise ConfigError(f"unknown key {sec}.{key}", lineno)

    if config.sweep.sampler == "uniform_random" and config.sweep.seed is None:
        raise ConfigError(
            "sweep.seed is mandatory for the uniform_random sampler",
            ent.lineno("sweep", "sampler"),
        )
    return config


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def sample_parameters(sweep: SweepConfig, box: ParameterBox) -> list[ParameterPoint]:
    """Deterministic query sequence for the configured sampler."""
    count = sweep.n_queries
    if count == 0:
        return []
    if sweep.sampler == "uniform_random":
        rng = np.random.default_rng(sweep.seed)
        out = []
        for _ in range(count):
            da = rng.uniform(box.da_min, box.da_max)
            pe = rng.uniform(box.pe_min, box.pe_max)
            out.append(ParameterPoint(da, pe))
        return out
    if sweep.sampler == "halton":
        from scipy.stats import qmc

        points = qmc.Halton(d=2, scramble=False).random(count)
        return [
            ParameterPoint(
                box.da_min + (box.da_max - box.da_min) * p[0],
                box.pe_min + (box.pe_max - box.pe_min) * p[1],
            )
            for p in points
        ]
    # grid: row-major lattice, first `count` points
    k = math.ceil(math.sqrt(count))
    das = np.linspace(box.da_min, box.da_max, k)
    pes = np.linspace(box.pe_min, box.pe_max, k)
    out = [ParameterPoint(da, pe) for da in das for pe in pes]
    return out[:count]
