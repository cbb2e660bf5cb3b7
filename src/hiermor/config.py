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

import codecs
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
    """One run: each field is built by one config section (see SECTIONS).
    `box` is the one parameter box; the FOM, the RB model and the kernel
    surrogate all use it, so replacing it moves all three."""

    mesh: MeshSpec = field(default_factory=lambda: MeshSpec(256))
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1.0, 256))
    box: ParameterBox = field(default_factory=ParameterBox)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_dir: Path = Path("hiermor-out")
    save_model: bool = False


# Config section -> the RunConfig field it builds.  [output] sets RunConfig's
# own scalar fields.
SECTIONS = {"mesh": "mesh", "time": "grid", "parameters": "box", "hierarchy": "hierarchy",
            "kernel": "kernel", "sweep": "sweep"}


def _parse_lines(text: str) -> dict[tuple[str, str], tuple[str, int]]:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = ""
    # lines end at "\n" only, as `load_config` and `grep -n` count them; a CRLF's
    # "\r" is stripped with the other whitespace
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


def _lineno(entries, section, key) -> int | None:
    """Line of section.key, else of the section's first key, else None."""
    item = entries.get((section, key))
    lines = (lineno for (sec, _), (_, lineno) in entries.items() if sec == section)
    return item[1] if item else next(lines, None)


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
    entries = _parse_lines(text)
    unread = dict(entries)

    def build(section, default):
        """`default` with the section's keys set, checked by its dataclass."""
        values = {}
        for name, conv in _keys(type(default)):
            if (section, name) in unread:
                value, lineno = unread.pop((section, name))
                try:
                    values[name] = conv(value)
                except ValueError as exc:
                    raise ConfigError(f"{section}.{name}: {exc}", lineno) from None
        try:
            return dataclasses.replace(default, **values)
        except ValueError as exc:
            # Every validation message starts with the offending field's name.
            key = str(exc).split(" ", 1)[0]
            raise ConfigError(f"{section}.{exc}", _lineno(entries, section, key)) from None

    defaults = RunConfig()
    parts = {name: build(section, getattr(defaults, name)) for section, name in SECTIONS.items()}
    config = build("output", dataclasses.replace(defaults, **parts))

    for (sec, key), (_, lineno) in unread.items():
        raise ConfigError(f"unknown key {sec}.{key}", lineno)

    if config.sweep.sampler == "uniform_random" and config.sweep.seed is None:
        raise ConfigError(
            "sweep.seed is mandatory for the uniform_random sampler",
            _lineno(entries, "sweep", "sampler"),
        )
    return config


def load_config(path) -> RunConfig:
    # One leading byte-order mark is dropped from the bytes, so error offsets
    # still count from the first byte after it ("utf-8-sig" would not).
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8: byte {data[exc.start]:#04x}",
                          data.count(b"\n", 0, exc.start) + 1) from None
    return parse_config(text)


def sample_parameters(sweep: SweepConfig, box: ParameterBox) -> list[ParameterPoint]:
    """Deterministic query sequence for the configured sampler; ValueError for
    a `uniform_random` sweep without a seed, which would draw from OS entropy."""
    count = sweep.n_queries
    if sweep.sampler == "uniform_random":
        if sweep.seed is None:
            raise ValueError("seed is mandatory for the uniform_random sampler")
        return box.points(np.random.default_rng(sweep.seed).random((count, 2)))
    if sweep.sampler == "halton":
        from scipy.stats import qmc

        return box.points(qmc.Halton(d=2, scramble=False).random(count))
    # grid: row-major lattice, first `count` points
    k = math.ceil(math.sqrt(count))
    das = np.linspace(box.da_min, box.da_max, k)
    pes = np.linspace(box.pe_min, box.pe_max, k)
    out = [ParameterPoint(da, pe) for da in das for pe in pes]
    return out[:count]
