"""Flat `key = value` run configuration with sections and line diagnostics.

The format is deliberately minimal: `[section]` headers, one `key = value`
pair per line, `#` comments, blank lines ignored.  Every key has a default
except the RNG seed, which is mandatory for random samplers.  Parse and
validation errors carry the offending line number.  See configs/desk.ini
for a complete annotated example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fem import MeshSpec, ParameterBox, ParameterPoint, TimeGrid
from .hierarchy import TRUST_MODES, HierarchyConfig
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


@dataclass
class RunConfig:
    mesh: MeshSpec = field(default_factory=lambda: MeshSpec(256))
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1.0, 256))
    box: ParameterBox = field(default_factory=ParameterBox)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    kernel: KernelConfig | None = None  # filled in with the box after parsing
    sweep: SweepConfig = field(default_factory=SweepConfig)
    out_dir: Path = Path("hiermor-out")
    save_model: bool = False


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

    def _raw(self, section, key):
        item = self._entries.get((section, key))
        if item is not None:
            self._seen.add((section, key))
        return item

    def get(self, section, key, conv, default):
        item = self._raw(section, key)
        if item is None:
            return default
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


def _choice(options):
    def conv(value: str) -> str:
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {value!r}")
        return value

    return conv


def parse_config(text: str) -> RunConfig:
    """Build a validated RunConfig from config text; raises ConfigError."""
    ent = _Entries(_parse_lines(text))

    def build(section, ctor, **kwargs):
        try:
            return ctor(**kwargs)
        except ValueError as exc:
            # Every validation message starts with the offending field's name.
            key = str(exc).split(" ", 1)[0]
            raise ConfigError(str(exc), ent.lineno(section, key)) from None

    n_cells = ent.get("mesh", "n_cells", _to_int, 256)
    mesh = build("mesh", MeshSpec, n_cells=n_cells)

    t_end = ent.get("time", "t_end", _to_float, 1.0)
    n_steps = ent.get("time", "n_steps", _to_int, 256)
    grid = build("time", TimeGrid, t_end=t_end, n_steps=n_steps)

    box = build(
        "parameters", ParameterBox,
        da_min=ent.get("parameters", "da_min", _to_float, 0.1),
        da_max=ent.get("parameters", "da_max", _to_float, 10.0),
        pe_min=ent.get("parameters", "pe_min", _to_float, 1.0),
        pe_max=ent.get("parameters", "pe_max", _to_float, 100.0),
    )

    hier = build(
        "hierarchy", HierarchyConfig,
        rom_tol=ent.get("hierarchy", "rom_tol", _to_float, 1e-2),
        retrain_every=ent.get("hierarchy", "retrain_every", _to_int, 10),
        trust_threshold=ent.get("hierarchy", "trust_threshold", _to_int, 50),
        trust_mode=ent.get("hierarchy", "trust_mode", _choice(TRUST_MODES), "size_threshold"),
        validation_slack=ent.get("hierarchy", "validation_slack", _to_float, 1.0),
        enrich_energy_tol=ent.get("hierarchy", "enrich_energy_tol", _to_float, 1e-6),
        enrich_max_modes=ent.get("hierarchy", "enrich_max_modes", _to_int, 25),
        warm_start_corners=ent.get("hierarchy", "warm_start_corners", _to_bool, False),
    )

    kern = build(
        "kernel", KernelConfig,
        box=box,
        shape=ent.get("kernel", "shape", _to_float, 0.5),
        max_centers=ent.get("kernel", "max_centers", _to_int, 200),
        greedy_tol=ent.get("kernel", "greedy_tol", _to_float, None),
        nugget=ent.get("kernel", "nugget", _to_float, 0.0),
        criterion=ent.get("kernel", "criterion", _choice(("f", "p")), "f"),
    )

    n_queries = ent.get("sweep", "n_queries", _to_int, 200)
    if n_queries < 0:
        raise ConfigError("sweep.n_queries must be >= 0", ent.lineno("sweep", "n_queries"))
    sampler = ent.get("sweep", "sampler", _choice(SAMPLERS), "uniform_random")
    seed = ent.get("sweep", "seed", _to_int, None)
    if seed is not None and seed < 0:
        raise ConfigError("sweep.seed must be >= 0", ent.lineno("sweep", "seed"))
    sweep = SweepConfig(n_queries=n_queries, sampler=sampler, seed=seed)

    out_dir = Path(ent.get("output", "out_dir", str, "hiermor-out"))
    save_model = ent.get("output", "save_model", _to_bool, False)

    for sec, key, lineno in ent.unknown():
        raise ConfigError(f"unknown key {sec}.{key}", lineno)

    if sweep.sampler == "uniform_random" and sweep.seed is None:
        raise ConfigError(
            "sweep.seed is mandatory for the uniform_random sampler",
            ent.lineno("sweep", "sampler"),
        )

    return RunConfig(
        mesh=mesh, grid=grid, box=box, hierarchy=hier, kernel=kern,
        sweep=sweep, out_dir=out_dir, save_model=save_model,
    )


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def sample_parameters(sweep: SweepConfig, box: ParameterBox, n: int | None = None) -> list[ParameterPoint]:
    """Deterministic query sequence for the configured sampler."""
    count = sweep.n_queries if n is None else n
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
