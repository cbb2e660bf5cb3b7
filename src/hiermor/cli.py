"""Command line driver: `hiermor run <config>` and `hiermor validate <config>`.

`run` executes the configured parameter sweep through the adaptive hierarchy
and writes queries.csv, summary.txt, timings.svg and (optionally) model.bin
to the output directory.  `validate` repeats the sweep in-process, then
checks the RB error bound and the surrogate certificate against full-order
reference solves at freshly drawn parameters.

Exit codes: 0 success, 2 configuration error, 3 bound violation during
validate, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, sample_parameters
from .fem import ParameterPoint, QoiVector, assemble, qoi_norm, solve_fom
from .hierarchy import AdaptiveHierarchy, QueryRecord, write_query_log
from .kernel import save_model
from .report import summary_text, timing_scatter_svg

__all__ = ["main", "run", "validate_run", "build_hierarchy", "ValidationReport"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUND_VIOLATION = 3
EXIT_IO = 4

BOUND_SLACK = 1e-10


def build_hierarchy(config: RunConfig) -> AdaptiveHierarchy:
    ops = assemble(config.mesh)
    return AdaptiveHierarchy(
        ops, config.grid, config.box, config.hierarchy, config.kernel
    )


def _execute_sweep(config: RunConfig) -> tuple[AdaptiveHierarchy, list[QueryRecord]]:
    state = build_hierarchy(config)
    records = []
    for mu in sample_parameters(config.sweep, config.box):
        _, record = state.query(mu)
        records.append(record)
    return state, records


def run(config: RunConfig) -> int:
    """Execute the sweep and write all outputs; returns an exit code."""
    state, records = _execute_sweep(config)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_query_log(records, out / "queries.csv")
    (out / "summary.txt").write_text(summary_text(records))
    (out / "timings.svg").write_text(timing_scatter_svg(records))
    if config.save_model and state.model is not None:
        save_model(state.model, out / "model.bin")
    return EXIT_OK


@dataclass
class ValidationRow:
    mu: ParameterPoint
    rb_error: float
    delta_rb: float
    ml_error: float
    certificate: float

    # Written as "not within" so that a NaN error or bound is a violation.
    @property
    def rb_violated(self) -> bool:
        return not self.rb_error <= self.delta_rb + BOUND_SLACK

    @property
    def ml_violated(self) -> bool:
        return not self.ml_error <= self.certificate + BOUND_SLACK


def _worst_ratio(pairs: list[tuple[float, float]]) -> float:
    """Largest error / bound, agreeing with the VIOLATED flags: a nonzero
    error over a zero bound is inf, and any NaN makes the worst NaN."""
    ratios = [error / bound if bound else (error * math.inf if error else 0.0)
              for error, bound in pairs]
    return math.nan if any(map(math.isnan, ratios)) else max(ratios)


def _effectivity(name: str, pairs: list[tuple[float, float]]) -> str:
    """Min, median and max of bound / error over the rows with a nonzero error;
    all three are NaN when any bound or error is NaN, as in `_worst_ratio`."""
    ratios = [bound / error for bound, error in pairs if not error <= 0.0]
    if not ratios:
        return f"effectivity {name}: no nonzero errors"
    any_nan = any(math.isnan(x) for pair in pairs for x in pair)
    lo, mid, hi = [math.nan] * 3 if any_nan else (min(ratios), statistics.median(ratios), max(ratios))
    return (f"effectivity {name}: min {lo:.3e} "
            f"median {mid:.3e} max {hi:.3e} (n={len(ratios)})")


@dataclass
class ValidationReport:
    rows: list[ValidationRow]

    @property
    def n_violations(self) -> int:
        return sum(r.rb_violated or r.ml_violated for r in self.rows)

    def text(self) -> str:
        lines = [
            "mu_da mu_pe rb_error delta_rb ml_error certificate",
        ]
        for r in self.rows:
            flag = " VIOLATED" if (r.rb_violated or r.ml_violated) else ""
            lines.append(
                f"{r.mu.da:.6g} {r.mu.pe:.6g} {r.rb_error:.6e} {r.delta_rb:.6e} "
                f"{r.ml_error:.6e} {r.certificate:.6e}{flag}"
            )
        if self.rows:
            worst_rb = _worst_ratio([(r.rb_error, r.delta_rb) for r in self.rows])
            worst_ml = _worst_ratio([(r.ml_error, r.certificate) for r in self.rows])
            lines.append(f"worst rb_error/bound: {worst_rb:.3e}")
            lines.append(f"worst ml_error/bound: {worst_ml:.3e}")
            lines.append(_effectivity("delta_rb/rb_error", [(r.delta_rb, r.rb_error) for r in self.rows]))
            lines.append(_effectivity("certificate/ml_error", [(r.certificate, r.ml_error) for r in self.rows]))
        lines.append(f"violations: {self.n_violations}")
        return "\n".join(lines) + "\n"


def validate_run(config: RunConfig, n_validation: int) -> ValidationReport:
    """Run the sweep, then compare bounds to full-order truth at fresh points.

    Validation parameters come from a generator seeded independently of the
    sweep so repeated invocations are reproducible.
    """
    state, _ = _execute_sweep(config)
    rng = np.random.default_rng([0 if config.sweep.seed is None else config.sweep.seed, 1])
    rows = []
    for mu in config.box.points(rng.random((n_validation, 2))):
        _, f_h = solve_fom(state.ops, mu, state.grid, state.c0)
        cert = state.certify(mu)
        rows.append(
            ValidationRow(
                mu=mu,
                rb_error=qoi_norm(QoiVector(f_h.values - cert.f_rb.values, f_h.dt)),
                delta_rb=cert.delta_rb,
                ml_error=qoi_norm(QoiVector(f_h.values - cert.f_ml.values, f_h.dt)),
                certificate=cert.value,
            )
        )
    return ValidationReport(rows)


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.out_dir is not None:
        config = dataclasses.replace(config, out_dir=Path(args.out_dir))
    if args.seed is not None:
        try:
            sweep = dataclasses.replace(config.sweep, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
        config = dataclasses.replace(config, sweep=sweep)
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hiermor",
        description="Adaptive FOM/RB/kernel hierarchy for parametric breakthrough curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured sweep")
    p_run.add_argument("config", type=Path)
    p_val = sub.add_parser("validate", help="run, then check bounds against FOM truth")
    p_val.add_argument("config", type=Path)
    p_val.add_argument("--n", type=int, default=20, help="number of validation points")
    for p in (p_run, p_val):
        p.add_argument("--out-dir", type=Path, default=None, help="override output directory")
        p.add_argument("--seed", type=int, default=None, help="override sweep seed")

    args = parser.parse_args(argv)
    if args.command == "validate" and args.n < 0:
        p_val.error(f"argument --n: must be >= 0, got {args.n}")

    try:
        config = _apply_overrides(load_config(args.config), args)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        where = f"{args.config}:{exc.lineno}" if exc.lineno else str(args.config)
        print(f"{where}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            return run(config)
        report = validate_run(config, args.n)
        out = config.out_dir
        out.mkdir(parents=True, exist_ok=True)
        (out / "validation.txt").write_text(report.text())
        print(report.text(), end="")
        return EXIT_BOUND_VIOLATION if report.n_violations else EXIT_OK
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
