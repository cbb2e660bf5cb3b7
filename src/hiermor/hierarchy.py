"""Adaptive three-tier controller routing parameter queries across ML, RB, FOM.

Every query walks the same decision ladder:

1. If the kernel surrogate is currently trusted, return its prediction.
2. Otherwise solve the reduced model and evaluate its error bound; when the
   bound meets the tolerance, the RB answer is returned and harvested as a
   training pair.
3. Otherwise fall back to the full-order solve, enrich the reduced basis
   with the new trajectory, harvest the FOM answer as a training pair, and
   return it.

The kernel model is refit from scratch whenever the training set has grown
by `retrain_every` points since the last fit.  Trust is either the blunt
training-set size threshold or a per-query validation against the
triangle-inequality certificate

    ||f_fom(mu) - f_ml(mu)|| <= delta_rb(mu) + ||f_rb(mu) - f_ml(mu)||,

which is computable without any full-order solve.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .fem import (
    FomOperators,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    qoi_norm,
    solve_fom,
)
from .kernel import KernelConfig, KernelModel, TrainingSet, fit, predict
from .pod import PodBasis
from .rb import ReducedModel, enrich, estimate, project, solve_rb

__all__ = [
    "HierarchyConfig",
    "MlCertificate",
    "QueryRecord",
    "AdaptiveHierarchy",
    "write_query_log",
    "CSV_COLUMNS",
]

logger = logging.getLogger(__name__)

TRUST_MODES = ("size_threshold", "always_validate", "never")


@dataclass(frozen=True)
class HierarchyConfig:
    """Controller knobs: ROM tolerance, retrain schedule and trust criterion."""

    rom_tol: float = 1e-2
    retrain_every: int = 10
    trust_threshold: int = 50
    trust_mode: str = "size_threshold"
    validation_slack: float = 1.0
    enrich_energy_tol: float = 1e-6
    enrich_max_modes: int = 25
    warm_start_corners: bool = False

    def __post_init__(self):
        if self.rom_tol <= 0.0:
            raise ValueError("rom_tol must be positive")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if self.trust_threshold < 1:
            raise ValueError("trust_threshold must be >= 1")
        if self.trust_mode not in TRUST_MODES:
            raise ValueError(f"trust_mode must be one of {TRUST_MODES}")
        if self.validation_slack <= 0.0:
            raise ValueError("validation_slack must be positive")


@dataclass
class MlCertificate:
    """Upper bound on the surrogate's output error, and the outputs it compared."""

    value: float
    delta_rb: float
    rb_ml_gap: float
    f_rb: QoiVector
    f_ml: QoiVector


@dataclass
class QueryRecord:
    index: int
    mu: ParameterPoint
    model_used: str  # "ML" | "RB" | "FOM"
    wall_time: float
    delta_rb: float | None
    ml_certificate: float | None
    rb_dim_after: int
    train_size_after: int


class AdaptiveHierarchy:
    """Sequential controller owning the reduced model, surrogate and training set.

    Queries mutate shared state (basis enrichment, harvested training pairs),
    so one query must complete before the next starts.  Counters count
    completed work.  A failing `solve_fom` or `enrich` leaves the basis,
    training set, FOM counter and record index as they were.  A failing `fit`
    keeps the harvested pair (and an enriched basis) and is retried by the
    next query.
    """

    def __init__(
        self,
        ops: FomOperators,
        grid: TimeGrid,
        box: ParameterBox,
        config: HierarchyConfig,
        kernel_config: KernelConfig,
        c0: np.ndarray | None = None,
    ):
        self.ops = ops
        self.grid = grid
        self.box = box
        self.config = config
        self.kernel_config = kernel_config
        self.c0 = np.zeros(ops.n_dofs) if c0 is None else np.asarray(c0, dtype=float)
        empty = PodBasis(np.zeros((ops.n_dofs, 0)), np.zeros(0))
        self.rm: ReducedModel = project(ops, empty, self.c0)
        self.train = TrainingSet()
        self.model: KernelModel | None = None
        self.counters = {"fom_solves": 0, "rb_solves": 0, "ml_predicts": 0, "fits": 0}
        self._last_fit_size = 0
        self._next_index = 1
        if config.warm_start_corners:
            for corner in box.corners():
                self._fom_branch(corner)
                self.maybe_retrain()

    # -- model evaluations with bookkeeping ---------------------------------

    def ml_answer(self, mu: ParameterPoint) -> QoiVector:
        """Surrogate prediction; the unfitted surrogate is the zero model."""
        answer = (QoiVector(np.zeros(self.grid.n_steps), self.grid.dt)
                  if self.model is None else predict(self.model, mu))
        self.counters["ml_predicts"] += 1
        return answer

    def rb_answer(self, mu: ParameterPoint) -> tuple[QoiVector, float]:
        """Reduced output and its error bound against the current basis."""
        traj, qoi = solve_rb(self.rm, mu, self.grid)
        bound = estimate(self.rm, mu, traj, self.grid)
        self.counters["rb_solves"] += 1
        return qoi, bound.delta_rb

    def _fom_branch(self, mu: ParameterPoint) -> QoiVector:
        """Full solve, basis enrichment and harvest of the FOM training pair."""
        traj, qoi = solve_fom(self.ops, mu, self.grid, self.c0)
        new_rm, added = enrich(
            self.rm,
            traj,
            self.ops,
            energy_tol=self.config.enrich_energy_tol,
            max_modes=self.config.enrich_max_modes,
        )
        if added == 0:
            logger.warning(
                "enrichment stagnated at mu=%s (trajectory already in span); "
                "returning the FOM answer anyway", mu,
            )
        self.counters["fom_solves"] += 1
        self.rm = new_rm
        self.train.add(mu, qoi, "FOM")
        return qoi

    # -- public protocol -----------------------------------------------------

    def trust(self, mu: ParameterPoint) -> bool:
        """Whether the surrogate's answer would be returned without validation."""
        mode = self.config.trust_mode
        if mode == "never":
            return False
        if mode == "size_threshold":
            return self.model is not None and len(self.train) >= self.config.trust_threshold
        return self.certify(mu).value <= self.config.validation_slack * self.config.rom_tol

    def certify(self, mu: ParameterPoint) -> MlCertificate:
        """Triangle-inequality bound on the surrogate error; no FOM solve involved.

        An unfitted surrogate counts as the zero model, so the certificate
        degenerates to delta_rb + ||f_rb||.
        """
        f_rb, delta = self.rb_answer(mu)
        f_ml = self.ml_answer(mu)
        gap = qoi_norm(QoiVector(f_rb.values - f_ml.values, f_rb.dt))
        return MlCertificate(delta + gap, delta, gap, f_rb, f_ml)

    def maybe_retrain(self) -> bool:
        """Refit the surrogate if the training set grew enough since the last fit."""
        if len(self.train) - self._last_fit_size >= self.config.retrain_every:
            self.model = fit(self.train, self.kernel_config)
            self.counters["fits"] += 1
            self._last_fit_size = len(self.train)
            return True
        return False

    def query(self, mu: ParameterPoint) -> tuple[QoiVector, QueryRecord]:
        """Answer one parameter query through the adaptive ladder."""
        if not self.box.contains(mu):
            raise ValueError(f"{mu} lies outside the parameter box {self.box}")
        start = time.perf_counter()
        index = self._next_index
        cfg = self.config

        delta: float | None = None
        cert: MlCertificate | None = None

        if cfg.trust_mode == "size_threshold" and self.trust(mu):
            answer = self.ml_answer(mu)
            used = "ML"
        else:
            cert = self.certify(mu) if cfg.trust_mode == "always_validate" else None
            f_rb, delta = (cert.f_rb, cert.delta_rb) if cert else self.rb_answer(mu)
            if cert is not None and cert.value <= cfg.validation_slack * cfg.rom_tol:
                answer = cert.f_ml
                used = "ML"
            elif delta <= cfg.rom_tol:
                self.train.add(mu, f_rb, "RB")
                self.maybe_retrain()
                answer = f_rb
                used = "RB"
            else:
                answer = self._fom_branch(mu)
                self.maybe_retrain()
                used = "FOM"

        self._next_index = index + 1
        record = QueryRecord(
            index=index,
            mu=mu,
            model_used=used,
            wall_time=time.perf_counter() - start,
            delta_rb=delta,
            ml_certificate=None if cert is None else cert.value,
            rb_dim_after=self.rm.dim,
            train_size_after=len(self.train),
        )
        return answer, record


# -- query log export ---------------------------------------------------------

CSV_COLUMNS = (
    "index",
    "da",
    "pe",
    "model_used",
    "wall_time",
    "delta_rb",
    "ml_certificate",
    "rb_dim_after",
    "train_size_after",
)


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def write_query_log(records: list[QueryRecord], path) -> None:
    """CSV export, one row per query; floats carry 17 significant digits."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.index,
                    _fmt(rec.mu.da),
                    _fmt(rec.mu.pe),
                    rec.model_used,
                    _fmt(rec.wall_time),
                    _fmt(rec.delta_rb),
                    _fmt(rec.ml_certificate),
                    rec.rb_dim_after,
                    rec.train_size_after,
                ]
            )
