"""Adaptive three-tier controller routing parameter queries across ML, RB, FOM.

Every query walks the same decision ladder:

1. If the kernel surrogate is currently trusted, return its prediction.
2. Otherwise solve the reduced model and evaluate its error bound; when the
   bound meets the tolerance, the RB answer is returned and harvested as a
   training pair.
3. Otherwise fall back to the full-order solve, enrich the reduced basis
   with the new trajectory, harvest the FOM answer as a training pair, and
   return it.

A refit of the kernel model from scratch falls due whenever the training
set has grown by `retrain_every` points since the last one fell due.  The
controller keeps that training set and fits it the first time something
reads the surrogate, so a refit that a later one replaces unread costs
nothing; the fit is deterministic, so every answer is the one an eager fit
would give.  Trust is either the blunt training-set size threshold or a
per-query validation against the triangle-inequality certificate

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
    """Controller knobs: ROM tolerance, retrain schedule and trust criterion.

    `size_threshold` ML answers carry no bound (their `ml_certificate` is
    empty) and can miss `rom_tol`; `always_validate` ones carry a certificate.
    """

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
            raise ValueError(f"trust_mode must be one of {', '.join(TRUST_MODES)}; "
                             f"got {self.trust_mode!r}")
        if self.validation_slack <= 0.0:
            raise ValueError("validation_slack must be positive")


@dataclass
class MlCertificate:
    """Upper bound on the surrogate's output error, and the outputs it compared."""

    value: float
    delta_rb: float
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

    A query changes controller state all at once or not at all.  `query()`
    walks the ladder once, computing in locals the answer, the candidate
    basis and training set, the surrogate it read, and the counter
    increments; `_commit` writes them in one step, and only then does the
    record index advance.  A query that raises (a parameter outside the box,
    a failing `solve_fom`, `enrich` or `fit`) changes nothing.  Each query
    starts from the state the previous one left, so queries run one at a
    time.

    When a refit falls due, the controller keeps the training set instead of
    a model, and the first read fits it: an ML answer, a certificate, or the
    `model` property.  So a failing fit surfaces in the query that first
    reads the model, and `counters["fits"]` counts the fits made.
    `rb_answer` only evaluates; `ml_answer` and `certify` write nothing but
    such a fit, committed through `model`.
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
        # The fitted surrogate, or the training set a refit fell due on.
        self._surrogate: KernelModel | TrainingSet | None = None
        self.counters = dict.fromkeys(
            ("fom_solves", "rb_solves", "ml_predicts", "fits", "stagnated"), 0)
        self._last_due_size = 0  # training-set size at which the last refit fell due
        self._next_index = 1
        if config.warm_start_corners:
            for corner in box.corners():
                work: dict[str, int] = {}
                self._commit(work, self._harvest(corner, None, work, self._surrogate)[1])

    @property
    def model(self) -> KernelModel | None:
        """The kernel surrogate; None until a first refit falls due.

        A refit that fell due is made on this read and committed; a fit that
        raises changes nothing.
        """
        work: dict[str, int] = {}
        model = self._fitted(work)
        self._commit(work, (self.rm, self.train, model, self._last_due_size))
        return model

    def _fitted(self, work: dict[str, int]) -> KernelModel | None:
        """The surrogate as read now: the fit of a due training set (counted in
        `work`), else the stored model.  Writes nothing."""
        if isinstance(self._surrogate, TrainingSet):
            work["fits"] = 1
            return fit(self._surrogate, self.kernel_config)
        return self._surrogate

    # -- evaluations against the current state -------------------------------

    def ml_answer(self, mu: ParameterPoint) -> QoiVector:
        """Surrogate prediction; the unfitted surrogate is the zero model."""
        return self._ml_answer(self.model, mu)

    def _ml_answer(self, model: KernelModel | None, mu: ParameterPoint) -> QoiVector:
        if model is None:
            return QoiVector(np.zeros(self.grid.n_steps), self.grid.dt)
        return predict(model, mu)

    def rb_answer(self, mu: ParameterPoint) -> tuple[QoiVector, float]:
        """Reduced output and its error bound against the current basis."""
        traj, qoi = solve_rb(self.rm, mu, self.grid)
        return qoi, estimate(self.rm, mu, traj, self.grid).delta_rb

    def certify(self, mu: ParameterPoint) -> MlCertificate:
        """Triangle-inequality bound on the surrogate error; no FOM solve involved.

        An unfitted surrogate counts as the zero model, so the certificate
        degenerates to delta_rb + ||f_rb||.
        """
        return self._certify(self.model, mu)

    def _certify(self, model: KernelModel | None, mu: ParameterPoint) -> MlCertificate:
        f_rb, delta = self.rb_answer(mu)
        f_ml = self._ml_answer(model, mu)
        gap = qoi_norm(QoiVector(f_rb.values - f_ml.values, f_rb.dt))
        return MlCertificate(delta + gap, delta, f_rb, f_ml)

    # -- the query ladder ------------------------------------------------------

    def query(self, mu: ParameterPoint) -> tuple[QoiVector, QueryRecord]:
        """Answer one parameter query through the adaptive ladder."""
        if not self.box.contains(mu):
            raise ValueError(f"{mu} lies outside the parameter box {self.box}")
        start = time.perf_counter()
        cfg = self.config
        delta = cert = None
        work: dict[str, int] = {}
        surrogate = self._surrogate
        # Size-threshold trust needs a fitted or due surrogate; the check fits nothing.
        trusted = (cfg.trust_mode == "size_threshold" and surrogate is not None
                   and len(self.train) >= cfg.trust_threshold)
        if trusted or cfg.trust_mode == "always_validate":
            surrogate = self._fitted(work)
        learned = (self.rm, self.train, surrogate, self._last_due_size)

        if trusted:
            answer, used = self._ml_answer(surrogate, mu), "ML"
            work["ml_predicts"] = 1
        else:
            cert = self._certify(surrogate, mu) if cfg.trust_mode == "always_validate" else None
            f_rb, delta = (cert.f_rb, cert.delta_rb) if cert else self.rb_answer(mu)
            work.update(rb_solves=1, ml_predicts=int(cert is not None))
            if cert is not None and cert.value <= cfg.validation_slack * cfg.rom_tol:
                answer, used = cert.f_ml, "ML"
            else:
                used = "RB" if delta <= cfg.rom_tol else "FOM"
                answer, learned = self._harvest(mu, f_rb if used == "RB" else None, work,
                                                surrogate)

        self._commit(work, learned)
        self._next_index += 1
        record = QueryRecord(
            index=self._next_index - 1,
            mu=mu,
            model_used=used,
            wall_time=time.perf_counter() - start,
            delta_rb=delta,
            ml_certificate=None if cert is None else cert.value,
            rb_dim_after=self.rm.dim,
            train_size_after=len(self.train),
        )
        return answer, record

    def _harvest(self, mu: ParameterPoint, f_rb: QoiVector | None, work: dict[str, int],
                 surrogate: KernelModel | TrainingSet | None):
        """Answer and (basis, training set, surrogate, last due size) after
        learning mu; the last due size is the training-set size at which the
        last refit fell due.

        `f_rb` None takes the FOM branch.  `surrogate` is the one the query
        read.  A refit that falls due stores the new training set in its
        place, unfitted; `_harvest` copies the set before adding, so nothing
        mutates it later.  Writes nothing but the caller's `work`.
        """
        cfg = self.config
        rm, train, answer = self.rm, self.train.copy(), f_rb
        if f_rb is None:
            traj, answer = solve_fom(self.ops, mu, self.grid, self.c0)
            rm, added = enrich(rm, traj, self.ops, energy_tol=cfg.enrich_energy_tol,
                               max_modes=cfg.enrich_max_modes)
            work["fom_solves"] = 1
            if added == 0:
                logger.warning("enrichment stagnated at mu=%s (trajectory already in span); "
                               "returning the FOM answer anyway", mu)
                work["stagnated"] = 1
        train.add(mu, answer, "RB" if f_rb is not None else "FOM")
        due_size = self._last_due_size
        if len(train) - due_size >= cfg.retrain_every:
            surrogate, due_size = train, len(train)
        return answer, (rm, train, surrogate, due_size)

    def _commit(self, work: dict[str, int], learned: tuple) -> None:
        """The one place controller state is written: counters, then what was learned."""
        for key, n in work.items():
            self.counters[key] += n
        self.rm, self.train, self._surrogate, self._last_due_size = learned


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
