"""Vectorial greedy orthogonal kernel surrogate for whole QoI time series.

A Gaussian kernel acts on box-normalized parameters (Da linear, Pe on a log
scale since the admissible range spans decades).  Centers are picked by
f-greedy selection on the L2-in-time norm of the vectorial residual; the
interpolant is maintained in the Newton basis, whose triangular factor also
yields the power function.  Prediction maps a parameter straight to all
n_steps output values without time integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .fem import ParameterBox, ParameterPoint, QoiVector

__all__ = [
    "KernelConfig",
    "TrainingEntry",
    "TrainingSet",
    "KernelModel",
    "kernel",
    "fit",
    "predict",
    "power_function",
    "save_model",
    "load_model",
]

# Squared power function below which a greedy candidate is numerically
# dependent on the selected centers and selection stops.
DEGENERACY_GUARD = 1e-12


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel and greedy-selection hyperparameters.

    `shape` is the kernel width in normalized coordinates.  `greedy_tol` is
    the absolute stopping tolerance on the max residual norm; None resolves
    to 1e-5 times the largest training norm at fit time.  `criterion` picks
    the next center by residual norm ("f") or by power function value ("p").
    """

    box: ParameterBox
    shape: float = 0.5
    max_centers: int = 200
    greedy_tol: float | None = None
    nugget: float = 0.0
    criterion: str = "f"

    def __post_init__(self):
        if self.shape <= 0.0:
            raise ValueError("shape must be positive")
        if self.max_centers < 1:
            raise ValueError("max_centers must be >= 1")
        if self.greedy_tol is not None and self.greedy_tol < 0.0:
            raise ValueError("greedy_tol must be nonnegative")
        if self.nugget < 0.0:
            raise ValueError("nugget must be nonnegative")
        if self.criterion not in ("f", "p"):
            raise ValueError(f"criterion must be one of f, p; got {self.criterion!r}")


def _box_scales(box: ParameterBox) -> tuple[float, float, float, float]:
    """Offsets and spans of the normalizing map: (da_min, da_max - da_min,
    log pe_min, log pe_max - log pe_min)."""
    log_min = math.log(box.pe_min)
    return box.da_min, box.da_max - box.da_min, log_min, math.log(box.pe_max) - log_min


def _normalize(box: ParameterBox, mus: np.ndarray) -> np.ndarray:
    """Map (da, pe) rows to the unit square; pe is rescaled logarithmically."""
    da_min, da_span, log_min, log_span = _box_scales(box)
    z = np.empty_like(mus, dtype=float)
    z[:, 0] = (mus[:, 0] - da_min) / da_span
    z[:, 1] = (np.log(mus[:, 1]) - log_min) / log_span
    return z


def _kernel_matrix(z1: np.ndarray, z2: np.ndarray, shape: float) -> np.ndarray:
    sq = ((z1[:, None, :] - z2[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-sq / (2.0 * shape**2))


def kernel(mu1: ParameterPoint, mu2: ParameterPoint, config: KernelConfig) -> float:
    """Gaussian kernel k(mu1, mu2) on box-normalized parameters."""
    z = _normalize(config.box, np.array([[mu1.da, mu1.pe], [mu2.da, mu2.pe]]))
    return float(_kernel_matrix(z[:1], z[1:], config.shape)[0, 0])


@dataclass(frozen=True)
class TrainingEntry:
    mu: ParameterPoint
    qoi: QoiVector
    source: str  # "FOM" or "RB"


class TrainingSet:
    """Ordered (mu, QoI, source) collection with unique parameter points, held
    in one insertion-ordered dict keyed by mu.

    Inserting at an existing mu replaces the stored pair unless that would
    downgrade a FOM-sourced target to an RB-sourced one; the entry keeps its
    original position either way, as assigning to a dict key does.
    """

    def __init__(self):
        self._entries: dict[ParameterPoint, TrainingEntry] = {}

    def add(self, mu: ParameterPoint, qoi: QoiVector, source: str) -> None:
        if source not in ("FOM", "RB"):
            raise ValueError("source must be 'FOM' or 'RB'")
        old = self._entries.get(mu)
        if old is None or not (old.source == "FOM" and source == "RB"):
            self._entries[mu] = TrainingEntry(mu, qoi, source)

    def copy(self) -> TrainingSet:
        """Independent set holding the same entries (which are immutable)."""
        out = TrainingSet()
        out._entries = dict(self._entries)
        return out

    @property
    def entries(self) -> list[TrainingEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())


@dataclass
class KernelModel:
    """Greedy-selected centers with Newton-basis factor and coefficient block.

    `newton_cholesky` is the lower-triangular factor of the kernel matrix
    restricted to the centers (plus nugget), in selection order;
    `coeff_block` holds one row of Newton coefficients per center.

    Derived on every construction (`fit`, `load_model`, `dataclasses.replace`),
    so that a prediction normalizes only its mu and does no other set-up:
    `center_da` and `center_pe`, the two columns of the box-normalized
    centers (`_normalize`) as contiguous arrays of length k; `box_scales`,
    the box constants of `_box_scales`; and `neg_two_shape_sq`, the divisor
    -(2 shape^2) of the kernel's exponent.
    Immutable after fit; concurrent predictions are safe.
    """

    centers: list[ParameterPoint]
    newton_cholesky: np.ndarray
    coeff_block: np.ndarray
    config: KernelConfig
    dt: float
    center_da: np.ndarray = field(init=False, repr=False, compare=False)
    center_pe: np.ndarray = field(init=False, repr=False, compare=False)
    box_scales: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)
    neg_two_shape_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        box = self.config.box
        mus = np.array([[c.da, c.pe] for c in self.centers]).reshape(-1, 2)
        self.center_da, self.center_pe = np.ascontiguousarray(_normalize(box, mus).T)
        self.box_scales = _box_scales(box)
        self.neg_two_shape_sq = -(2.0 * self.config.shape**2)

    @property
    def n_centers(self) -> int:
        return len(self.centers)


def fit(data: TrainingSet, config: KernelConfig) -> KernelModel:
    """Vectorial greedy orthogonal fit on the full training set.

    Selection loop: pick the candidate maximizing the residual norm (or the
    power function for criterion "p"), extend the Newton basis by one column,
    deflate the residuals, and stop on the residual tolerance, the center
    budget, or numerical degeneracy of the best candidate.  Ties break toward
    the lowest entry index, so refits are reproducible bit for bit.
    """
    entries = data.entries
    if not entries:
        raise ValueError("cannot fit a kernel model on an empty training set")
    m = len(entries)
    dts = {e.qoi.dt for e in entries}
    if len(dts) != 1:
        raise ValueError("training targets disagree on dt")
    dt = dts.pop()

    mus = np.array([[e.mu.da, e.mu.pe] for e in entries])
    targets = np.stack([e.qoi.values for e in entries])
    z = _normalize(config.box, mus)
    kmat = _kernel_matrix(z, z, config.shape)
    if config.nugget:
        kmat = kmat + config.nugget * np.eye(m)

    tol = config.greedy_tol
    if tol is None:
        tol = 1e-5 * math.sqrt(dt * float((targets**2).sum(axis=1).max()))

    budget = min(config.max_centers, m)
    newton = np.zeros((m, budget))
    power_sq = kmat.diagonal().copy()
    residual = targets.copy()
    selected: list[int] = []
    coeff_rows: list[np.ndarray] = []

    while len(selected) < budget:
        res_norms = np.sqrt(dt * (residual**2).sum(axis=1))
        res_norms[selected] = -np.inf
        if res_norms.max() <= tol:
            break
        if config.criterion == "f":
            scores = res_norms
        else:
            scores = power_sq.copy()
            scores[selected] = -np.inf
        best = int(np.argmax(scores))
        if power_sq[best] < DEGENERACY_GUARD:
            break
        k = len(selected)
        column = kmat[:, best] - newton[:, :k] @ newton[best, :k]
        beta = math.sqrt(power_sq[best])
        column /= beta
        coeff_rows.append(residual[best] / beta)
        residual -= np.outer(column, coeff_rows[-1])
        newton[:, k] = column
        power_sq -= column**2
        selected.append(best)

    k = len(selected)
    chol = np.tril(newton[selected, :k]) if k else np.zeros((0, 0))
    coeffs = np.vstack(coeff_rows) if k else np.zeros((0, targets.shape[1]))
    return KernelModel(
        centers=[entries[i].mu for i in selected],
        newton_cholesky=chol,
        coeff_block=coeffs,
        config=config,
        dt=dt,
    )


def _newton_values(model: KernelModel, mu: ParameterPoint) -> np.ndarray:
    """Newton basis functions evaluated at mu (length n_centers).

    The kernel row k(centers, mu) takes the operations of `_normalize` and
    `_kernel_matrix` in their order, on scalars for mu and on the cached
    center columns, so it has the same bits: (c - z)^2 = (z - c)^2, the sum
    of two squares is the length-2 reduction, and s / -w = -s / w.  Then
    L nu = k is solved as the transposed upper system on L.T, the LAPACK
    call `solve_triangular` makes for the C-ordered factor.
    """
    da_min, da_span, log_min, log_span = model.box_scales
    row = model.center_da - (mu.da - da_min) / da_span
    row *= row
    d_pe = model.center_pe - (np.log(mu.pe) - log_min) / log_span
    d_pe *= d_pe
    row += d_pe
    row /= model.neg_two_shape_sq
    np.exp(row, out=row)
    nu, info = dtrtrs(model.newton_cholesky.T, row, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Newton factor is singular or malformed (trtrs info {info})")
    return nu


def predict(model: KernelModel, mu: ParameterPoint) -> QoiVector:
    """Evaluate the surrogate at mu; cost O(n_centers * n_steps)."""
    if model.n_centers == 0:
        return QoiVector(np.zeros(model.coeff_block.shape[1]), model.dt)
    nu = _newton_values(model, mu)
    return QoiVector(nu @ model.coeff_block, model.dt)


def power_function(model: KernelModel, mu: ParameterPoint) -> float:
    """Worst-case interpolation error factor at mu; zero at every center.

    P(mu)^2 = k(mu, mu) - |nu(mu)|^2, and k(mu, mu) = exp(-0) = 1.
    """
    if model.n_centers == 0:
        return 1.0
    nu = _newton_values(model, mu)
    p_sq = 1.0 - float(nu @ nu)
    # the subtraction bottoms out at roundoff: below that the value is zero
    if p_sq < 16.0 * np.finfo(float).eps:
        return 0.0
    return math.sqrt(p_sq)


FORMAT_VERSION = 1


def save_model(model: KernelModel, path) -> None:
    """Persist a model as an uncompressed NPZ archive (see README for layout)."""
    cfg = model.config
    with open(path, "wb") as fh:
        np.savez(
            fh,
            format_version=np.int64(FORMAT_VERSION),
            box=np.array([cfg.box.da_min, cfg.box.da_max, cfg.box.pe_min, cfg.box.pe_max]),
            shape=np.float64(cfg.shape),
            max_centers=np.int64(cfg.max_centers),
            greedy_tol=np.float64(np.nan if cfg.greedy_tol is None else cfg.greedy_tol),
            nugget=np.float64(cfg.nugget),
            criterion=np.str_(cfg.criterion),
            centers=np.array([[c.da, c.pe] for c in model.centers]).reshape(-1, 2),
            newton_cholesky=model.newton_cholesky,
            coeff_block=model.coeff_block,
            dt=np.float64(model.dt),
        )


def load_model(path) -> KernelModel:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        box = ParameterBox(*data["box"].tolist())
        tol = float(data["greedy_tol"])
        config = KernelConfig(
            box=box,
            shape=float(data["shape"]),
            max_centers=int(data["max_centers"]),
            greedy_tol=None if math.isnan(tol) else tol,
            nugget=float(data["nugget"]),
            criterion=str(data["criterion"]),
        )
        centers = [ParameterPoint(da, pe) for da, pe in data["centers"]]
        return KernelModel(
            centers=centers,
            newton_cholesky=data["newton_cholesky"],
            coeff_block=data["coeff_block"],
            config=config,
            dt=float(data["dt"]),
        )
