"""Structure-preserving reduced basis ROM with a certified output error bound.

Galerkin projection of the full-order blocks onto an H-orthonormal basis,
online time stepping at cost independent of the FOM dimension, and the
classical residual-based bound on the L2-in-time output error

    delta_rb(mu) = sqrt( (C_s / alpha(mu))^2 * dt * sum_n ||r^n||_{H^-1}^2
                         + C_s^2 / alpha(mu) * ||c0 - P c0||_H^2 ),

where r^n is the full-order residual of the reconstructed reduced step,
C_s the dual norm of the output functional and alpha(mu) a computable
coercivity lower bound.  Residual dual norms are evaluated online as a
quadratic form in the reduced coefficients through a precomputed factor of
the Gramian of Riesz representers, so no n_dofs-sized object is touched per
query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgeqp3, dgesv

# `coercivity_constants` is called here by this name; the benchmark's span table
# looks it up in this module.
from .fem import (FomOperators, ParameterPoint, QoiVector, TimeGrid, Trajectory, affine,
                  coercivity_constants, theta)
# `hapod` is not called here; the benchmark's span table looks it up in this module.
from .pod import PodBasis, h_orthonormalize, hapod, pod  # noqa: F401

__all__ = [
    "ReducedModel",
    "ErrorBound",
    "project",
    "solve_rb",
    "estimate",
    "coercivity_lb",
    "enrich",
]


@dataclass
class ReducedModel:
    """Projected affine blocks plus everything the online error bound needs.

    `red_blocks` (Q, r, r) and `red_loads` (Q, r) are the FOM `blocks` and
    `loads` projected onto the basis, in the same theta order.  `riesz_sqrt`
    is a factor of the Gramian of the Riesz representers of all residual
    building blocks, with rows ordered [b_1 .. b_Q, M Phi, A_1 Phi .. A_Q Phi]
    (one row per load, then r rows per operator): it has Q + (Q + 1) r rows,
    one column per numerical rank of the representers, and
    riesz_sqrt @ riesz_sqrt.T is that Gramian up to `RIESZ_DROP_TOL`.  Only
    the factor is kept, for the cancellation-free dual-norm evaluation.

    `__post_init__` derives the C-contiguous per-basis operands the online
    tier contracts, so every construction (`project`, `dataclasses.replace`)
    refreshes them:

    - `step_terms` (Q + 1, 2 (r + 1)^2): per term [M_r, B_1 .. B_Q] the
      transposes of its share in the augmented step matrix
      S^ = [[M_r + dt A_r(mu), 0], [0, 1]] and right-hand side
      B^ = [[M_r, dt b_r(mu)], [0, 1]]; weighted by (1, dt theta) they sum
      to the transposes of S^ and B^, which LAPACK reads in Fortran order
      as S^ and B^ themselves.
    - `riesz_loads` (Q, q) and `riesz_ops` (Q + 1, r q): the load rows and
      the operator row blocks [R_M, R_1 .. R_Q] of `riesz_sqrt`.

    Immutable: enrichment builds a new model instead of mutating, so
    concurrent queries against one instance are safe.
    """

    basis: PodBasis
    red_mass: np.ndarray
    red_blocks: np.ndarray
    red_loads: np.ndarray
    red_output: np.ndarray
    red_init: np.ndarray
    riesz_sqrt: np.ndarray
    output_dual_norm: float
    gamma_diff: float
    gamma_react: float
    init_error: float
    init_state: np.ndarray
    step_terms: np.ndarray = field(init=False, repr=False, compare=False)
    riesz_loads: np.ndarray = field(init=False, repr=False, compare=False)
    riesz_ops: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.dim
        n_terms = len(self.red_loads)
        terms = np.zeros((n_terms + 1, 2, r + 1, r + 1))
        terms[0, :, :r, :r] = self.red_mass.T
        terms[0, :, r, r] = 1.0
        terms[1:, 0, :r, :r] = self.red_blocks.transpose(0, 2, 1)
        terms[1:, 1, r, :r] = self.red_loads
        self.step_terms = terms.reshape(n_terms + 1, -1)
        rows = np.ascontiguousarray(self.riesz_sqrt)
        self.riesz_loads = rows[:n_terms]
        self.riesz_ops = rows[n_terms:].reshape(n_terms + 1, r * rows.shape[1])

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass
class ErrorBound:
    delta_rb: float
    residual_norms: np.ndarray


def coercivity_lb(rm: ReducedModel, mu: ParameterPoint) -> float:
    """alpha(mu) = (1/pe) gamma_diff + da gamma_react.

    Each affine term is bounded below by its own minimal Rayleigh quotient
    against the H inner product; the advection term is skew up to a
    nonnegative outflow boundary contribution and is counted as zero.
    """
    alpha = affine(theta(mu), (rm.gamma_diff, 0.0, rm.gamma_react))
    if alpha <= 0.0:
        raise ValueError(f"parameter {mu} outside the coercive regime")
    return alpha


# Largest share of a residual component's dual norm that the Riesz factor
# may drop, relative to max(that norm, 1).
RIESZ_DROP_TOL = 1e-10


def _riesz_factor(y: np.ndarray) -> np.ndarray:
    """F with F @ F.T = Y^T Y up to the drop rule, from a pivoted QR of Y.

    Y P = Q R; row i of R carries no column beyond the i-th pivot, so keeping
    R's leading k rows drops ||R[k:, j]|| of column j.  k is the smallest
    value for which that is at most RIESZ_DROP_TOL * max(||R[:, j]||, 1) for
    every j.  F = (R[:k] P^T)^T, shape (columns of Y, k).
    """
    m = y.shape[1]
    qr, jpvt, *_ = dgeqp3(y, lwork=2 * m + (m + 1) * 32)  # blocked, block size 32
    rows = np.triu(qr[: min(qr.shape)])
    # tails[i, j] = ||R[i:, j]||^2, summed from the bottom so nothing cancels
    tails = np.cumsum(rows[::-1] ** 2, axis=0)[::-1]
    allowed = (RIESZ_DROP_TOL * np.maximum(np.sqrt(tails[0]), 1.0)) ** 2
    fits = np.all(tails <= allowed, axis=1)
    k = int(np.argmax(fits)) if fits.any() else rows.shape[0]
    factor = np.empty((k, m))
    factor[:, jpvt - 1] = rows[:k]
    return factor.T


def project(ops: FomOperators, basis: PodBasis, c0: np.ndarray) -> ReducedModel:
    """Build all reduced quantities for the given H-orthonormal basis.

    Cost is O(n_dofs * r^2) and pays once per enrichment, never per query:
    the residual components are mapped by one bidiagonal half-solve with the
    Cholesky factor of ip, and only a factor of their Riesz Gramian is kept.
    The initial-state terms are Euclidean in the coordinates of that factor.
    """
    phi = basis.modes
    factor = ops.ip_factor

    applied = [mat @ phi for mat in (ops.mass, *ops.blocks)]
    red_mass, *red_blocks = (phi.T @ a for a in applied)
    components = np.column_stack([ops.loads.T, *applied, ops.output])
    # Dual norms of residual combinations are ||w @ riesz_sqrt||_2.  With
    # ip = L D L^T, Y = D^-1/2 L^-1 C has Gramian Y^T Y = C^T ip^-1 C, the
    # representers' Gramian, never formed: contracting it with w would cancel
    # once the residual is small.  The factor is R^T of a pivoted QR of Y.
    y = factor.half_solve(components)
    c_s = float(np.linalg.norm(y[:, -1]))
    riesz_sqrt = _riesz_factor(y[:, :-1])
    gamma_diff, gamma_react = coercivity_constants(ops)

    init = factor.coords(np.column_stack([c0, phi]))
    red_init = init[:, 1:].T @ init[:, 0]
    init_error = float(np.linalg.norm(init[:, 0] - init[:, 1:] @ red_init))

    return ReducedModel(
        basis=basis,
        red_mass=red_mass,
        red_blocks=np.array(red_blocks),
        red_loads=ops.loads @ phi,
        red_output=phi.T @ ops.output,
        red_init=red_init,
        riesz_sqrt=riesz_sqrt,
        output_dual_norm=c_s,
        gamma_diff=gamma_diff,
        gamma_react=gamma_react,
        init_error=init_error,
        init_state=c0.copy(),
    )


def solve_rb(
    rm: ReducedModel, mu: ParameterPoint, grid: TimeGrid
) -> tuple[np.ndarray, QoiVector]:
    """Implicit Euler on the reduced system; returns (reduced trajectory, QoI).

    The trajectory has one row per time step (row 0 = projected initial
    state).  The step a^{k+1} = G a^k + g, G = S^-1 M, g = S^-1 dt b, with
    S = M + dt A(mu), is linear in the augmented state [a; 1]: the augmented
    propagator G^ = [[G, g], [0, 1]] solves S^ G^ = B^ for the augmented
    S^ and B^ of `ReducedModel.step_terms`, whose one product with
    (1, dt theta) builds both, so one LAPACK GESV gives G^ (for r = 0 a
    1 x 1 system).  The rows [a^n, 1] are then filled by doubling: with rows
    [0, m) known and P = (G^h)^T for some h <= m, rows [m, m + k) are rows
    [m - h, m - h + k) times P, k <= h, written in place; P is squared
    (h = m) only while more than h rows remain.  The last column stays
    exactly 1.  Cost O(r^3 log n_steps + n_steps r^2) in about
    2 log2(n_steps) products, and nothing touches an n_dofs-sized object.
    The trajectory returned is a view of the first r columns.  Raises
    RuntimeError when S is exactly singular.
    """
    r = rm.dim
    dt = grid.dt
    th = theta(mu)
    weights = np.array([1.0, dt * th[0], dt * th[1], dt * th[2]])
    step_t, rhs_t = (weights @ rm.step_terms).reshape(2, r + 1, r + 1)
    _, _, prop, info = dgesv(step_t.T, rhs_t.T, overwrite_a=1, overwrite_b=1)
    if info > 0:
        raise RuntimeError("reduced step matrix is singular (degenerate basis)")

    power = prop.T  # (G^h)^T for h = 1, C-ordered
    n_rows = grid.n_steps + 1
    traj = np.empty((n_rows, r + 1))
    traj[0, :r] = rm.red_init
    traj[0, r] = 1.0
    m = h = 1
    while m < n_rows:
        if m > h and n_rows - m > h:
            power = power @ power
            h = m
        k = min(h, n_rows - m)
        np.matmul(traj[m - h: m - h + k], power, out=traj[m: m + k])
        m += k
    traj = traj[:, :r]
    return traj, QoiVector(traj[1:] @ rm.red_output, dt)


def estimate(
    rm: ReducedModel, mu: ParameterPoint, reduced_traj: np.ndarray, grid: TimeGrid
) -> ErrorBound:
    """Residual-based bound on the L2-in-time output error at mu.

    The per-step residual is affine in the reduced coefficients, so its
    Riesz coordinates are mapped directly from the row blocks of
    `riesz_sqrt`, [R_load (Q rows), R_M (r rows), R_1 .. R_Q (r rows each)]
    for [b_1 .. b_Q, M Phi, A_1 Phi .. A_Q Phi]:

        mapped^n = theta . R_load - (a^n - a^{n-1}) R_M/dt - a^n R_theta,

    and its dual norm is the Euclidean norm of the row.  R_M/dt and
    R_theta = sum_q theta_q R_q come from one product with `riesz_ops`.  The
    difference is formed in a C-ordered copy of the trajectory (`solve_rb`
    returns a strided view, over which NumPy would loop row by row), and the
    two terms are two products on contiguous operands; the bits do not
    depend on the trajectory's layout.  Online cost O(n_steps * 2r * q), q
    the column count of `riesz_sqrt` (the rank of the residual
    representers, 46 at r = 36 on the desk config).
    """
    r = rm.dim
    dt = grid.dt
    th = theta(mu)

    traj = np.ascontiguousarray(reduced_traj)
    a_now = traj[1:]
    weights = np.array([[1.0 / dt, 0.0, 0.0, 0.0], [0.0, th[0], th[1], th[2]]])
    r_mass, r_theta = (weights @ rm.riesz_ops).reshape(2, r, rm.riesz_loads.shape[1])
    mapped = np.subtract(a_now, traj[:-1]) @ r_mass
    mapped += a_now @ r_theta
    np.subtract(np.asarray(th) @ rm.riesz_loads, mapped, out=mapped)
    sq = np.einsum("ni,ni->n", mapped, mapped)
    residual_norms = np.sqrt(sq)

    alpha = coercivity_lb(rm, mu)
    c_s = rm.output_dual_norm
    delta_sq = (c_s / alpha) ** 2 * dt * float(sq.sum())
    delta_sq += c_s**2 / alpha * rm.init_error**2
    return ErrorBound(math.sqrt(delta_sq), residual_norms)


# Relative H-norm of the projection error below which a trajectory counts as
# contained in the span, and enriching would add noise.
CONTAINMENT_RTOL = 1e-7


def enrich(
    rm: ReducedModel,
    fom_traj: Trajectory,
    ops: FomOperators,
    energy_tol: float = 1e-6,
    max_modes: int = 25,
) -> tuple[ReducedModel, int]:
    """Extend the basis by a POD of the trajectory's H-orthogonal projection error.

    Returns the rebuilt model and the number of modes added; zero added modes
    signals that the trajectory is already contained in the span and lets the
    caller detect stagnation.  Everything happens in the coordinates
    Y = D^1/2 L^T X of ip's cached factor (`FomOperators.ip_factor`), where
    the H inner product is the Euclidean one: the trajectory and the basis
    are mapped in once each, the error Y - Phi_Y (Phi_Y^T Y) is formed there
    in Y's order, and the containment test and the POD (`pod` without `ip`)
    read that one array.  The union [Phi_Y, new modes] is reorthonormalized
    with `h_orthonormalize`, old modes first, so the old span is preserved
    exactly, and mapped out once.  One POD serves every trajectory length.
    """
    factor = ops.ip_factor
    y = factor.coords(fom_traj.coeffs.T)
    phi_y = factor.coords(rm.basis.modes)
    err_t = y.T - (phi_y.T @ y).T @ phi_y.T  # transposed, so the error keeps Y's order
    if np.einsum("ij,ij->", err_t, err_t) <= CONTAINMENT_RTOL**2 * np.einsum("ij,ij->", y, y):
        return rm, 0

    new = pod(err_t.T, rank=max_modes, energy_tol=energy_tol)
    if new.dim == 0:
        return rm, 0

    union, _ = h_orthonormalize(np.hstack([phi_y, new.modes]), None)
    added = union.shape[1] - rm.dim
    if added <= 0:
        return rm, 0
    basis = PodBasis(factor.from_coords(union), np.ones(union.shape[1]))
    return project(ops, basis, rm.init_state), added
