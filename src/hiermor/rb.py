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
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqp3, dgesv

# `coercivity_constants` is called here by this name; the benchmark's span table
# looks it up in this module.
from .fem import (FomOperators, ParameterPoint, QoiVector, TimeGrid, Trajectory, affine,
                  coercivity_constants, theta)
# `hapod` is not called here; the benchmark's span table looks it up in this module.
from .pod import h_orthonormalize, hapod, pod  # noqa: F401

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
    """The per-basis operands the online tier contracts, and the bound's constants.

    `project` writes them once per basis, and nothing else of the reduced
    operators is kept.  Both stacks are C-contiguous, one row per term
    [M, A_1 .. A_Q], for the H-orthonormal `modes` Phi (n_dofs, r):

    - `step_terms` (Q + 1, 2 (r + 1)^2): per term the transposes of its share
      in the augmented step matrix S^ = [[M_r + dt A_r(mu), 0], [0, 1]] and
      right-hand side B^ = [[M_r, dt b_r(mu)], [0, 1]] (M_r = Phi^T M Phi,
      and so on); weighted by (1, dt theta) they sum to the transposes of S^
      and B^, which LAPACK reads in Fortran order as S^ and B^ themselves.
    - `riesz_terms` (Q + 1, (r + 1) q): per term the rows of a factor of the
      residual representers' Riesz Gramian (q its numerical rank) that map
      the augmented state [a; 1]: [R_M; 0] for the mass and [R_q; -R_load_q]
      for operator q, so each term's load row rides on the trailing 1.

    Immutable: enrichment builds a new model instead of mutating, so
    concurrent queries against one instance are safe.
    """

    modes: np.ndarray
    step_terms: np.ndarray
    riesz_terms: np.ndarray
    red_output: np.ndarray
    red_init: np.ndarray
    output_dual_norm: float
    gamma_diff: float
    gamma_react: float
    init_error: float
    init_state: np.ndarray

    @property
    def dim(self) -> int:
        return self.modes.shape[1]


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
    every j.  F = (R[:k] P^T)^T, shape (columns of Y, k).  `project` passes
    only the distinct residual components (3 + 3r on `assemble`'s
    operators); a duplicate column would have the rows of its twin, so it
    meets the rule whenever the twin does.
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


def project(ops: FomOperators, modes: np.ndarray, c0: np.ndarray) -> ReducedModel:
    """Build all reduced quantities for the H-orthonormal basis `modes` (n_dofs, r).

    Cost is O(n_dofs * r^2) and pays once per enrichment, never per query:
    the residual components are mapped by one bidiagonal half-solve with the
    Cholesky factor of ip, and only a factor of their Riesz Gramian is kept,
    its rows scattered into the per-term blocks of `riesz_terms`.  A term
    whose operator is bitwise equal to an earlier one's
    (`FomOperators.term_sources`; on `assemble`'s operators the reaction
    block is the mass) is applied, projected and factored once: the product,
    the half-solve and the pivoted QR run over the 3 + 3r distinct
    components, and the term's projected block and its rows of
    `riesz_terms` are bitwise copies of its source's.  The initial-state
    terms are Euclidean in the coordinates of that factor.
    """
    factor = ops.ip_factor
    r, n_terms = modes.shape[1], len(ops.loads)
    operators = (ops.mass, *ops.blocks)
    sources = ops.term_sources

    applied = {k: operators[k] @ modes for k in dict.fromkeys(sources)}  # by distinct term
    red = {k: modes.T @ a for k, a in applied.items()}
    red_mass, *red_blocks = (red[k] for k in sources)
    steps = np.zeros((n_terms + 1, 2, r + 1, r + 1))
    steps[0, :, :r, :r] = red_mass.T
    steps[0, :, r, r] = 1.0
    steps[1:, 0, :r, :r] = np.transpose(red_blocks, (0, 2, 1))
    steps[1:, 1, r, :r] = ops.loads @ modes

    components = np.column_stack([ops.loads.T, *applied.values(), ops.output])
    # Dual norms of residual combinations are ||w @ riesz_sqrt||_2.  With
    # ip = L D L^T, Y = D^-1/2 L^-1 C has Gramian Y^T Y = C^T ip^-1 C, the
    # representers' Gramian, never formed: contracting it with w would cancel
    # once the residual is small.  The factor is R^T of a pivoted QR of Y, one
    # row per component [b_1 .. b_Q, T Phi for each distinct term T of M,
    # A_1 .. A_Q]; its roundoff depends on that column order, so the rows are
    # scattered, not reordered.  A duplicate term's rows are its source's, so
    # each of the 3 + 4r components still meets the drop rule.
    y = factor.half_solve(components)
    c_s = float(np.linalg.norm(y[:, -1]))
    riesz_sqrt = _riesz_factor(y[:, :-1])
    q = riesz_sqrt.shape[1]
    riesz = np.zeros((n_terms + 1, r + 1, q))
    rows = dict(zip(applied, riesz_sqrt[n_terms:].reshape(len(applied), r, q)))
    riesz[:, :r] = [rows[k] for k in sources]
    riesz[1:, r] = -riesz_sqrt[:n_terms]
    gamma_diff, gamma_react = coercivity_constants(ops)

    init = factor.coords(np.column_stack([c0, modes]))
    red_init = init[:, 1:].T @ init[:, 0]
    init_error = float(np.linalg.norm(init[:, 0] - init[:, 1:] @ red_init))

    return ReducedModel(
        modes=modes,
        step_terms=steps.reshape(n_terms + 1, -1),
        riesz_terms=riesz.reshape(n_terms + 1, -1),
        red_output=modes.T @ ops.output,
        red_init=red_init,
        output_dual_norm=c_s,
        gamma_diff=gamma_diff,
        gamma_react=gamma_react,
        init_error=init_error,
        init_state=c0.copy(),
    )


def solve_rb(
    rm: ReducedModel, mu: ParameterPoint, grid: TimeGrid
) -> tuple[np.ndarray, QoiVector]:
    """Implicit Euler on the reduced system; returns (augmented trajectory, QoI).

    The trajectory has one row [a^n, 1] per time step (row 0 = projected
    initial state), shape (n_steps + 1, r + 1), C-ordered, last column
    exactly 1; `estimate` reads it as it is.  The step
    a^{k+1} = G a^k + g, G = S^-1 M, g = S^-1 dt b, with S = M + dt A(mu),
    is linear in the augmented state [a; 1]: the augmented propagator
    G^ = [[G, g], [0, 1]] solves S^ G^ = B^ for the augmented S^ and B^ of
    `ReducedModel.step_terms`, whose one product with (1, dt theta) builds
    both, so one LAPACK GESV gives G^ (for r = 0 a 1 x 1 system).  The rows
    are then filled by doubling: with rows [0, m) known and P = (G^h)^T for
    some h <= m, rows [m, m + k) are rows [m - h, m - h + k) times P,
    k <= h, written in place; P is squared (h = m) only while more than h
    rows remain.  Cost O(r^3 log n_steps + n_steps r^2) in about
    2 log2(n_steps) products, and nothing touches an n_dofs-sized object.
    Raises RuntimeError when S is exactly singular.
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
    # the first r columns, not [a^n, 1] against a zero-padded output, which
    # sums in another order at some r (43, the n = 2048 end basis) and
    # would move the QoI's bits
    return traj, QoiVector(traj[1:, :r] @ rm.red_output, dt)


def estimate(
    rm: ReducedModel, mu: ParameterPoint, reduced_traj: np.ndarray, grid: TimeGrid
) -> ErrorBound:
    """Residual-based bound on the L2-in-time output error at mu.

    `reduced_traj` is the augmented trajectory that `solve_rb` returns,
    rows t^n = [a^n, 1], shape (n_steps + 1, r + 1); any other shape raises
    ValueError.  The per-step residual
    b(mu) - M Phi (a^n - a^{n-1})/dt - A(mu) Phi a^n is affine in t^n, so
    its Riesz coordinates, up to a sign the norm drops, are the row

        t^n Z_theta + (t^n - t^{n-1}) Z_M,

    Z_M = [R_M/dt; 0] and Z_theta = [sum_q theta_q R_q; -theta . R_load],
    both from one product of (1/dt, theta) with
    `ReducedModel.riesz_terms`; its dual norm is the Euclidean norm of the
    row.  The load rides on the trailing 1 of t^n, whose difference is
    exactly 0.  The trajectory is read through `np.ascontiguousarray`, free
    on `solve_rb`'s buffer, so the bits do not depend on its layout.  Online
    cost O(n_steps * 2(r + 1) * q), q the column count of each term's block
    of `riesz_terms` (the rank of the residual representers, 46 at r = 36 on
    the desk config).
    """
    r = rm.dim
    dt = grid.dt
    th = theta(mu)
    if reduced_traj.shape != (grid.n_steps + 1, r + 1):
        raise ValueError(
            f"reduced trajectory has shape {reduced_traj.shape}, expected "
            f"(n_steps + 1, rm.dim + 1) = {(grid.n_steps + 1, r + 1)}")

    traj = np.ascontiguousarray(reduced_traj)
    t_now = traj[1:]
    weights = np.array([[1.0 / dt, 0.0, 0.0, 0.0], [0.0, th[0], th[1], th[2]]])
    z_mass, z_theta = (weights @ rm.riesz_terms).reshape(2, r + 1, -1)
    mapped = t_now @ z_theta
    mapped += np.subtract(t_now, traj[:-1]) @ z_mass
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
    exactly, and mapped out once as the modes `project` takes; when it keeps
    no new column (the POD found none) the model itself comes back.  One POD
    serves every trajectory length.
    """
    factor = ops.ip_factor
    y = factor.coords(fom_traj.coeffs.T)
    phi_y = factor.coords(rm.modes)
    err_t = (phi_y.T @ y).T @ phi_y.T  # transposed, so the error keeps Y's order,
    np.subtract(y.T, err_t, out=err_t)  # and in the product's buffer, as in `pod`
    if np.einsum("ij,ij->", err_t, err_t) <= CONTAINMENT_RTOL**2 * np.einsum("ij,ij->", y, y):
        return rm, 0

    new = pod(err_t.T, rank=max_modes, energy_tol=energy_tol)
    union, _ = h_orthonormalize(np.hstack([phi_y, new.modes]), None)
    added = union.shape[1] - rm.dim
    if added <= 0:
        return rm, 0
    return project(ops, factor.from_coords(union), rm.init_state), added
