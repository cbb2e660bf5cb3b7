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
from scipy.linalg.lapack import dgeqp3, dgesv, dpttrf

from .fem import (FomOperators, IpFactor, ParameterPoint, QoiVector, TimeGrid, Trajectory, affine,
                  theta, tridiagonal)
# `hapod` is not called here; the benchmark's span table looks it up in this module.
from .pod import PodBasis, h_orthonormalize, hapod, pod  # noqa: F401

__all__ = [
    "ReducedModel",
    "ErrorBound",
    "project",
    "solve_rb",
    "estimate",
    "coercivity_lb",
    "coercivity_constants",
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

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass
class ErrorBound:
    delta_rb: float
    residual_norms: np.ndarray


def _pencil_min_eig(a, b) -> float:
    """Largest s found by bisection at which a - s b (b SPD) factors by Cholesky."""
    ad, ae = tridiagonal(a)
    bd, be = tridiagonal(b)
    if dpttrf(ad, ae)[2] != 0:
        raise ValueError("operator is not positive definite; 0 is no coercivity bound")
    lo, hi = 0.0, float(np.min(ad / bd))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if dpttrf(ad - mid * bd, ae - mid * be)[2] == 0:
            lo = mid
        else:
            hi = mid
    return lo


def coercivity_constants(ops: FomOperators) -> tuple[float, float]:
    """Minimal generalized eigenvalues of the diffusion and reaction blocks against ip.

    Computed once per operator set and cached on it.  By Sylvester's law of
    inertia, a - s ip is positive definite exactly below the pencil's minimal
    eigenvalue.  Bisection brackets it in [0, min_i a_ii / ip_ii] (0 once a
    itself factors; a unit vector's Rayleigh quotient is at or above the
    minimum) and tests each midpoint with one O(n_dofs) tridiagonal Cholesky
    factorization, O(n_dofs log(1/eps)) in all.  The value is the bracket's
    lower end, at which the factorization succeeded.  Raises ValueError for
    an operator that is not symmetric tridiagonal or not positive definite.
    """
    if ops._coercivity is None:
        diffusion, _, reaction = ops.blocks
        ops._coercivity = (_pencil_min_eig(diffusion, ops.ip), _pencil_min_eig(reaction, ops.ip))
    return ops._coercivity


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
    """
    phi = basis.modes

    applied = [mat @ phi for mat in (ops.mass, *ops.blocks)]
    red_mass, *red_blocks = (phi.T @ a for a in applied)
    components = np.column_stack([ops.loads.T, *applied, ops.output])
    # Dual norms of residual combinations are ||w @ riesz_sqrt||_2.  With
    # ip = L D L^T, Y = D^-1/2 L^-1 C has Gramian Y^T Y = C^T ip^-1 C, the
    # representers' Gramian, never formed: contracting it with w would cancel
    # once the residual is small.  The factor is R^T of a pivoted QR of Y.
    y = ops.ip_half_solve(components)
    c_s = float(np.linalg.norm(y[:, -1]))
    riesz_sqrt = _riesz_factor(y[:, :-1])
    gamma_diff, gamma_react = coercivity_constants(ops)

    red_init = phi.T @ (ops.ip @ c0)
    residual0 = c0 - phi @ red_init
    init_error = math.sqrt(max(float(residual0 @ (ops.ip @ residual0)), 0.0))

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
    state).  One LAPACK GESV of the step matrix S = M + dt A(mu) against
    [M | dt b] (one LU factorization and its solve) gives the one-step
    propagator a^{k+1} = G a^k + g, G = S^-1 M, g = S^-1 dt b.
    The rows are then filled by doubling: with rows [0, m) known, row m + j
    is a^{m+j} = G^m a^j + c_m, c_m = sum_{i<m} G^i g, for j < m; then
    c_2m = G^m c_m + c_m and G^2m = G^m G^m.  Cost O(r^3 + n_steps r^2) in
    ceil(log2(n_steps + 1)) trajectory products instead of one triangular
    solve per step.  Nothing here touches an n_dofs-sized object.  Raises
    RuntimeError when S is exactly singular.
    """
    r = rm.dim
    dt = grid.dt
    if r == 0:
        return np.zeros((grid.n_steps + 1, 0)), QoiVector(np.zeros(grid.n_steps), dt)

    th = theta(mu)
    step = rm.red_mass + dt * affine(th, rm.red_blocks)
    _, _, prop, info = dgesv(step, np.column_stack([rm.red_mass, dt * affine(th, rm.red_loads)]))
    if info > 0:
        raise RuntimeError("reduced step matrix is singular (degenerate basis)")

    g_pow, c = prop[:, :r], prop[:, r]  # G^m and c_m, for m = 1
    n_rows = grid.n_steps + 1
    traj = np.empty((n_rows, r))
    traj[0] = rm.red_init
    m = 1
    while m < n_rows:
        k = min(m, n_rows - m)
        traj[m: m + k] = traj[:k] @ g_pow.T + c
        m += k
        if m < n_rows:
            c = g_pow @ c + c
            g_pow = g_pow @ g_pow
    return traj, QoiVector(traj[1:] @ rm.red_output, dt)


def estimate(
    rm: ReducedModel, mu: ParameterPoint, reduced_traj: np.ndarray, grid: TimeGrid
) -> ErrorBound:
    """Residual-based bound on the L2-in-time output error at mu.

    The per-step residual is affine in the reduced coefficients, so its
    Riesz coordinates are mapped directly from the row blocks of
    `riesz_sqrt`, [R_load (Q rows), R_M (r rows), R_1 .. R_Q (r rows each)]
    for [b_1 .. b_Q, M Phi, A_1 Phi .. A_Q Phi]:

        mapped^n = theta . R_load - (a^n - a^{n-1})/dt R_M - a^n R_theta,

    with R_theta = sum_q theta_q R_q formed once per mu, and its dual norm
    is the Euclidean norm of the row.  Online cost O(n_steps * 2r * q) in
    two products, q the column count of `riesz_sqrt` (the rank of the
    residual representers, 47 at r = 36 on the desk config).
    """
    r = rm.dim
    dt = grid.dt
    th = theta(mu)

    rq = rm.riesz_sqrt
    n_terms = len(rm.red_loads)
    r_blocks = rq[n_terms + r:].reshape(n_terms, r, rq.shape[1])
    a_now = reduced_traj[1:]
    mapped = (a_now - reduced_traj[:-1]) / dt @ rq[n_terms: n_terms + r]
    mapped += a_now @ affine(th, r_blocks)
    np.subtract(np.asarray(th) @ rq[:n_terms], mapped, out=mapped)
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


def _projection_error(snapshots: np.ndarray, phi: np.ndarray, ip):
    """The H-orthogonal projection error of the snapshots onto span(phi), its
    energy and the snapshots' energy (squared H-norms summed over columns).

    Both energies are Euclidean in the coordinates of ip's factor, where the
    projection is two dense products.  The error keeps the snapshots'
    Fortran order, the one the POD's coordinates take.
    """
    factor = IpFactor.of(ip)
    y = factor.coords(snapshots)
    phi_y = factor.coords(phi)
    coeffs = phi_y.T @ y
    err = (snapshots.T - coeffs.T @ phi.T).T
    resid = y.T - coeffs.T @ phi_y.T
    return err, float(np.einsum("ij,ij->", resid, resid)), float(np.einsum("ij,ij->", y, y))


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
    caller detect stagnation.  The union basis is reorthonormalized with
    `h_orthonormalize`, old modes first, so the old span is preserved exactly.
    One POD serves every trajectory length.
    """
    snapshots = fom_traj.coeffs.T
    phi = rm.basis.modes
    err, total, traj_energy = _projection_error(snapshots, phi, ops.ip)
    if total <= CONTAINMENT_RTOL**2 * traj_energy:
        return rm, 0

    new = pod(err, ops.ip, rank=max_modes, energy_tol=energy_tol)
    if new.dim == 0:
        return rm, 0

    union, _ = h_orthonormalize(np.hstack([phi, new.modes]), ops.ip, drop_tol=1e-10)
    added = union.shape[1] - rm.dim
    if added <= 0:
        return rm, 0
    basis = PodBasis(union, np.ones(union.shape[1]))
    return project(ops, basis, rm.init_state), added
