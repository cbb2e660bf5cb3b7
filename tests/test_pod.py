import importlib

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermor import ParameterPoint, pod, hapod, solve_fom
from hiermor.pod import (OVERSAMPLING, QR_BLOCK, RANK_CUTOFF, SKETCH_SEED, _fix_signs,
                         _left_svd, _pod_impl, _sketch, h_orthonormalize)


def h_matrix(ops):
    return ops.ip


def projection_error_sq(snapshots, modes, ip=None):
    """Total squared H-projection error of the columns onto span(modes)."""
    if ip is None:
        coeffs = modes.T @ snapshots
        residual = snapshots - modes @ coeffs
        return float(np.einsum("ij,ij->", residual, residual))
    coeffs = modes.T @ (ip @ snapshots)
    residual = snapshots - modes @ coeffs
    return float(np.einsum("ij,ij->", residual, ip @ residual))


# -- pod ------------------------------------------------------------------------


def test_single_snapshot(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(3)
    v = rng.standard_normal(ops.n_dofs)
    basis = pod(v[:, None], ops.ip)
    assert basis.dim == 1
    norm = np.sqrt(float(v @ (ops.ip @ v)))
    assert basis.singular_values[0] == pytest.approx(norm, rel=1e-12)
    # mode is v normalized, up to the sign convention
    mode = basis.modes[:, 0]
    assert np.allclose(np.abs(mode), np.abs(v / norm), atol=1e-12)


def test_duplicated_orthonormal_set(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(5)
    q, _ = h_orthonormalize(rng.standard_normal((ops.n_dofs, 3)), ops.ip)
    basis = pod(np.hstack([q, q]), ops.ip)
    assert basis.dim == 3
    assert np.allclose(basis.singular_values, np.sqrt(2.0), rtol=1e-10)
    # same span: projecting q onto the modes loses nothing
    assert projection_error_sq(q, basis.modes, ops.ip) < 1e-20


def test_h_orthonormalize_drops_dependent_columns(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(7)
    a, b, c = rng.standard_normal((3, ops.n_dofs))
    vectors = np.column_stack([a, b, a + b, np.zeros(ops.n_dofs), c])
    q, kept = h_orthonormalize(vectors, ops.ip)
    assert kept == [0, 1, 4]
    assert np.abs(q.T @ (ops.ip @ q) - np.eye(3)).max() < 1e-12
    # span preserved: every input column is reproduced by its H-projection
    assert projection_error_sq(vectors, q, ops.ip) < 1e-20 * float(
        np.einsum("ij,ij->", vectors, ops.ip @ vectors)
    )
    # no columns, and more columns than rows: the QRs keep la.qr's shapes
    q, kept = h_orthonormalize(np.zeros((ops.n_dofs, 0)), ops.ip)
    assert q.shape == (ops.n_dofs, 0) and kept == []
    q, kept = h_orthonormalize(rng.standard_normal((4, 9)), None)
    assert q.shape == (4, 4) and kept == [0, 1, 2, 3]
    assert np.abs(q.T @ q - np.eye(4)).max() < 1e-12


def test_reconstruction_identity_against_svd_oracle():
    rng = np.random.default_rng(11)
    # tall, and wide: more snapshots than dofs keeps la.qr's shapes
    for snapshots in (rng.standard_normal((8, 5)), rng.standard_normal((4, 9))):
        # oracle: dense SVD in the Euclidean inner product
        _, svals, _ = np.linalg.svd(snapshots, full_matrices=False)
        for r in range(1, min(snapshots.shape) + 1):
            basis = pod(snapshots, ip=None, rank=r)
            q = basis.modes
            assert q.shape == (snapshots.shape[0], r)
            err = np.linalg.norm(snapshots - q @ (q.T @ snapshots), "fro") ** 2
            expected = float((svals[r:] ** 2).sum())
            assert err == pytest.approx(expected, abs=1e-10)
            assert np.allclose(basis.singular_values, svals[: basis.dim], rtol=1e-10)


def test_h_orthonormality_of_modes(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(13)
    snapshots = rng.standard_normal((ops.n_dofs, 12))
    basis = pod(snapshots, ops.ip)
    gram = basis.modes.T @ (ops.ip @ basis.modes)
    assert np.abs(gram - np.eye(basis.dim)).max() < 1e-10


def test_zero_snapshots_give_empty_basis(small_problem):
    ops, _ = small_problem
    n = ops.n_dofs
    # four zero snapshots, and a snapshot matrix with no columns
    for basis in (pod(np.zeros((n, 4)), ops.ip), pod(np.zeros((n, 0))),
                  pod(np.zeros((n, 0)), ip=ops.ip), hapod([np.zeros((n, 0))], ops.ip)):
        assert basis.modes.shape == (n, 0)
        assert basis.singular_values.size == 0


def test_singular_values_nonincreasing():
    rng = np.random.default_rng(17)
    basis = pod(rng.standard_normal((20, 9)))
    assert np.all(np.diff(basis.singular_values) <= 0)


def test_energy_truncation_rule():
    rng = np.random.default_rng(19)
    snapshots = rng.standard_normal((30, 8))
    full = pod(snapshots)
    sq = full.singular_values**2
    total = sq.sum()
    for tau in (0.5, 0.1, 1e-3):
        basis = pod(snapshots, energy_tol=tau)
        r = basis.dim
        assert sq[r:].sum() <= tau**2 * total + 1e-12
        if r > 0:
            assert sq[r - 1 :].sum() > tau**2 * total


def test_rank_cap():
    rng = np.random.default_rng(23)
    basis = pod(rng.standard_normal((15, 10)), rank=4)
    assert basis.dim == 4


@pytest.mark.parametrize("kwargs", [{"rank": -3}, {"energy_tol": np.nan}, {"energy_tol": -0.5},
                                    {"energy_tol": 1.0}],
                         ids=["rank_negative", "energy_tol_nan", "energy_tol_negative",
                              "energy_tol_one"])
def test_pod_rejects_truncation_arguments_out_of_range(kwargs):
    snapshots = np.random.default_rng(23).standard_normal((40, 12))
    with pytest.raises(ValueError):
        pod(snapshots, **kwargs)
    # the ends of the ranges are taken
    assert pod(snapshots, rank=0).dim == 0
    assert pod(snapshots, energy_tol=0.0).dim == 12


def test_pod_optimality_sampled(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(29)
    snapshots = rng.standard_normal((ops.n_dofs, 10))
    basis = pod(snapshots, ops.ip)
    for r in (1, 3, 5):
        best = projection_error_sq(snapshots, basis.modes[:, :r], ops.ip)
        for _ in range(20):
            trial, _ = h_orthonormalize(
                rng.standard_normal((ops.n_dofs, r)), ops.ip
            )
            other = projection_error_sq(snapshots, trial, ops.ip)
            assert other >= best - 1e-10


def test_determinism_bitwise(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(31)
    snapshots = rng.standard_normal((ops.n_dofs, 7))
    a = pod(snapshots.copy(), ops.ip)
    b = pod(snapshots.copy(), ops.ip)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.singular_values, b.singular_values)


def _same_bits(a, b):
    return (a.modes.shape == b.modes.shape and a.modes.tobytes() == b.modes.tobytes()
            and a.singular_values.tobytes() == b.singular_values.tobytes())


def test_pod_depends_only_on_values(small_problem, reference_trajectory):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    snapshots = traj.T
    assert snapshots.flags.f_contiguous and not snapshots.flags.c_contiguous
    basis = pod(snapshots, ops.ip, rank=25, energy_tol=1e-6)
    assert basis.dim > 0
    assert _same_bits(basis, pod(np.ascontiguousarray(snapshots), ops.ip, rank=25, energy_tol=1e-6))
    assert _same_bits(basis, pod(snapshots, ops.ip.toarray(), rank=25, energy_tol=1e-6))
    euclidean = pod(snapshots, None, rank=25, energy_tol=1e-6)
    assert euclidean.dim > 0
    assert _same_bits(euclidean, pod(np.ascontiguousarray(snapshots), None, rank=25,
                                     energy_tol=1e-6))


def test_pod_ignores_other_random_state(small_problem, reference_trajectory):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    first = pod(traj.T, ops.ip, rank=25, energy_tol=1e-6)
    np.random.seed(1)
    np.random.standard_normal(100)
    np.random.default_rng().standard_normal(100)
    np.random.default_rng(0).standard_normal(100)
    assert _same_bits(first, pod(traj.T, ops.ip, rank=25, energy_tol=1e-6))


# -- the POD's pieces ---------------------------------------------------------


@pytest.mark.parametrize("shape", [(40, 7), (257, 35), (9, 9), (1, 1), (4, 9)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_qr_has_the_bits_of_scipy_economic_qr(shape, order):
    # The POD passes la.qr a workspace of QR_BLOCK per column in place of its query.
    a = np.asarray(np.random.default_rng(61).standard_normal(shape), order=order)
    lwork = QR_BLOCK * shape[1]
    q, r = la.qr(a, mode="economic", lwork=lwork)
    want_q, want_r = la.qr(a, mode="economic")
    assert q.shape == want_q.shape and q.tobytes() == want_q.tobytes()
    assert r.shape == want_r.shape and r.tobytes() == want_r.tobytes()
    assert la.qr(a, mode="r", lwork=lwork)[0][: min(shape)].tobytes() == want_r.tobytes()


def test_sketch_is_read_only_and_a_fresh_seeded_draw():
    _sketch.cache_clear()
    sketch = _sketch(57, 12)
    assert not sketch.flags.writeable
    fresh = np.random.default_rng(SKETCH_SEED).standard_normal((57, 12))
    assert sketch.tobytes() == fresh.tobytes()
    assert _sketch(57, 12) is sketch
    with pytest.raises(ValueError):
        sketch[0, 0] = 1.0


def test_pod_impl_bits_do_not_depend_on_the_sketch_cache(small_problem, reference_trajectory):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    y = ops.ip_factor.coords(traj.T)
    _sketch.cache_clear()
    cold = _pod_impl(y, 10, 1e-8, None)
    assert _sketch.cache_info().currsize == 1
    warm = _pod_impl(y, 10, 1e-8, None)
    assert _sketch.cache_info().hits == 1
    for a, b in zip(cold, warm):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _small_blocks(ops, traj):
    """B = Q^T Y of a trajectory's range finder, and a Gaussian B."""
    y = ops.ip_factor.coords(traj.T)
    q = la.qr(y @ _sketch(y.shape[1], 12), mode="economic")[0]
    yield q.T @ y
    yield np.random.default_rng(71).standard_normal((12, 57))


def test_left_svd_matches_the_wide_svd(small_problem, reference_trajectory):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    for b in _small_blocks(ops, traj):
        u, sigma = _left_svd(b)
        want_u, want_sigma, _ = la.svd(b, full_matrices=False)
        assert u.shape == want_u.shape == (12, 12)
        assert np.allclose(sigma, want_sigma, rtol=1e-12, atol=0)
        # every leading block of modes spans the space the wide SVD's does
        for r in range(1, 13):
            proj = u[:, :r] @ u[:, :r].T - want_u[:, :r] @ want_u[:, :r].T
            assert np.linalg.norm(proj, 2) <= 1e-10


def test_only_a_sketch_narrower_than_the_snapshots_is_drawn(desk_problem, monkeypatch):
    # Full-rank POD, HAPOD's stages and a rank cap that reaches min(n, m) take
    # Q from the QR of the coordinates; criterion 3's trajectory, 256 x 257.
    ops, grid = desk_problem
    traj, _ = solve_fom(ops, ParameterPoint(1.0, 10.0), grid, np.zeros(ops.n_dofs))
    snapshots = traj.T

    def no_sketch(*args):
        raise AssertionError("a sketch no narrower than the snapshots was drawn")

    monkeypatch.setattr(importlib.import_module("hiermor.pod"), "_sketch", no_sketch)
    full = pod(snapshots, ops.ip)
    want = la.svd(ops.ip_factor.coords(snapshots), compute_uv=False)
    assert full.dim > 0
    assert np.abs(full.singular_values - want[: full.dim]).max() <= 1e-12 * want[0]
    assert hapod(np.array_split(snapshots, 3, axis=1), ops.ip).dim > 0
    capped = pod(snapshots, ops.ip, rank=min(snapshots.shape) - OVERSAMPLING)
    assert capped.dim == full.dim


IP_USERS = {
    "pod": lambda v, ip: pod(v, ip),
    "hapod": lambda v, ip: hapod([v], ip),
    "hapod-two-chunks": lambda v, ip: hapod([v[:, :3], v[:, 3:]], ip),
    "h_orthonormalize": lambda v, ip: h_orthonormalize(v, ip),
}


@pytest.mark.parametrize("call", IP_USERS.values(), ids=IP_USERS.keys())
def test_non_tridiagonal_inner_product_is_rejected(small_problem, call):
    ops, _ = small_problem
    v = np.random.default_rng(47).standard_normal((ops.n_dofs, 3))
    far = sp.csr_matrix(([1e-3, 1e-3], ([0, 5], [5, 0])), shape=ops.ip.shape)
    for ip in (ops.ip + far, (ops.ip + far).toarray(), ops.ip + ops.ip @ ops.ip,
               ops.ip + 1e-3 * sp.eye(ops.n_dofs, k=1)):
        with pytest.raises(ValueError, match="symmetric tridiagonal"):
            call(v, ip)


@pytest.mark.parametrize("call", IP_USERS.values(), ids=IP_USERS.keys())
def test_non_finite_snapshots_are_rejected(small_problem, call):
    ops, _ = small_problem
    v = np.random.default_rng(67).standard_normal((ops.n_dofs, 3))
    v[1, 2] = np.nan
    for ip in (ops.ip, None):
        with pytest.raises(ValueError, match="infs or NaNs"):
            call(v, ip)


@pytest.mark.parametrize("call", IP_USERS.values(), ids=IP_USERS.keys())
def test_indefinite_inner_product_is_rejected(small_problem, call):
    ops, _ = small_problem
    v = np.random.default_rng(53).standard_normal((ops.n_dofs, 3))
    for ip in (-ops.ip, ops.ip - 2.0 * ops.ip.diagonal().max() * sp.eye(ops.n_dofs)):
        with pytest.raises(ValueError, match="not positive definite"):
            call(v, ip)


def test_sign_convention():
    rng = np.random.default_rng(37)
    basis = pod(rng.standard_normal((12, 6)))
    for j in range(basis.dim):
        col = basis.modes[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[nz[0]] > 0


def _fix_signs_by_columns(modes):
    """Column-by-column reference for `_fix_signs`."""
    for j in range(modes.shape[1]):
        col = modes[:, j]
        peak = np.abs(col).max()
        if peak == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > RANK_CUTOFF * peak)
        if nz.size and col[nz[0]] < 0.0:
            modes[:, j] = -col
    return modes


def test_fix_signs_matches_the_column_loop():
    rng = np.random.default_rng(59)
    for _ in range(200):
        modes = rng.standard_normal((rng.integers(1, 9), rng.integers(0, 6)))
        modes[rng.random(modes.shape) < 0.3] = 0.0  # leading zeros
        modes[rng.random(modes.shape) < 0.1] *= 1e-14  # entries below the cutoff
        if modes.shape[1]:
            modes[:, rng.integers(modes.shape[1])] = rng.choice([0.0, -0.0])
        expected = _fix_signs_by_columns(modes.copy())
        assert _fix_signs(modes).tobytes() == expected.tobytes()


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 6)),
        elements=st.floats(-100, 100),
    )
)
def test_pod_euclidean_orthonormality_property(snapshots):
    basis = pod(snapshots)
    if basis.dim:
        gram = basis.modes.T @ basis.modes
        assert np.abs(gram - np.eye(basis.dim)).max() < 1e-10


# -- hapod ----------------------------------------------------------------------


def test_hapod_single_chunk_matches_pod(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(41)
    snapshots = rng.standard_normal((ops.n_dofs, 10))
    eps, omega = 1e-3, 0.5
    hier = hapod([snapshots], ops.ip, eps_star=eps, omega=omega)
    # one chunk only exercises the final-compression rule; match it with the
    # equivalent relative energy tolerance
    total = float(np.einsum("ij,ij->", snapshots, ops.ip @ snapshots))
    tau = np.sqrt((1 - omega**2) * eps**2 * snapshots.shape[1] / total)
    direct = pod(snapshots, ops.ip, energy_tol=tau)
    assert hier.dim == direct.dim
    assert np.allclose(np.abs(hier.modes), np.abs(direct.modes), atol=1e-9)
    assert np.allclose(hier.singular_values, direct.singular_values, rtol=1e-9)


def test_hapod_exact_low_rank(small_problem):
    ops, _ = small_problem
    rng = np.random.default_rng(43)
    plane = rng.standard_normal((ops.n_dofs, 2))
    chunk1 = plane @ rng.standard_normal((2, 5))
    chunk2 = plane @ rng.standard_normal((2, 4))
    basis = hapod([chunk1, chunk2], ops.ip, eps_star=1e-8, omega=0.5)
    assert basis.dim <= 2
    err = projection_error_sq(np.hstack([chunk1, chunk2]), basis.modes, ops.ip)
    assert err < 1e-10


def test_hapod_trajectory_bound_and_rank(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(1.0, 10.0)
    traj, _ = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    snapshots = traj.T
    m = snapshots.shape[1]
    eps = 1e-6
    chunks = np.array_split(snapshots, 8, axis=1)
    hier = hapod(chunks, ops.ip, eps_star=eps, omega=0.5)
    mean_err = projection_error_sq(snapshots, hier.modes, ops.ip) / m
    assert mean_err <= eps**2
    # oracle: direct POD with the same mean-square budget
    direct = pod(snapshots, ops.ip, energy_tol=0.0)
    sq = direct.singular_values**2
    budget = eps**2 * m
    tail = np.concatenate([[sq.sum()], sq.sum() - np.cumsum(sq)])
    direct_rank = int(np.argmax(tail <= budget))
    assert hier.dim <= direct_rank + 2


def test_hapod_maps_each_chunk_in_once_and_the_modes_out_once(reference_trajectory,
                                                               small_problem, factor_maps):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    basis = hapod(np.array_split(traj.T, 8, axis=1), ops.ip)
    assert basis.dim > 0
    assert factor_maps == {"coords": 8, "from_coords": 1}


def test_hapod_empty_chunks():
    assert hapod([], None, eps_star=1e-6, omega=0.5).dim == 0


def test_hapod_parameter_validation():
    with pytest.raises(ValueError):
        hapod([np.ones((3, 1))], None, eps_star=1e-6, omega=1.5)
    for eps_star in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps_star"):
            hapod([np.ones((3, 1))], None, eps_star=eps_star, omega=0.5)
