import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermor import (
    MeshSpec,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    assemble,
    qoi_norm,
    solve_fom,
)
import hiermor.fem as fem
from hiermor.fem import IpFactor, coercivity_constants, load_vector, system_matrix, theta

import mms


# -- assembly -----------------------------------------------------------------


def test_mass_interior_rows():
    ops = assemble(MeshSpec(10))
    h = 0.1
    m = ops.mass.toarray()
    for i in range(1, ops.n_dofs - 1):
        assert m[i, i - 1] == pytest.approx(h / 6)
        assert m[i, i] == pytest.approx(2 * h / 3)
        assert m[i, i + 1] == pytest.approx(h / 6)
    assert m[-1, -1] == pytest.approx(h / 3)


def test_stiffness_interior_rows():
    ops = assemble(MeshSpec(10))
    h = 0.1
    k = ops.blocks[0].toarray()
    for i in range(1, ops.n_dofs - 1):
        assert k[i, i - 1] == pytest.approx(-1 / h)
        assert k[i, i] == pytest.approx(2 / h)
        assert k[i, i + 1] == pytest.approx(-1 / h)
    assert k[-1, -1] == pytest.approx(1 / h)


def test_advection_interior_rows():
    ops = assemble(MeshSpec(10))
    b = ops.blocks[1].toarray()
    for i in range(1, ops.n_dofs - 1):
        assert b[i, i - 1] == pytest.approx(-0.5)
        assert b[i, i] == 0.0
        assert b[i, i + 1] == pytest.approx(0.5)
    assert b[-1, -1] == pytest.approx(0.5)


def test_symmetry_exact():
    ops = assemble(MeshSpec(64))
    assert np.abs((ops.mass - ops.mass.T).toarray()).max() == 0.0
    assert np.abs((ops.blocks[0] - ops.blocks[0].T).toarray()).max() == 0.0
    assert np.abs((ops.ip - ops.ip.T).toarray()).max() == 0.0


def test_all_operators_tridiagonal():
    ops = assemble(MeshSpec(20))
    rows = np.arange(ops.n_dofs)
    for mat in (ops.mass, ops.blocks[0], ops.blocks[1], ops.blocks[2], ops.ip):
        assert mat.shape == (ops.n_dofs, ops.n_dofs)
        dense = mat.toarray()
        off_band = dense * (np.abs(rows[:, None] - rows[None, :]) > 1)
        assert not off_band.any()


def test_load_components_only_first_node():
    ops = assemble(MeshSpec(16), inflow_value=2.0)
    h = 1 / 16
    assert ops.loads[0, 0] == pytest.approx(2.0 / h)
    assert ops.loads[1, 0] == pytest.approx(1.0)
    assert ops.loads[2, 0] == pytest.approx(-2.0 * h / 6)
    for vec in ops.loads:
        assert not vec[1:].any()


def test_affine_assembly_matches_direct():
    ops = assemble(MeshSpec(16))
    mu = ParameterPoint(2.5, 7.0)
    th = theta(mu)
    direct = (th[0] * ops.blocks[0] + th[1] * ops.blocks[1] + th[2] * ops.blocks[2]).toarray()
    assert np.allclose(system_matrix(ops, mu).toarray(), direct, rtol=0, atol=0)


def test_assembled_operators_are_dia_views_of_the_bands_with_the_reference_entries():
    n = 32
    h = 1.0 / n
    ops = assemble(MeshSpec(n))

    def reference(lower, main, upper):
        return sp.diags([np.full(n - 1, lower), main, np.full(n - 1, upper)], [-1, 0, 1],
                        format="csr")

    mass = reference(h / 6, np.append(np.full(n - 1, 2 * h / 3), h / 3), h / 6)
    diffusion = reference(-1 / h, np.append(np.full(n - 1, 2 / h), 1 / h), -1 / h)
    advection = reference(-0.5, np.append(np.zeros(n - 1), 0.5), 0.5)
    assert ops.bands.shape == (5, 3, n) and not ops.bands.flags.writeable
    operators = (ops.mass, *ops.blocks, ops.ip)
    for mat, want in zip(operators, (mass, diffusion, advection, mass, mass + diffusion)):
        assert mat.format == "dia" and mat.shape == (n, n)
        assert np.array_equal(mat.offsets, [-1, 0, 1])
        assert np.shares_memory(mat.data, ops.bands) and not mat.data.flags.writeable
        assert np.array_equal(mat.toarray(), want.toarray())
    assert ops.ip.toarray().tobytes() == (ops.mass + ops.blocks[0]).toarray().tobytes()


@pytest.mark.parametrize("n_cells", [256, 2048])
@pytest.mark.parametrize("r", [1, 17, 36, 43])
def test_operator_products_have_the_bits_of_csr_products(n_cells, r):
    # rb.project's Galerkin blocks are these products
    ops = assemble(MeshSpec(n_cells))
    phi = np.random.default_rng(r).standard_normal((n_cells, r))
    for op in (ops.mass, *ops.blocks):
        for x in (phi, np.asfortranarray(phi)):
            assert (op @ x).tobytes() == (sp.csr_matrix(op) @ x).tobytes()


def test_ip_factor_is_factored_once_per_operator_set(monkeypatch):
    ops = assemble(MeshSpec(16))
    fresh = IpFactor.of(ops.ip)
    factor = ops.ip_factor
    assert ops.ip_factor is factor
    assert np.array_equal(factor.root_d, fresh.root_d) and np.array_equal(factor.sub, fresh.sub)
    # so are the coercivity constants, one bisection per block
    pencils, pencil = [], fem._pencil_min_eig
    monkeypatch.setattr(fem, "_pencil_min_eig", lambda a, b: pencils.append(1) or pencil(a, b))
    pair = coercivity_constants(ops)
    assert coercivity_constants(ops) is pair and len(pencils) == 2
    # a replaced ip is factored anew, not taken from the original's cache
    bands = ops.bands.copy()
    bands[4] *= 4.0
    scaled = dataclasses.replace(ops, bands=bands)
    assert np.array_equal(scaled.ip_factor.root_d, 2.0 * factor.root_d)
    assert np.array_equal(scaled.ip_factor.sub, factor.sub)
    assert coercivity_constants(scaled) == pytest.approx((pair[0] / 4, pair[1] / 4), rel=1e-12)
    assert len(pencils) == 4
    # and the map to the first bitwise-equal term: assemble's reaction block is the mass
    assert ops.term_sources == (0, 1, 2, 0) and ops.term_sources is ops.term_sources
    assert scaled.term_sources == (0, 1, 2, 0)
    doubled = ops.bands.copy()
    doubled[3] *= 2.0
    assert dataclasses.replace(ops, bands=doubled).term_sources == (0, 1, 2, 3)


def test_mesh_and_grid_validation():
    with pytest.raises(ValueError):
        MeshSpec(1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        ParameterBox(da_min=-1.0)
    with pytest.raises(ValueError):
        ParameterBox(pe_min=0.0)
    # non-finite values, which the .ini parser rejects too
    for t_end in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^t_end "):
            TimeGrid(t_end, 10)
    for name in ("da_min", "da_max", "pe_min", "pe_max"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} "):
                ParameterBox(**{name: value})


# -- qoi norm -----------------------------------------------------------------


def test_qoi_norm_zero():
    assert qoi_norm(QoiVector(np.zeros(7), 0.25)) == 0.0


def test_qoi_norm_constant_one():
    grid = TimeGrid(2.0, 16)
    q = QoiVector(np.ones(16), grid.dt)
    assert qoi_norm(q) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_qoi_norm_hand_value():
    # sqrt(0.5 * (9 + 16)) = sqrt(12.5)
    assert qoi_norm(QoiVector(np.array([3.0, 4.0]), 0.5)) == pytest.approx(
        3.5355339059327378, rel=1e-15
    )


_magnitudes = st.one_of(
    st.just(0.0),
    st.floats(1e-100, 1e6),
    st.floats(-1e6, -1e-100),
)


@given(
    arrays(np.float64, st.integers(1, 30), elements=_magnitudes),
    st.floats(1e-6, 10.0),
)
def test_qoi_norm_properties(values, dt):
    q = QoiVector(values, dt)
    norm = qoi_norm(q)
    assert norm >= 0.0
    assert (norm == 0.0) == (not values.any())
    doubled = qoi_norm(QoiVector(2.0 * values, dt))
    assert doubled == pytest.approx(2.0 * norm, rel=1e-12, abs=1e-300)


# -- time stepping ------------------------------------------------------------


def test_steady_state_reached_without_reaction():
    # pure advection-diffusion with unit inflow settles at constant 1
    ops = assemble(MeshSpec(64))
    grid = TimeGrid(10.0, 400)
    mu = ParameterPoint(0.0, 10.0)
    _, qoi = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    assert abs(qoi.values[-1] - 1.0) < 1e-3


def test_steady_state_is_fixed_point():
    ops = assemble(MeshSpec(48))
    mu = ParameterPoint(1.5, 20.0)
    c_star = spla.spsolve(system_matrix(ops, mu).tocsc(), load_vector(ops, mu))
    grid = TimeGrid(1.0, 32)
    traj, qoi = solve_fom(ops, mu, grid, c_star)
    expected = float(ops.output @ c_star)
    assert np.allclose(traj.coeffs, c_star, rtol=1e-10, atol=1e-12)
    assert np.allclose(qoi.values, expected, rtol=1e-10)


def test_trajectory_row0_is_initial_condition(reference_trajectory, small_problem):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    assert np.array_equal(traj.coeffs[0], np.zeros(ops.n_dofs))


def test_c0_length_check(small_problem):
    ops, grid = small_problem
    with pytest.raises(ValueError):
        solve_fom(ops, ParameterPoint(1.0, 10.0), grid, np.zeros(3))


def test_discrete_maximum_principle():
    ops = assemble(MeshSpec(256))
    grid = TimeGrid(1.0, 256)
    traj, _ = solve_fom(ops, ParameterPoint(0.0, 50.0), grid, np.zeros(ops.n_dofs))
    assert traj.coeffs.min() >= -1e-10
    assert traj.coeffs.max() <= 1.0 + 1e-10


def splu_solve_fom(ops, mu, grid, c0, source=None):
    """Reference stepping: sparse LU of the step matrix, one sparse matvec per step."""
    dt = grid.dt
    lu = spla.splu((ops.mass + dt * system_matrix(ops, mu)).tocsc())
    b = load_vector(ops, mu)
    rows = [c0.copy()]
    for t in grid.times():
        rhs = ops.mass @ rows[-1] + dt * b
        if source is not None:
            rhs += dt * source(t)
        rows.append(lu.solve(rhs))
    coeffs = np.vstack(rows)
    return coeffs, coeffs[1:] @ ops.output


@pytest.mark.parametrize("n_cells, n_steps", [(256, 256), (2048, 1024)])
@pytest.mark.parametrize("case", ["zero_c0", "nonzero_c0", "source"])
def test_solve_fom_matches_splu_stepping(n_cells, n_steps, case):
    ops, grid = assemble(MeshSpec(n_cells)), TimeGrid(1.0, n_steps)
    mu = ParameterPoint(3.0, 40.0)
    x = np.linspace(0.0, 1.0, n_cells + 1)[1:]
    c0 = np.zeros(ops.n_dofs) if case == "zero_c0" else np.exp(-50.0 * (x - 0.3) ** 2)
    source = (lambda t: np.sin(np.pi * x) * np.cos(t)) if case == "source" else None
    traj, qoi = solve_fom(ops, mu, grid, c0, source)
    ref, ref_qoi = splu_solve_fom(ops, mu, grid, c0, source)
    assert np.array_equal(traj.coeffs[0], c0)
    assert np.abs(traj.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(qoi.values - ref_qoi).max() <= 1e-12 * np.abs(ref_qoi).max()
    assert np.array_equal(qoi.values, traj.coeffs[1:, -1])


def test_factorization_reuse_is_bitwise_identical(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(2.0, 30.0)
    c0 = np.zeros(ops.n_dofs)
    traj, qoi = solve_fom(ops, mu, grid, c0)

    # reference: refactorize the step matrix at every step
    step = ops.mass + grid.dt * system_matrix(ops, mu)
    bands = step.diagonal(-1), step.diagonal(), step.diagonal(1)
    m_diag, m_off = ops.mass.diagonal(), ops.mass.diagonal(1)
    b = load_vector(ops, mu)
    c = c0.copy()
    rows = [c0.copy()]
    for _ in range(grid.n_steps):
        rhs = m_diag * c
        rhs[1:] += m_off * c[:-1]
        rhs[:-1] += m_off * c[1:]
        rhs += grid.dt * b
        *factors, info = dgttrf(*bands)
        assert info == 0
        c, info = dgttrs(*factors, rhs)
        rows.append(c.copy())
    assert np.array_equal(traj.coeffs, np.vstack(rows))
    assert np.array_equal(qoi.values, np.vstack(rows)[1:] @ ops.output)


def _box_corners_and_interior():
    box = ParameterBox()
    return [*box.corners(), ParameterPoint(2.0, 30.0)]


@pytest.mark.parametrize("mu", _box_corners_and_interior(), ids=str)
def test_step_bands_have_the_bits_of_the_sparse_step_matrix(desk_problem, mu, monkeypatch):
    ops, grid = desk_problem
    factored = []

    def record(*bands):
        factored.append(tuple(band.copy() for band in bands))
        return dgttrf(*bands)

    monkeypatch.setattr(fem, "dgttrf", record)
    solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    want = ops.mass + grid.dt * system_matrix(ops, mu)
    (sub, diag, sup), = factored
    for k, band in zip((-1, 0, 1), (sub, diag, sup)):
        assert band.tobytes() == want.diagonal(k).tobytes()


# sha256 of `solve_fom(...).coeffs` from zero, on the desk mesh and grid
MARCH_SHA256 = {
    ParameterPoint(2.0, 30.0): "43b96f21da7b8b78aed507b3908a33bad00b68e05e432e301a8d0fd3949bc1e8",
    ParameterPoint(0.1, 1.0): "3c5cc8b2dd1b86dc16413ba9275672d50cf55604757b1fec0fb17b0cd55745d9",
    ParameterPoint(0.1, 100.0): "da4c3a50a5b04c7b57d81e533049f7ed7b2b665f8ba57732576fdfd987d49660",
    ParameterPoint(10.0, 1.0): "228ad4e09279184d475b2f9783db536b68847f07f3c5f74cc62ee75f536c0b8d",
    ParameterPoint(10.0, 100.0): "699c680424649593b07fe4e7c7899ff86205d961a199d7cfa858a6346fc2d11b",
}


@pytest.mark.parametrize("mu", _box_corners_and_interior(), ids=str)
def test_solve_fom_trajectory_bits_are_pinned(desk_problem, mu):
    ops, grid = desk_problem
    traj, _ = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    assert hashlib.sha256(traj.coeffs.tobytes()).hexdigest() == MARCH_SHA256[mu]


def test_solve_fom_trajectory_bits_are_pinned_with_source():
    mu = ParameterPoint(1.0, 5.0)
    ops, nodes, source = mms.manufactured(32, mu)
    traj, _ = solve_fom(ops, mu, TimeGrid(1.0, 128), np.sin(np.pi * nodes), source)
    assert (hashlib.sha256(traj.coeffs.tobytes()).hexdigest()
            == "db4d7b687848e2fbc423c0d8eacad168d8a2a906b42be789c9c68f7ee4bbd175")


def test_solve_fom_does_not_build_the_sparse_step_matrix(small_problem, monkeypatch):
    ops, grid = small_problem
    mu = ParameterPoint(2.0, 30.0)
    traj, qoi = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))

    def refuse(*args):
        raise AssertionError("solve_fom built the sparse system matrix")

    monkeypatch.setattr(fem, "system_matrix", refuse)
    again, again_qoi = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    assert np.array_equal(again.coeffs, traj.coeffs)
    assert np.array_equal(again_qoi.values, qoi.values)


def test_singular_step_matrix_raises(small_problem):
    ops, grid = small_problem
    bands = ops.bands.copy()
    bands[:4] = 0.0  # mass and the blocks
    degenerate = dataclasses.replace(ops, bands=bands)
    with pytest.raises(RuntimeError, match="singular"):
        solve_fom(degenerate, ParameterPoint(1.0, 10.0), grid, np.zeros(ops.n_dofs))


# -- coercivity structure -----------------------------------------------------


def test_coercive_part_dominates_h_norm():
    ops = assemble(MeshSpec(64))
    rng = np.random.default_rng(42)
    from hiermor.rb import coercivity_constants

    gamma_diff, gamma_react = coercivity_constants(ops)
    for mu in (ParameterPoint(0.5, 3.0), ParameterPoint(8.0, 90.0)):
        th_d, _, th_r = theta(mu)
        alpha = th_d * gamma_diff + th_r * gamma_react
        for _ in range(50):
            v = rng.standard_normal(ops.n_dofs)
            coercive = th_d * float(v @ (ops.blocks[0] @ v)) + th_r * float(v @ (ops.blocks[2] @ v))
            assert coercive >= alpha * float(v @ (ops.ip @ v)) - 1e-12


def _factors(a, b, s) -> bool:
    """Whether a - s b factors by PTTRF, the shift formed as the bisection forms it."""
    (ad, ae), (bd, be) = a, b
    return dpttrf(ad - s * bd, ae - s * be)[2] == 0


def _assert_certified_and_tight(a, b, gamma):
    assert gamma > 0
    assert _factors(a, b, gamma)
    assert not _factors(a, b, gamma * (1 + 2 * fem.COERCIVITY_RTOL))


@pytest.mark.parametrize("n_cells", [16, 256, 2048])
def test_coercivity_constants_are_certified_and_tight(n_cells):
    ops = assemble(MeshSpec(n_cells))
    ip = fem.tridiagonal(ops.ip)
    for gamma, block in zip(coercivity_constants(ops), (ops.blocks[0], ops.blocks[2])):
        _assert_certified_and_tight(fem.tridiagonal(block), ip, gamma)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pencil_min_eig_is_certified_and_tight_on_random_pencils(seed):
    rng = np.random.default_rng(seed)
    n = 40

    def spd_bands():
        off = rng.uniform(-1.0, 1.0, n - 1)
        main = rng.uniform(0.01, 1.0, n) + np.append(np.abs(off), 0) + np.insert(np.abs(off), 0, 0)
        return main, off

    a, b = spd_bands(), spd_bands()
    gamma = fem._pencil_min_eig(a, b)
    _assert_certified_and_tight(a, b, gamma)
    dense = [np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in (a, b)]
    assert gamma == pytest.approx(scipy.linalg.eigh(*dense, eigvals_only=True)[0], rel=1e-9)


def _counting_dpttrf(monkeypatch) -> list:
    """fem's PTTRF, patched to append to the returned list per call."""
    calls = []
    monkeypatch.setattr(fem, "dpttrf", lambda *args, **kw: calls.append(1) or dpttrf(*args, **kw))
    return calls


@pytest.mark.parametrize("n_cells, most", [(256, 42), (2048, 43)])
def test_coercivity_constants_take_half_bisections_factorizations(monkeypatch, n_cells, most):
    # plain bisection took 42 + 43 calls on both meshes
    ops = assemble(MeshSpec(n_cells))
    calls = _counting_dpttrf(monkeypatch)
    ops.coercivity
    assert len(calls) <= most


def _bisection_calls(a, b) -> int:
    """PTTRF calls of plain bisection to the same stop rule, the first check included."""
    (ad, _), (bd, _) = a, b
    calls, lo, hi = 1, 0.0, float(np.min(ad / bd))
    while hi - lo > fem.COERCIVITY_RTOL * lo and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        calls += 1
        lo, hi = (mid, hi) if _factors(a, b, mid) else (lo, mid)
    return calls


def _joined(x, y, coupling):
    """Bands of the block-tridiagonal matrix [x, 0; 0, y] plus `coupling` at the seam."""
    return np.concatenate([x[0], y[0]]), np.concatenate([x[1], [coupling], y[1]])


def _decoupled_pencil():
    # the minimal eigenvector lives in the first block, so the last pivot
    # D(n), a function of the second block alone, stays positive through it
    lap, tri = (np.full(20, 2.0), np.full(19, -1.0)), (np.full(20, 4.0), np.full(19, 1.0))
    return _joined(lap, (lap[0] + 0.5, lap[1]), 0.0), _joined(tri, tri, 0.0)


def _near_double_pencil():
    # a random block and its mirror image, coupled by 2e-11: the two smallest
    # eigenvalues are about 1e-10 apart, relatively
    rng = np.random.default_rng(5)
    off = rng.uniform(-1.0, 1.0, 19)
    main = rng.uniform(0.01, 1.0, 20) + np.append(np.abs(off), 0) + np.insert(np.abs(off), 0, 0)
    return _joined((main, off), (main[::-1], off[::-1]), 2e-11), (np.ones(40), np.zeros(39))


def _random_pencil(seed):
    # the pencils of test_pencil_min_eig_is_certified_and_tight_on_random_pencils
    rng = np.random.default_rng(seed)

    def spd_bands():
        off = rng.uniform(-1.0, 1.0, 39)
        return rng.uniform(0.01, 1.0, 40) + np.append(np.abs(off), 0) + np.insert(np.abs(off), 0, 0), off

    return spd_bands(), spd_bands()


@pytest.mark.parametrize("pencil", [_decoupled_pencil, _near_double_pencil,
                                    *(lambda s=s: _random_pencil(s) for s in range(4))],
                         ids=["decoupled", "near_double", *(f"random{s}" for s in range(4))])
def test_pencil_min_eig_takes_at_most_twice_bisections_calls(monkeypatch, pencil):
    a, b = pencil()
    calls = _counting_dpttrf(monkeypatch)
    gamma = fem._pencil_min_eig(a, b)
    _assert_certified_and_tight(a, b, gamma)
    assert len(calls) <= 2 * _bisection_calls(a, b)
    dense = [np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in (a, b)]
    low = scipy.linalg.eigh(*dense, eigvals_only=True)[:2]
    assert gamma == pytest.approx(low[0], rel=1e-9)
    if pencil is _near_double_pencil:
        assert low[1] - low[0] < 2e-10 * low[0]


@pytest.mark.parametrize("pencil", [_decoupled_pencil, lambda: _random_pencil(0)],
                         ids=["decoupled", "random0"])
def test_pencil_min_eig_bounds_its_calls_whatever_the_secant_proposes(monkeypatch, pencil):
    # proposals that creep a thousandth of the way from the end they are
    # given toward the root never halve the bracket; the midpoint rule must
    a, b = pencil()
    gamma = fem._pencil_min_eig(a, b)
    monkeypatch.setattr(fem, "_secant_root", lambda s0, f0, s1, f1: s1 + 1e-3 * (gamma - s1))
    calls = _counting_dpttrf(monkeypatch)
    _assert_certified_and_tight(a, b, fem._pencil_min_eig(a, b))
    assert len(calls) <= 2 * _bisection_calls(a, b)


def test_advection_quadratic_form_nonnegative():
    ops = assemble(MeshSpec(64))
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.standard_normal(ops.n_dofs)
        assert float(v @ (ops.blocks[1] @ v)) >= -1e-12 * float(v @ (ops.ip @ v))


# -- manufactured solution smoke (full study in test_acceptance) ---------------


def test_manufactured_solution_error_drops_with_refinement():
    mu = ParameterPoint(1.0, 5.0)
    coarse = mms.error_l2l2(16, 32, mu)
    fine = mms.error_l2l2(32, 128, mu)
    assert fine < 0.3 * coarse
