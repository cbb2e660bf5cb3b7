import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf

from hiermor import (
    MeshSpec,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    assemble,
    coercivity_lb,
    enrich,
    estimate,
    pod,
    project,
    qoi_norm,
    solve_fom,
    solve_rb,
)
from hiermor.fem import load_vector, system_matrix, theta
from hiermor.pod import PodBasis, h_orthonormalize, hapod
import hiermor.rb as rb_mod
from hiermor.rb import ErrorBound, coercivity_constants


def empty_basis(n):
    return np.zeros((n, 0))


def full_basis(ops):
    q, _ = h_orthonormalize(np.eye(ops.n_dofs), ops.ip)
    return q


def random_basis(ops, r, seed):
    rng = np.random.default_rng(seed)
    q, _ = h_orthonormalize(rng.standard_normal((ops.n_dofs, r)), ops.ip)
    return q


def unpacked(rm):
    """(red_mass, red_blocks, red_loads, riesz_sqrt) read back out of the operand stacks.

    The projected mass, the Q projected blocks and loads, and the Riesz factor
    with rows in `project`'s component order [b_1 .. b_Q, M Phi, A_1 Phi ..
    A_Q Phi]; every entry is a copy or a negation of a stacked one, so the
    same bits."""
    r = rm.dim
    steps = rm.step_terms.reshape(len(rm.step_terms), 2, r + 1, r + 1)
    riesz = rm.riesz_terms.reshape(len(rm.riesz_terms), r + 1, -1)
    riesz_sqrt = np.vstack([-riesz[1:, r], riesz[:, :r].reshape(-1, riesz.shape[2])])
    red_blocks = steps[1:, 0, :r, :r].transpose(0, 2, 1)
    return steps[0, 0, :r, :r].T, red_blocks, steps[1:, 1, r, :r], riesz_sqrt


def riesz_rows(rm):
    """`riesz_terms` as one row per component of the augmented state, term by term."""
    return rm.riesz_terms.reshape(len(rm.riesz_terms) * (rm.dim + 1), -1)


def brute_force_dual_norms(ops, mu, full_traj, grid):
    """Assemble every full residual vector explicitly and take its H^-1 norm."""
    a_mat = system_matrix(ops, mu)
    b = load_vector(ops, mu)
    norms = []
    for k in range(1, grid.n_steps + 1):
        r = b - ops.mass @ ((full_traj[k] - full_traj[k - 1]) / grid.dt) - a_mat @ full_traj[k]
        rho = spla.spsolve(ops.ip.tocsc(), r)
        norms.append(np.sqrt(max(float(rho @ (ops.ip @ rho)), 0.0)))
    return np.array(norms)


def stepping_solve_rb(rm, mu, grid):
    """Reference reduced trajectory: implicit Euler, one LU solve per time step."""
    th_d, th_a, th_r = theta(mu)
    red_mass, red_blocks, red_loads, _ = unpacked(rm)
    red_a = th_d * red_blocks[0] + th_a * red_blocks[1] + th_r * red_blocks[2]
    red_b = th_d * red_loads[0] + th_a * red_loads[1] + th_r * red_loads[2]
    lu_piv = la.lu_factor(red_mass + grid.dt * red_a)
    traj = np.empty((grid.n_steps + 1, rm.dim))
    traj[0] = rm.red_init
    a = rm.red_init.copy()
    for k in range(grid.n_steps):
        a = la.lu_solve(lu_piv, red_mass @ a + grid.dt * red_b)
        traj[k + 1] = a
    return traj


def augmented(reduced_traj):
    """[a^n, 1]: the trajectory with the column of ones `solve_rb` returns."""
    return np.column_stack([reduced_traj, np.ones(len(reduced_traj))])


def weights_estimate(rm, mu, aug_traj, grid):
    """Reference bound: one (3 + 4r)-column weight row per step times the whole Riesz factor.

    Reads the first r columns of the augmented trajectory; the load weights
    are theta itself, not the trailing column of ones."""
    r, dt, n = rm.dim, grid.dt, grid.n_steps
    th_d, th_a, th_r = theta(mu)
    reduced_traj = aug_traj[:, :r]
    a_now = reduced_traj[1:]
    weights = np.empty((n, 3 + 4 * r))
    weights[:, :3] = th_d, th_a, th_r
    weights[:, 3: 3 + r] = -(a_now - reduced_traj[:-1]) / dt
    weights[:, 3 + r: 3 + 2 * r] = -th_d * a_now
    weights[:, 3 + 2 * r: 3 + 3 * r] = -th_a * a_now
    weights[:, 3 + 3 * r:] = -th_r * a_now
    mapped = weights @ unpacked(rm)[3]
    sq = np.einsum("ni,ni->n", mapped, mapped)
    alpha, c_s = coercivity_lb(rm, mu), rm.output_dual_norm
    delta_sq = (c_s / alpha) ** 2 * dt * float(sq.sum()) + c_s**2 / alpha * rm.init_error**2
    return ErrorBound(np.sqrt(delta_sq), np.sqrt(sq))


# -- projection ----------------------------------------------------------------


def test_project_single_mode_quadratic_form(small_problem):
    # r = 1: per term the step and right-hand-side shares are 2 x 2
    ops, _ = small_problem
    basis = random_basis(ops, 1, seed=2)
    phi = basis[:, 0]
    rm = project(ops, basis, np.zeros(ops.n_dofs))
    steps = rm.step_terms.reshape(4, 2, 2, 2)
    mass = float(phi @ (ops.mass @ phi))
    assert steps[0, 0, 0, 0] == pytest.approx(mass, rel=1e-12)
    assert steps[0, 1, 0, 0] == pytest.approx(mass, rel=1e-12)
    assert steps[1, 0, 0, 0] == pytest.approx(float(phi @ (ops.blocks[0] @ phi)), rel=1e-12)
    assert steps[1, 1, 1, 0] == pytest.approx(float(ops.loads[0] @ phi), rel=1e-12)
    assert np.array_equal(steps[0, :, 1, 1], [1.0, 1.0])


def test_projected_blocks_match_definition(small_problem):
    # step_terms holds, per term [M, A_1 .. A_3], the transposes of its share
    # in [[M_r + dt A_r, 0], [0, 1]] and [[M_r, dt b_r], [0, 1]]; the rest is 0
    ops, _ = small_problem
    r = 4
    phi = random_basis(ops, r, seed=3)
    rm = project(ops, phi, np.zeros(ops.n_dofs))
    assert rm.step_terms.shape == (4, 2 * (r + 1) ** 2) and rm.step_terms.flags.c_contiguous
    expected = np.zeros((4, 2, r + 1, r + 1))
    for k, mat in enumerate((ops.mass, *ops.blocks)):
        expected[k, 0, :r, :r] = (phi.T @ (mat @ phi)).T
    expected[0, 1] = expected[0, 0]
    expected[1:, 1, r, :r] = ops.loads @ phi
    expected[0, :, r, r] = 1.0
    steps = rm.step_terms.reshape(expected.shape)
    assert np.abs(steps - expected).max() < 1e-12
    assert np.array_equal(steps[0, :, r, r], [1.0, 1.0])


def residual_components(ops, phi):
    """[M Phi, 0 | A_1 Phi, -b_1 | .. | A_3 Phi, -b_3]: the columns whose Riesz
    representers the rows of `riesz_rows` factor, in that order."""
    loads = [np.zeros(ops.n_dofs)] + [-b for b in ops.loads]
    return np.column_stack([np.column_stack([mat @ phi, b])
                            for mat, b in zip((ops.mass, *ops.blocks), loads)])


def test_riesz_sqrt_factors_brute_force_gram(small_problem):
    ops, _ = small_problem
    basis = random_basis(ops, 3, seed=4)
    rm = project(ops, basis, np.zeros(ops.n_dofs))
    components = residual_components(ops, basis)
    gram = components.T @ spla.spsolve(ops.ip.tocsc(), components)
    rows = riesz_rows(rm)
    assert np.abs(rows @ rows.T - gram).max() <= 1e-10 * np.abs(gram).max()


@pytest.fixture
def qr_widths(monkeypatch):
    """The column counts of the matrices `project` hands to its pivoted QR."""
    widths, qr = [], rb_mod.dgeqp3

    def record(y, **kwargs):
        widths.append(y.shape[1])
        return qr(y, **kwargs)

    monkeypatch.setattr(rb_mod, "dgeqp3", record)
    return widths


@pytest.mark.parametrize("n_cells, r", [(32, 0), (32, 3), (256, 12), (256, 28)],
                         ids=["32-0", "32-3", "256-12", "256-28"])
def test_riesz_sqrt_drops_at_most_tolerance_per_component(n_cells, r, qr_widths):
    # react is the mass, so the representers are dependent and the factor has
    # fewer than 3 + 4r columns; the three loads are multiples of e_1, so the
    # empty basis needs one.  A pivoted QR of G^-1 C, H = G G^T by a dense
    # Cholesky, gives each component's lost H-norm as a tail of R's column.
    # The mass is factored once, and react's rows are the mass block's.
    ops = assemble(MeshSpec(n_cells))
    basis = random_basis(ops, r, seed=6) if r else empty_basis(ops.n_dofs)
    rm = project(ops, basis, np.zeros(ops.n_dofs))
    assert qr_widths == [3 + 3 * r]
    riesz = rm.riesz_terms.reshape(4, r + 1, -1)
    assert riesz[3, :r].tobytes() == riesz[0, :r].tobytes()
    rows = riesz_rows(rm)
    q = rows.shape[1]
    assert q < 3 + 4 * r
    if r == 0:
        assert q == 1

    components = residual_components(ops, basis)
    y = la.solve_triangular(np.linalg.cholesky(ops.ip.toarray()), components, lower=True)
    _, rr, piv = la.qr(y, mode="economic", pivoting=True)
    norms = np.linalg.norm(rr, axis=0)
    lost = [np.linalg.norm(rr[k:], axis=0) for k in (q, q - 1)]
    assert np.all(lost[0] <= 1e-10 * np.maximum(norms, 1.0))
    assert np.any(lost[1] > 1e-10 * np.maximum(norms, 1.0)) or q == 1
    gram = y.T @ y
    assert np.abs(rows @ rows.T - gram).max() <= 1e-10 * np.abs(gram).max()


def test_riesz_sqrt_of_full_space_basis(small_problem):
    # 3 + 4n components in n dofs (4 (n + 1) rows of riesz_terms, with the
    # mass term's zero load row): R is wide and keeps at most n rows
    ops, _ = small_problem
    basis = full_basis(ops)
    rm = project(ops, basis, np.zeros(ops.n_dofs))
    rows = riesz_rows(rm)
    assert rows.shape[0] == 4 * (ops.n_dofs + 1)
    assert rows.shape[1] <= ops.n_dofs
    components = residual_components(ops, basis)
    gram = components.T @ spla.spsolve(ops.ip.tocsc(), components)
    assert np.abs(rows @ rows.T - gram).max() <= 1e-10 * np.abs(gram).max()


@pytest.mark.parametrize("n_cells", [16, 256])
def test_riesz_gram_against_brute_force(n_cells):
    # react is the mass, so the representers are linearly dependent and the
    # orthonormalization drops columns; the dual norms must not notice
    ops = assemble(MeshSpec(n_cells))
    grid = TimeGrid(1.0, 12)
    mu = ParameterPoint(1.2, 8.0)
    basis = random_basis(ops, 3, seed=5)
    rm = project(ops, basis, np.zeros(ops.n_dofs))
    rtraj, _ = solve_rb(rm, mu, grid)
    bound = estimate(rm, mu, rtraj, grid)
    full_traj = rtraj[:, :3] @ basis.T
    oracle = brute_force_dual_norms(ops, mu, full_traj, grid)
    assert np.allclose(bound.residual_norms, oracle, rtol=1e-8, atol=1e-12)


# sha256 of `project`'s (step_terms, riesz_terms) bytes on the desk mesh, for
# the basis `random_basis(ops, r, seed=r)`
PROJECT_SHA256 = {
    12: ("c44dd82897c0ff1f122464f3869d1f220c7e5371b167e5e4f4129039aa225892",
         "02a044e4bd3b5a84ca150b15bbcdd73584024c32b1573aa1d649cbe0c76e228c"),
    36: ("e0e728de6afbfbbcbceb17fa29bd09a58ef0eb4b5bc1f0b739f6bd479495247f",
         "ba187750fb90a463702fa913690c592d58e150e3fabc33a20f384dd5f7ca8646"),
}


@pytest.mark.parametrize("r", sorted(PROJECT_SHA256))
def test_project_operand_bits_are_pinned(desk_problem, r):
    ops, _ = desk_problem
    rm = project(ops, random_basis(ops, r, seed=r), np.zeros(ops.n_dofs))
    digests = tuple(hashlib.sha256(terms.tobytes()).hexdigest()
                    for terms in (rm.step_terms, rm.riesz_terms))
    assert digests == PROJECT_SHA256[r]


# -- reduced solve ---------------------------------------------------------------


def test_empty_basis_gives_zero_output(small_problem):
    ops, grid = small_problem
    rm = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    rtraj, qoi = solve_rb(rm, ParameterPoint(1.0, 10.0), grid)
    assert rtraj.shape == (grid.n_steps + 1, 1)
    assert np.array_equal(rtraj, np.ones_like(rtraj))
    assert not qoi.values.any()


def test_full_space_basis_reproduces_fom(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(2.0, 25.0)
    c0 = np.zeros(ops.n_dofs)
    traj, f_h = solve_fom(ops, mu, grid, c0)
    rm = project(ops, full_basis(ops), c0)
    rtraj, f_rb = solve_rb(rm, mu, grid)
    recon = rtraj[:, :rm.dim] @ rm.modes.T
    assert np.abs(recon - traj).max() < 1e-8
    assert np.abs(f_rb.values - f_h.values).max() < 1e-8


def test_reproduction_property(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(1.0, 10.0)
    c0 = np.zeros(ops.n_dofs)
    traj, f_h = solve_fom(ops, mu, grid, c0)
    basis = pod(traj.T, ops.ip, energy_tol=1e-10).modes
    rm = project(ops, basis, c0)
    _, f_rb = solve_rb(rm, mu, grid)
    err = qoi_norm(QoiVector(f_h.values - f_rb.values, grid.dt))
    assert err <= 1e-4 * qoi_norm(f_h)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 255, 256, 1000])
def test_solve_rb_matches_stepping_reference(small_problem, reference_trajectory, n_steps):
    # n_steps + 1 rows that are not a power of two end the doubling on a
    # partial block; a mid-trajectory initial state makes red_init nonzero
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    c0 = traj[len(traj) // 2]
    rm = project(ops, pod(traj.T, ops.ip, energy_tol=1e-10).modes, c0)
    grid = TimeGrid(1.0, n_steps)
    mu = ParameterPoint(2.0, 25.0)
    rtraj, qoi = solve_rb(rm, mu, grid)
    ref = stepping_solve_rb(rm, mu, grid)
    r = rm.dim
    assert rtraj.shape == (n_steps + 1, r + 1)
    assert np.array_equal(rtraj[0, :r], rm.red_init)
    assert np.abs(rtraj[:, :r] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(qoi.values, rtraj[1:, :r] @ rm.red_output)


def test_solve_rb_singular_step_raises(small_problem):
    ops, grid = small_problem
    r = 3
    rm = project(ops, random_basis(ops, r, seed=9), np.zeros(ops.n_dofs))
    steps = rm.step_terms.reshape(4, 2, r + 1, r + 1).copy()
    steps[:, :, :r, :r] = 0.0  # M_r and every A_q,r
    degenerate = dataclasses.replace(rm, step_terms=steps.reshape(4, -1))
    with pytest.raises(RuntimeError, match="singular"):
        solve_rb(degenerate, ParameterPoint(1.0, 10.0), grid)


def test_galerkin_orthogonality_per_step(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(3.0, 40.0)
    basis = random_basis(ops, 5, seed=8)
    rm = project(ops, basis, np.zeros(ops.n_dofs))
    rtraj, _ = solve_rb(rm, mu, grid)
    full_traj = rtraj[:, :5] @ basis.T
    a_mat = system_matrix(ops, mu)
    b = load_vector(ops, mu)
    for k in range(1, grid.n_steps + 1):
        r = b - ops.mass @ ((full_traj[k] - full_traj[k - 1]) / grid.dt) - a_mat @ full_traj[k]
        assert np.abs(basis.T @ r).max() < 1e-8


# -- error bound ------------------------------------------------------------------


def test_full_space_residuals_vanish(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(1.0, 10.0)
    rm = project(ops, full_basis(ops), np.zeros(ops.n_dofs))
    rtraj, _ = solve_rb(rm, mu, grid)
    bound = estimate(rm, mu, rtraj, grid)
    assert bound.residual_norms.max() < 1e-8
    assert bound.delta_rb < 1e-8


def test_empty_basis_bound_positive(small_problem):
    ops, grid = small_problem
    rm = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    rtraj, _ = solve_rb(rm, ParameterPoint(1.0, 10.0), grid)
    bound = estimate(rm, ParameterPoint(1.0, 10.0), rtraj, grid)
    assert bound.delta_rb > 0.0


@pytest.mark.parametrize("r", [0, 3])
def test_estimate_rejects_r_column_trajectory(small_problem, r):
    # the first r columns alone are no augmented trajectory, nor is one
    # with a row too many
    ops, grid = small_problem
    rm = project(ops, random_basis(ops, r, seed=9) if r else empty_basis(ops.n_dofs),
                 np.zeros(ops.n_dofs))
    mu = ParameterPoint(1.0, 10.0)
    rtraj, _ = solve_rb(rm, mu, grid)
    for traj in (rtraj[:, :r], np.vstack([rtraj, rtraj[-1:]])):
        with pytest.raises(ValueError, match=r"\(n_steps \+ 1, rm.dim \+ 1\)"):
            estimate(rm, mu, traj, grid)


def test_estimator_rigor_random_parameters(small_problem, default_box):
    ops, grid = small_problem
    c0 = np.zeros(ops.n_dofs)
    traj, _ = solve_fom(ops, ParameterPoint(1.0, 10.0), grid, c0)
    rm, _ = enrich(project(ops, empty_basis(ops.n_dofs), c0), traj, ops)
    rng = np.random.default_rng(123)
    effectivities = []
    for _ in range(20):
        mu = ParameterPoint(
            rng.uniform(default_box.da_min, default_box.da_max),
            rng.uniform(default_box.pe_min, default_box.pe_max),
        )
        _, f_h = solve_fom(ops, mu, grid, c0)
        rtraj, f_rb = solve_rb(rm, mu, grid)
        err = qoi_norm(QoiVector(f_h.values - f_rb.values, grid.dt))
        delta = estimate(rm, mu, rtraj, grid).delta_rb
        assert delta >= err - 1e-10
        if err > 0:
            effectivities.append(delta / err)
    assert effectivities  # informational: median effectivity
    print(f"median effectivity: {np.median(effectivities):.1f}")


def test_bound_floor_matches_stepping_reference():
    # Bases enriched with one and two FOM trajectories put delta_rb between
    # 2e-2 and 7e-11; above 1e-10 the propagator's roundoff must not move it.
    ops, grid = assemble(MeshSpec(32)), TimeGrid(1.0, 256)
    c0 = np.zeros(ops.n_dofs)
    rng = np.random.default_rng(5)
    mus = [ParameterPoint(rng.uniform(0.1, 10.0), rng.uniform(1.0, 100.0)) for _ in range(6)]
    rm = project(ops, empty_basis(ops.n_dofs), c0)
    floor_checked = []
    for train_mu in mus[:2]:
        traj, _ = solve_fom(ops, train_mu, grid, c0)
        rm, _ = enrich(rm, traj, ops, energy_tol=1e-10, max_modes=100)
        for mu in mus:
            ref = estimate(rm, mu, augmented(stepping_solve_rb(rm, mu, grid)), grid).delta_rb
            new = estimate(rm, mu, solve_rb(rm, mu, grid)[0], grid).delta_rb
            if ref >= 1e-10:
                assert abs(new - ref) <= 1e-3 * ref
                floor_checked.append(ref)
    assert min(floor_checked) < 1e-8


def assert_estimate_matches_weights_reference(rm, mu, rtraj, grid, new):
    """`new` against `weights_estimate` on the same trajectory; returns the reference delta_rb."""
    ref = weights_estimate(rm, mu, rtraj, grid)
    rel = abs(new.delta_rb - ref.delta_rb) / ref.delta_rb
    if ref.delta_rb >= 1e-8:
        assert rel <= 1e-7
    elif ref.delta_rb >= 1e-10:
        assert rel <= 1e-3
    # both map the same residual: they differ by roundoff in its largest
    # term, the load (the r = 0 residual)
    load = np.linalg.norm(np.asarray(theta(mu)) @ unpacked(rm)[3][:3])
    assert np.abs(new.residual_norms - ref.residual_norms).max() <= 1e-13 * load
    return ref.delta_rb


@pytest.mark.parametrize("nonzero_c0", [False, True])
def test_estimate_matches_weights_reference(nonzero_c0):
    # The empty basis, then bases enriched with one and two FOM trajectories,
    # put delta_rb between the r = 0 bound and the 1e-10 floor
    ops, grid = assemble(MeshSpec(32)), TimeGrid(1.0, 256)
    rng = np.random.default_rng(5)
    mus = [ParameterPoint(rng.uniform(0.1, 10.0), rng.uniform(1.0, 100.0)) for _ in range(6)]
    c0 = np.zeros(ops.n_dofs)
    if nonzero_c0:
        c0 = solve_fom(ops, mus[-1], grid, c0)[0][grid.n_steps // 8]
    rm = project(ops, empty_basis(ops.n_dofs), c0)
    checked = []
    for train_mu in [None] + mus[:2]:
        if train_mu is not None:
            traj, _ = solve_fom(ops, train_mu, grid, c0)
            rm, _ = enrich(rm, traj, ops, energy_tol=1e-10, max_modes=100)
        for mu in mus:
            rtraj, _ = solve_rb(rm, mu, grid)
            ref = assert_estimate_matches_weights_reference(
                rm, mu, rtraj, grid, estimate(rm, mu, rtraj, grid))
            checked.append((rm.dim, ref))
    assert min(r for r, _ in checked) == 0
    assert min(d for _, d in checked) < 1e-8


def same_bound(a, b):
    return a.delta_rb == b.delta_rb and np.array_equal(a.residual_norms, b.residual_norms)


BOX = ParameterBox()
PARAMETERS = st.one_of(
    st.sampled_from(BOX.corners()),
    st.builds(ParameterPoint, st.floats(BOX.da_min, BOX.da_max), st.floats(BOX.pe_min, BOX.pe_max)),
)


@settings(derandomize=True)
@given(r=st.sampled_from([0, 1, 2, 7]), seed=st.integers(0, 2**16), c0_row=st.sampled_from([0, 5, 16]),
       n_steps=st.sampled_from([1, 2, 3, 255, 256]), mu=PARAMETERS)
def test_online_tier_property(small_problem, reference_trajectory, r, seed, c0_row, n_steps, mu):
    # c0_row = 0 is the zero initial state; later rows of a FOM trajectory
    # give a nonzero red_init and init_error
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    grid = TimeGrid(1.0, n_steps)
    c0 = traj[c0_row]
    rm = project(ops, random_basis(ops, r, seed) if r else empty_basis(ops.n_dofs), c0)

    rtraj, qoi = solve_rb(rm, mu, grid)
    ref = stepping_solve_rb(rm, mu, grid)
    assert rtraj.shape == (n_steps + 1, r + 1) and ref.shape == (n_steps + 1, r)
    assert rtraj.flags.c_contiguous
    assert np.array_equal(rtraj[:, r], np.ones(n_steps + 1))
    assert np.abs(rtraj[:, :r] - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)
    assert np.array_equal(qoi.values, rtraj[1:, :r] @ rm.red_output)

    bound = estimate(rm, mu, rtraj, grid)
    assert_estimate_matches_weights_reference(rm, mu, rtraj, grid, bound)
    # the same values in a strided view, C order and Fortran order give the same bits
    wide = np.zeros((n_steps + 1, r + 4))
    wide[:, 1: r + 2] = rtraj
    for layout in (wide[:, 1: r + 2], rtraj.copy(), np.asfortranarray(rtraj)):
        assert same_bound(estimate(rm, mu, layout, grid), bound)

    # the fields are the whole model: one of another basis given rm's fields
    # solves and estimates like rm
    fields = {f.name: getattr(rm, f.name) for f in dataclasses.fields(rm)}
    other = project(ops, random_basis(ops, 3, seed + 1), np.zeros(ops.n_dofs))
    replaced = dataclasses.replace(other, **fields)
    rtraj2, qoi2 = solve_rb(replaced, mu, grid)
    assert np.array_equal(rtraj2, rtraj) and np.array_equal(qoi2.values, qoi.values)
    assert same_bound(estimate(replaced, mu, rtraj2, grid), bound)


# -- coercivity --------------------------------------------------------------------


def test_coercivity_lb_linear_in_da(small_problem):
    ops, _ = small_problem
    rm = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    pe = 10.0
    a1 = coercivity_lb(rm, ParameterPoint(1.0, pe))
    a2 = coercivity_lb(rm, ParameterPoint(2.0, pe))
    a4 = coercivity_lb(rm, ParameterPoint(4.0, pe))
    assert a2 - a1 == pytest.approx(rm.gamma_react, rel=1e-10)
    assert a4 - a2 == pytest.approx(2 * rm.gamma_react, rel=1e-10)


def test_coercivity_lb_rejects_a_nonpositive_alpha(small_problem):
    ops, _ = small_problem
    rm = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    # da = 0 and pe = inf lie outside every ParameterBox and leave alpha = 0
    with pytest.raises(ValueError, match="outside the coercive regime"):
        coercivity_lb(rm, ParameterPoint(0.0, math.inf))


def test_coercivity_value_formula(small_problem):
    ops, _ = small_problem
    gamma_diff, gamma_react = coercivity_constants(ops)
    rm = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    assert coercivity_lb(rm, ParameterPoint(0.1, 1.0)) == pytest.approx(
        gamma_diff + 0.1 * gamma_react, rel=1e-12
    )


def test_coercivity_constants_are_rayleigh_lower_bounds(small_problem):
    ops, _ = small_problem
    gamma_diff, gamma_react = coercivity_constants(ops)
    rng = np.random.default_rng(77)
    for _ in range(100):
        v = rng.standard_normal(ops.n_dofs)
        hv = float(v @ (ops.ip @ v))
        assert float(v @ (ops.blocks[0] @ v)) / hv >= gamma_diff - 1e-10
        assert float(v @ (ops.blocks[2] @ v)) / hv >= gamma_react - 1e-10


@pytest.mark.parametrize("n_cells", [16, 256, 2048])
def test_coercivity_constants_closed_form(n_cells):
    # eigenvalues of (diff, mass) on the mesh with Dirichlet inflow and a free
    # outflow node; (diff, ip) and (react, ip) have k / (1 + k) and 1 / (1 + k)
    ops = assemble(MeshSpec(n_cells))
    h = 1.0 / n_cells
    th = (2 * np.arange(1, n_cells + 1) - 1) * np.pi / (2 * n_cells)
    kappa = 6.0 / h**2 * (1 - np.cos(th)) / (2 + np.cos(th))
    gamma_diff, gamma_react = coercivity_constants(ops)
    assert gamma_diff == pytest.approx(kappa[0] / (1 + kappa[0]), rel=1e-9)
    assert gamma_react == pytest.approx(1 / (1 + kappa[-1]), rel=1e-9)
    for gamma, mat in ((gamma_diff, ops.blocks[0]), (gamma_react, ops.blocks[2])):
        at, above = ((mat - s * ops.ip).tocsr() for s in (gamma, gamma * (1 + 1e-9)))
        assert dpttrf(at.diagonal(), at.diagonal(1))[2] == 0
        assert dpttrf(above.diagonal(), above.diagonal(1))[2] != 0


@pytest.mark.parametrize("make_diff", [lambda bands: bands[2]], ids=["skew"])
def test_coercivity_constants_reject_non_tridiagonal_symmetric(small_problem, make_diff):
    ops, _ = small_problem
    bands = ops.bands.copy()
    bands[1] = make_diff(ops.bands)
    with pytest.raises(ValueError, match="symmetric tridiagonal"):
        coercivity_constants(dataclasses.replace(ops, bands=bands))


def test_coercivity_constants_reject_indefinite_operator(small_problem):
    ops, _ = small_problem
    bands = ops.bands.copy()
    bands[0] = -ops.bands[0]  # the mass, the reaction's operator
    with pytest.raises(ValueError, match="not positive definite"):
        coercivity_constants(dataclasses.replace(ops, bands=bands))


# -- enrichment ---------------------------------------------------------------------


# sha256 of `enrich`'s modes on the desk mesh and grid after each of two
# enrichments from an empty basis, at the desk config's energy_tol and
# max_modes; they are the same at 1 and at 2 BLAS threads
ENRICH_SHA256 = {
    ParameterPoint(2.0, 30.0): "46eb5640f37db0c6a44ee9d0cfeed700a6ac0946aa8480fc180f8a6d42c4b875",
    ParameterPoint(0.1, 100.0): "3bf217b2fb504626ab4fdf06d603685f287182c835ffb212f85ef08123b2290b",
}


def test_enrich_mode_bits_are_pinned(desk_problem):
    ops, grid = desk_problem
    rm = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    for mu, digest in ENRICH_SHA256.items():
        traj, _ = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
        rm, added = enrich(rm, traj, ops, energy_tol=1e-6, max_modes=25)
        assert added > 0
        assert hashlib.sha256(rm.modes.tobytes()).hexdigest() == digest


def test_enrich_from_empty_equals_trajectory_pod(small_problem, reference_trajectory):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    rm0 = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    rm1, added = enrich(rm0, traj, ops, energy_tol=1e-6, max_modes=25)
    direct = pod(traj.T, ops.ip, rank=25, energy_tol=1e-6)
    assert added == direct.dim
    # same span: cross-projection is lossless both ways
    phi, psi = rm1.modes, direct.modes
    assert np.abs(phi - psi @ (psi.T @ (ops.ip @ phi))).max() < 1e-8


@pytest.mark.parametrize("max_modes", [0, -3])
def test_enrich_rejects_max_modes_below_one(small_problem, reference_trajectory, max_modes):
    # 0 would come back as (rm, 0), which reads as stagnation
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    rm0 = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    with pytest.raises(ValueError, match=f"^max_modes must be >= 1; got {max_modes}$"):
        enrich(rm0, traj, ops, max_modes=max_modes)


def test_enrich_stagnates_when_trajectory_in_span(small_problem, reference_trajectory):
    ops, _ = small_problem
    mu, traj, _ = reference_trajectory
    rm0 = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    rm1, added = enrich(rm0, traj, ops, energy_tol=1e-10, max_modes=100)
    assert added > 0
    rm2, added2 = enrich(rm1, traj, ops, energy_tol=1e-10, max_modes=100)
    assert added2 == 0
    assert rm2 is rm1


@pytest.mark.parametrize("r", [0, 12])
def test_enrich_without_new_modes_returns_model(small_problem, reference_trajectory,
                                                monkeypatch, r):
    # A POD that finds no mode leaves the union at the r old columns: the
    # model itself comes back, with nothing projected.
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    basis = random_basis(ops, r, seed=9) if r else empty_basis(ops.n_dofs)
    rm0 = project(ops, basis, np.zeros(ops.n_dofs))

    def no_project(*args):
        raise AssertionError("enrich projected a basis without new modes")

    monkeypatch.setattr(rb_mod, "pod",
                        lambda x, **kwargs: PodBasis(np.zeros((len(x), 0)), np.zeros(0)))
    monkeypatch.setattr(rb_mod, "project", no_project)
    rm1, added = enrich(rm0, traj, ops)
    assert rm1 is rm0 and added == 0


def test_enrich_preserves_old_span(small_problem, reference_trajectory):
    ops, grid = small_problem
    _, traj, _ = reference_trajectory
    rm0 = project(ops, random_basis(ops, 3, seed=9), np.zeros(ops.n_dofs))
    rm1, added = enrich(rm0, traj, ops)
    assert added > 0
    assert rm1.dim == 3 + added
    new_phi = rm1.modes
    for j in range(3):
        old = rm0.modes[:, j]
        coeffs = new_phi.T @ (ops.ip @ old)
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-10)


def test_enrich_then_bound_below_tolerance(small_problem, reference_trajectory):
    ops, grid = small_problem
    mu, traj, _ = reference_trajectory
    rm0 = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    rm1, _ = enrich(rm0, traj, ops)
    rtraj, _ = solve_rb(rm1, mu, grid)
    assert estimate(rm1, mu, rtraj, grid).delta_rb <= 1e-2


def test_enrich_long_trajectory_matches_hapod_rank():
    # 601 snapshots: beyond the 512 at which enrichment once switched to HAPOD,
    # one POD now serves every trajectory length.
    ops, grid = assemble(MeshSpec(32)), TimeGrid(1.0, 600)
    mu = ParameterPoint(1.0, 10.0)
    traj, _ = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    rm0 = project(ops, empty_basis(ops.n_dofs), np.zeros(ops.n_dofs))
    energy_tol, max_modes = 1e-6, 25
    rm1, added = enrich(rm0, traj, ops, energy_tol=energy_tol, max_modes=max_modes)
    assert 0 < added <= max_modes
    rtraj, _ = solve_rb(rm1, mu, grid)
    assert estimate(rm1, mu, rtraj, grid).delta_rb <= 1e-2
    # HAPOD on 8 chunks with the per-snapshot tolerance of the same energy rule
    snapshots = traj.T
    m = snapshots.shape[1]
    total = float(np.einsum("ij,ij->", snapshots, ops.ip @ snapshots))
    hier = hapod(np.array_split(snapshots, 8, axis=1), ops.ip,
                 eps_star=energy_tol * math.sqrt(total / m), omega=0.5)
    assert abs(added - min(hier.dim, max_modes)) <= 2


@pytest.mark.parametrize("r", [0, 3])
def test_enrich_maps_into_coordinates_twice_and_out_once(small_problem, reference_trajectory,
                                                        monkeypatch, factor_maps, r):
    # The trajectory and the basis go in and the union comes out; the maps of
    # the `project` that builds the new model are counted as its own.
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    basis = random_basis(ops, r, seed=9) if r else empty_basis(ops.n_dofs)
    rm0 = project(ops, basis, np.zeros(ops.n_dofs))
    at_project = []

    def recording_project(*args):
        at_project.append(dict(factor_maps))
        return project(*args)

    monkeypatch.setattr(rb_mod, "project", recording_project)
    factor_maps.clear()
    _, added = enrich(rm0, traj, ops)
    assert added > 0
    assert at_project == [{"coords": 2, "from_coords": 1}]


@pytest.mark.parametrize("max_modes", [5, 25], ids=["sketch-narrower", "energy-rule"])
@pytest.mark.parametrize("r", [0, 3])
def test_enrich_matches_dense_oracle(small_problem, reference_trajectory, monkeypatch, r,
                                     max_modes):
    ops, _ = small_problem
    _, traj, _ = reference_trajectory
    pods = []

    def recording_pod(*args, **kwargs):
        pods.append(pod(*args, **kwargs))
        return pods[-1]

    monkeypatch.setattr(rb_mod, "pod", recording_pod)
    basis = random_basis(ops, r, seed=9) if r else empty_basis(ops.n_dofs)
    rm0 = project(ops, basis, np.zeros(ops.n_dofs))
    energy_tol = 1e-6
    rm1, added = enrich(rm0, traj, ops, energy_tol=energy_tol, max_modes=max_modes)
    (new,) = pods
    assert added == new.dim > 0

    # Oracle: ip = C C^T by a dense Cholesky; the POD of the projection error
    # is the SVD of C^T err, whose tails are exact.
    h = ops.ip.toarray()
    chol = np.linalg.cholesky(h)
    snapshots, phi = traj.T, basis
    err = snapshots - phi @ (phi.T @ (h @ snapshots))
    u, sigma, _ = np.linalg.svd(chol.T @ err)
    tails = np.append(np.cumsum(sigma[::-1] ** 2)[::-1], 0.0)
    k = min(int(np.argmax(tails <= energy_tol**2 * tails[0])), max_modes)
    assert new.dim == k
    np.testing.assert_allclose(new.singular_values, sigma[:k], rtol=1e-9, atol=0.0)

    def h_residual(x, q):
        return x - q @ (q.T @ (h @ x))

    # enrich decomposes in the coordinates of ip's factor; map the modes back
    new_modes = ops.ip_factor.from_coords(new.modes)
    oracle = la.solve_triangular(chol.T, u[:, :k])
    union = rm1.modes
    assert np.abs(h_residual(oracle, new_modes)).max() < 1e-9
    assert np.abs(h_residual(new_modes, oracle)).max() < 1e-9
    assert np.abs(h_residual(oracle, union)).max() < 1e-9
    # the error left after enrichment is the oracle's tail
    left = h_residual(err, union)
    assert float(np.einsum("ij,ij->", left, h @ left)) == pytest.approx(tails[k], rel=1e-6)


# -- levels -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_end_state(desk_problem):
    """A desk-size model with a nonzero initial state, enriched three times
    from an empty basis, and that initial state."""
    ops, grid = desk_problem
    c0 = solve_fom(ops, ParameterPoint(1.0, 10.0), grid, np.zeros(ops.n_dofs))[0][64]
    rm = project(ops, empty_basis(ops.n_dofs), c0)
    for mu in (ParameterPoint(2.0, 30.0), ParameterPoint(0.1, 100.0), ParameterPoint(5.0, 60.0)):
        rm, _ = enrich(rm, solve_fom(ops, mu, grid, c0)[0], ops, energy_tol=1e-6, max_modes=25)
    return rm, c0


def test_levels_solve_and_bound_as_projected_leading_modes(desk_problem, desk_end_state):
    ops, grid = desk_problem
    rm, c0 = desk_end_state
    assert rm.dim > 8 * rb_mod.LEVEL_STEP and rm.init_error > 0.0
    mus = ParameterBox().points(np.random.default_rng(11).random((4, 2)))
    truths = [solve_fom(ops, mu, grid, c0)[1] for mu in mus]
    for k in range(rb_mod.LEVEL_STEP, rm.dim, rb_mod.LEVEL_STEP):
        level, ref = rm.level(k), project(ops, rm.modes[:, :k], c0)
        assert level.dim == k
        assert level.init_error == pytest.approx(ref.init_error, rel=1e-6)
        for mu, truth in zip(mus, truths):
            traj, qoi = solve_rb(level, mu, grid)
            ref_traj, ref_qoi = solve_rb(ref, mu, grid)
            np.testing.assert_allclose(qoi.values, ref_qoi.values, rtol=0.0,
                                       atol=1e-12 * np.abs(ref_qoi.values).max())
            delta = estimate(level, mu, traj, grid).delta_rb
            assert delta == pytest.approx(estimate(ref, mu, ref_traj, grid).delta_rb, rel=1e-8)
            assert qoi_norm(QoiVector(truth.values - qoi.values, grid.dt)) <= delta


def test_full_level_is_the_model(desk_end_state):
    rm, _ = desk_end_state
    top = rm.dim - rm.dim % rb_mod.LEVEL_STEP + rb_mod.LEVEL_STEP
    assert rm.level(top) is rm and rm.level(top + rb_mod.LEVEL_STEP) is rm
    for k in (0, -rb_mod.LEVEL_STEP, rb_mod.LEVEL_STEP + 1):
        with pytest.raises(ValueError, match="positive multiple"):
            rm.level(k)
