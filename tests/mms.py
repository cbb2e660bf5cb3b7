"""Manufactured-solution study: c(x, t) = exp(-t) sin(pi x).

The exact solution is imposed through a matching source and the exact
Neumann flux at the outflow; it serves as the independent reference for the
convergence tests (expected rates: 2 in h, 1 in dt).
"""

import numpy as np

from hiermor import MeshSpec, ParameterPoint, TimeGrid, assemble, solve_fom


def exact(x, t):
    return np.exp(-t) * np.sin(np.pi * x)


def manufactured(n_cells: int, mu: ParameterPoint):
    """(ops, nodes, source) of the manufactured problem on n_cells cells: the
    operators with a zero inflow value, the free nodes and the load hook that
    `solve_fom` takes; the initial state is sin(pi * nodes)."""
    mesh = MeshSpec(n_cells)
    ops = assemble(mesh, inflow_value=0.0)
    h = mesh.h
    nodes = h * np.arange(1, n_cells + 1)

    def source(t):
        decay = np.exp(-t)
        q = decay * (
            (-1.0 + np.pi**2 / mu.pe + mu.da) * np.sin(np.pi * nodes)
            + np.pi * np.cos(np.pi * nodes)
        )
        vec = ops.mass @ q
        vec[0] += (h / 6.0) * decay * np.pi  # source value at the eliminated node
        vec[-1] += -(np.pi / mu.pe) * decay  # exact diffusive flux at the outflow
        return vec

    return ops, nodes, source


def error_l2l2(n_cells: int, n_steps: int, mu: ParameterPoint, t_end: float = 1.0) -> float:
    """Discrete L2(0,T; L2) distance between the FOM and the nodal exact solution."""
    grid = TimeGrid(t_end, n_steps)
    ops, nodes, source = manufactured(n_cells, mu)
    traj, _ = solve_fom(ops, mu, grid, np.sin(np.pi * nodes), source=source)
    err_sq = 0.0
    for k, t in enumerate(grid.times(), start=1):
        e = traj[k] - exact(nodes, t)
        err_sq += grid.dt * float(e @ (ops.mass @ e))
    return float(np.sqrt(err_sq))


def fitted_order(scales, errors) -> float:
    """Least-squares slope of log(error) against log(scale)."""
    return float(np.polyfit(np.log(scales), np.log(errors), 1)[0])


def spatial_study(mu: ParameterPoint, cells=(32, 64, 128)):
    """Mesh refinement with dt tied to h^2 so both error terms scale together."""
    hs = [1.0 / n for n in cells]
    errors = [error_l2l2(n, n * n // 8, mu) for n in cells]
    return fitted_order(hs, errors), hs, errors


def temporal_study(mu: ParameterPoint, steps=(64, 128, 256), n_cells=256):
    dts = [1.0 / m for m in steps]
    errors = [error_l2l2(n_cells, m, mu) for m in steps]
    return fitted_order(dts, errors), dts, errors
