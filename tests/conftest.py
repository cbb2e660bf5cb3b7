from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from hiermor import MeshSpec, ParameterBox, ParameterPoint, TimeGrid, assemble, solve_fom
from hiermor.fem import IpFactor

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_problem():
    """Coarse FOM setup shared by tests that only need plausible operators."""
    mesh, grid = MeshSpec(32), TimeGrid(1.0, 32)
    return assemble(mesh), grid


@pytest.fixture(scope="session")
def desk_problem():
    mesh, grid = MeshSpec(256), TimeGrid(1.0, 256)
    return assemble(mesh), grid


@pytest.fixture(scope="session")
def default_box():
    return ParameterBox()


@pytest.fixture(scope="session")
def reference_trajectory(small_problem):
    ops, grid = small_problem
    mu = ParameterPoint(1.0, 10.0)
    traj, qoi = solve_fom(ops, mu, grid, np.zeros(ops.n_dofs))
    return mu, traj, qoi


@pytest.fixture
def factor_maps(monkeypatch):
    """Counts the calls of `IpFactor.coords` and `IpFactor.from_coords` by name."""
    counts = Counter()
    for name in ("coords", "from_coords"):
        def counted(self, x, name=name, original=getattr(IpFactor, name)):
            counts[name] += 1
            return original(self, x)

        monkeypatch.setattr(IpFactor, name, counted)
    return counts
