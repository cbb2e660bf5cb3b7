"""Frozen synthetic kernel training sets used by the unit and acceptance tests.

Max-residual monotonicity of f-greedy selection is an empirical property of
the data, not a theorem (counterexamples exist even for smooth targets), so
the monotonicity checks run on this fixed, well-behaved set: 30 Halton
points with targets drawn from a kernel expansion whose coefficients decay.
"""

import numpy as np
from scipy.stats import qmc

from hiermor import ParameterBox, ParameterPoint, QoiVector
from hiermor.kernel import KernelConfig, TrainingSet, kernel

N_TIME = 12
DT = 1.0 / N_TIME
BOX = ParameterBox()


def halton_points(n: int, box: ParameterBox) -> list[ParameterPoint]:
    pts = qmc.Halton(d=2, scramble=False).random(n)
    return [
        ParameterPoint(
            box.da_min + (box.da_max - box.da_min) * p[0],
            box.pe_min * (box.pe_max / box.pe_min) ** p[1],
        )
        for p in pts
    ]


def monotone_training_set(n: int = 30):
    """30-point set in BOX with in-class decaying targets; greedy residuals decrease."""
    box = BOX
    config = KernelConfig(shape=0.8, greedy_tol=0.0)
    rng = np.random.default_rng(8)
    hidden = [
        ParameterPoint(rng.uniform(box.da_min, box.da_max),
                       np.exp(rng.uniform(0.0, np.log(box.pe_max))))
        for _ in range(6)
    ]
    coeffs = rng.standard_normal((6, N_TIME)) * (0.3 ** np.arange(6))[:, None]

    def target(mu):
        weights = np.array([kernel(mu, c, config, box) for c in hidden])
        return weights @ coeffs

    train = TrainingSet()
    data = []
    for mu in halton_points(n, box):
        values = target(mu)
        train.add(mu, QoiVector(values, DT), "RB")
        data.append((mu, values))
    return train, data, config
