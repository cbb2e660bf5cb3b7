"""Adaptive three-tier surrogate hierarchy for parametric breakthrough curves.

The package bundles a P1/implicit-Euler full-order model of 1D
advection-diffusion-reaction transport, a reduced-basis model certified by
a residual-based output error bound, and a greedy vectorial kernel
surrogate, together with the controller that routes parameter queries
across the tiers and harvests training data on the way.

The package re-exports functions under the names of their submodules
(`pod` from `hiermor.pod`), and the re-export shadows the submodule
attribute: `import hiermor.pod as m` binds the function `hiermor.pod.pod`,
not the module.  Reach the module with `importlib.import_module("hiermor.pod")`.
"""

from .fem import (
    FomOperators,
    MeshSpec,
    ParameterBox,
    ParameterPoint,
    QoiVector,
    TimeGrid,
    assemble,
    qoi_norm,
    solve_fom,
)
from .hierarchy import AdaptiveHierarchy, HierarchyConfig, MlCertificate, QueryRecord
from .kernel import KernelConfig, KernelModel, TrainingSet, fit, predict, power_function
from .pod import PodBasis, hapod, pod
from .rb import ReducedModel, coercivity_lb, enrich, estimate, project, solve_rb

__version__ = "0.1.0"

__all__ = [
    "AdaptiveHierarchy",
    "FomOperators",
    "HierarchyConfig",
    "KernelConfig",
    "KernelModel",
    "MeshSpec",
    "MlCertificate",
    "ParameterBox",
    "ParameterPoint",
    "PodBasis",
    "QoiVector",
    "QueryRecord",
    "ReducedModel",
    "TimeGrid",
    "TrainingSet",
    "assemble",
    "coercivity_lb",
    "enrich",
    "estimate",
    "fit",
    "hapod",
    "pod",
    "power_function",
    "predict",
    "project",
    "qoi_norm",
    "solve_fom",
    "solve_rb",
]
