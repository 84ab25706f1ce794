"""Spectral inverse and subspace iteration for random elliptic eigenproblems.

Computes the smallest eigenpair, and low-dimensional invariant subspaces, of
a diffusion operator with an affine-parametric random coefficient.  The
eigenpair is sought directly as a sparse Legendre polynomial chaos expansion:
inverse iteration (and its block variant) is carried out on the chaos
coefficients, with every multiplication and normalization replaced by its
Galerkin projection onto the chaos basis.

Modules
-------
multiindex          anisotropic sparse multi-index sets
legendre            normalized Legendre basis and moment tensors
fem                 uniform-grid FEM on the unit square, in 1D factors
galerkin            Kronecker-structured solver kernels
inverse_iteration   spectral inverse iteration for the smallest eigenpair
subspace_iteration  spectral subspace iteration for invariant subspaces
validation          pointwise oracles, statistics, and error metrics
experiments         reproducible study runner behind the CLI
"""

__version__ = "0.1.0"

from .galerkin import GalerkinSystem, build_system
from .inverse_iteration import run_inverse_iteration
from .subspace_iteration import run_subspace_iteration

# The study runner imports the reference solvers of `validation`; it loads
# on first use, so that importing the solver modules leaves them out.
_FROM_EXPERIMENTS = ("ExperimentConfig", "make_reference", "run_experiment")


def __getattr__(name):
    if name in _FROM_EXPERIMENTS:
        from . import experiments
        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ExperimentConfig",
    "GalerkinSystem",
    "build_system",
    "make_reference",
    "run_experiment",
    "run_inverse_iteration",
    "run_subspace_iteration",
]
