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
inverse_iteration   smallest eigenpair: the Q = 1 view of subspace_iteration
subspace_iteration  spectral subspace iteration for invariant subspaces
validation          pointwise oracles, statistics, and error metrics
experiments         reproducible study runner behind the CLI
"""

__version__ = "0.1.0"

# The public names load their module on first use, so that importing one
# side (the solver modules, or the reference solvers of `validation` that
# check them) leaves the other out.
_LAZY = {
    "GalerkinSystem": "galerkin",
    "build_system": "galerkin",
    "run_inverse_iteration": "inverse_iteration",
    "run_subspace_iteration": "subspace_iteration",
    "ExperimentConfig": "experiments",
    "run_experiment": "experiments",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ExperimentConfig",
    "GalerkinSystem",
    "build_system",
    "run_experiment",
    "run_inverse_iteration",
    "run_subspace_iteration",
]
