"""Deterministic reference solvers and statistical cross-checks.

Everything here goes around the chaos machinery on purpose: pointwise
eigenpairs come from sparse block inverse iteration on the sparse matrices
K(y) and M, statistics from plain Monte Carlo, subspace angles from dense
linear algebra on evaluated bases.  The spectral iteration modules are
validated against these routines, never the other way around.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import qmc

__all__ = [
    "smallest_eigenpairs",
    "fix_signs",
    "expansion_statistics",
    "monte_carlo_statistics",
    "pointwise_error",
    "subspace_angle",
    "angle_statistics",
    "overlap_permutation",
    "coefficient_decay",
]


def fix_signs(vecs):
    """Flip columns so the largest-magnitude entry of each is positive.

    Entries within 1e-8 relative of the largest magnitude count as tied
    (a symmetric mode has several, equal up to roundoff), and the first of
    them is made positive.
    """
    vecs = np.array(vecs, dtype=float)
    mags = np.abs(vecs)
    lead = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0), axis=0)
    vecs[:, vecs[lead, np.arange(vecs.shape[1])] < 0.0] *= -1.0
    return vecs


def _orthonormalize(X, M):
    """M-orthonormalize columns via Cholesky of the Gram matrix."""
    G = X.T @ (M @ X)
    L = np.linalg.cholesky(G)
    return np.linalg.solve(L, X.T).T


def smallest_eigenpairs(K, M, count=1, tol=1e-10, maxiter=200, seed=12345,
                        start=None, guard=2):
    """Smallest eigenpairs of the pencil (K, M) on sparse matrices.

    Block inverse iteration with Rayleigh-Ritz extraction: factor K once,
    then repeatedly apply K^{-1} M to an M-orthonormal block and rotate by
    the small projected eigenproblem.  The block carries `guard` extra
    vectors so a (near-)degenerate cluster at position `count` cannot stall
    the rate; convergence is tested on the requested columns only.
    Deterministic: the random start is seeded (or supplied).  Returns
    (values, vectors) with M-orthonormal columns, signed by `fix_signs`,
    values ascending.
    """
    n = K.shape[0]
    if not 1 <= count <= n:
        raise ValueError("count out of range")
    b = min(count + max(guard, 0), n)
    lu = spla.splu(sp.csc_matrix(K))
    rng = np.random.default_rng(seed)
    if start is None:
        X = rng.standard_normal((n, b))
    else:
        X = np.array(start, dtype=float).reshape(n, -1)
        if X.shape[1] < b:
            X = np.hstack([X, rng.standard_normal((n, b - X.shape[1]))])
    X = _orthonormalize(X, M)
    for _ in range(maxiter):
        X = lu.solve(M @ X)
        X = _orthonormalize(X, M)
        A = X.T @ (K @ X)
        A = 0.5 * (A + A.T)
        vals, S = np.linalg.eigh(A)
        X = X @ S
        Xc = X[:, :count]
        R = K @ Xc - (M @ Xc) * vals[None, :count]
        scale = np.abs(vals[:count]) * np.linalg.norm(M @ Xc, axis=0)
        if np.all(np.linalg.norm(R, axis=0) <= tol * scale):
            return vals[:count].copy(), fix_signs(Xc)
    raise RuntimeError(f"block inverse iteration stalled after {maxiter} "
                       f"sweeps (tol {tol:.1e})")


def expansion_statistics(coeffs):
    """Mean and variance of an orthonormal-chaos expansion.

    The zero-index coefficient is the mean; the variance is the sum of the
    squared remaining coefficients (componentwise for (P, N) blocks).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs[0].copy(), np.sum(coeffs[1:] ** 2, axis=0)


def _single_pair_warm(Kdata_matrix, M, x0, tol=1e-11, maxiter=100):
    """Smallest eigenpair via inverse iteration warm-started at x0."""
    lu = spla.splu(sp.csc_matrix(Kdata_matrix))
    x = x0 / np.sqrt(x0 @ (M @ x0))
    lam = x @ (Kdata_matrix @ x)
    for _ in range(maxiter):
        x = lu.solve(M @ x)
        x /= np.sqrt(x @ (M @ x))
        lam_new = x @ (Kdata_matrix @ x)
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new, x
        lam = lam_new
    raise RuntimeError("pointwise inverse iteration stalled")


def monte_carlo_statistics(op, nsamples=10000, seed=1234, tol=1e-11):
    """Monte Carlo statistics of the smallest eigenpair over the box.

    Samples the parameter uniformly, solves each pointwise eigenproblem by
    warm-started inverse iteration (the factorization reuses the shared
    sparsity pattern of the operator family), and accumulates mean and
    variance of the eigenvalue together with their standard errors, plus
    the running mean and variance fields of the sign-aligned eigenvector.

    Returns a dict with keys eigenvalue_mean, eigenvalue_var, se_mean,
    se_var, vector_mean, vector_var, nsamples.
    """
    rng = np.random.default_rng(seed)
    M = op.mass
    lam0, x = _single_pair_warm(op.matrix_at(np.zeros(op.nterms)), M,
                                np.ones(op.ndof), tol)
    x = fix_signs(x[:, None])[:, 0]
    lams = np.empty(nsamples)
    vsum = np.zeros(op.ndof)
    vsq = np.zeros(op.ndof)
    for i in range(nsamples):
        y = rng.uniform(-1.0, 1.0, op.nterms)
        lam, v = _single_pair_warm(op.matrix_at(y), M, x, tol)
        if v @ (M @ x) < 0.0:
            v = -v
        lams[i] = lam
        vsum += v
        vsq += v * v
    mean = float(lams.mean())
    var = float(lams.var(ddof=1))
    centred = lams - mean
    m4 = float(np.mean(centred ** 4))
    return {
        "eigenvalue_mean": mean,
        "eigenvalue_var": var,
        "se_mean": float(np.sqrt(var / nsamples)),
        "se_var": float(np.sqrt(max(m4 - var * var, 0.0) / nsamples)),
        "vector_mean": vsum / nsamples,
        "vector_var": vsq / nsamples - (vsum / nsamples) ** 2,
        "nsamples": nsamples,
    }


def pointwise_error(op, aset, U, mu, y, tol=1e-12):
    """Compare an evaluated chaos eigenpair with the direct solve at y.

    Returns a dict with the reference eigenvalue, the absolute eigenvalue
    error, the mass-norm eigenvector error after sign alignment, the
    residual norm of the evaluated pair in the pointwise problem, and the
    deviation of the evaluated vector from unit mass-norm.
    """
    from .legendre import evaluate_expansion

    y = np.atleast_1d(np.asarray(y, dtype=float))
    uy = evaluate_expansion(U, aset, y)
    muy = float(evaluate_expansion(np.asarray(mu), aset, y))
    K = op.matrix_at(y[:op.nterms])
    M = op.mass
    lam, v = smallest_eigenpairs(K, M, 1, tol=tol)
    v = v[:, 0]
    if v @ (M @ uy) < 0.0:
        v = -v
    norm_u = float(np.sqrt(uy @ (M @ uy)))
    resid = K @ uy - muy * (M @ uy)
    return {
        "eigenvalue_ref": float(lam[0]),
        "eigenvalue_error": abs(muy - float(lam[0])),
        "vector_error": float(np.sqrt(max((uy - v) @ (M @ (uy - v)), 0.0))),
        "residual": float(np.linalg.norm(resid) / (abs(muy)
                                                   * np.linalg.norm(M @ uy))),
        "normalization_error": abs(norm_u - 1.0),
    }


def subspace_angle(B1, B2, M):
    """Alignment |det(Q1' M Q2)| of two spans after M-orthonormalization.

    1 means identical subspaces, 0 means some direction of one span is
    M-orthogonal to all of the other.  Insensitive to basis choice and to
    signs.  Values are clipped to [0, 1] against roundoff.
    """
    Q1 = _orthonormalize(np.asarray(B1, dtype=float), M)
    Q2 = _orthonormalize(np.asarray(B2, dtype=float), M)
    theta = abs(float(np.linalg.det(Q1.T @ (M @ Q2))))
    return min(theta, 1.0)


def angle_statistics(op, aset, snapshots, npoints=256, seed=777, tol=1e-11):
    """Alignment statistics of iterated chaos bases against direct solves.

    snapshots is a sequence of (P, N, Q)-shaped coefficient stacks (one per
    iteration step, Q basis vectors each).  At npoints scrambled-Sobol
    parameter points the reference invariant subspace is computed once and
    every snapshot's evaluated basis is compared to it.  Returns
    (mean, var): arrays of E[theta] and Var[theta] per snapshot.
    """
    from .legendre import basis_matrix

    snaps = [np.asarray(S, dtype=float) for S in snapshots]
    q = snaps[0].shape[2]
    mdim = max(aset.max_dimension, 1)
    sampler = qmc.Sobol(d=mdim, scramble=True, seed=seed)
    Y = 2.0 * sampler.random(npoints) - 1.0
    Phi = basis_matrix(aset, Y)
    M = op.mass
    thetas = np.empty((len(snaps), npoints))
    for j, y in enumerate(Y):
        _, V = smallest_eigenpairs(op.matrix_at(y[:op.nterms]), M, q,
                                   tol=tol)
        for i, S in enumerate(snaps):
            By = np.stack([Phi[j] @ S[:, :, L] for L in range(q)], axis=1)
            thetas[i, j] = subspace_angle(By, V, M)
    return thetas.mean(axis=1), thetas.var(axis=1)


def overlap_permutation(op, ya, yb, which=(1, 2), tol=1e-11):
    """Pairing of eigenvectors between two parameter points by mass overlap.

    Solves for eigenpairs at both points, restricts to the given eigenvalue
    positions, and matches each vector at ya with its largest-overlap
    partner at yb.  A reversed pairing across a parameter sweep is how an
    eigenvalue crossing shows up.  Returns (permutation, values_a,
    values_b).
    """
    count = max(which) + 1
    M = op.mass
    la, Va = smallest_eigenpairs(op.matrix_at(np.asarray(ya, dtype=float)),
                                 M, count, tol=tol)
    lb, Vb = smallest_eigenpairs(op.matrix_at(np.asarray(yb, dtype=float)),
                                 M, count, tol=tol)
    sel = list(which)
    O = np.abs(Va[:, sel].T @ (M @ Vb[:, sel]))
    perm = np.argmax(O, axis=1)
    return perm, la[sel], lb[sel]


def coefficient_decay(aset, coeffs, M=None):
    """Coefficient magnitudes in stored order and sorted descending.

    For a (P, N) block the magnitude is the mass norm of each spatial row
    (Euclidean if no mass matrix is given); for a (P,) vector the absolute
    value.  Returns a dict with `magnitudes` (stored set order, i.e.
    decreasing index weight) and `sorted` (descending).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1:
        mags = np.abs(coeffs)
    elif M is None:
        mags = np.linalg.norm(coeffs, axis=1)
    else:
        mags = np.sqrt(np.maximum(
            np.sum(coeffs * (M @ coeffs.T).T, axis=1), 0.0))
    if len(mags) != len(aset):
        raise ValueError("coefficient count does not match the index set")
    return {"magnitudes": mags, "sorted": np.sort(mags)[::-1]}
