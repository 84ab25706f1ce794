"""Deterministic reference solvers and statistical cross-checks.

Everything here goes around the chaos machinery on purpose: pointwise
eigenpairs come from a batched block eigensolver on the pencils
(K(y), M), run in the FEM operator's mean eigenbasis, where the mass is
the identity and the mean problem, the preconditioner, is a division;
statistics come from plain Monte Carlo, subspace angles from dense linear
algebra on evaluated bases.  The spectral iteration modules are validated
against these routines, never the other way around.  Every vector taken
or returned here is held in those mean-eigenbasis coordinates
(`fem.ParametricOperator.to_spectral`), so every mass inner product is a
plain dot product.  Pointwise eigenvectors keep the solver's signs:
whatever reads them aligns the sign by overlap or measures something the
sign does not change.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

__all__ = [
    "PointwiseStallError",
    "pointwise_eigenpairs",
    "monte_carlo_statistics",
    "pointwise_error",
    "subspace_angle",
    "angle_statistics",
    "overlap_permutation",
    "coefficient_decay",
]

# Working-set budget of the batched eigensolver: a chunk of points is sized
# so that its (points, 3 * block, N) search basis holds at most this many
# float64 entries (512 KiB).  Larger chunks amortize the per-call overhead
# of the small products no further and only raise the memory high-water
# mark.
_CHUNK_ENTRIES = 1 << 16

# A search direction is dropped when it is numerically in the span of the
# others: when projecting out the Ritz vectors leaves less than _KEPT of
# its norm, or when its scaled Gram eigenvalue in SVQB is below _KEPT^2 of
# the largest.
_KEPT = 1e-7

# Iteration cap of the pointwise eigensolver, and the relative residuals
# to which the statistics and the pairing (_TOL) and `pointwise_error`
# (_ERROR_TOL) solve their points.
_MAXITER = 100
_TOL = 1e-11
_ERROR_TOL = 1e-12


class PointwiseStallError(RuntimeError):
    """The pointwise eigensolver missed its tolerance within _MAXITER."""


class _Pencils:
    """The stiffness K(y) at a batch of points, in the mean eigenbasis.

    A vector of length N = n^2 is held by its coordinates, the (n, n)
    slice Y = (MQ)^T X (MQ) of `fem.ParametricOperator.to_spectral`, in
    which the mass is the identity.  With the per-point sums (R_M, R_A)
    along x_1 and (L_M, L_A) along x_2 of the operator's
    `spectral_factors`, as in `fem.ParametricOperator`, K(y) maps Y to
    Y R_A + lam Y R_M + L_M Y lam + L_A Y, lam the diagonal of the 1D mean
    eigenvalues.  Blocks are (points, k, N); `mean` holds the eigenvalues
    lam_i + lam_j of K_0, the same at every point.
    """

    def __init__(self, op, Y):
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] > op.nterms:
            raise ValueError(f"points must be (count, <= {op.nterms}), "
                             f"got shape {Y.shape}")
        w = np.zeros((len(Y), op.nterms + 1))
        w[:, 0] = 1.0
        w[:, 1:Y.shape[1] + 1] = Y
        self.lam = op.mean_eigenbasis[0]
        self.n = n = len(self.lam)
        self.mean = op.mean_values.ravel()
        flat = op.spectral_factors.reshape(len(op.factors), -1)
        # per point (R_M, R_A, L_M, L_A), each (points, 1, n, n)
        self.sums = np.stack([(w * (op.axes == k)) @ flat for k in (0, 1)],
                             axis=1).reshape(len(Y), 4, 1, n, n)

    def take(self, keep):
        """Keep only the points selected by the mask `keep`."""
        self.sums = self.sums[keep]

    def stiffness(self, X):
        S = X.reshape(X.shape[0], -1, self.n, self.n)
        lam = self.lam
        R_M, R_A, L_M, L_A = self.sums.transpose(1, 0, 2, 3, 4)
        return (S @ R_A + (lam[:, None] * S) @ R_M + L_M @ (S * lam)
                + L_A @ S).reshape(X.shape)


def _t(X):
    return np.swapaxes(X, -1, -2)


def _svqb(C):
    """Orthonormalize the rows of each C[s] (Stathopoulos & Wu 2002).

    The scaled Gram D G D = U diag(theta) U^T gives C <- (D U theta^-1/2)^T
    C; directions with theta below _KEPT^2 of the largest are set to zero
    instead.
    """
    G = C @ _t(C)
    d = np.diagonal(G, axis1=1, axis2=2)
    scale = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    theta, U = np.linalg.eigh(scale[:, :, None] * G * scale[:, None, :])
    keep = theta > _KEPT ** 2 * theta[:, -1:]
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, theta, 1.0)), 0.0)
    return _t(scale[:, :, None] * U * inv[:, None, :]) @ C


def _ritz_pairs(B, KB, count):
    """The `count` smallest Ritz pairs of each point's basis rows B[s].

    Returns (values, coefficients): the Ritz vectors are coefficients^T B.
    Rows that SVQB zeroed are decoupled with a value above every kept one.
    """
    GK = B @ _t(KB)
    GM = B @ _t(B)
    GK = 0.5 * (GK + _t(GK))
    GM = 0.5 * (GM + _t(GM))
    dk = np.diagonal(GK, axis1=1, axis2=2)
    zero = np.diagonal(GM, axis1=1, axis2=2) == 0.0
    if zero.any():
        s, j = np.nonzero(zero)
        GM[s, j, j] = 1.0
        GK[s, j, j] = GK.shape[1] * np.abs(dk).max(axis=1)[s] + 1.0
    Linv = np.linalg.inv(np.linalg.cholesky(GM))
    H = Linv @ GK @ _t(Linv)
    theta, U = np.linalg.eigh(0.5 * (H + _t(H)))
    return theta[:, :count], _t(Linv) @ U[:, :, :count]


def _lobpcg(pencils, X, count, tol):
    """Batched LOBPCG (Knyazev 2001) from the orthonormal start rows X.

    Each point's search basis is [x, P r, p]: its Ritz vectors, their
    preconditioned residuals (divided by `pencils.mean`) and the previous
    step's search directions, P r and p projected orthogonal to x and
    orthonormalized by SVQB, twice over.  A point stops when each of its
    b = X.shape[1] >= count Ritz pairs meets ||K x - lam x|| <= tol |lam|
    ||x||, and leaves the active set; the first count pairs are returned,
    as (values (S, count), vectors (S, count, N)).
    """
    S, b = X.shape[:2]
    values = np.empty((S, count))
    vectors = np.empty((S, count, X.shape[2]))
    active = np.arange(S)
    lam, coef = _ritz_pairs(X, pencils.stiffness(X), b)
    X = _t(coef) @ X
    P = None
    for it in range(_MAXITER + 1):
        KX = pencils.stiffness(X)
        R = KX - lam[:, :, None] * X
        done = np.all(np.linalg.norm(R, axis=2) <= tol * np.abs(lam)
                      * np.linalg.norm(X, axis=2), axis=1)
        if done.any():
            values[active[done]] = lam[done, :count]
            vectors[active[done]] = X[done, :count]
            keep = ~done
            active = active[keep]
            if not active.size:
                return values, vectors
            pencils.take(keep)
            X, KX, R, lam = X[keep], KX[keep], R[keep], lam[keep]
            if P is not None:
                P = P[keep]
        if it == _MAXITER:
            break
        W = R / pencils.mean
        C = W if P is None else np.concatenate([W, P], axis=1)
        for _ in range(2):
            # the projection leaves an error of roundoff times the norm
            # before it, which SVQB scales up with the rest: the second
            # pass removes what the first one magnified
            before = np.linalg.norm(C, axis=2)
            C = C - (C @ _t(X)) @ X
            C *= (np.linalg.norm(C, axis=2) > _KEPT * before)[:, :, None]
            C = _svqb(C)
        B = np.concatenate([X, C], axis=1)
        lam, coef = _ritz_pairs(
            B, np.concatenate([KX, pencils.stiffness(C)], axis=1), b)
        X = _t(coef) @ B
        P = _t(coef[:, b:]) @ C
    raise PointwiseStallError(
        f"pointwise eigensolver: {active.size} of {S} points missed the "
        f"relative residual {tol:.1e} after {_MAXITER} iterations")


def _block_size(op, count):
    """Block size for the `count` smallest eigenpairs anywhere in the box.

    a_lo K_0 <= K(y) <= a_hi K_0 (`op.ellipticity`) puts the k-th
    eigenvalue of the pencil within [a_lo, a_hi] times the k-th mean
    eigenvalue.  The block carries every mean mode that could move below
    the count-th one: a cluster is never cut, and a mode that couples to
    the start only at second order (each term keeps one of the two 1D
    indices of a mean mode) is not missed.
    """
    lo, hi = op.ellipticity
    mean = np.sort(op.mean_values, axis=None)
    return int(np.searchsorted(mean, mean[count - 1] * hi / lo, "right"))


def _chunks(op, Y, block):
    """(start, stop) of the chunks solved together with this block size."""
    size = max(1, _CHUNK_ENTRIES // (3 * block * op.ndof))
    return [(a, min(a + size, len(Y))) for a in range(0, len(Y), size)]


def pointwise_eigenpairs(op, Y, count=1, tol=1e-10):
    """The `count` smallest eigenpairs of (K(y), M) at every row y of Y.

    Y is (S, d) with d <= op.nterms (short rows padded with zeros).  The
    points are solved in chunks by batched LOBPCG in the mean eigenbasis
    (`fem.ParametricOperator.to_spectral`), started from the exact mean
    eigenvectors, there unit vectors, and preconditioned by the division
    by the mean eigenvalues.  Each point stops on its own residual test
    ||K' y - lam y|| <= tol |lam| ||y|| on the coordinates y, K' being
    K(y) in them: the test ||K x - lam M x|| <= tol |lam| ||M x|| on the
    nodal values x, in the M^-1 norm.  Returns (values (S, count)
    ascending, vectors (S, N, count)) with orthonormal columns of
    coordinates in the signs the solver leaves: callers align them by
    overlap.  Raises PointwiseStallError if a point misses the tolerance
    within `_MAXITER` iterations.
    """
    if not 1 <= count <= op.ndof:
        raise ValueError("count out of range")
    Y = np.asarray(Y, dtype=float)
    values = np.empty((len(Y), count))
    vectors = np.empty((len(Y), op.ndof, count))
    block = _block_size(op, count)
    start = _t(op.mean_eigenpairs(block)[1])
    for a, b in _chunks(op, Y, block):
        vals, X = _lobpcg(_Pencils(op, Y[a:b]),
                          np.repeat(start[None], b - a, axis=0), count, tol)
        values[a:b] = vals
        vectors[a:b] = _t(X)
    return values, vectors


def monte_carlo_statistics(op, nsamples=10000, seed=1234):
    """Monte Carlo statistics of the smallest eigenpair over the box.

    Samples the parameter uniformly, solves the pointwise eigenproblems in
    chunks with `pointwise_eigenpairs`, aligns each eigenvector's sign with
    the mean problem's ground mode by overlap, and accumulates mean and
    variance of the eigenvalue together with their standard errors, plus
    the mean of the eigenvector, in coordinates.

    Returns a dict with keys eigenvalue_mean, eigenvalue_var, se_mean,
    se_var, vector_mean, nsamples.  The sample variance needs
    nsamples >= 2.
    """
    if nsamples < 2:
        raise ValueError(f"need at least 2 samples, got {nsamples}")
    Y = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                             (nsamples, op.nterms))
    ground = op.mean_eigenpairs(1)[1][:, 0]
    lams = np.empty(nsamples)
    vsum = np.zeros(op.ndof)
    for a, b in _chunks(op, Y, _block_size(op, 1)):
        vals, vecs = pointwise_eigenpairs(op, Y[a:b], 1, _TOL)
        V = vecs[:, :, 0]
        V *= np.where(V @ ground < 0.0, -1.0, 1.0)[:, None]
        lams[a:b] = vals[:, 0]
        vsum += V.sum(axis=0)
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
        "nsamples": nsamples,
    }


def pointwise_error(op, aset, U, mu, y):
    """Compare an evaluated chaos eigenpair with the direct solve at y.

    U is a (P, N) block of coordinates and mu the (P,) eigenvalue
    expansion.  Returns a dict with the reference eigenvalue, the absolute
    eigenvalue error, the mass-norm eigenvector error after sign
    alignment, the residual ||K x - mu M x|| / (|mu| ||M x||) of the
    evaluated pair on its nodal values x in the pointwise problem, and the
    deviation of the evaluated vector from unit mass-norm.
    """
    from .legendre import evaluate_expansion

    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = evaluate_expansion(U, aset, y)
    muy = float(evaluate_expansion(np.asarray(mu), aset, y))
    Y = y[None, :op.nterms]
    lam, V = pointwise_eigenpairs(op, Y, 1, _ERROR_TOL)
    lam, v = float(lam[0, 0]), V[0, :, 0]
    if v @ u < 0.0:
        v = -v
    # with x = Q u Q^T per slice and K' the stiffness in the coordinates,
    # K x = M Q (K' u) Q^T M and M x = M Q u Q^T M
    Ku = _Pencils(op, Y).stiffness(u[None, None])[0, 0]
    R, Mx = op.mass_apply(op.to_nodal(np.stack([Ku - muy * u, u])))
    return {
        "eigenvalue_ref": lam,
        "eigenvalue_error": abs(muy - lam),
        "vector_error": float(np.linalg.norm(u - v)),
        "residual": float(np.linalg.norm(R)
                          / (abs(muy) * np.linalg.norm(Mx))),
        "normalization_error": abs(float(np.linalg.norm(u)) - 1.0),
    }


def subspace_angle(B1, B2):
    """Alignment |det(Q1' Q2)| of two spans after orthonormalization.

    1 means identical subspaces, 0 means some direction of one span is
    orthogonal to all of the other.  Insensitive to basis choice and to
    signs.  B1 and B2 are (N, q) bases of coordinates, in which the mass
    inner product is the plain one, or stacks (..., N, q) of them,
    compared pairwise with broadcasting; values are clipped to [0, 1]
    against roundoff.  With Gram matrices G_ab = B_a' B_b and their
    Cholesky factors L_a, the alignment is |det G_12| / (det L_1 det L_2).
    """
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)

    def root_det(B):
        L = np.linalg.cholesky(_t(B) @ B)
        return np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)

    theta = np.abs(np.linalg.det(_t(B1) @ B2)) / (root_det(B1)
                                                   * root_det(B2))
    return np.minimum(theta, 1.0)


def angle_statistics(op, aset, snapshots, npoints=256, seed=777):
    """Alignment statistics of iterated chaos bases against direct solves.

    snapshots is a sequence of (P, N, Q)-shaped stacks of coordinates (one
    per iteration step, Q basis vectors each).  At npoints scrambled-Sobol
    parameter points the reference invariant subspace is computed once and
    every snapshot's evaluated basis is compared to it.  Returns
    (mean, var): arrays of E[theta] and Var[theta] per snapshot.
    """
    from .legendre import basis_matrix

    P, N, q = np.shape(snapshots[0])
    mdim = max(aset.max_dimension, 1)
    sampler = qmc.Sobol(d=mdim, scramble=True, seed=seed)
    Y = 2.0 * sampler.random(npoints) - 1.0
    _, V = pointwise_eigenpairs(op, Y[:, :op.nterms], q, _TOL)
    Phi = basis_matrix(aset, Y)
    # one snapshot's basis at every point at a time, (npoints, N, q): all
    # snapshots at once would hold them all, several times over
    thetas = np.array([
        subspace_angle((Phi @ np.reshape(S, (P, N * q))).reshape(-1, N, q),
                       V) for S in snapshots])
    return thetas.mean(axis=1), thetas.var(axis=1)


def overlap_permutation(op, ya, yb):
    """Pairing of eigenvectors between two parameter points by overlap.

    Solves for eigenpairs at both points, keeps the second and third, and
    matches each vector at ya with its largest-overlap partner at yb.  A
    reversed pairing across a parameter sweep is how an eigenvalue crossing
    shows up.  Returns (permutation, values_a, values_b).
    """
    vals, V = pointwise_eigenpairs(op, np.array([ya, yb], dtype=float), 3,
                                   _TOL)
    Va, Vb = V[:, :, 1:]
    O = np.abs(Va.T @ Vb)
    return np.argmax(O, axis=1), vals[0, 1:], vals[1, 1:]


def coefficient_decay(aset, coeffs):
    """Coefficient magnitudes in stored order and sorted descending.

    For a (P, N) block of coordinates the magnitude is the mass norm of
    each spatial row, its plain norm; for a (P,) vector the absolute
    value.  Returns a dict with `magnitudes` (stored set order, i.e.
    decreasing index weight) and `sorted` (descending).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    mags = np.abs(coeffs) if coeffs.ndim == 1 else \
        np.linalg.norm(coeffs, axis=1)
    if len(mags) != len(aset):
        raise ValueError("coefficient count does not match the index set")
    return {"magnitudes": mags, "sorted": np.sort(mags)[::-1]}
