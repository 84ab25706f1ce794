"""Anisotropic sparse multi-index sets for polynomial chaos expansions.

A multi-index assigns a polynomial degree to each of countably many parameter
dimensions, with only finitely many nonzero entries.  Indices are stored
sparsely as tuples of ``(dimension, exponent)`` pairs with 1-based dimensions
in ascending order and exponents >= 1; the zero index is the empty tuple.

An index set collects every multi-index whose product weight

    weight(alpha) = prod_m eta_m ** alpha_m

exceeds a threshold ``eps``, where ``eta_m`` is a decreasing per-dimension
weight in (0, 1).  Such sets are downward closed: removing one from any
exponent can only increase the weight.  The default weight rule, built to
match a diffusion coefficient whose m-th fluctuation has amplitude
``(m+1)**-varsigma``, is

    eta_m = 1 / (tau_m + sqrt(1 + tau_m**2)),   tau_m = (m+1)**(varsigma-1).

Members are kept in decreasing weight order; exact weight ties are broken by
total degree (ascending), then lexicographically on dense exponent tuples,
which the sort compares through the sparse pairs without forming them.
Both constructors build their set by one best-first walk over the margin of
the growing set: down to eps, or to a requested size, whose threshold it
finds without enumerating any larger set.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

__all__ = [
    "dimension_weights",
    "MultiIndexSet",
    "generate_index_set",
    "generate_index_set_by_size",
    "total_degree",
]


def total_degree(alpha):
    """Sum of all exponents of a sparse multi-index."""
    return sum(e for _, e in alpha)


def dimension_weights(varsigma, count):
    """Per-dimension weights ``eta_1 .. eta_count`` for the decay rule.

    Parameters
    ----------
    varsigma : float
        Decay exponent of the coefficient amplitudes, > 1.
    count : int
        Number of leading dimensions to evaluate.

    Returns
    -------
    ndarray of shape (count,), strictly decreasing values in (0, 1).
    """
    return _weights_at(varsigma, np.arange(1, count + 1, dtype=float))


def _weights_at(varsigma, m):
    # eta_m of the decay rule at an array of 1-based dimensions m
    if varsigma <= 1:
        raise ValueError("varsigma must exceed 1 for summable weights")
    tau = (m + 1.0) ** (varsigma - 1.0)
    return 1.0 / (tau + np.sqrt(1.0 + tau * tau))


# The most members an index set may have.  Each active dimension is a
# member, so the built-in rule's cutoff is checked against it before any
# weight is evaluated, and the best-first walk stops once it passes it.
_MAX_MEMBERS = 100_000


def _weight_cutoff(varsigma, eps):
    # largest m with eta_m > eps; eta is invertible:
    # eta > eps  <=>  tau < (1/eps - eps)/2  <=>  m+1 < x, where
    # log x = log((1/eps - eps)/2) / (vs-1) is taken in log space so that
    # varsigma near 1 cannot overflow; only the weights next to x are
    # evaluated
    if varsigma <= 1:
        raise ValueError("varsigma must exceed 1 for summable weights")
    log_x = math.log((1.0 / eps - eps) / 2.0) / (varsigma - 1.0)
    if log_x > math.log(_MAX_MEMBERS + 2):
        raise ValueError(f"eps {eps:g} with varsigma {varsigma:g} activates "
                         f"about 10^{log_x / math.log(10):.1f} dimensions, "
                         f"more than the limit of {_MAX_MEMBERS} members")
    top = int(math.exp(log_x)) + 2
    m = np.arange(max(1, top - 5), top + 1, dtype=float)
    active = m[_weights_at(varsigma, m) > eps]
    return int(active[-1]) if active.size else 0


def _sort_key(entry):
    # (-d, e) pairs compare like dense exponent tuples: at the first
    # dimension where two indices differ, the smaller exponent comes first
    alpha, w = entry
    return (-w, total_degree(alpha), tuple((-d, e) for d, e in alpha))


class MultiIndexSet:
    """Finite downward-closed set of sparse multi-indices with weights.

    Attributes
    ----------
    indices : list of sparse multi-indices in canonical order (zero index
        first; decreasing weight, ties by degree then lexicographic order).
    weights : ndarray of matching product weights, non-increasing.
    eps : float threshold; every member has weight > eps.
    support, exponents, lowered : read-only (P, L) int64 arrays, L the
        widest support: member i's support dimensions, its exponents there
        and the positions of it lowered by one in each support column,
        padded with 0, 0 and -1.  A set that lacks a lowered member is not
        downward closed: ValueError names it.
    max_dimension, max_degrees : largest active dimension, an int (0 for
        the zero set), and read-only per-dimension maximal exponents.
    """

    def __init__(self, indices, weights, eps):
        self.indices = list(indices)
        self.weights = np.asarray(weights, dtype=float)
        self.eps = float(eps)
        if not self.indices or self.indices[0] != ():
            raise ValueError("index set must contain the zero index first")
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights length mismatch")
        self._pos = {a: i for i, a in enumerate(self.indices)}
        if len(self._pos) != len(self.indices):
            raise ValueError("duplicate multi-indices")
        # per member and support column: dimension, exponent, lowered
        entries = []
        for i, a in enumerate(self.indices):
            for k, (d, e) in enumerate(a):
                b = a[:k] + (((d, e - 1),) if e > 1 else ()) + a[k + 1:]
                j = self._pos.get(b)
                if j is None:
                    raise ValueError(f"index set is not downward closed: "
                                     f"{b} is missing below {a}")
                entries += i, k, d, e, j
        i, k, d, e, j = np.array(entries, dtype=np.int64).reshape(-1, 5).T
        rows = np.zeros((3, len(self), max(map(len, self)) or 1),
                        dtype=np.int64)
        rows[2] = -1
        rows[:, i, k] = d, e, j
        self.max_dimension = int(d.max(initial=0))
        self.max_degrees = np.zeros(self.max_dimension, dtype=np.int64)
        np.maximum.at(self.max_degrees, d - 1, e)
        rows.flags.writeable = self.max_degrees.flags.writeable = False
        self.support, self.exponents, self.lowered = rows

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, alpha):
        return alpha in self._pos

    def __getitem__(self, i):
        return self.indices[i]

    def __repr__(self):
        return (f"MultiIndexSet(size={len(self)}, max_dimension="
                f"{self.max_dimension}, eps={self.eps:.6g})")

    def position(self, alpha):
        """Position in the canonical order, or None if alpha is absent."""
        return self._pos.get(alpha)


def _explicit_weights(weights):
    """Validated explicit per-dimension weights as a float array."""
    eta = np.asarray(weights, dtype=float)
    if eta.size and (np.any(eta <= 0) or np.any(eta >= 1)):
        raise ValueError("weights must lie strictly between 0 and 1")
    if np.any(np.diff(eta) > 0):
        raise ValueError("weights must be non-increasing")
    return eta


# Weights at or below this floor are not resolved: no size whose cut needs
# one is reachable.
_WEIGHT_FLOOR = 1e-300


def _best_first(eta, eps, size=None):
    """Index set of the weights eta, built best first down to eps or size.

    Walks the canonical tree, in which each index's children append to or
    extend its last active dimension, so every index is visited exactly
    once.  A heap keyed on weight holds only the margin of the growing set,
    and each pop pushes the node's first child and its next sibling
    (Chkifa, Cohen & Schwab 2014), so members come out in non-increasing
    weight.  Without size, the walk takes every weight > eps.  With size,
    it takes size + 1 members plus the tie group of the last one and keeps
    the first size, with eps at the log-space midpoint of the size-th and
    (size+1)-th weights.  A walk that passes `_MAX_MEMBERS` members raises
    ValueError.
    """
    eta = eta.tolist()
    idx, ws = [()], [1.0]
    # heap entries: (-weight, 0-based last active dim j, parent position);
    # the first child multiplies by eta[j], the next sibling is
    # parent * eta[j+1]; entries at or below eps are never pushed
    heap = [(-eta[0], 0, 0)] if eta and eta[0] > eps else []
    while heap and (size is None or len(ws) <= size
                    or -heap[0][0] == ws[size]):
        negw, j, parent = heapq.heappop(heap)
        alpha, w = idx[parent], -negw
        if alpha and alpha[-1][0] == j + 1:
            idx.append(alpha[:-1] + ((j + 1, alpha[-1][1] + 1),))
        else:
            idx.append(alpha + ((j + 1, 1),))
        ws.append(w)
        if len(ws) > _MAX_MEMBERS:
            raise ValueError(f"more than the limit of {_MAX_MEMBERS} "
                             f"members have weight above {eps:g}")
        if w * eta[j] > eps:
            heapq.heappush(heap, (-(w * eta[j]), j, len(ws) - 1))
        if j + 1 < len(eta) and ws[parent] * eta[j + 1] > eps:
            heapq.heappush(heap, (-(ws[parent] * eta[j + 1]), j + 1, parent))
    if size is not None:
        if len(ws) <= size:
            raise ValueError(f"weight rule cannot reach size {size}")
        w_in, w_out = ws[size - 1], ws[size]
        if not w_in > w_out:
            raise ValueError(f"size {size} splits a weight tie; nearest "
                             f"achievable: {ws.index(w_in)}, {len(ws)}")
        eps = math.exp(0.5 * (math.log(w_in) + math.log(w_out)))
        idx, ws = idx[:size], ws[:size]
    entries = sorted(zip(idx, ws), key=_sort_key)
    return MultiIndexSet([a for a, _ in entries], [w for _, w in entries],
                         eps)


def generate_index_set(eps, varsigma=None, weights=None):
    """All multi-indices with product weight > eps, canonically ordered.

    Exactly one of ``varsigma`` (built-in decay rule) or ``weights`` (explicit
    per-dimension weight sequence; dimensions beyond its end never activate)
    must be given.  A set of more than `_MAX_MEMBERS` members raises
    ValueError; a built-in rule that activates that many dimensions does
    so before any allocation.

    Parameters
    ----------
    eps : float in (0, 1)
        Weight threshold (strict).
    varsigma : float, optional
        Decay exponent of the built-in rule.
    weights : array_like, optional
        Explicit decreasing per-dimension weights in (0, 1).

    Returns
    -------
    MultiIndexSet
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if (varsigma is None) == (weights is None):
        raise ValueError("give exactly one of varsigma or weights")
    if varsigma is not None:
        eta = dimension_weights(varsigma, _weight_cutoff(varsigma, eps))
    else:
        eta = _explicit_weights(weights)
    return _best_first(eta, eps)


def generate_index_set_by_size(size, varsigma=3.2, weights=None):
    """Index set of a requested cardinality for a given weight rule.

    The set is the one `generate_index_set` returns at the threshold eps
    placed at the log-space midpoint of the size-th and (size+1)-th
    weights; the best-first walk finds it without a second pass.  Raises
    ValueError if an exact weight tie straddles the cut, in which case no
    threshold realizes the requested size, or if the rule runs out of
    weights above 1e-300 before reaching size + 1 members, or if size + 1
    members pass the limit of `_MAX_MEMBERS`.  The built-in rule needs at
    most size + 1 dimensions; explicit weights are used as given (varsigma
    is then ignored).
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if size >= _MAX_MEMBERS:
        raise ValueError(f"size {size} needs a walk past the limit of "
                         f"{_MAX_MEMBERS} members")
    if weights is None:
        eta = dimension_weights(varsigma, size + 1)
    else:
        eta = _explicit_weights(weights)
    return _best_first(eta, _WEIGHT_FLOOR, size)
