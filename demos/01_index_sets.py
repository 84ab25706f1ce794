"""Anisotropic multi-index sets: how the chaos basis is chosen.

Each basis function is indexed by a finitely supported multi-index; an
index is kept when the product of per-dimension influence weights exceeds
a threshold.  Later dimensions have smaller weights (the coefficient
fluctuations decay), so the set is strongly anisotropic: high polynomial
degree only in the first few dimensions.
"""

import numpy as np

from chaoseig.multiindex import (
    MultiIndexSet,
    dimension_weights,
    generate_index_set,
    generate_index_set_by_size,
)

eta = dimension_weights(3.2, 8)
print("per-dimension influence weights (varsigma = 3.2):")
print(np.array2string(eta, precision=5))
print()

for eps in (1e-1, 1e-2, 1e-3):
    aset = generate_index_set(eps, varsigma=3.2)
    print(f"eps = {eps:7.0e}: {len(aset):4d} indices, "
          f"active dimensions = {aset.max_dimension}, "
          f"max degrees = {aset.max_degrees}")
print()

aset = generate_index_set_by_size(12, varsigma=3.2)
print(f"requested 12 indices -> eps = {aset.eps:.6g}")
print("canonical order (weight desc, total degree asc, lexicographic):")
width = aset.max_dimension
for alpha, w in zip(aset.indices, aset.weights):
    # stored sparsely as (dimension, exponent) pairs; shown densely
    dense = tuple(dict(alpha).get(d, 0) for d in range(1, width + 1))
    print(f"  weight {w:8.5f}   exponents {dense}")
print()
# every set is downward closed: the type rejects one that is not
try:
    MultiIndexSet([(), ((1, 2),)], [1.0, 0.5], 0.1)
except ValueError as exc:
    print("rejected:", exc)
