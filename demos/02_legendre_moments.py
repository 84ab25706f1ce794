"""Moment matrices and the Galerkin multiplication operator.

Products of basis polynomials are projected back onto the basis through
second and third moment tensors.  Two structural facts carry the whole
solver: multiplication by one coordinate couples only one-step neighbor
indices (sparse coupling matrices), and the Galerkin multiplication
operator of an expanded function has its spectrum inside the function's
pointwise range over the parameter box.
"""

import numpy as np

from chaoseig.legendre import build_triple_tensor, evaluate_expansion
from chaoseig.multiindex import generate_index_set_by_size

aset = generate_index_set_by_size(12, varsigma=3.2)
tt = build_triple_tensor(aset)
print(f"triple-product tensor: {len(tt.values)} stored entries over "
      f"{len(aset)}^3 = {len(aset) ** 3} slots")
print()

# coordinate m's coupling matrix is the tensor's slice at e_m over sqrt(3)
print("coordinate coupling matrices (structural nonzeros per row <= 2):")
for m in range(1, 4):
    rows, cols, vals = tt.raise_entries(m)
    G = np.zeros((len(aset), len(aset)))
    G[rows, cols] = vals
    print(f"  coordinate {m}: nnz = {vals.size}, symmetric = "
          f"{np.array_equal(G, G.T)}")
print()

# a positive random expansion: multiplication operator stays positive
rng = np.random.default_rng(5)
s = rng.normal(size=len(aset)) * aset.weights
s[0] = 2.0 + abs(s[0])
D = tt.multiply_matrix(s)
eigs = np.linalg.eigvalsh(D)

Y = rng.uniform(-1.0, 1.0, size=(4000, aset.max_dimension))
vals = evaluate_expansion(s, aset, Y)
print("Galerkin multiplication operator of a random positive expansion:")
print(f"  operator spectrum  [{eigs.min():.5f}, {eigs.max():.5f}]")
print(f"  sampled pointwise  [{vals.min():.5f}, {vals.max():.5f}]")
print("  (spectrum is contained in the pointwise range over the box)")
