#!/usr/bin/env python3
"""Composite pipelines: odd spheres and loop-based constructions.

The sphere pipeline matches an odd-dimensional rational homology sphere in
one loop down its dimensions. Each step matches the cycle of cells around a
codimension-2 cell and the acyclic remainder relative to the chosen cell's
boundary, then moves to that boundary sphere, two dimensions down, until
the circle. The loop pipeline matches a manifold from a dual loop whose
complement is acyclic relative to a base and an optional parallel circle.
"""

from cellmatch import (
    SubcomplexPair,
    betti_numbers,
    complement_of_dual_loop,
    find_dual_loop,
    match_loop_pipeline,
    match_sphere_pipeline,
    validate_matching,
)
from cellmatch.generators import sphere_boundary, torus7

# The boundary of the 4-simplex is a 30-cell 3-sphere.
S3 = sphere_boundary(4)
m = match_sphere_pipeline(S3)
print("3-sphere:", len(S3), "cells matched into", len(m), "pairs")
print("validates:", validate_matching(SubcomplexPair(S3), m).ok)

# On the 7-vertex torus, search the dual graph for an essential loop: one
# whose complement is an annulus.
X = torus7()


def annulus_complement(pair):
    if not pair.sub:
        return False
    Y = pair.complex.restrict(pair.sub)
    return betti_numbers(SubcomplexPair(Y)).betti == (1, 1, 0)


loop = find_dual_loop(X, annulus_complement, budget=3000)
print("\nfound dual loop of length", loop.k, "on the torus")

# The annulus complement retracts onto a parallel circle in the 1-skeleton;
# here the triangle on vertices 0, 3, 6 works.
Y = X.restrict(complement_of_dual_loop(X, loop).sub)
core = {"0", "3", "6", "0.3", "0.6", "3.6"}
print("complement is acyclic rel the core circle:",
      betti_numbers(SubcomplexPair(Y, core)).is_zero())

m = match_loop_pipeline(X, loop, base=(), circle_cells=core)
print("torus matched into", len(m), "pairs; validates:",
      validate_matching(SubcomplexPair(X), m).ok)
