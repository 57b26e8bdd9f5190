#!/usr/bin/env python3
"""Decide matchability: complete matchings or deficiency certificates.

The matcher pairs even- and odd-dimensional cells through the incidence
graph. When it fails, it returns a set A of cells on one side with fewer
incident cells than members; no matching can exist then, whatever the
Euler count says.
"""

from cellmatch import (
    HallCertificate,
    SubcomplexPair,
    complete_matching,
    enumerate_matchings,
    euler_characteristic,
    validate_matching,
)
from cellmatch.generators import circle, wedge

# A 4-cycle matches completely: 8 cells, 4 incident pairs.
pair = SubcomplexPair(circle(4))
matching = complete_matching(pair)
print("circle(4) matching:", matching.sorted_pairs())
print("validates:", validate_matching(pair, matching).ok)

# Exact counting by a memoized search: every cycle has exactly two matchings.
for n in (3, 5, 8):
    count, _ = enumerate_matchings(SubcomplexPair(circle(n)))
    print(f"circle({n}) has {count} complete matchings")

# The wedge of a 2-sphere and two 3-cycles at a common vertex has Euler
# characteristic zero and still admits no matching. The certificate is the
# even-dimensional part of the sphere minus the wedge point: 7 cells with
# only the sphere's 6 edges incident to them.
w = SubcomplexPair(wedge())
print("\nchi(wedge) =", euler_characteristic(w))
cert = complete_matching(w)
assert isinstance(cert, HallCertificate)
print("certificate side:", cert.side)
print("A:", sorted(cert.cells))
print("I(A):", sorted(cert.neighborhood))
print("deficiency:", cert.deficiency)
print("independently verified:", cert.verify(w))
