#!/usr/bin/env python3
"""
Collinear triples in the grid A x A.

A triple (P1, P2, P3) of grid points is collinear when P1 lies on the
orbit {P2 + k * (P3 - P2) : k in R}.  Over a ring with zero divisors this
is stronger than a vanishing 2x2 difference determinant: the determinant
(cross-product) test is only the weak relaxation that the report records
beside the count.  The checked claim is

    T <= q^(2r-1) |A|^3  +  |A|^6 / q^r  +  2 |A|^4

where |A|^6 / q^r is what a structureless grid would give, 2 |A|^4 covers
the triples with a repeated point, and q^(2r-1) |A|^3 is the correction
from the maximal ideal.
"""

from fvrlab import (RSet, count_collinear_triples, count_lines,
                    geometry_bound_report, parse_ring_spec)
from fvrlab.sampling import sample_subset

ring = parse_ring_spec("zpr:p=3,r=2")

# Progressions maximize collinearity: every triple inside one line.
for literal in ("0,1", "0,3,6", "0,1,2,3", "all"):
    A = (RSet.full(ring) if literal == "all"
         else RSet.from_indices(ring, [int(t) for t in literal.split(",")]))
    n = len(A.members)
    triples = count_collinear_triples(A)
    lines = count_lines(A)
    random_rate = n**6 / ring.order  # what a structureless grid would give
    print(f"A = {literal:10s} grid {n}x{n}: triples {triples:7d} "
          f"(random ~{random_rate:9.1f}), distinct lines {lines}")

print()
for t in range(4):
    A = sample_subset(ring, 4, trial_seed=50 + t)
    rep = geometry_bound_report(A)
    print(f"A = {A.literal:12s} verdict {rep.verdict}, ratio {rep.ratio}")
