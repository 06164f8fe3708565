"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: plain loops, no tables, no
vectorization, and where possible a genuinely different algorithm than the
library (e.g. symbolic polynomial reduction instead of convolution rows).
"""

from collections import Counter
from itertools import product


def slow_mul(ring, a, b):
    """Multiply by expanding a two-variable polynomial and reducing it."""
    if ring.kind == "zpr":
        return (a * b) % ring.order
    acc = Counter()
    for i, ga in enumerate(ring.coeffs(a)):
        for j, d1 in enumerate(ga):
            for k, gb in enumerate(ring.coeffs(b)):
                for l, d2 in enumerate(gb):
                    acc[(i + k, j + l)] += d1 * d2
    # x**r = 0
    acc = Counter({t: c for t, c in acc.items() if t[0] < ring.r})
    # y**s = -(g - y**s) from the monic field modulus
    g = ring.field_modulus or (0, 1)
    s = ring.s
    while True:
        high = [t for t in acc if t[1] >= s and acc[t] % ring.p != 0]
        if not high:
            break
        (i, j) = high[0]
        c = acc.pop((i, j))
        for t in range(s):
            acc[(i, j - s + t)] -= c * g[t]
    coeffs = []
    for i in range(ring.r):
        coeffs.append(tuple(acc[(i, j)] % ring.p for j in range(s)))
    return ring.encode(coeffs)


def slow_valuation(ring, a):
    """Largest k with a = u * z**k for some u, by direct search."""
    z = ring.uniformizer()
    for k in range(ring.r, -1, -1):
        zk = ring.pow(z, k)
        if any(ring.mul(u, zk) == a for u in range(ring.order)):
            return k
    raise AssertionError("unreachable: k = 0 always matches")


def brute_solve_linear(ring, m, n):
    return [k for k in range(ring.order) if ring.mul(k, m) == n]


def brute_image_quad3(spec, A, B, C):
    """{a*x*y + R(x) + S(y) + T(z)} by a literal triple loop."""
    rg = spec.ring

    def ev(tr, x):
        c2, c1, c0 = tr
        return rg.add(rg.add(rg.mul(c2, rg.mul(x, x)), rg.mul(c1, x)), c0)

    out = set()
    for x in A.indices():
        for y in B.indices():
            base = rg.add(rg.mul(spec.a, rg.mul(x, y)), rg.add(ev(spec.R, x), ev(spec.S, y)))
            for z in C.indices():
                out.add(rg.add(base, ev(spec.T, z)))
    return out


def brute_image_shifted_quad(ring, f, X, Y, Z):
    """{f(x - y) + z} by a literal triple loop."""
    c2, c1, c0 = f
    out = set()
    for x in X.indices():
        for y in Y.indices():
            u = ring.sub(x, y)
            fu = ring.add(ring.add(ring.mul(c2, ring.mul(u, u)), ring.mul(c1, u)), c0)
            for z in Z.indices():
                out.add(ring.add(fu, z))
    return out


def brute_energy(ring, members, d):
    """Ordered quadruples with a**d + b**d = c**d + e**d, four nested loops."""
    pw = {a: ring.pow(a, d) for a in members}
    count = 0
    for a in members:
        for b in members:
            for c in members:
                for e in members:
                    if ring.add(pw[a], pw[b]) == ring.add(pw[c], pw[e]):
                        count += 1
    return count


def brute_incidences(ring, points, planes):
    """Quadratic point-by-plane incidence count (duplicates included)."""
    count = 0
    for (x, y, z) in points:
        for (u, v, d) in planes:
            if ring.add(ring.add(ring.mul(u, x), ring.mul(v, y)), z) == d:
                count += 1
    return count


def brute_weighted_incidences(ring, wpoints, wplanes):
    count = 0
    for (x, y, z), wp in wpoints:
        for (u, v, d), wq in wplanes:
            if ring.add(ring.add(ring.mul(u, x), ring.mul(v, y)), z) == d:
                count += wp * wq
    return count


def brute_is_collinear(ring, p1, p2, p3):
    """Direct search for k with p1 - p2 = k * (p3 - p2)."""
    ex, ey = ring.sub(p1[0], p2[0]), ring.sub(p1[1], p2[1])
    dx, dy = ring.sub(p3[0], p2[0]), ring.sub(p3[1], p2[1])
    return any(
        ring.mul(k, dx) == ex and ring.mul(k, dy) == ey for k in range(ring.order)
    )


def is_collinear_weak(ring, p1, p2, p3):
    """The cross-product condition; necessary for collinearity, not sufficient.

    The reference for ``count_collinear_triples_weak``.
    """
    ex, ey = ring.sub(p1[0], p2[0]), ring.sub(p1[1], p2[1])
    dx, dy = ring.sub(p3[0], p2[0]), ring.sub(p3[1], p2[1])
    return ring.mul(ex, dy) == ring.mul(ey, dx)


def brute_collinear_triples(ring, grid_points):
    pts = list(grid_points)
    return sum(
        1
        for p1, p2, p3 in product(pts, repeat=3)
        if brute_is_collinear(ring, p1, p2, p3)
    )


def brute_lines(ring, grid_points):
    """Distinct full orbits {B + k*(A - B)} over distinct point pairs."""
    pts = list(grid_points)
    lines = set()
    for i, pa in enumerate(pts):
        for pb in pts[i + 1 :]:
            dx, dy = ring.sub(pa[0], pb[0]), ring.sub(pa[1], pb[1])
            orbit = frozenset(
                (ring.add(pb[0], ring.mul(k, dx)), ring.add(pb[1], ring.mul(k, dy)))
                for k in range(ring.order)
            )
            lines.add(orbit)
    return lines
