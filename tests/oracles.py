"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: plain loops, no tables, no
vectorization, and where possible a genuinely different algorithm than the
library (e.g. symbolic polynomial reduction instead of convolution rows).
The vectorized references, hit_collinear_triples and orbit_lines, are for
grids too large for the scalar loops.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
from sympy import Abs, Integer, Max, Min, Pow, Rational, false, root, sqrt, sympify, true

from fvrlab.checks import expander_rule
from fvrlab.report import BoundRow, CheckReport, gates_hold, set_literal_or_digest
from fvrlab.sampling import SplitMix64
from fvrlab.setalg import RSet


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


def trial_division_is_irreducible(f, p):
    """Whether the monic f (low-first coefficients) is irreducible over F_p:
    long division by every monic polynomial of degree 1 to deg(f) / 2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            div = (*low, 1)
            rem = list(f)
            for k in range(deg, d - 1, -1):
                c = rem[k] % p
                for j in range(d + 1):
                    rem[k - d + j] -= c * div[j]
            if all(c % p == 0 for c in rem):
                return False
    return True


def trial_division_field_modulus(p, s):
    """The first irreducible y**s + c_(s-1) y**(s-1) + ... + c_0 with
    (c_0, ..., c_(s-1)) in lexicographic order, by trial division."""
    for low in product(range(p), repeat=s):
        if trial_division_is_irreducible((*low, 1), p):
            return (*low, 1)
    raise AssertionError("no irreducible polynomial found")


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


def scalar_check_expander(spec, A, B, C, seed=None):
    """The T1_3 report of one triple of sets, one row at a time, its image
    counted by brute_image_quad3 (see checks.expander_rule)."""
    ring = spec.ring
    sizes = ([len(A)], [len(B)], [len(C)])
    gates, *_ = expander_rule(ring.q, ring.r, spec.deg_T, *sizes)
    rows = [col.row(0) for col in gates]
    sets = {"f": spec.literal}
    sets.update(zip("ABC", (set_literal_or_digest(X) for X in (A, B, C))))
    if not gates_hold(rows):
        return CheckReport.conclude("T1_3", ring, rows, sets, seed)
    image = len(brute_image_quad3(spec, A, B, C))
    sets["image_size"] = str(image)
    _, lhs, rhs, holds = expander_rule(ring.q, ring.r, spec.deg_T, *sizes, [image])
    return CheckReport.conclude("T1_3", ring, rows, sets, seed, lhs[0], rhs[0], holds[0])


def unrank_combination(n, k, rank):
    """rank-th k-subset of range(n) in lexicographic order of sorted tuples."""
    combo = []
    c = 0
    for remaining in range(k, 0, -1):
        while math.comb(n - c - 1, remaining - 1) <= rank:
            rank -= math.comb(n - c - 1, remaining - 1)
            c += 1
        combo.append(c)
        c += 1
    return tuple(combo)


def subset_by_rank(ring, max_size, rank):
    """rank-th subset of size <= max_size in (size, lex) order, one size at a time."""
    for k in range(1, max_size + 1):
        count = math.comb(ring.order, k)
        if rank < count:
            return RSet.from_indices(ring, unrank_combination(ring.order, k, rank))
        rank -= count
    raise ValueError(f"rank past the subsets of size <= {max_size}")


def brute_sumset(ring, X, Y):
    """{x + y} by a literal pair loop."""
    return {ring.add(x, y) for x in X.indices() for y in Y.indices()}


def brute_diffset(ring, X, Y):
    """{x - y} by a literal pair loop."""
    return {ring.sub(x, y) for x in X.indices() for y in Y.indices()}


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


def scalar_sample_distinct(domain, count, seed):
    """The sparse partial Fisher-Yates shuffle, one generator draw at a time."""
    gen = SplitMix64(seed)
    perm = {}
    out = []
    for i in range(count):
        j = i + gen.bounded(domain - i)
        out.append(perm.get(j, j))
        perm[j] = perm.get(i, i)
    return out


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


def point_loop_weak_triples(A):
    """Weak triple count with two (m, m) products per base grid point.

    The per-point loop ``count_collinear_triples_weak`` replaced; the
    reference for grids too large for the scalar triple loop.
    """
    ring = A.ring
    gx = np.repeat(A.members, len(A))
    gy = np.tile(A.members, len(A))
    total = 0
    for i in range(len(gx)):
        dx = ring.sub_arr(gx, np.int64(gx[i]))
        dy = ring.sub_arr(gy, np.int64(gy[i]))
        lhs = ring.mul_arr(dx[:, None], dy[None, :])
        rhs = ring.mul_arr(dy[:, None], dx[None, :])
        total += int((lhs == rhs).sum())
    return total


def brute_collinear_triples(ring, grid_points):
    pts = list(grid_points)
    return sum(
        1
        for p1, p2, p3 in product(pts, repeat=3)
        if brute_is_collinear(ring, p1, p2, p3)
    )


def hit_collinear_triples(A):
    """Grid triples by marking, for each base point P2 and each grid P3, the
    orbit {P2 + k*(P3 - P2)} in an (m, n**2) hit matrix and counting its grid
    points; the former library loop, kept for grids too large for the scalar
    brute force.
    """
    ring = A.ring
    n = ring.order
    gx = np.repeat(A.members, len(A))
    gy = np.tile(A.members, len(A))
    grid_mask = np.zeros(n * n, dtype=bool)
    grid_mask[gx * n + gy] = True
    m = len(gx)
    ks = np.arange(n, dtype=np.int64)
    rows = np.arange(m, dtype=np.int64)[:, None]
    total = 0
    for i in range(m):
        dx = ring.sub_arr(gx, np.int64(gx[i]))
        dy = ring.sub_arr(gy, np.int64(gy[i]))
        px = ring.add_arr(np.int64(gx[i]), ring.mul_arr(ks[None, :], dx[:, None]))
        py = ring.add_arr(np.int64(gy[i]), ring.mul_arr(ks[None, :], dy[:, None]))
        hit = np.zeros((m, n * n), dtype=bool)
        hit[rows, px * n + py] = True
        total += int((hit & grid_mask[None, :]).sum())
    return total


def orbit_lines(A):
    """Each orbit {P + k*(Q - P) : k in R} spanned by distinct grid points,
    as its sorted point codes x*n + y -> [n(l), pairs(l)]; the former library
    pass, which enumerates the orbits of one base point's pairs as an
    (m - i, n) array.
    """
    ring = A.ring
    n = ring.order
    gx = np.repeat(A.members, len(A))
    gy = np.tile(A.members, len(A))
    grid = set((gx * n + gy).tolist())
    ks = np.arange(n, dtype=np.int64)
    seen = {}
    for i in range(len(gx)):
        dx = ring.sub_arr(gx[i + 1 :], np.int64(gx[i]))
        dy = ring.sub_arr(gy[i + 1 :], np.int64(gy[i]))
        px = ring.add_arr(np.int64(gx[i]), ring.mul_arr(ks[None, :], dx[:, None]))
        py = ring.add_arr(np.int64(gy[i]), ring.mul_arr(ks[None, :], dy[:, None]))
        for row in (px * n + py).tolist():
            key = tuple(sorted(set(row)))
            counts = seen.setdefault(key, [len(grid.intersection(key)), 0])
            counts[1] += 1
    return seen


def scalar_grid_reports(A, seed=None):
    """The two T7_1 reports of one set, each concluded on its own from the
    oracle counts: hit_collinear_triples, orbit_lines and
    point_loop_weak_triples (see geometry.grid_reports for the rows)."""
    ring = A.ring
    q, r = ring.q, ring.r
    na = len(A)
    t, t_weak = hit_collinear_triples(A), point_loop_weak_triples(A)
    n_l = [n for n, _ in orbit_lines(A).values()]
    rows = [BoundRow("form_weak_relaxation", t <= t_weak, t, t_weak)]
    sets = {"A": A.literal, "triples": str(t), "weak_triples": str(t_weak)}
    gate = BoundRow("gate_two_points", na >= 2, na, 2)
    line_sets = {"A": A.literal}
    line_lhs, line_rhs = len(n_l) * q ** (4 * r - 2), min(q ** (6 * r - 2), na**6)
    if na >= 2:
        sum_nl_sq = sum(n * n for n in n_l)
        rows.append(BoundRow("form_pair_coverage", na**4 <= sum_nl_sq, na**4, sum_nl_sq))
        rows.append(BoundRow("form_line_bound", line_lhs <= line_rhs, line_lhs, line_rhs))
        sets.update(lines=str(len(n_l)), sum_nl_sq=str(sum_nl_sq))
        sets["line_ratio"] = repr(float(Fraction(line_lhs, line_rhs)))
        line_sets["lines"] = str(len(n_l))
    lhs = q**r * t
    rhs = q ** (3 * r - 1) * na**3 + na**6 + 2 * q**r * na**4
    return (
        CheckReport.conclude("T7_1", ring, rows, sets, seed, lhs, rhs, holds=lhs <= rhs),
        CheckReport.conclude("T7_1", ring, [gate], line_sets, seed, line_lhs, line_rhs),
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


# ---------------------------------------------------------------------------
# The claimed inequalities, written the way each check's docstring states
# them (before clearing denominators and fractional exponents) and decided
# exactly with sympy.  Each takes q, r and the sizes of one input and
# returns (gates, holds, ratio):
#
# * gates: whether every hypothesis holds; when not, holds and ratio are None,
# * holds: whether the conclusion holds, for claims with explicit constants;
#   None for claims stated only up to an implicit constant,
# * ratio: the measured side over the bound, raised to the power that clears
#   the bound's fractional exponents (the cube for a cube-root bound, the
#   square for a square-root one).

CUBE_ROOT_HALF = root(Rational(1, 2), 3)
NOT_MET = (False, None, None)


def _ge(x, y) -> bool:
    """x >= y, decided exactly; an undecidable comparison is an error."""
    rel = sympify(x) >= sympify(y)
    assert rel in (true, false), f"undecided: {rel}"
    return bool(rel)


def claim_expander(q, r, A, B, C, image, deg_T):
    """|f(A,B,C)| >= 1/8 min{q^r, |A||B||C|/q^(2r-1)}; |C| >= 2q^(r-1) if deg T = 2."""
    q = Integer(q)
    if deg_T == 2 and not _ge(C, 2 * q ** (r - 1)):
        return NOT_MET
    bound = Rational(1, 8) * Min(q**r, A * B * C / q ** (2 * r - 1))
    return True, _ge(image, bound), image / bound


def claim_sum_square(q, r, A, sumset, square_sum):
    """|A^2+A^2| >= |A|^2 q^r / (2|A+A|^2) for |A| >= 2q^(r-1), |A+A| >= q^(3r-1)/|A|^2."""
    q = Integer(q)
    if not (_ge(A, 2 * q ** (r - 1)) and _ge(sumset, q ** (3 * r - 1) / Integer(A) ** 2)):
        return NOT_MET
    bound = Rational(1, 2) * A**2 * q**r / Integer(sumset) ** 2
    return True, _ge(square_sum, bound), square_sum / bound


def claim_cube_sum(q, r, A, sumset, cube_sum):
    """max(|A+A|, |A^3+A^3|)^10 / (q^r |A|^9) for |A+A| >= (q^(3r-1)|A|)^(1/4)."""
    q = Integer(q)
    if not _ge(sumset, root(q ** (3 * r - 1) * A, 4)):
        return NOT_MET
    return True, None, Max(sumset, cube_sum) ** 10 / (q**r * Integer(A) ** 9)


def claim_shifted_image(q, r, A, shifted):
    """|f(A)+A| >= 2^(-1/3) |A|^(2/3) q^(r/3) for |f(A)+A| >= q^(3r-1)/|A|^2."""
    q = Integer(q)
    if not _ge(shifted, q ** (3 * r - 1) / Integer(A) ** 2):
        return NOT_MET
    bound = CUBE_ROOT_HALF * Pow(A, Rational(2, 3)) * Pow(q, Rational(r, 3))
    return True, _ge(shifted, bound), (shifted / bound) ** 3


def claim_prod_diff(q, r, A, diff, prod_sum):
    """max(|A-A|, |AA+AA|) >= 2^(-1/3) |A|^(2/3) q^(r/3) for |A| >= q^(r-1/3)."""
    q = Integer(q)
    if not _ge(A, Pow(q, r - Rational(1, 3))):
        return NOT_MET
    bound = CUBE_ROOT_HALF * Pow(A, Rational(2, 3)) * Pow(q, Rational(r, 3))
    m = Max(diff, prod_sum)
    return True, _ge(m, bound), (m / bound) ** 3


def claim_power_energy(q, r, A, units, prod, power_sum):
    """|A^d+A^d| |AA|^2 / (q^r |A|^2) for A of units with |AA| >= q^(3r-1)/|A|^2."""
    q = Integer(q)
    if units != A or not _ge(prod, q ** (3 * r - 1) / Integer(A) ** 2):
        return NOT_MET
    return True, None, power_sum * Integer(prod) ** 2 / (q**r * A**2)


def claim_incidences(q, r, points, planes, incidences):
    """|I - (q^2+q+1) N / D| <= q^(2r-1) sqrt(N), N = |Q||Pi|, D = q^(r-1)(q^3+q^2+q+1)."""
    q = Integer(q)
    N = points * planes
    D = q ** (r - 1) * (q**3 + q**2 + q + 1)
    slack = Abs(incidences - (q**2 + q + 1) * N / D)
    bound = q ** (2 * r - 1) * sqrt(N)
    return True, _ge(bound, slack), (slack / bound) ** 2


def claim_weighted_incidences(q, r, point_weight, plane_weight, incidences):
    """I_w / (W^2/q^r + q^(2r-1) W) for equal total weights W."""
    q = Integer(q)
    if point_weight != plane_weight:
        return NOT_MET
    W = Integer(point_weight)
    return True, None, incidences / (W**2 / q**r + q ** (2 * r - 1) * W)


def claim_collinear_triples(q, r, A, triples):
    """T <= q^(2r-1)|A|^3 + |A|^6/q^r + 2|A|^4."""
    q = Integer(q)
    bound = q ** (2 * r - 1) * A**3 + A**6 / q**r + 2 * A**4
    return True, _ge(bound, triples), triples / bound


def claim_lines(q, r, A, lines):
    """|L| / min{q^(2r), |A|^6 / q^(4r-2)} for |A| >= 2."""
    q = Integer(q)
    if A < 2:
        return NOT_MET
    return True, None, lines / Min(q ** (2 * r), A**6 / q ** (4 * r - 2))


def claim_plunnecke(A, sumset, dilated_diff, shifted, chain):
    """|2A-A-A| <= |A+A|^3/|A|^2, with the chain |2A-A-A| <= |A+A-A-A| <= |A+A|^3/|A|^2
    and the identity |2A-A-A| = |A-(A+A)/2|; the verdict needs all of them."""
    bound = Integer(sumset) ** 3 / A**2
    holds = (
        _ge(bound, dilated_diff) and _ge(chain, dilated_diff) and _ge(bound, chain)
        and shifted == dilated_diff
    )
    return True, holds, dilated_diff / bound


def digit_kernel_mul(ring, a, b):
    """fqxr products of index arrays by the s x s convolution of base-p digits.

    Every coefficient pair of x-powers is convolved digit by digit, then each
    y**t with t >= s is folded down with the monic field modulus, from the
    top.  No table is read.
    """
    p, s, q = ring.p, ring.s, ring.q
    g = ring.field_modulus or (0, 1)

    def digits(x):
        return [[x // q**i // p**j % p for j in range(s)] for i in range(ring.r)]

    da, db = digits(np.asarray(a)), digits(np.asarray(b))
    out = 0
    for k in range(ring.r):
        conv = [0] * (2 * s - 1)
        for i in range(k + 1):
            for u in range(s):
                for v in range(s):
                    conv[u + v] = conv[u + v] + da[i][u] * db[k - i][v]
        for t in range(2 * s - 2, s - 1, -1):  # y**s = -(g_0 + ... + g_(s-1) y**(s-1))
            for m in range(s):
                conv[t - s + m] = conv[t - s + m] - conv[t] * g[m]
        out = out + sum(conv[m] % p * p**m for m in range(s)) * q**k
    return out


def digit_kernel_add(ring, a, b):
    """fqxr sums of index arrays, base-p digit by digit."""
    a, b, p = np.asarray(a), np.asarray(b), ring.p
    return sum((a // p**j + b // p**j) % p * p**j for j in range(ring.s * ring.r))


def summarize_reports(config, reports, inputs):
    """A sweep summary from a list of reports, one Fraction per ratio."""
    reports = list(reports)
    verdicts = dict.fromkeys(("pass", "fail", "hypothesis_not_met", "ratio_recorded"), 0)
    for rep in reports:
        verdicts[rep.verdict] += 1
    ratios = [(rep.ratio, i) for i, rep in enumerate(reports) if rep.ratio is not None]
    summary = {
        "theorem": config.theorem,
        "ring": config.ring_spec,
        "mode": config.mode.literal if config.mode else "single",
        "seed": config.seed,
        "inputs": inputs,
        "reports": len(reports),
        "verdicts": verdicts,
        "ratio_min": None,
        "ratio_min_float": None,
        "ratio_max": None,
        "ratio_max_float": None,
        "ratio_mean": None,
        "argmin_sets": None,
    }
    if ratios:
        lo = min(ratios, key=lambda pair: (pair[0], pair[1]))
        hi = max(ratios, key=lambda pair: (pair[0], -pair[1]))
        mean = sum(fr for fr, _ in ratios) / len(ratios)
        summary["ratio_min"] = f"{lo[0].numerator}/{lo[0].denominator}"
        summary["ratio_min_float"] = float(lo[0])
        summary["ratio_max"] = f"{hi[0].numerator}/{hi[0].denominator}"
        summary["ratio_max_float"] = float(hi[0])
        summary["ratio_mean"] = float(mean)
        summary["argmin_sets"] = dict(reports[lo[1]].sets)
    return summary
