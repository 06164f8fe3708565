"""Collinearity over the plane R x R, grid triple counts, and line counts.

A point triple (P1, P2, P3) is collinear when some scalar k solves
P1 - P2 = k * (P3 - P2) in both coordinates.  Over a ring with zero
divisors each coordinate equation has a coset of solutions (or none), so
the decision is: solve both linear equations and test whether the two
cosets meet.  Cosets a + (z**i) and b + (z**j) meet exactly when a - b
has valuation at least min(i, j).

A "line" through two distinct points A, B is the full orbit
{B + k * (A - B) : k in R} as a point set; distinct pairs can span the
same orbit, and orbits of different pairs can have different sizes.  L(P)
counts distinct orbits spanned by pairs from the grid P = A x A.

One pass over the grid pairs (_spanned_orbits) gives each spanned orbit l
with its grid point count n(l) and its spanning pair count pairs(l); the
triple count is then T = |A|**2 + 2 * sum over l of pairs(l) * n(l).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .report import BoundRow, CheckReport
from .ring import Ring
from .setalg import RSet

Point2 = tuple[int, int]


@dataclass(frozen=True)
class Line2:
    """A full orbit line, canonically the sorted tuple of its points."""

    points: tuple[Point2, ...]

    def __len__(self):
        return len(self.points)


def line_through(ring: Ring, pa: Point2, pb: Point2) -> Line2:
    """The orbit {pb + k * (pa - pb) : k in R}; pa != pb required."""
    if tuple(pa) == tuple(pb):
        raise ValueError("line needs two distinct points")
    dx, dy = ring.sub(pa[0], pb[0]), ring.sub(pa[1], pb[1])
    ks = np.arange(ring.order, dtype=np.int64)
    px = ring.add_arr(np.int64(pb[0]), ring.mul_arr(ks, np.int64(dx)))
    py = ring.add_arr(np.int64(pb[1]), ring.mul_arr(ks, np.int64(dy)))
    pts = sorted(set(zip((int(a) for a in px), (int(b) for b in py))))
    return Line2(tuple(pts))


def is_collinear(ring: Ring, p1: Point2, p2: Point2, p3: Point2) -> bool:
    """True when p1 - p2 = k * (p3 - p2) has a solution k."""
    ex, ey = ring.sub(p1[0], p2[0]), ring.sub(p1[1], p2[1])
    dx, dy = ring.sub(p3[0], p2[0]), ring.sub(p3[1], p2[1])
    cx = ring.solve_linear(dx, ex)
    if cx is None:
        return False
    cy = ring.solve_linear(dy, ey)
    if cy is None:
        return False
    return cx.intersects(cy)


def _grid(A: RSet):
    ring = A.ring
    m = len(A)
    gx = np.repeat(A.members, m)
    gy = np.tile(A.members, m)
    mask = np.zeros(ring.order**2, dtype=bool)
    mask[gx * ring.order + gy] = True
    return gx, gy, mask


def count_collinear_triples(A: RSet) -> int:
    """Ordered triples (P1, P2, P3) from the grid A x A that lie on a common orbit.

    T = |A|**2 + 2 * sum over spanned orbits l of pairs(l) * n(l).  Each of
    the |A|**2 grid points P2 = P3 spans only {P2}, the one triple
    (P2, P2, P2); for P2 != P3 the ordered pairs (P2, P3) and (P3, P2) span
    the same orbit l, and the collinear P1 are its n(l) grid points.
    """
    if len(A) == 0:
        raise ValueError("grid needs a nonempty A")
    return _triples(len(A), _spanned_orbits(A) if len(A) >= 2 else {})


def count_collinear_triples_weak(A: RSet) -> int:
    """Ordered grid triples passing the cross-product test; >= the strict count."""
    if len(A) == 0:
        raise ValueError("grid needs a nonempty A")
    ring = A.ring
    gx, gy, _ = _grid(A)
    m = len(gx)
    total = 0
    for i in range(m):
        dx = ring.sub_arr(gx, np.int64(gx[i]))
        dy = ring.sub_arr(gy, np.int64(gy[i]))
        lhs = ring.mul_arr(dx[:, None], dy[None, :])
        rhs = ring.mul_arr(dy[:, None], dx[None, :])
        total += int((lhs == rhs).sum())
    return total


def _spanned_orbits(A: RSet) -> dict[bytes, list[int]]:
    """Each orbit l spanned by distinct grid points -> [n(l), pairs(l)]."""
    if len(A) < 2:
        raise ValueError("grid lines need |A| >= 2")
    ring = A.ring
    n = ring.order
    gx, gy, grid_mask = _grid(A)
    m = len(gx)
    ks = np.arange(n, dtype=np.int64)
    seen: dict[bytes, list[int]] = {}
    for i in range(m):
        dx = ring.sub_arr(gx[i + 1 :], np.int64(gx[i]))
        dy = ring.sub_arr(gy[i + 1 :], np.int64(gy[i]))
        px = ring.add_arr(np.int64(gx[i]), ring.mul_arr(ks[None, :], dx[:, None]))
        py = ring.add_arr(np.int64(gy[i]), ring.mul_arr(ks[None, :], dy[:, None]))
        codes = np.sort(px * n + py, axis=1)
        for row in codes:
            key = row.tobytes()
            counts = seen.get(key)
            if counts is None:
                counts = seen[key] = [int(grid_mask[np.unique(row)].sum()), 0]
            counts[1] += 1
    return seen


def _triples(na: int, orbits: dict[bytes, list[int]]) -> int:
    """T = |A|**2 + 2 * sum of pairs(l) * n(l); see count_collinear_triples."""
    return na * na + 2 * sum(pairs * n for n, pairs in orbits.values())


def count_lines(A: RSet) -> int:
    """Number of distinct orbit lines spanned by pairs of grid points."""
    return len(_spanned_orbits(A))


def grid_lines(A: RSet) -> list[Line2]:
    """The distinct spanned lines themselves, sorted for determinism."""
    ring = A.ring
    n = ring.order
    out = []
    for key in sorted(_spanned_orbits(A)):
        codes = sorted(set(np.frombuffer(key, dtype=np.int64).tolist()))
        out.append(Line2(tuple((c // n, c % n) for c in codes)))
    return out


def geometry_bound_report(A: RSet, seed: int | None = None) -> CheckReport:
    """Exact grid triple bound check (explicit constants, pass/fail).

    The claim T(P) <= q**(2r-1)|A|**3 + |A|**6/q**r + 2|A|**4 is decided
    after clearing q**r.  For |A| >= 2 two companions are recorded: the
    pair-coverage inequality |A|**4 <= sum over lines of n(l)**2 (every
    ordered grid pair lies on at least one spanned line), and the
    cross-product relaxation count.  One orbit pass gives T and the lines.
    """
    ring = A.ring
    q, r = ring.q, ring.r
    na = len(A)
    t_weak = count_collinear_triples_weak(A)  # refuses an empty A
    orbits = _spanned_orbits(A) if na >= 2 else {}
    t = _triples(na, orbits)
    lhs = q**r * t
    rhs = q ** (3 * r - 1) * na**3 + na**6 + 2 * q**r * na**4
    rows = [BoundRow("form_weak_relaxation", t <= t_weak, t, t_weak)]
    sets = {"A": A.literal, "triples": str(t), "weak_triples": str(t_weak)}
    if na >= 2:
        lcount = len(orbits)
        sum_nl_sq = sum(n * n for n, _ in orbits.values())
        rows.append(BoundRow("form_pair_coverage", na**4 <= sum_nl_sq, na**4, sum_nl_sq))
        line_lhs = lcount * q ** (4 * r - 2)
        line_rhs = min(q ** (6 * r - 2), na**6)
        rows.append(BoundRow("form_line_bound", line_lhs <= line_rhs, line_lhs, line_rhs))
        sets["lines"] = str(lcount)
        sets["sum_nl_sq"] = str(sum_nl_sq)
        sets["line_ratio"] = repr(float(Fraction(line_lhs, line_rhs)))
    return CheckReport.conclude("T7_1", ring, rows, sets, seed, lhs, rhs, holds=lhs <= rhs)


def line_count_report(A: RSet, seed: int | None = None) -> CheckReport:
    """Line count ratio record (implicit constant, never pass/fail).

    Records |L(P)| against min(q**2r, |A|**6 / q**(4r-2)) as the exact
    rational |L(P)| * q**(4r-2) / min(q**(6r-2), |A|**6).  A single point
    spans no line, so |A| >= 2 is a gate.
    """
    ring = A.ring
    if len(A) == 0:
        raise ValueError("grid needs a nonempty A")
    q, r = ring.q, ring.r
    na = len(A)
    gate = BoundRow("gate_two_points", na >= 2, na, 2)
    sets = {"A": A.literal}
    if not gate.ok:
        return CheckReport.conclude("T7_1", ring, [gate], sets, seed)
    lcount = count_lines(A)
    lhs = lcount * q ** (4 * r - 2)
    rhs = min(q ** (6 * r - 2), na**6)
    sets["lines"] = str(lcount)
    return CheckReport.conclude("T7_1", ring, [gate], sets, seed, lhs, rhs)
