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

The orbit of P in direction d != 0 is the coset P + R*d, so it is keyed by
the class of the cyclic submodule R*d and a canonical representative of P
modulo it, never by enumerating P + k*d:

* class: with v = min(val dx, val dy) and (a', b') = (dx, dy) / z**v, the
  generator is z**v * (1, t), t = b' / a' mod z**(r-v), when val dx = v,
  and z**v * (t, 1), t = a' / b', otherwise (flipped).  Its class code is
  (2v + flip) * q**r + w, where w = z**v * t is the non-pivot coordinate;
* representative of P = (x, y) modulo R * z**v * (1, t): the point
  (x mod z**v, y - (x div z**v) * w), the flipped case mirrored.  Indices
  are base-q digit strings, so mod and div by z**v are % and // by q**v.

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
from .setalg import BLOCK_ELEMS, RSet

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
    m = len(A)
    return np.repeat(A.members, m), np.tile(A.members, m)


def count_collinear_triples(A: RSet) -> int:
    """Ordered triples (P1, P2, P3) from the grid A x A that lie on a common orbit.

    T = |A|**2 + 2 * sum over spanned orbits l of pairs(l) * n(l).  Each of
    the |A|**2 grid points P2 = P3 spans only {P2}, the one triple
    (P2, P2, P2); for P2 != P3 the ordered pairs (P2, P3) and (P3, P2) span
    the same orbit l, and the collinear P1 are its n(l) grid points.
    """
    if len(A) == 0:
        raise ValueError("grid needs a nonempty A")
    _, n_l, pairs = _spanned_orbits(A) if len(A) >= 2 else _NO_ORBITS
    return _triples(len(A), n_l, pairs)


def count_collinear_triples_weak(A: RSet) -> int:
    """Ordered grid triples passing the cross-product test; >= the strict count.

    (P1, P2, P3) passes when dx1 * dy3 = dy1 * dx3 for d = P - P2.  The
    (P1, P3) products of a base point P2 form a matrix whose transpose holds
    the other side, so one product per pair suffices; base points run in
    blocks of at most BLOCK_ELEMS products.
    """
    if len(A) == 0:
        raise ValueError("grid needs a nonempty A")
    ring = A.ring
    gx, gy = _grid(A)
    m = len(gx)
    total = 0
    step = max(1, BLOCK_ELEMS // (m * m))
    for lo in range(0, m, step):
        dx = ring.sub_arr(gx, gx[lo : lo + step, None])
        dy = ring.sub_arr(gy, gy[lo : lo + step, None])
        cross = ring.mul_arr(dx[:, :, None], dy[:, None, :])
        total += int(np.count_nonzero(cross == cross.transpose(0, 2, 1)))
    return total


def _direction_class(ring: Ring, dx, dy) -> np.ndarray:
    """Class code (2v + flip) * q**r + w of each cyclic submodule R*(dx, dy), d != 0.

    Its generator is (z**v, w) when val dx = v = min(val dx, val dy), and
    (w, z**v) otherwise (flip); see the module docstring.
    """
    n = ring.order
    vx, vy = ring.val_arr(dx), ring.val_arr(dy)
    flip = vy < vx
    v = np.minimum(vx, vy)
    qv = ring.q**v
    inv = ring.inv_table[np.where(flip, dy, dx) // qv]
    t = ring.mul_arr(np.where(flip, dx, dy) // qv, inv)
    return (2 * v + flip) * n + t * qv % n


def _line_keys(ring: Ring, x, y, cls) -> np.ndarray:
    """Key of the orbit (x, y) + R*g, where cls is the class code of g.

    The key is (cls + lo) * q**r + hi, where (lo, hi) is the representative
    of (x, y), pivot coordinate first.  The w part of cls is a multiple of
    q**v and lo < q**v, so cls + lo keeps both.  Keys stay below
    2r * q**(2r), at most 9.5e12 (zpr:p=7,r=7) under DEFAULT_MAX_ORDER, so
    int64 holds them.
    """
    n = ring.order
    vf, w = np.divmod(cls, n)
    flip = vf % 2 == 1
    qv = ring.q ** (vf // 2)
    pivot, other = np.where(flip, y, x), np.where(flip, x, y)
    hi = ring.sub_arr(other, ring.mul_arr(pivot // qv, w))
    return (cls + pivot % qv) * n + hi


def _spanned_orbits(A: RSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits l spanned by distinct grid points: (span, n(l), pairs(l)).

    span holds one spanning pair (x1, y1, x2, y2) per orbit.  The orbits
    are found from every grid pair's line key at once; n(l) counts the grid
    points whose key under the class of l equals the key of l.
    """
    if len(A) < 2:
        raise ValueError("grid lines need |A| >= 2")
    ring = A.ring
    gx, gy = _grid(A)
    i, j = np.triu_indices(len(gx), 1)
    x, y = gx[i], gy[i]
    cls = _direction_class(ring, ring.sub_arr(gx[j], x), ring.sub_arr(gy[j], y))
    keys, first, pairs = np.unique(
        _line_keys(ring, x, y, cls), return_index=True, return_counts=True
    )
    classes = np.unique(cls)[:, None]
    point_keys, points = np.unique(_line_keys(ring, gx, gy, classes), return_counts=True)
    n_l = points[np.searchsorted(point_keys, keys)]
    a, b = i[first], j[first]
    return np.stack([gx[a], gy[a], gx[b], gy[b]], axis=1), n_l, pairs


# a single grid point spans no orbit
_NO_ORBITS = (np.zeros((0, 4), np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))


def _triples(na: int, n_l: np.ndarray, pairs: np.ndarray) -> int:
    """T = |A|**2 + 2 * sum of pairs(l) * n(l); see count_collinear_triples."""
    return na * na + 2 * int(np.dot(pairs, n_l))


def count_lines(A: RSet) -> int:
    """Number of distinct orbit lines spanned by pairs of grid points."""
    return len(_spanned_orbits(A)[0])


def grid_lines(A: RSet) -> list[Line2]:
    """The distinct spanned lines themselves, sorted by their points."""
    span, _, _ = _spanned_orbits(A)
    lines = [line_through(A.ring, (x2, y2), (x1, y1)) for x1, y1, x2, y2 in span.tolist()]
    return sorted(lines, key=lambda l: l.points)


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
    _, n_l, pairs = _spanned_orbits(A) if na >= 2 else _NO_ORBITS
    t = _triples(na, n_l, pairs)
    lhs = q**r * t
    rhs = q ** (3 * r - 1) * na**3 + na**6 + 2 * q**r * na**4
    rows = [BoundRow("form_weak_relaxation", t <= t_weak, t, t_weak)]
    sets = {"A": A.literal, "triples": str(t), "weak_triples": str(t_weak)}
    if na >= 2:
        lcount = len(n_l)
        sum_nl_sq = int(np.dot(n_l, n_l))
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
