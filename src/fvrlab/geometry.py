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

T7_1 runs on a block of inputs, one set A per row of a (rows, order)
membership mask, and one kernel (grid_counts) gives every row's strict
count, weak count, line count and sum of n(l)**2; both reports of a row
come from that one result (grid_reports), and a single report is the
one-row call.

* Strict count: one orbit pass (_spanned_orbits) keys the grid pairs of
  every row at once, each key offset by its row, and gives each spanned
  orbit l with its grid point count n(l) and its spanning pair count
  pairs(l); then T = |A|**2 + 2 * sum over l of pairs(l) * n(l).
* Weak count: (P1, P2, P3) passes the cross-product test when
  det(P1 - P2, P3 - P2) = 0.  With the grid points P_a = (x_a, y_a) and
  the alternating matrix W[a, b] = x_a * y_b - y_a * x_b, that determinant
  is -(W[1, 2] + W[2, 3] + W[3, 1]), which only changes sign when two
  points are swapped.  Every triple with a repeated point passes, so over
  m = |A|**2 grid points
  T_weak = m**3 - m(m-1)(m-2) + 6 * #{a < b < c : W[a, b] + W[b, c] = W[a, c]},
  one addition per triple a < b < c, taken for one middle point b at a
  time in slices of at most BLOCK_ELEMS elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .report import BoundColumn, CheckReport, InputBlock, ReportBlock, literals_or_digests
from .ring import Ring
from .setalg import BLOCK_ELEMS, RSet, member_masks

Point2 = tuple[int, int]

# grid_counts takes rows in chunks of at most this many W entries (rows * m**2):
# a 40-row |A| = 6 block on Z_81 then peaks at 0.74 MB (tracemalloc), and
# chunks of 4 or 8 times as many were about 10% faster at 2.5-2.8 MB
_CHUNK_ELEMS = BLOCK_ELEMS // 8


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


def _grid(members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid A x A of each row of (rows, |A|) members: (x, y), each (rows, |A|**2)."""
    k = members.shape[1]
    return np.repeat(members, k, axis=1), np.tile(members, (1, k))


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


def _pair_keys(ring: Ring, gx, gy) -> np.ndarray:
    """The line key of every grid pair a < b of each row, (rows, m(m-1)/2)."""
    i, j = np.triu_indices(gx.shape[1], 1)
    x, y = gx[:, i], gy[:, i]
    cls = _direction_class(ring, ring.sub_arr(gx[:, j], x), ring.sub_arr(gy[:, j], y))
    return _line_keys(ring, x, y, cls)


def _spanned_orbits(ring: Ring, members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits l spanned by distinct points of each row's grid A x A:
    (row, n(l), pairs(l)), from (rows, |A|) members.

    One pass keys every grid pair of every row, a key offset by its row
    times 2r * q**(2r), past every key of one row; so the orbits come in row
    order.  A block has at most max(1, BLOCK_ELEMS // order) rows, so
    offsets stay below BLOCK_ELEMS * 2r * q**r (1.4e10 where a block has two
    rows or more) and keys below 9.5e12: int64 holds them.

    n(l) is read off the key (cls + lo) * q**r + hi of l: a grid point lies
    on l when its pivot coordinate p has p mod q**v = lo and its other
    coordinate is hi + (p div q**v) * w.  Both coordinates range over A, so
    n(l) counts the p in A with that residue whose partner is in A too.
    """
    rows, k = members.shape
    if k < 2:
        raise ValueError("grid lines need |A| >= 2")
    n = ring.order
    key_span = 2 * ring.r * n * n
    keys = _pair_keys(ring, *_grid(members))
    keys += np.arange(rows, dtype=np.int64)[:, None] * key_span
    keys, pairs = np.unique(keys, return_counts=True)
    mask = member_masks(n, members)
    n_l = np.empty_like(pairs)
    step = max(1, BLOCK_ELEMS // k)  # lines per slice of (lines, |A|) candidates
    for lo in range(0, len(keys), step):
        row, key = np.divmod(keys[lo : lo + step], key_span)
        vf_wlo, hi = np.divmod(key, n)
        vf, wlo = np.divmod(vf_wlo, n)
        qv = (ring.q ** (vf // 2))[:, None]
        low = wlo[:, None] % qv
        pivot = members[row]
        partner = ring.add_arr(hi[:, None], ring.mul_arr(pivot // qv, wlo[:, None] - low))
        on_line = (pivot % qv == low) & mask[row[:, None], partner]
        n_l[lo : lo + step] = np.count_nonzero(on_line, axis=1)
    return keys // key_span, n_l, pairs


def _weak_triples(ring: Ring, gx, gy) -> np.ndarray:
    """Ordered grid triples of each row that pass the cross-product test.

    From the alternating form (see the module docstring): one W matrix per
    row, then for each middle point b the triples a < b < c, in slices of
    at most BLOCK_ELEMS elements.
    """
    rows, m = gx.shape
    xy = ring.mul_arr(gx[:, :, None], gy[:, None, :])
    W = ring.sub_arr(xy, xy.transpose(0, 2, 1))  # W[a, b] = x_a y_b - x_b y_a
    del xy
    zero = np.zeros(rows, dtype=np.int64)
    for b in range(1, m - 1):
        right = W[:, None, b, b + 1 :]  # W[b, c] for c > b
        step = max(1, BLOCK_ELEMS // (rows * (m - 1 - b)))
        for lo in range(0, b, step):
            hi = min(b, lo + step)
            total = ring.add_arr(W[:, lo:hi, b, None], right)
            zero += np.count_nonzero(total == W[:, lo:hi, b + 1 :], axis=(1, 2))
    return m**3 - m * (m - 1) * (m - 2) + 6 * zero


def grid_counts(ring: Ring, masks: np.ndarray) -> list[list[int]]:
    """[t_weak, t, lines, sum of n(l)**2] of the grid A x A of each row of a
    (rows, order) bool mask, one column each, as Python ints.

    Rows are grouped by |A| and taken in chunks of at most _CHUNK_ELEMS W
    entries (one row at least); each chunk makes one orbit pass and one
    weak pass.  A single point spans no line: t_weak = t = 1.
    """
    sizes = masks.sum(axis=1)
    if not sizes.all():
        raise ValueError("grid needs a nonempty A")
    counts = np.zeros((4, len(masks)), dtype=np.int64)
    counts[:2] = 1
    cap = max(1, BLOCK_ELEMS // ring.order)  # the row bound of _spanned_orbits
    for k in np.unique(sizes[sizes >= 2]).tolist():
        at = np.flatnonzero(sizes == k)
        members = np.nonzero(masks[at])[1].reshape(len(at), k)
        m = k * k
        step = max(1, min(cap, _CHUNK_ELEMS // (m * m)))
        for lo in range(0, len(at), step):
            rows = at[lo : lo + step]
            chunk = members[lo : lo + step]
            line_row, n_l, pairs = _spanned_orbits(ring, chunk)
            # each row spans a line, and line_row is sorted, so no segment is empty
            starts = np.searchsorted(line_row, np.arange(len(rows)))
            counts[0, rows] = _weak_triples(ring, *_grid(chunk))
            counts[1, rows] = m + 2 * np.add.reduceat(pairs * n_l, starts)
            counts[2, rows] = np.diff(starts, append=len(line_row))
            counts[3, rows] = np.add.reduceat(n_l * n_l, starts)
    return counts.tolist()


def _one_row(A: RSet) -> list[int]:
    """grid_counts of one set: [t_weak, t, lines, sum of n(l)**2]."""
    return [col[0] for col in grid_counts(A.ring, A.mask[None])]


def count_collinear_triples(A: RSet) -> int:
    """Ordered triples (P1, P2, P3) from the grid A x A that lie on a common orbit.

    T = |A|**2 + 2 * sum over spanned orbits l of pairs(l) * n(l).  Each of
    the |A|**2 grid points P2 = P3 spans only {P2}, the one triple
    (P2, P2, P2); for P2 != P3 the ordered pairs (P2, P3) and (P3, P2) span
    the same orbit l, and the collinear P1 are its n(l) grid points.
    """
    return _one_row(A)[1]


def count_collinear_triples_weak(A: RSet) -> int:
    """Ordered grid triples passing the cross-product test; >= the strict count.

    (P1, P2, P3) passes when dx1 * dy3 = dy1 * dx3 for d = P - P2; counted
    from the alternating form, see the module docstring.
    """
    return _one_row(A)[0]


def count_lines(A: RSet) -> int:
    """Number of distinct orbit lines spanned by pairs of grid points."""
    if len(A) < 2:
        raise ValueError("grid lines need |A| >= 2")
    return _one_row(A)[2]


def grid_lines(A: RSet) -> list[Line2]:
    """The distinct spanned lines themselves, sorted by their points."""
    if len(A) < 2:
        raise ValueError("grid lines need |A| >= 2")
    gx, gy = _grid(A.members[None])
    keys = _pair_keys(A.ring, gx, gy)
    _, first = np.unique(keys[0], return_index=True)
    i, j = np.triu_indices(gx.shape[1], 1)
    x, y = gx[0].tolist(), gy[0].tolist()
    lines = [line_through(A.ring, (x[b], y[b]), (x[a], y[a])) for a, b in zip(i[first], j[first])]
    return sorted(lines, key=lambda l: l.points)


def _column(name: str, lhs: list[int], rhs: list[int], cut: slice) -> BoundColumn:
    """The rows cut of a bound row that holds when lhs <= rhs."""
    lhs, rhs = lhs[cut], rhs[cut]
    return BoundColumn(name, [x <= y for x, y in zip(lhs, rhs)], lhs, rhs)


def grid_reports(ring: Ring, masks: np.ndarray, seeds) -> list[InputBlock]:
    """T7_1 on every row of a (rows, order) bool mask: the bound report and
    the line report of each row (see geometry_bound_report and
    line_count_report), from one grid_counts call.

    A single point spans no line, so rows with |A| = 1 take the short
    shapes: no line rows or keys.  The block is one InputBlock per maximal
    run of rows with |A| = 1 or with |A| >= 2; an exhaustive block has its
    |A| = 1 rows first.
    """
    q, r = ring.q, ring.r
    t_weak, t, lines, sum_nl_sq = grid_counts(ring, masks)  # refuses an empty row
    na = masks.sum(axis=1).tolist()
    line_lhs = [c * q ** (4 * r - 2) for c in lines]
    line_rhs = [min(q ** (6 * r - 2), a**6) for a in na]
    forms = [
        ("form_weak_relaxation", t, t_weak),
        ("form_pair_coverage", [a**4 for a in na], sum_nl_sq),  # every grid pair is on a line
        ("form_line_bound", line_lhs, line_rhs),
    ]
    sets = {
        "A": literals_or_digests(masks),
        "triples": list(map(str, t)),
        "weak_triples": list(map(str, t_weak)),
        "lines": list(map(str, lines)),
        "sum_nl_sq": list(map(str, sum_nl_sq)),
        "line_ratio": [repr(x / y) for x, y in zip(line_lhs, line_rhs)],
    }
    # the claim after clearing q**r
    lhs = [q**r * x for x in t]
    rhs = [q ** (3 * r - 1) * a**3 + a**6 + 2 * q**r * a**4 for a in na]
    holds = [x <= y for x, y in zip(lhs, rhs)]
    # a row with |A| = 1 keeps the first bound row and the first three sets keys
    parts, lo = [], 0
    for spans, run in groupby(na, key=lambda a: a >= 2):
        cut = slice(lo, lo + len(list(run)))
        lo = cut.stop
        bound = ReportBlock.conclude(
            "T7_1", ring, [_column(*form, cut) for form in forms[: 3 if spans else 1]],
            {key: sets[key][cut] for key in list(sets)[: 6 if spans else 3]},
            seeds[cut], lhs[cut], rhs[cut], holds[cut],
        )
        rows = cut.stop - cut.start
        gate = BoundColumn("gate_two_points", [spans] * rows, na[cut], [2] * rows)
        line = ReportBlock.conclude(
            "T7_1", ring, [gate], {key: sets[key][cut] for key in ("A", "lines")[: 1 + spans]},
            seeds[cut], line_lhs[cut], line_rhs[cut], [None] * rows,
        )
        parts.append(InputBlock([bound, line]))
    return parts


def geometry_bound_report(A: RSet, seed: int | None = None) -> CheckReport:
    """Exact grid triple bound check (explicit constants, pass/fail).

    The claim T(P) <= q**(2r-1)|A|**3 + |A|**6/q**r + 2|A|**4 is decided
    after clearing q**r.  For |A| >= 2 two companions are recorded: the
    pair-coverage inequality |A|**4 <= sum over lines of n(l)**2 (every
    ordered grid pair lies on at least one spanned line), and the
    cross-product relaxation count.  The one-row call of grid_reports.
    """
    return grid_reports(A.ring, A.mask[None], [seed])[0].report(0)


def line_count_report(A: RSet, seed: int | None = None) -> CheckReport:
    """Line count ratio record (implicit constant, never pass/fail).

    Records |L(P)| against min(q**2r, |A|**6 / q**(4r-2)) as the exact
    rational |L(P)| * q**(4r-2) / min(q**(6r-2), |A|**6).  A single point
    spans no line, so |A| >= 2 is a gate.  The one-row call of grid_reports.
    """
    return grid_reports(A.ring, A.mask[None], [seed])[0].report(1)
