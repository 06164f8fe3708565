"""Point-plane incidence counting and the exact incidence bound reports.

Points are triples (x, y, z) of canonical indices.  Planes are restricted to
the unit-Z normal form u*X + v*Y + Z = d and travel as triples (u, v, d);
this is the family the incidence bound is proved for, and every plane the
expander construction produces has this shape.

Counting buckets planes by (u, v): all planes in a bucket share the value
histogram of u*x + v*y + z over the point family Q, so the total cost is
O(G * |Q| + |Pi|) with G the number of distinct (u, v) pairs, instead of the
quadratic point-by-plane scan.  The histograms of a chunk of groups come
from one fused pass.  u*x is taken once per distinct x (and v*y per
distinct y) when Q repeats them (at most half as many distinct values as
points), else once per point: at most G * min(2 * order, |Q|) ring
products.  Then come G * |Q| adds and gathers, since the three terms add as
carry-free spread values (Ring.additive_spread) read back by one gather.
The planes are sorted by (u, v) and their histograms built slice by slice,
at most CHUNK_ELEMS elements at a time, so memory stays bounded whatever
G * order is.
Families may contain repeated triples; they count with multiplicity.

File format: one triple per line as "x,y,z", optionally "x,y,z@w" with a
positive integer weight (default 1).  Blank lines and lines starting with
'#' are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .report import BoundRow, CheckReport, sha256_prefix
from .ring import Ring
from .setalg import parse_index

# weights and totals stay below this so bucket sums fit int64 with headroom
MAX_TOTAL_WEIGHT = 1 << 31

_FAMILY_LITERAL_CAP = 64

# elements in one gather chunk, and in the histogram of one slice of planes
CHUNK_ELEMS = 1 << 22


def as_family(ring: Ring, triples) -> np.ndarray:
    """Validate and normalize a sequence of index triples to an (N, 3) array."""
    arr = np.asarray(triples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("a family is a sequence of (a, b, c) index triples")
    if arr.shape[0] == 0:
        raise ValueError("family is empty")
    if arr.min() < 0 or arr.max() >= ring.order:
        raise ValueError(f"family indices out of range for order {ring.order}")
    return arr


@dataclass(frozen=True)
class WeightedFamily:
    """Triples with positive integer weights."""

    ring: Ring
    items: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        items = as_family(self.ring, self.items)
        weights = np.asarray(self.weights, dtype=np.int64)
        if weights.shape != (items.shape[0],):
            raise ValueError("one weight per triple required")
        if weights.min() < 1:
            raise ValueError("weights must be positive integers")
        if int(weights.sum()) >= MAX_TOTAL_WEIGHT:
            raise ValueError(f"total weight must stay below {MAX_TOTAL_WEIGHT}")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, ring: Ring, triples) -> "WeightedFamily":
        items = as_family(ring, triples)
        return cls(ring, items, np.ones(items.shape[0], dtype=np.int64))

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

    @property
    def max_weight(self) -> int:
        return int(self.weights.max())

    def __len__(self) -> int:
        return self.items.shape[0]


def parse_family_lines(ring: Ring, lines) -> WeightedFamily:
    triples = []
    weights = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, at, wtext = line.partition("@")
        toks = body.strip().split(",")
        if len(toks) != 3:
            raise ValueError(f"line {lineno}: expected 'a,b,c' or 'a,b,c@w'")
        try:
            triples.append([parse_index(t) for t in toks])
            weights.append(parse_index(wtext) if at else 1)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed integer") from None
    if not triples:
        raise ValueError("no triples in input")
    return WeightedFamily(ring, np.array(triples), np.array(weights))


def load_family(ring: Ring, path: str) -> WeightedFamily:
    with open(path) as fh:
        return parse_family_lines(ring, fh)


def format_family(fam: WeightedFamily) -> str:
    lines = []
    for (a, b, c), w in zip(fam.items, fam.weights):
        suffix = f"@{w}" if w != 1 else ""
        lines.append(f"{a},{b},{c}{suffix}")
    return "\n".join(lines) + "\n"


def family_literal(fam: WeightedFamily) -> str:
    """Compact description for report sets: literal if small, else a digest."""
    if len(fam) <= _FAMILY_LITERAL_CAP:
        return ";".join(
            f"{a},{b},{c}" + (f"@{w}" if w != 1 else "")
            for (a, b, c), w in zip(fam.items, fam.weights)
        )
    digest = sha256_prefix(fam.items.tobytes() + fam.weights.tobytes())
    return f"count={len(fam)};sha256={digest}"


# ---------------------------------------------------------------------------
# counting


def _bucket_histogram(ring: Ring, points: np.ndarray, planes: np.ndarray, pw=None):
    """Histogram of u*x + v*y + z per distinct (u, v), keyed g * order + value.

    Returns (hist, group_of_plane).  With pw given the histogram is
    weight-summed instead of counted.  The products u*x and v*y are taken
    once per distinct x and y when the points repeat them (_factors), and
    the three terms add as spread values (Ring.additive_spread) gathered to
    the points, then read back once.
    """
    n = ring.order
    spread, readback = ring.additive_spread()
    xs, xi = _factors(points[:, 0])
    ys, yi = _factors(points[:, 1])
    sz = spread(points[:, 2])
    uv = planes[:, 0] * n + planes[:, 1]
    uniq, inverse = np.unique(uv, return_inverse=True)
    us, vs = uniq // n, uniq % n
    G = len(uniq)
    hist = np.zeros(G * n, dtype=np.int64)
    chunk = max(1, CHUNK_ELEMS // len(points))
    for lo in range(0, G, chunk):
        hi = min(G, lo + chunk)
        total = spread(ring.mul_arr(us[lo:hi, None], xs))[:, xi]
        total += spread(ring.mul_arr(vs[lo:hi, None], ys))[:, yi]
        total += sz
        keys = np.arange(hi - lo, dtype=np.int64)[:, None] * n + readback(total)
        if pw is None:
            hist[lo * n : hi * n] += np.bincount(keys.ravel(), minlength=(hi - lo) * n)
        else:
            np.add.at(hist[lo * n : hi * n], keys.ravel(), np.broadcast_to(pw, keys.shape).ravel())
    return hist, inverse


def _factors(col: np.ndarray):
    """(values, take) with values[take] == col: the distinct entries of col
    and its inverse index when they are at most half of it, else col itself
    and a plain slice.  A product per distinct value gathered back to the
    points pays off only when the points repeat their values; otherwise the
    gather costs more than the products it saves."""
    values, inverse = np.unique(col, return_inverse=True)
    if 2 * len(values) <= len(col):
        return values, inverse
    return col, slice(None)


def _plane_counts(ring: Ring, points: np.ndarray, planes: np.ndarray, pw=None):
    """(count, perm): count[i] is the (pw-weighted) number of points on plane
    perm[i], where perm sorts the planes by (u, v).

    The sorted planes are cut at (u, v) group boundaries into slices of at
    most CHUNK_ELEMS // order groups (one at least), and each slice gets its
    own _bucket_histogram call, so a histogram holds at most
    max(CHUNK_ELEMS, order) elements.
    """
    n = ring.order
    uv = planes[:, 0] * n + planes[:, 1]
    perm = np.argsort(uv, kind="stable")
    planes, uv = planes[perm], uv[perm]
    group = np.concatenate([[0], np.cumsum(uv[1:] != uv[:-1])])
    per_slice = max(1, CHUNK_ELEMS // n)
    cuts = np.searchsorted(group, np.arange(0, group[-1] + 1, per_slice)).tolist()
    count = np.empty(len(planes), dtype=np.int64)
    for lo, hi in zip(cuts, cuts[1:] + [len(planes)]):
        hist, g = _bucket_histogram(ring, points, planes[lo:hi], pw)
        count[lo:hi] = hist[g * n + planes[lo:hi, 2]]
        del hist  # freed before the next slice allocates its histogram
    return count, perm


def count_incidences(ring: Ring, points, planes) -> int:
    """Exact number of incident (point, plane) pairs, with multiplicity."""
    P = as_family(ring, points)
    L = as_family(ring, planes)
    count, _ = _plane_counts(ring, P, L)
    return int(count.sum())


def count_weighted_incidences(points: WeightedFamily, planes: WeightedFamily) -> int:
    """Sum of w(point) * w(plane) over incident pairs, exactly."""
    if points.ring != planes.ring:
        raise ValueError("families live in different rings")
    count, perm = _plane_counts(points.ring, points.items, planes.items, points.weights)
    return sum(int(wq) * int(h) for wq, h in zip(planes.weights[perm], count))


# ---------------------------------------------------------------------------
# bound reports


def incidence_bound_report(ring: Ring, points, planes, seed: int | None = None) -> CheckReport:
    """Exact two-sided incidence bound check (explicit constants, pass/fail).

    With N = |Q||Pi|, D = q**(r-1) * (q**3 + q**2 + q + 1) the claim
    |I - (q**2+q+1) * N / D| <= q**(2r-1) * sqrt(N) is decided by squaring
    the cleared difference, entirely in integers.  A one-sided variant with
    main term N / q**r is recorded as a form_ row.
    """
    P = as_family(ring, points)
    L = as_family(ring, planes)
    q, r = ring.q, ring.r
    I = count_incidences(ring, P, L)
    N = P.shape[0] * L.shape[0]
    D = q ** (r - 1) * (q**3 + q**2 + q + 1)
    main_num = (q**2 + q + 1) * N
    lhs = (D * I - main_num) ** 2
    rhs = D**2 * q ** (4 * r - 2) * N
    one_diff = max(q**r * I - N, 0)
    one_rhs = q ** (6 * r - 2) * N
    rows = [BoundRow("form_one_sided", one_diff**2 <= one_rhs, one_diff**2, one_rhs)]
    sets = {
        "points": family_literal(WeightedFamily.uniform(ring, P)),
        "planes": family_literal(WeightedFamily.uniform(ring, L)),
        "incidences": str(I),
        "main_term": f"{main_num}/{D}",
        "slack_bound": repr(q ** (2 * r - 1) * math.sqrt(N)),
    }
    return CheckReport.conclude("T2_2", ring, rows, sets, seed, lhs, rhs, holds=lhs <= rhs)


def weighted_bound_report(
    points: WeightedFamily, planes: WeightedFamily, seed: int | None = None
) -> CheckReport:
    """Weighted incidence ratio record (implicit constant, never pass/fail).

    Requires equal total weights W on both families; the recorded ratio is
    I_w / (W**2 / q**r + q**(2r-1) * W), kept as the exact rational
    q**r * I_w / (W**2 + q**(3r-1) * W).
    """
    if points.ring != planes.ring:
        raise ValueError("families live in different rings")
    ring = points.ring
    q, r = ring.q, ring.r
    wp, wq = points.total_weight, planes.total_weight
    gate = BoundRow("gate_equal_weights", wp == wq, wp, wq)
    sets = {
        "points": family_literal(points),
        "planes": family_literal(planes),
        "max_weight": str(max(points.max_weight, planes.max_weight)),
    }
    if not gate.ok:
        return CheckReport.conclude("T2_4", ring, [gate], sets, seed)
    iw = count_weighted_incidences(points, planes)
    lhs = q**r * iw
    rhs = wp**2 + q ** (3 * r - 1) * wp
    sets["weighted_incidences"] = str(iw)
    return CheckReport.conclude("T2_4", ring, [gate], sets, seed, lhs, rhs)
