"""Dense subsets of a finite valuation ring and their exact set algebra.

An :class:`RSet` stores a membership bit-vector over canonical indices plus
the sorted member array.  Every pairwise set image (sums, differences and
products of sets, both stages of the three-variable image, f(X - Y) + Z)
runs through one kernel, _pairs: op broadcast over two (rows, k) member
rectangles in chunks of at most max(BLOCK_ELEMS, order) pairs, each chunk
scattered into a (rows, order) mask.  A mask row joins a rectangle by
repeating its last member up to the longest row, which no set image can
notice.  Sums and differences first ask the cover rule (_covers): |X| + |Y|
> |R| forces X + Y = X - Y = R.  All counts are exact; nothing rounds.

Set literals on the wire are comma-separated canonical indices ("0,1,5").
Quadratic polynomial data for the three-variable image a*x*y + R(x) + S(y)
+ T(z) travels as "a=<idx>;R=<c2,c1,c0>;S=<c2,c1,c0>;T=<c2,c1,c0>" where
each coefficient is a canonical index and c2 is the leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ring import Ring, parse_index  # parse_index: re-exported for callers

# elements in any one temporary of a block computation (a block of sweep
# inputs, a block of grid points), so a block never moves peak memory
BLOCK_ELEMS = 1 << 16

SUM = "sum"
PRODUCT = "product"
POWER_SUM = "power_sum"


class RSet:
    """An immutable subset of one ring, indexed canonically."""

    __slots__ = ("ring", "mask", "members")

    def __init__(self, ring: Ring, mask: np.ndarray):
        self.ring = ring
        self.mask = mask
        self.members = np.flatnonzero(mask).astype(np.int64)

    @classmethod
    def from_indices(cls, ring: Ring, indices) -> "RSet":
        mask = np.zeros(ring.order, dtype=bool)
        for idx in indices:
            ring.check_elem(int(idx))
            mask[int(idx)] = True
        return cls(ring, mask)

    @classmethod
    def full(cls, ring: Ring) -> "RSet":
        return cls(ring, np.ones(ring.order, dtype=bool))

    def indices(self) -> list[int]:
        return [int(a) for a in self.members]

    @property
    def literal(self) -> str:
        return ",".join(str(a) for a in self.indices())

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.ring.order and bool(self.mask[a])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RSet)
            and self.ring == other.ring
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((self.ring.key, self.mask.tobytes()))

    def __repr__(self):
        return f"RSet({self.ring.spec_string()}, {{{self.literal}}})"


def parse_set_literal(ring: Ring, text: str) -> RSet:
    """Parse comma-separated canonical indices; 'all' means the whole ring."""
    text = text.strip()
    if text == "all":
        return RSet.full(ring)
    if not text:
        raise ValueError("empty set literal")
    try:
        indices = [parse_index(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed set literal {text!r}") from None
    return RSet.from_indices(ring, indices)


def _same_ring(*sets: RSet) -> Ring:
    ring = sets[0].ring
    for s in sets[1:]:
        if s.ring != ring:
            raise ValueError("sets live in different rings")
    return ring


def _scatter(ring: Ring, values: np.ndarray) -> RSet:
    mask = np.zeros(ring.order, dtype=bool)
    mask[np.asarray(values, dtype=np.int64).ravel()] = True
    return RSet(ring, mask)


def _covers(ring: Ring, size_x, size_y):
    """Whether |X| + |Y| > |R|, which forces X + Y = X - Y = R (elementwise):
    g - Y and g + Y have |Y| members, so they meet X.  Products never ask it,
    since R is not a group under multiplication."""
    return size_x + size_y > ring.order


def _pair_set(A: RSet, B: RSet, op) -> RSet:
    """{op(a, b) : a in A, b in B}, the one-row call of _pairs."""
    ring = _same_ring(A, B)
    return RSet(ring, _pairs(A.members[None], B.members[None], op, ring.order)[0])


def sumset(A: RSet, B: RSet) -> RSet:
    """{a + b : a in A, b in B}."""
    if _covers(_same_ring(A, B), len(A), len(B)):
        return RSet.full(A.ring)
    return _pair_set(A, B, A.ring.add_arr)


def diffset(A: RSet, B: RSet) -> RSet:
    """{a - b : a in A, b in B}."""
    if _covers(_same_ring(A, B), len(A), len(B)):
        return RSet.full(A.ring)
    return _pair_set(A, B, A.ring.sub_arr)


def prodset(A: RSet, B: RSet) -> RSet:
    """{a * b : a in A, b in B}."""
    return _pair_set(A, B, A.ring.mul_arr)


def translate(A: RSet, c: int) -> RSet:
    """{a + c : a in A}."""
    A.ring.check_elem(c)
    return _scatter(A.ring, A.ring.add_arr(A.members, np.int64(c)))


def dilate(A: RSet, c: int) -> RSet:
    """{c * a : a in A}; c need not be a unit."""
    A.ring.check_elem(c)
    return _scatter(A.ring, A.ring.mul_arr(np.int64(c), A.members))


@lru_cache(maxsize=512)
def _power_table(ring: Ring, d: int) -> np.ndarray:
    return ring.pow_arr(np.arange(ring.order, dtype=np.int64), d)


def power_set(A: RSet, d: int) -> RSet:
    """{a**d : a in A} for d >= 1."""
    if d < 1:
        raise ValueError("power d must be >= 1")
    return _scatter(A.ring, _power_table(A.ring, d)[A.members])


def rep_histogram(A: RSet, B: RSet, op: str, d: int | None = None) -> np.ndarray:
    """Counts of ordered pairs by combined value, one slot per index.

    op is one of SUM ({a+b}), PRODUCT ({a*b}) or POWER_SUM ({a**d + b**d},
    needs d).  The histogram sums to len(A) * len(B).
    """
    ring = _same_ring(A, B)
    x = A.members[:, None]
    y = B.members[None, :]
    if op == SUM:
        vals = ring.add_arr(x, y)
    elif op == PRODUCT:
        vals = ring.mul_arr(x, y)
    elif op == POWER_SUM:
        if d is None or d < 1:
            raise ValueError("power_sum needs d >= 1")
        tab = _power_table(ring, d)
        vals = ring.add_arr(tab[x], tab[y])
    else:
        raise ValueError(f"unknown combiner {op!r}")
    return np.bincount(np.asarray(vals, dtype=np.int64).ravel(), minlength=ring.order)


def energy(A: RSet, d: int) -> int:
    """Ordered quadruples (a,b,c,e) in A**4 with a**d + b**d = c**d + e**d."""
    hist = rep_histogram(A, A, POWER_SUM, d)
    return sum(int(c) * int(c) for c in hist if c)


# ---------------------------------------------------------------------------
# quadratic polynomial images


@dataclass(frozen=True)
class QuadPolySpec:
    """Data of the three-variable map a*x*y + R(x) + S(y) + T(z).

    Coefficient triples are (c2, c1, c0) canonical indices.  Constraints:
    a != 0, T non-constant, and the leading coefficient of T a unit.
    """

    ring: Ring
    a: int
    R: tuple[int, int, int]
    S: tuple[int, int, int]
    T: tuple[int, int, int]

    def __post_init__(self):
        rg = self.ring
        rg.check_elem(self.a)
        for tr in (self.R, self.S, self.T):
            if len(tr) != 3:
                raise ValueError("coefficient triples are (c2, c1, c0)")
            for c in tr:
                rg.check_elem(c)
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if self.deg_T == 0:
            raise ValueError("T must not be constant")
        lead = self.T[0] if self.deg_T == 2 else self.T[1]
        if not rg.is_unit(lead):
            raise ValueError("leading coefficient of T must be a unit")

    @property
    def deg_T(self) -> int:
        return 2 if self.T[0] != 0 else (1 if self.T[1] != 0 else 0)

    @cached_property
    def literal(self) -> str:
        def tr(t):
            return ",".join(str(c) for c in t)

        return f"a={self.a};R={tr(self.R)};S={tr(self.S)};T={tr(self.T)}"


def parse_quadpoly(ring: Ring, text: str) -> QuadPolySpec:
    """Parse 'a=<idx>;R=<c2,c1,c0>;S=<c2,c1,c0>;T=<c2,c1,c0>'."""
    fields: dict[str, str] = {}
    for part in text.strip().split(";"):
        key, eq, val = part.partition("=")
        if not eq:
            raise ValueError(f"malformed polynomial field {part!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"polynomial field {key!r} given twice")
        fields[key] = val.strip()
    if set(fields) != {"a", "R", "S", "T"}:
        raise ValueError("polynomial literal must define a, R, S, T")

    def triple(raw: str) -> tuple[int, int, int]:
        toks = raw.split(",")
        if len(toks) != 3:
            raise ValueError(f"coefficient triple {raw!r} needs 3 entries")
        return tuple(map(parse_index, toks))

    a = parse_index(fields["a"])
    return QuadPolySpec(ring, a, triple(fields["R"]), triple(fields["S"]), triple(fields["T"]))


@lru_cache(maxsize=512)
def _poly_table(ring: Ring, coeffs: tuple[int, int, int]) -> np.ndarray:
    return ring.table1(*coeffs)


def poly1_table(ring: Ring, coeffs: tuple[int, int, int]) -> np.ndarray:
    """Memoized value table of c2*x**2 + c1*x + c0 over every index."""
    return _poly_table(ring, tuple(int(c) for c in coeffs))


def image_quad3(spec: QuadPolySpec, A: RSet, B: RSet, C: RSet) -> RSet:
    """Exact image {a*x*y + R(x) + S(y) + T(z) : x in A, y in B, z in C}.

    The one-row block of _image_masks.
    """
    ring = _same_ring(A, B, C)
    if ring != spec.ring:
        raise ValueError("sets live in a different ring than the polynomial")
    if not (len(A) and len(B) and len(C)):
        raise ValueError("image needs nonempty A, B, C")
    return RSet(ring, _image_masks(spec, A.mask[None], B.mask[None], C.mask[None])[0])


def _two_var(spec: QuadPolySpec, x, y) -> np.ndarray:
    """a*x*y + R(x) + S(y), elementwise over broadcast index arrays."""
    ring = spec.ring
    rt, st = _poly_table(ring, spec.R), _poly_table(ring, spec.S)
    return ring.add_arr(
        ring.mul_arr(np.int64(spec.a), ring.mul_arr(x, y)), ring.add_arr(rt[x], st[y])
    )


def member_masks(order: int, members: np.ndarray) -> np.ndarray:
    """(rows, order) bool membership masks of the rows of a member array."""
    masks = np.zeros((len(members), order), dtype=bool)
    masks[np.arange(len(members))[:, None], members] = True
    return masks


def _pairs(xm: np.ndarray, ym: np.ndarray, op, order: int) -> np.ndarray:
    """(rows, order) mask of {op(x, y) : x in xm_i, y in ym_i} for two (rows, k)
    member rectangles.  op broadcasts over chunks of whole rows, at most
    BLOCK_ELEMS pairs, or of one row's x members if a row has more, so no chunk
    exceeds max(BLOCK_ELEMS, order); it returns a new int64 array, which is
    offset in place into one flat scatter per chunk."""
    (rows, kx), ky = xm.shape, ym.shape[1]
    out = np.zeros((rows, order), dtype=bool)
    if not (kx and ky):
        return out
    row_step = max(1, BLOCK_ELEMS // (kx * ky))
    x_step = max(1, BLOCK_ELEMS // ky)
    for lo in range(0, rows, row_step):
        x, y = xm[lo : lo + row_step, :, None], ym[lo : lo + row_step, None]
        base = np.arange(lo, lo + len(x))[:, None, None] * order
        for x_lo in range(0, kx, x_step):
            idx = op(x[:, x_lo : x_lo + x_step], y)
            idx += base
            out.reshape(-1)[idx] = True
    return out


def _members(masks: np.ndarray) -> np.ndarray:
    """(rows, k) member rectangle of a block of masks, k its longest row: a
    shorter row repeats its last member, an empty row some other member."""
    counts = masks.sum(axis=1)
    last = counts.cumsum() - 1
    idx = (last - counts + 1)[:, None] + np.arange(counts.max(initial=0))
    return masks.nonzero()[1][np.minimum(idx, last[:, None]).clip(min=0)]


def _row_pairs(X: np.ndarray, Y: np.ndarray, op) -> np.ndarray:
    """Mask of {op(x, y) : x in X_i, y in Y_i} for every row i of two masks."""
    out = _pairs(_members(X), _members(Y), op, X.shape[1])
    out[~(X.any(axis=1) & Y.any(axis=1))] = False
    return out


def _image_masks(spec: QuadPolySpec, A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Mask of the image of a*x*y + R(x) + S(y) + T(z) on every row of a block.

    T(z) varies independently of (x, y), so each stage is deduplicated
    through a mask before the next product: the two-variable values of
    A_i x B_i, then their sums with T(C_i).  A row that covers (see _covers)
    is the whole ring, so only the other rows evaluate their sums.
    """
    ring = spec.ring
    two_var = _row_pairs(A, B, lambda x, y: _two_var(spec, x, y))
    rows, zs = C.nonzero()
    t_of_c = np.zeros(two_var.shape, dtype=bool)
    t_of_c[rows, _poly_table(ring, spec.T)[zs]] = True
    rest = ~_covers(ring, two_var.sum(axis=1), t_of_c.sum(axis=1))
    out = np.ones(two_var.shape, dtype=bool)
    out[rest] = _row_pairs(two_var[rest], t_of_c[rest], ring.add_arr)
    return out


def image_quad3_sizes(spec: QuadPolySpec, A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """|image_quad3(spec, A_i, B_i, C_i)| for every row i of (rows, order) masks.

    Rows run BLOCK_ELEMS // order at a time through _image_masks.
    """
    sizes = np.empty(len(A), dtype=np.int64)
    step = max(1, BLOCK_ELEMS // spec.ring.order)
    for lo in range(0, len(A), step):
        block = slice(lo, lo + step)
        sizes[block] = _image_masks(spec, A[block], B[block], C[block]).sum(axis=1)
    return sizes


def image_shifted_quad(ring: Ring, f: tuple[int, int, int], X: RSet, Y: RSet, Z: RSet) -> RSet:
    """Exact image {f(x - y) + z} for a one-variable quadratic f."""
    if ring != _same_ring(X, Y, Z):
        raise ValueError("sets live in a different ring than requested")
    if not (len(X) and len(Y) and len(Z)):
        raise ValueError("image needs nonempty X, Y, Z")
    ft = poly1_table(ring, f)
    return sumset(_pair_set(X, Y, lambda x, y: ft[ring.sub_arr(x, y)]), Z)
