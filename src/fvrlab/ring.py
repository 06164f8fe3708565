"""Finite valuation rings with exact canonical-index arithmetic.

A finite valuation ring here is a finite local principal ring: it has a
residue field of size q = p**s (p an odd prime) and a uniformizer z with
z**r = 0, so the ring has q**r elements and its ideals form the chain
(1) > (z) > (z**2) > ... > (z**r) = (0).  Two concrete families are
constructible:

* ``zpr``   -- the integers modulo p**r, uniformizer p (s = 1);
* ``fqxr``  -- polynomials F_q[x] modulo x**r, uniformizer x, where
  F_q = F_p[y]/(g) for the lexicographically smallest monic irreducible
  g of degree s (coefficients compared low degree first).

Every element is addressed by a canonical index in [0, q**r).  For
``zpr`` the index is the integer value itself.  For ``fqxr`` an element
sum_i c_i x**i has index sum_i idx(c_i) * q**i where a field coefficient
with base-p digits (d_0 .. d_{s-1}) has idx(c) = sum_j d_j * p**j.  In
both families the index is the plain base-p digit string of the element,
which makes valuations and ideal cosets uniform in q:

* valuation(a) = number of leading zero base-q digit groups of the index
  (r for zero), and the ideal (z**k) is exactly {t * q**k};
* the coset a + (z**k) is exactly {x : x % q**k == a % q**k}.

Unramified extensions of Z_p with s > 1 and r > 1 are a third family of
finite valuation rings that this module does not construct; ``fqxr``
already realizes every (q, r) shape, which is all the experiments need.

Each ring family has one arithmetic path.  ``zpr`` adds, negates and
multiplies indices modulo p**r.  ``fqxr`` has one additive representation,
spread digits (Ring.additive_spread): its additive group is (Z/p)**(r*s),
one base-p digit of the index per coordinate, and an index spread to a
wider base adds as a plain integer with no carry, then reads back by one
gather per chunk of digits.  add, neg and sub are each one such readback;
incidence counting adds its three terms the same way.  With r*s = 1 the
group is Z/p and ``fqxr`` adds as ``zpr`` does.  ``fqxr`` multiplies
coefficient by coefficient, each residue-field product gathered from the
field's q x q product table, whose entries are discrete-log gathers.  Up
to order TABLE_MAX_ORDER a product is one gather from an int16 Cayley
table built once per ring shape, filled in place by the kernel row block by
row block, and widened to int64 on the way out; above it the kernel runs on
every call.  Scalar ops on ``fqxr`` are the array ops on one element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

DEFAULT_MAX_ORDER = 10**6

# fqxr rings up to this order gather mul from an int16 Cayley table (1.06 MB
# at order 729); larger ones run the digit kernel.  The spread tables of the
# additive group cover a chunk of base-p digits with at most this many values,
# one digit at least (see Ring._spread_maps)
TABLE_MAX_ORDER = 729
# every table entry is an index below the order, so int16 holds it
assert TABLE_MAX_ORDER < 2**15

# terms a Ring.additive_spread sum may hold: u*x + v*y + z has three
SPREAD_TERMS = 3

# mul's tables (Cayley table, field logs, spread products) by Ring.key,
# read-only; see Ring.mul_arr
_TABLES: dict[tuple, dict[str, np.ndarray]] = {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f <= isqrt(n):
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# F_p[y] helpers for the fqxr residue field (dense low-first coefficient
# tuples, only used at construction time).


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...], p: int):
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quot = [0] * max(0, len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k] % p
        if c:
            q = (c * inv_lead) % p
            quot[k - dn] = q
            for j, d in enumerate(den):
                num[k - dn + j] = (num[k - dn + j] - q * d) % p
    while len(num) > 1 and num[-1] % p == 0:
        num.pop()
    return tuple(quot), tuple(c % p for c in num)


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], f: tuple[int, ...], p: int):
    prod = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            prod[i + j] += c * d
    return _poly_divmod(tuple(prod), f, p)[1]


def _poly_powmod(a: tuple[int, ...], e: int, f: tuple[int, ...], p: int):
    """a**e mod f, by square and multiply."""
    out = (1,)
    while e:
        if e & 1:
            out = _poly_mulmod(out, a, f, p)
        a, e = _poly_mulmod(a, a, f, p), e >> 1
    return out


def _poly_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Whether the monic f of degree s is irreducible over F_p (distinct-degree
    test): y**(p**k) - y is the product of the monic irreducibles of degree
    dividing k, so f is irreducible iff gcd(f, y**(p**k) - y) = 1 for every
    k <= s/2."""
    frob = (0, 1)  # y**(p**k) mod f
    for _ in range((len(f) - 1) // 2):
        frob = _poly_powmod(frob, p, f, p)
        diff = list(frob) + [0] * (2 - len(frob))
        diff[1] -= 1
        a, b = f, _poly_divmod(tuple(diff), f, p)[1]  # reduced mod p and trimmed
        while b != (0,):
            a, b = b, _poly_divmod(a, b, p)[1]
        if len(a) > 1:
            return False
    return True


def _find_field_modulus(p: int, s: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree s >= 2, low-first coefficient tuple.

    Candidates are ordered by the coefficient vector read from the constant
    term up to the y**(s-1) coefficient: y**s, y**s + y**(s-1), ...,
    y**s + y**(s-2), and so on.  The first p**(s-1) of them have constant
    term 0, so y divides them, and the scan starts past them at y**s + 1.
    """
    for code in range(p ** (s - 1), p**s):
        coeffs = [0] * s
        c = code
        for k in range(s - 1, -1, -1):
            coeffs[k] = c % p
            c //= p
        cand = tuple(coeffs) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coset:
    """The coset rep + (z**ideal_val) inside a ring, as canonical indices."""

    ring: "Ring"
    rep: int
    ideal_val: int

    def __post_init__(self):
        object.__setattr__(self, "rep", self.rep % self.ring.q**self.ideal_val)

    @property
    def size(self) -> int:
        return self.ring.q ** (self.ring.r - self.ideal_val)

    def members(self) -> list[int]:
        step = self.ring.q**self.ideal_val
        return [self.rep + t * step for t in range(self.size)]

    def contains(self, x: int) -> bool:
        return x % self.ring.q**self.ideal_val == self.rep

    def intersects(self, other: "Coset") -> bool:
        m = min(self.ideal_val, other.ideal_val)
        step = self.ring.q**m
        return self.rep % step == other.rep % step


class Ring:
    """One finite valuation ring; elements are canonical indices (ints).

    The ``*_arr`` operations work elementwise on numpy integer arrays
    (broadcasting) and return int64; the set algebra and counting layers
    use them.  Scalar operations take and return plain ints; on ``fqxr``
    they are the ``*_arr`` operations on one element.  An ``fqxr`` ring
    with r*s > 1 adds, negates and subtracts in spread digits, through the
    two tables its constructor composes (see additive_spread).  One of
    order <= TABLE_MAX_ORDER gathers mul from a Cayley table that equal
    rings share; a larger one runs the mul kernel on every call, so its
    scalar mul pays numpy's per-call overhead for each coefficient.
    Residue-field products are discrete-log gathers at every order.  The
    constructor refuses p, s and r past ``max_order`` before any primality
    test or power is computed.
    """

    def __init__(self, kind: str, p: int, s: int, r: int, max_order: int):
        if kind not in ("zpr", "fqxr"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if s < 1 or r < 1:
            raise ValueError("s and r must be >= 1")
        if kind == "zpr" and s != 1:
            raise ValueError("zpr rings have s = 1; use fqxr for s > 1")
        # the cap comes before trial division and before p**(s*r), so a huge
        # p, s or r is refused at once
        if p > max_order:
            raise ValueError(f"p = {p} exceeds the order cap {max_order}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("p must be odd (2 has to be a unit)")
        order = 1
        for _ in range(s * r):
            order *= p
            if order > max_order:
                raise ValueError(f"order {p}**{s * r} exceeds cap {max_order}")
        self.kind = kind
        self.p = p
        self.s = s
        self.r = r
        self.q = p**s
        self.order = order
        self.units_count = self.q**r - self.q ** (r - 1)
        self.field_modulus: tuple[int, ...] | None = None
        if kind == "fqxr" and s > 1:
            self.field_modulus = _find_field_modulus(p, s)
            # rows mapping y**t (t < 2s-1) to its canonical s-digit residue
            self._red = self._reduction_rows()
        self._ppow = [p**j for j in range(s)]
        self._inv_table: np.ndarray | None = None
        # the additive group is Z/order for zpr and for fqxr with r*s = 1,
        # else (Z/p)**(r*s), added in spread digits (see additive_spread)
        self._cyclic = kind == "zpr" or s * r == 1
        if not self._cyclic:
            self._spread, self._readback, self._top = self._spread_maps()

    # -- identity and description ------------------------------------------

    @property
    def key(self):
        return (self.kind, self.p, self.s, self.r)

    def spec_string(self) -> str:
        if self.kind == "zpr":
            return f"zpr:p={self.p},r={self.r}"
        return f"fqxr:p={self.p},s={self.s},r={self.r}"

    def __repr__(self):
        return f"Ring({self.spec_string()}, order={self.order})"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def _reduction_rows(self) -> np.ndarray:
        s, p = self.s, self.p
        rows = []
        for t in range(2 * s - 1):
            mono = (0,) * t + (1,)
            _, rem = _poly_divmod(mono, self.field_modulus, p)
            row = list(rem) + [0] * (s - len(rem))
            rows.append(row[:s])
        return np.array(rows, dtype=np.int64)

    # -- element structure ---------------------------------------------------

    def coeffs(self, a: int) -> tuple[tuple[int, ...], ...]:
        """r groups of s base-p digits, lowest power of the uniformizer first."""
        out = []
        for _ in range(self.r):
            a, c = divmod(a, self.q)
            digs = []
            for _ in range(self.s):
                c, d = divmod(c, self.p)
                digs.append(d)
            out.append(tuple(digs))
        return tuple(out)

    def encode(self, coeffs) -> int:
        a = 0
        for i, group in enumerate(coeffs):
            c = 0
            for j, d in enumerate(group):
                if not 0 <= d < self.p:
                    raise ValueError(f"digit {d} out of range for p={self.p}")
                c += d * self._ppow[j]
            a += c * self.q**i
        if not 0 <= a < self.order:
            raise ValueError("too many coefficients")
        return a

    def poly_str(self, a: int) -> str:
        if self.kind == "zpr":
            return str(a)

        def field_str(digs):
            terms = []
            for j, d in enumerate(digs):
                if d == 0:
                    continue
                if j == 0:
                    terms.append(str(d))
                else:
                    base = "y" if j == 1 else f"y^{j}"
                    terms.append(base if d == 1 else f"{d}{base}")
            return "+".join(terms) if terms else "0"

        parts = []
        for i, group in enumerate(self.coeffs(a)):
            cs = field_str(group)
            if cs == "0":
                continue
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if cs == "1":
                    parts.append(xs)
                elif cs.isdigit():
                    parts.append(f"{cs}{xs}")
                else:
                    parts.append(f"({cs}){xs}")
        return " + ".join(parts) if parts else "0"

    # -- scalar arithmetic ---------------------------------------------------

    def check_elem(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"index {a} out of range for order {self.order}")
        return a

    # fqxr add, neg and sub are add_arr, neg_arr and sub_arr without the
    # int64 widening, which costs a scalar more than its gathers do
    def add(self, a: int, b: int) -> int:
        if self._cyclic:
            return (a + b) % self.order
        return int(self._readback(self._spread(a) + self._spread(b)))

    def neg(self, a: int) -> int:
        if self._cyclic:
            return (-a) % self.order
        return int(self._readback(self._top - self._spread(a)))

    def sub(self, a: int, b: int) -> int:
        if self._cyclic:
            return (a - b) % self.order
        return int(self._readback(self._spread(a) - self._spread(b) + self._top))

    def mul(self, a: int, b: int) -> int:
        if self.kind == "zpr":
            return (a * b) % self.order
        return int(self.mul_arr(a, b))

    def pow(self, a: int, d: int) -> int:
        if d < 0:
            raise ValueError("negative exponent; use inv")
        return int(self.pow_arr(a, d))

    def valuation(self, a: int) -> int:
        if a == 0:
            return self.r
        v = 0
        while a % self.q == 0:
            a //= self.q
            v += 1
        return v

    def is_unit(self, a: int) -> bool:
        return a % self.q != 0 if a else False

    def unit_part(self, a: int) -> int:
        """u with a = u * z**valuation(a); returns 0 only for a = 0."""
        return self.shift_down(a, self.valuation(a))

    def shift_down(self, a: int, v: int) -> int:
        """Divide by z**v; requires valuation(a) >= v."""
        if a % self.q**v:
            raise ValueError("element not divisible by z**v")
        return a // self.q**v

    def uniformizer(self) -> int:
        """Index of z; 0 when r = 1 (see uniformizer_degenerate)."""
        return self.q if self.r > 1 else 0

    @property
    def uniformizer_degenerate(self) -> bool:
        """True when r = 1, where (z) = (0) and the uniformizer is 0."""
        return self.r == 1

    def ideal_size(self, k: int) -> int:
        if not 0 <= k <= self.r:
            raise ValueError("ideal exponent out of range")
        return self.q ** (self.r - k)

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ValueError(f"element {a} is not a unit")
        if self.kind == "zpr":
            res = pow(a, -1, self.order)
        else:
            res = self.pow(a, self.units_count - 1)
        assert self.mul(a, res) == 1
        return res

    def units(self) -> list[int]:
        return [a for a in range(self.order) if a % self.q != 0]

    def solve_linear(self, m: int, n: int) -> Coset | None:
        """All k with k*m = n, as a coset of an ideal, or None if unsolvable."""
        i = self.valuation(m)
        if self.valuation(n) < i:
            return None
        if i == self.r:  # m = 0 and n = 0: every k works
            return Coset(self, 0, 0)
        k0 = self.mul(self.shift_down(n, i), self.inv(self.shift_down(m, i)))
        return Coset(self, k0, self.r - i)

    # -- array arithmetic ----------------------------------------------------

    def _mod(self, t: np.ndarray) -> np.ndarray:
        """A zpr op's fresh result t, reduced in place: one temporary per op,
        and still a new array, which callers may change (see setalg._pairs)."""
        t %= self.order
        return t

    def add_arr(self, a, b) -> np.ndarray:
        if self._cyclic:
            return self._mod(np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64))
        return self._readback(self._spread(a) + self._spread(b)).astype(np.int64)

    def neg_arr(self, a) -> np.ndarray:
        if self._cyclic:
            return self._mod(-np.asarray(a, dtype=np.int64))
        return self._readback(self._top - self._spread(a)).astype(np.int64)

    def sub_arr(self, a, b) -> np.ndarray:
        if self._cyclic:
            return self._mod(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64))
        return self._readback(self._spread(a) - self._spread(b) + self._top).astype(np.int64)

    def mul_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.kind == "zpr":
            return self._mod(a * b)
        if self.order > TABLE_MAX_ORDER:
            return self._mul_digits(a, b)
        return self._mul_table()[a, b].astype(np.int64)

    def _mul_digits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b as polynomials in x over the residue field, cut at x**r.

        Coefficient k of the product sums the residue-field products
        a_i * b_(k-i).  Each product is one gather from the field's spread
        q x q product table (see _spread_tables), so the sum is a plain
        integer sum, and one gather per coefficient reads it back.  The
        field's own product (r = 1) is _field_mul.
        """
        if self.r == 1:
            return self._field_mul(a, b)
        q = self.q
        products, readback = self._spread_tables()
        ca = [(a // q**i) % q * q for i in range(self.r)]
        cb = [(b // q**i) % q for i in range(self.r)]
        out = 0
        for k in range(self.r):
            total = products[ca[0] + cb[k]]
            for i in range(1, k + 1):
                total = total + products[ca[i] + cb[k - i]]
            out = out + readback[total] * q**k
        return out

    def _field_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of residue-field indices in [0, q), by discrete log:
        exp[log[a] + log[b]], see _field_logs."""
        log, exp = self._field_logs()
        return exp[log[a] + log[b]]

    def _field_conv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of residue-field indices in [0, q): the s x s convolution
        of their base-p digits, reduced mod the field modulus."""
        s, p = self.s, self.p
        da = [(a // p**j) % p for j in range(s)]
        db = [(b // p**j) % p for j in range(s)]
        conv = [
            sum(da[u] * db[t - u] for u in range(max(0, t - s + 1), min(t, s - 1) + 1))
            for t in range(2 * s - 1)
        ]
        if s == 1:
            return conv[0] % p
        red = self._red.tolist()
        return sum(
            (sum(c * red[t][j] for t, c in enumerate(conv) if red[t][j]) % p) * p**j
            for j in range(s)
        )

    def _field_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete log and antilog tables of the residue field.

        g is the least field index whose q - 1 powers are distinct (none of
        g**1 .. g**(q-2) is 1), so it generates the cyclic group F_q^*.
        A candidate's powers are built by doubling, g**(k..2k-1) =
        g**(0..k-1) * g**k, each step one _field_conv call, until a 1 shows
        up or q - 1 powers exist.  log[g**i] = i and log[0] = 2q - 3; exp[i]
        = g**(i mod (q - 1)) below 2q - 3 and 0 from there on, so
        exp[log[a] + log[b]] = a * b on every pair, zero included.  Built
        once per ring shape, in O(q) space.
        """
        tables = _TABLES.setdefault(self.key, {})
        if "logs" not in tables:
            q = self.q
            for g in range(2, q):
                powers = np.ones(1, dtype=np.int64)
                while len(powers) < q - 1 and not (powers[1:] == 1).any():
                    step = self._field_conv(powers[-1], g)
                    powers = np.concatenate([powers, self._field_conv(powers, step)])
                if (powers[1 : q - 1] != 1).all():
                    powers = powers[: q - 1]
                    break
            else:
                raise AssertionError("F_q^* has no generator")  # unreachable: it is cyclic
            log = np.empty(q, dtype=np.int64)
            log[powers] = np.arange(q - 1)
            log[0] = 2 * q - 3
            exp = np.concatenate([powers, powers[: q - 2], np.zeros(2 * q - 2, dtype=np.int64)])
            tables["logs"] = (log, exp)
            for tab in tables["logs"]:
                tab.flags.writeable = False
        return tables["logs"]

    def _spread_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The residue field's products, spread for carry-free sums.

        products[u * q + v] is the product of field indices u and v spread
        to B = r * (p - 1) + 1 (see _spread_pair), so a sum of r such entries
        adds with no carry; readback reads such a sum back to a field index.
        Built once per ring shape, from at most q * q <= 10**6 products (r > 1
        bounds q).
        """
        tables = _TABLES.setdefault(self.key, {})
        if "spread" not in tables:
            u = np.arange(self.q, dtype=np.int64)
            prod = self._field_mul(u[:, None], u).reshape(-1)
            spread, readback = _spread_pair(self.p, self.r * (self.p - 1) + 1, self.s)
            tables["spread"] = (spread[prod], readback)
            for tab in tables["spread"]:
                tab.flags.writeable = False
        return tables["spread"]

    def additive_spread(self):
        """(spread, readback): maps on index arrays with
        readback(spread(a_1) + ... + spread(a_k)) == a_1 + ... + a_k
        for every k <= SPREAD_TERMS, the left-hand sum a plain integer sum.

        A cyclic additive group (``zpr``, or ``fqxr`` with r*s = 1) adds as
        integers: spread is the identity and readback one %.  Otherwise see
        _spread_maps.
        """
        if self._cyclic:
            n = self.order
            return (lambda a: a), (lambda t: t % n)
        return self._spread, self._readback

    def _spread_maps(self):
        """(spread, readback, top): additive_spread of an ``fqxr`` ring with
        r*s > 1, and the spread value with every base-p digit equal to p.

        Its additive group is (Z/p)**(r*s), one base-p digit per coordinate.
        spread moves digit j to B**j, B = SPREAD_TERMS * (p - 1) + 1, so no
        base-B digit of a sum of SPREAD_TERMS spread values carries, and
        readback takes each base-B digit mod p (see _spread_pair).  Both
        gather a chunk of c digits at a time, c the most digits with
        p**c <= TABLE_MAX_ORDER (one at least), from an int32 spread table of
        p**c entries and a readback table of B**c, int16 while p**c fits it
        (7**6 = 117,649 entries for p = 3).  Every ring up to
        TABLE_MAX_ORDER is one chunk, and no table exceeds
        TABLE_MAX_ORDER**2 entries, as B < p**2.

        top - spread(b) has digits p - b_j in [1, p], which read back as -b,
        and spread(a) + top - spread(b) digits in [1, 2p - 1], below B, which
        read back as a - b: so neg and sub are one readback each.
        """
        p, digits = self.p, self.r * self.s
        base = SPREAD_TERMS * (p - 1) + 1
        width = 1
        while width < digits and p ** (width + 1) <= TABLE_MAX_ORDER:
            width += 1
        spread, readback = _spread_pair(p, base, width)
        spread = spread.astype(np.int32)
        readback = readback.astype(np.int16 if p**width <= 2**15 else np.int64)
        spread.flags.writeable = readback.flags.writeable = False
        top = p * sum(base**j for j in range(digits))
        chunks = -(-digits // width)
        if chunks == 1:
            return spread.take, readback.take, top
        # chunk k of an index is its base-p**c digit k, and of a spread sum
        # its base-B**c digit k; int64 holds a whole sum
        lo, hi = p**width, base**width
        return (
            lambda a: sum(
                spread.take(a // lo**k % lo).astype(np.int64) * hi**k for k in range(chunks)
            ),
            lambda t: sum(
                readback.take(t // hi**k % hi).astype(np.int64) * lo**k for k in range(chunks)
            ),
            top,
        )

    def _mul_table(self) -> np.ndarray:
        """The int16 table of _mul_digits on every index pair, made on first
        use and shared by every ring with the same key.  It is written in
        place row block by row block, which bounds the kernel's temporaries."""
        tables = _TABLES.setdefault(self.key, {})
        if "mul" not in tables:
            x = np.arange(self.order, dtype=np.int64)
            step = max(1, (1 << 15) // self.order)
            tab = np.empty((self.order, self.order), dtype=np.int16)
            for lo in range(0, self.order, step):
                tab[lo : lo + step] = self._mul_digits(x[lo : lo + step, None], x)
            tab.flags.writeable = False
            tables["mul"] = tab
        return tables["mul"]

    def val_arr(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        v = np.zeros(a.shape, dtype=np.int64)
        for k in range(1, self.r + 1):
            v += (a % self.q**k == 0).astype(np.int64)
        return v

    def pow_arr(self, a, d: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if d < 0:
            raise ValueError("negative exponent; use inv_table")
        result = np.ones(a.shape, dtype=np.int64)
        base = a
        while d:
            if d & 1:
                result = self.mul_arr(result, base)
            base = self.mul_arr(base, base)
            d >>= 1
        return result

    @property
    def inv_table(self) -> np.ndarray:
        """inv of every unit by index; 0 at non-unit slots."""
        if self._inv_table is None:
            idx = np.arange(self.order, dtype=np.int64)
            tab = self.pow_arr(idx, self.units_count - 1)
            tab[self.val_arr(idx) > 0] = 0
            self._inv_table = tab
        return self._inv_table

    def table1(self, c2: int, c1: int, c0: int) -> np.ndarray:
        """Values of c2*x**2 + c1*x + c0 at every index (memoized by callers)."""
        x = np.arange(self.order, dtype=np.int64)
        return self.add_arr(
            self.add_arr(self.mul_arr(c2, self.mul_arr(x, x)), self.mul_arr(c1, x)),
            np.int64(c0),
        )


def _spread_pair(p: int, base: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(spread, readback) on indices of ``width`` base-p digits, as int64.

    spread[v] is v with base-p digit j moved to base**j: a sum of k such
    values, k * (p - 1) < base, keeps every base-``base`` digit below base,
    so the sum adds digit by digit with no carry.  readback[t], t <
    base**width, is the index whose base-p digit j is base-``base`` digit j
    of t mod p.  Both are composed a digit at a time by broadcasting: the
    table on j + 1 digits is the new digit's values on the leading axis plus
    the table on j digits on the trailing one.
    """
    spread = readback = np.zeros(1, dtype=np.int64)
    for j in range(width):
        spread = (np.arange(p)[:, None] * base**j + spread).ravel()
        readback = (np.arange(base)[:, None] % p * p**j + readback).ravel()
    return spread, readback


def make_ring(
    kind: str, p: int, s: int = 1, r: int = 1, max_order: int = DEFAULT_MAX_ORDER
) -> Ring:
    """Construct a finite valuation ring of the given kind and shape."""
    return Ring(kind, p, s, r, max_order)


def parse_index(token: str, what: str = "index") -> int:
    """One integer token: ASCII decimal digits, maybe a leading '-',
    whitespace around allowed.  Index tokens of literals, ring-spec fields
    and every integer the config, the CLI and family files read go through
    it; what names the token in the error.

    The value is int()'s: a negative value is left for the range check to
    refuse, while '-0' reads as 0 and leading zeros are dropped ('007' is
    7).  int() alone would also read '1_0', '+1' and non-ASCII digits.
    """
    text = token.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed {what} {token!r}")
    return int(text)


def parse_ring_spec(text: str, max_order: int = DEFAULT_MAX_ORDER) -> Ring:
    """Parse 'zpr:p=<int>,r=<int>' or 'fqxr:p=<int>,s=<int>,r=<int>'.

    A field's value is a parse_index token without the whitespace around it.
    """
    kind, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"malformed ring spec {text!r}: missing ':'")
    fields = {}
    for part in rest.split(","):
        key, eq, val = part.partition("=")
        try:  # "" stands for a field without '=' or with whitespace
            value = parse_index(val if eq and val == val.strip() else "")
        except ValueError:
            raise ValueError(f"malformed ring spec field {part!r}") from None
        if key in fields:
            raise ValueError(f"duplicate ring spec field {key!r}")
        fields[key] = value
    expected = {"zpr": {"p", "r"}, "fqxr": {"p", "s", "r"}}.get(kind)
    if expected is None:
        raise ValueError(f"unknown ring kind {kind!r}")
    if set(fields) != expected:
        raise ValueError(
            f"ring spec {text!r} must define exactly {sorted(expected)}"
        )
    return make_ring(kind, fields["p"], fields.get("s", 1), fields["r"], max_order)
