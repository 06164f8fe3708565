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
multiplies indices modulo p**r.  ``fqxr`` adds and negates base-p digit
arrays, and multiplies coefficient by coefficient, each residue-field
product gathered from the field's q x q product table, whose entries are
discrete-log gathers.  Up to order TABLE_MAX_ORDER every add/neg/mul is
one gather from an int16 Cayley table built once per ring shape, widened to
int64 on the way out: the mul table filled in place by the kernel, row
block by row block, the add and neg tables from their p (x p) digit table,
since the additive group is (Z/p)**(r*s) digit by digit.  Above it the
kernels run on every call.  Scalar ops on ``fqxr`` are the array ops on
0-d input.  A sum of a few terms can also be taken as a plain integer sum
of spread indices and read back once (Ring.additive_spread); incidence
counting adds its three terms that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

DEFAULT_MAX_ORDER = 10**6

# fqxr rings up to this order gather add/neg/mul from int16 Cayley tables
# (the add and mul tables at order 729 take 1.06 MB each); larger ones run
# the digit kernels
TABLE_MAX_ORDER = 729
# every table entry is an index below the order, so int16 holds it
assert TABLE_MAX_ORDER < 2**15

# terms a Ring.additive_spread sum may hold: u*x + v*y + z has three
SPREAD_TERMS = 3

# Cayley tables by Ring.key, read-only; see Ring._fqxr_op
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
    they are the ``*_arr`` operations on 0-d input.  An ``fqxr`` ring of
    order <= TABLE_MAX_ORDER gathers add/neg/mul from Cayley tables that
    equal rings share (add and neg composed digit by digit from the digit
    kernels' p-element tables, mul filled by the kernel); a larger one runs
    the digit kernels on every call, so its scalar ops pay numpy's per-call
    overhead for each digit.  Residue-field products are discrete-log
    gathers at every order.  The constructor refuses p, s and r past
    ``max_order`` before any primality test or power is computed.
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

    def add(self, a: int, b: int) -> int:
        if self.kind == "zpr":
            return (a + b) % self.order
        return int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        if self.kind == "zpr":
            return (-a) % self.order
        return int(self.neg_arr(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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

    def _digits_arr(self, a: np.ndarray) -> np.ndarray:
        """Base-p digits of index arrays, shape (..., r*s), lowest first."""
        a = np.asarray(a, dtype=np.int64)
        out = np.empty(a.shape + (self.r * self.s,), dtype=np.int64)
        for k in range(self.r * self.s):
            out[..., k] = a % self.p
            a = a // self.p
        return out

    def _encode_arr(self, digits: np.ndarray) -> np.ndarray:
        pows = self.p ** np.arange(self.r * self.s, dtype=np.int64)
        return digits @ pows

    def _mod(self, t: np.ndarray) -> np.ndarray:
        """A zpr op's fresh result t, reduced in place: one temporary per op,
        and still a new array, which callers may change (see setalg._pairs)."""
        t %= self.order
        return t

    def add_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.kind == "zpr":
            return self._mod(a + b)
        return self._fqxr_op(self._add_digits, self._digitwise_table, a, b)

    def neg_arr(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.kind == "zpr":
            return self._mod(-a)
        return self._fqxr_op(self._neg_digits, self._digitwise_table, a)

    def sub_arr(self, a, b) -> np.ndarray:
        if self.kind == "zpr":
            return self._mod(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64))
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.kind == "zpr":
            return self._mod(a * b)
        return self._fqxr_op(self._mul_digits, self._row_block_table, a, b)

    def _add_digits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        da, db = np.broadcast_arrays(self._digits_arr(a), self._digits_arr(b))
        return self._encode_arr((da + db) % self.p)

    def _neg_digits(self, a: np.ndarray) -> np.ndarray:
        return self._encode_arr((-self._digits_arr(a)) % self.p)

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

        products[u * q + v] is the product of field indices u and v with its
        base-p digit j moved to B**j, for B = r * (p - 1) + 1; a sum of r such
        entries keeps every base-B digit below B.  readback[t] is the field
        index whose digit j is digit j of t mod p (see _spread_digits).  Built
        once per ring shape, from at most q * q <= 10**6 products (r > 1
        bounds q).
        """
        tables = _TABLES.setdefault(self.key, {})
        if "spread" not in tables:
            p, s, q = self.p, self.s, self.q
            base = self.r * (p - 1) + 1
            u = np.arange(q, dtype=np.int64)
            prod = self._field_mul(u[:, None], u).reshape(-1)
            tables["spread"] = (
                _spread_digits(prod, p, base, s),
                _readback_digits(np.arange(base**s, dtype=np.int64), p, base, s),
            )
            for tab in tables["spread"]:
                tab.flags.writeable = False
        return tables["spread"]

    def additive_spread(self):
        """(spread, readback): maps on index arrays with
        readback(spread(a_1) + ... + spread(a_k)) == a_1 + ... + a_k
        for every k <= SPREAD_TERMS, the left-hand sum a plain integer sum.

        ``zpr`` indices add as integers: spread is the identity and readback
        one %.  ``fqxr`` adds in (Z/p)**(r*s), one base-p digit per
        coordinate: spread moves digit j to B**j, B = SPREAD_TERMS * (p - 1)
        + 1, so no base-B digit of such a sum carries, and readback takes each
        base-B digit mod p (see _spread_digits).  Up to TABLE_MAX_ORDER both
        are gathers from tables built once per ring shape: spread as int32,
        readback as int16 on B**(r*s) sums (7**6 = 117,649 entries at order
        729).  Above it they run the digit arithmetic, as _fqxr_op does, and
        no B**(r*s) table is built.
        """
        if self.kind == "zpr":
            n = self.order
            return (lambda a: a), (lambda t: t % n)
        p, digits = self.p, self.r * self.s
        base = SPREAD_TERMS * (p - 1) + 1
        if self.order > TABLE_MAX_ORDER:
            return (
                lambda a: _spread_digits(a, p, base, digits),
                lambda t: _readback_digits(t, p, base, digits),
            )
        tables = _TABLES.setdefault(self.key, {})
        if "additive_spread" not in tables:
            # a sum of SPREAD_TERMS spread values stays below base**digits,
            # the readback's length, so int32 holds it
            tables["additive_spread"] = (
                _spread_digits(np.arange(self.order), p, base, digits).astype(np.int32),
                _readback_digits(np.arange(base**digits), p, base, digits).astype(np.int16),
            )
            for tab in tables["additive_spread"]:
                tab.flags.writeable = False
        spread, readback = tables["additive_spread"]
        return spread.take, readback.take

    def _fqxr_op(self, kernel, build, *args: np.ndarray) -> np.ndarray:
        """kernel(*args), as one gather from its table up to TABLE_MAX_ORDER.

        The table holds the kernel's value at every index (pair) as int16; it
        is build(kernel, len(args)), made on first use and shared by every
        ring with the same key.  The gather is widened to int64, the dtype
        every ``*_arr`` returns.
        """
        if self.order > TABLE_MAX_ORDER:
            return kernel(*args)
        tables = _TABLES.setdefault(self.key, {})
        name = kernel.__name__
        if name not in tables:
            tab = build(kernel, len(args))
            tab.flags.writeable = False
            tables[name] = tab
        return tables[name][args].astype(np.int64)

    def _row_block_table(self, kernel, arity: int) -> np.ndarray:
        """The table of a binary kernel (mul) on every index pair, written in
        place row block by row block, which bounds the kernel's temporaries."""
        x = np.arange(self.order, dtype=np.int64)
        step = max(1, (1 << 15) // self.order)
        tab = np.empty((self.order, self.order), dtype=np.int16)
        for lo in range(0, self.order, step):
            tab[lo : lo + step] = kernel(x[lo : lo + step, None], x)
        return tab

    def _digitwise_table(self, kernel, arity: int) -> np.ndarray:
        """The table of a digit-by-digit kernel (add or neg) on every index.

        The additive group is (Z/p)**(r*s), base-p digit k of the index being
        coordinate k, so the table on k + 1 digits is the kernel's table on
        one digit times p**k plus the table on k digits: each axis of length
        p * p**k splits into (new digit, lower digits) by broadcasting.
        """
        p = self.p
        digit = kernel(*np.ix_(*[np.arange(p, dtype=np.int64)] * arity)).astype(np.int16)
        tab = np.zeros((1,) * arity, dtype=np.int16)
        for k in range(self.r * self.s):
            n = p**k
            tab = digit.reshape((p, 1) * arity) * n + tab.reshape((1, n) * arity)
            tab = tab.reshape((p * n,) * arity)
        return tab

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


def _spread_digits(a: np.ndarray, p: int, base: int, digits: int) -> np.ndarray:
    """Indices a with base-p digit j moved to base**j: a sum of k such values,
    k * (p - 1) < base, keeps every base-``base`` digit below base, so the
    sum adds digit by digit with no carry."""
    return sum((a // p**j % p) * base**j for j in range(digits))


def _readback_digits(t: np.ndarray, p: int, base: int, digits: int) -> np.ndarray:
    """The index whose base-p digit j is base-``base`` digit j of t mod p."""
    return sum((t // base**j % base % p) * p**j for j in range(digits))


def make_ring(
    kind: str, p: int, s: int = 1, r: int = 1, max_order: int = DEFAULT_MAX_ORDER
) -> Ring:
    """Construct a finite valuation ring of the given kind and shape."""
    return Ring(kind, p, s, r, max_order)


def parse_ring_spec(text: str, max_order: int = DEFAULT_MAX_ORDER) -> Ring:
    """Parse 'zpr:p=<int>,r=<int>' or 'fqxr:p=<int>,s=<int>,r=<int>'."""
    kind, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"malformed ring spec {text!r}: missing ':'")
    fields = {}
    for part in rest.split(","):
        key, eq, val = part.partition("=")
        if not eq or not val.lstrip("-").isdigit():
            raise ValueError(f"malformed ring spec field {part!r}")
        if key in fields:
            raise ValueError(f"duplicate ring spec field {key!r}")
        fields[key] = int(val)
    expected = {"zpr": {"p", "r"}, "fqxr": {"p", "s", "r"}}.get(kind)
    if expected is None:
        raise ValueError(f"unknown ring kind {kind!r}")
    if set(fields) != expected:
        raise ValueError(
            f"ring spec {text!r} must define exactly {sorted(expected)}"
        )
    return make_ring(kind, fields["p"], fields.get("s", 1), fields["r"], max_order)
