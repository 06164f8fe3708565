"""Inequality checks on set-algebra outputs.

Each function evaluates one claimed inequality on concrete sets and returns
the :class:`CheckReport` that :meth:`CheckReport.conclude` builds from its
rows and its cleared comparison; the row and verdict rules live there.
Fractional exponents are removed by raising both sides to the least common
power, so every comparison stays in integers.
"""

from __future__ import annotations

import numpy as np

from .report import (
    BoundColumn,
    BoundRow,
    CheckReport,
    ReportBlock,
    gates_hold_columns,
    literals_or_digests,
    set_literal_or_digest,
)
from .setalg import (
    QuadPolySpec,
    RSet,
    _same_ring,
    _scatter,
    diffset,
    dilate,
    energy,
    image_quad3_sizes,
    poly1_table,
    power_set,
    prodset,
    sumset,
)


def _require_nonempty(*sets: RSet) -> None:
    for A in sets:
        if len(A) == 0:
            raise ValueError("checks need nonempty sets")


def iroot3_ceil(n: int) -> int:
    """Smallest integer c >= 0 with c**3 >= n."""
    if n <= 0:
        return 0
    c = round(n ** (1.0 / 3.0))
    while c**3 < n:
        c += 1
    while c >= 1 and (c - 1) ** 3 >= n:
        c -= 1
    return c


def expander_rule(q: int, r: int, deg_T: int, na, nb, nc, image=None):
    """T1_3 on columns of sizes: (gate columns, lhs, rhs, holds) for a report.

    A degree-two T requires |C| >= 2 * q**(r-1) (gate_c_size).  Cleared
    claim: 8 * q**(2r-1) * |image| >= min(q**(3r-1), |A||B||C|).  Row i of
    every column is the rule on (na[i], nb[i], nc[i], image[i]).  With image
    None the rule gives the gate columns alone, so a caller sizes the image
    only of rows whose gates hold; an unsized row's image entry is ignored.
    """
    gates = []
    if deg_T == 2:
        need = 2 * q ** (r - 1)
        gates.append(BoundColumn("gate_c_size", [c >= need for c in nc], nc, [need] * len(nc)))
    if image is None:
        return gates, None, None, None
    scale, cap = 8 * q ** (2 * r - 1), q ** (3 * r - 1)
    lhs = [scale * m for m in image]
    rhs = [min(cap, a * b * c) for a, b, c in zip(na, nb, nc)]
    return gates, lhs, rhs, [x >= y for x, y in zip(lhs, rhs)]


def check_expander(
    spec: QuadPolySpec, A: RSet, B: RSet, C: RSet, seed: int | None = None
) -> CheckReport:
    """Image lower bound for a*x*y + R(x) + S(y) + T(z), constant 1/8; see expander_rule.

    The one-row block of expander_reports.
    """
    _require_nonempty(A, B, C)
    if spec.ring != _same_ring(A, B, C):
        raise ValueError("polynomial and sets live in different rings")
    return expander_reports(spec, A.mask[None], B.mask[None], C.mask[None], [seed]).report(0)


def expander_reports(spec: QuadPolySpec, A, B, C, seeds) -> ReportBlock:
    """T1_3 on every row of (rows, order) bool masks, with one image kernel.

    Row i of the block is the report of the sets A_i, B_i, C_i with seed
    seeds[i]; every row must be nonempty.  Only rows whose gates hold are
    sized.
    """
    ring, n = spec.ring, len(seeds)
    stack = np.concatenate((A, B, C))  # the three slots, one after another

    def thirds(column):
        return column[:n], column[n : 2 * n], column[2 * n :]

    sizes = thirds(stack.sum(axis=1).tolist())
    gates, *_ = expander_rule(ring.q, ring.r, spec.deg_T, *sizes)
    gated = np.array(gates_hold_columns(gates, n), dtype=bool)
    images = np.zeros(n, dtype=np.int64)
    images[gated] = image_quad3_sizes(spec, A[gated], B[gated], C[gated])
    images = images.tolist()
    gates, lhs, rhs, holds = expander_rule(ring.q, ring.r, spec.deg_T, *sizes, images)
    sets = {"f": [spec.literal] * n}
    sets.update(zip("ABC", thirds(literals_or_digests(stack))))
    sets["image_size"] = [str(m) if ok else None for m, ok in zip(images, gated.tolist())]
    return ReportBlock.conclude("T1_3", ring, gates, sets, seeds, lhs, rhs, holds)


def check_sum_square(A: RSet, seed: int | None = None) -> CheckReport:
    """Squares-plus-sumset lower bound, constant 1/2.

    Cleared form: 2 * |A^2+A^2| * |A+A|**2 >= |A|**2 * q**r, under the gates
    |A| >= 2 * q**(r-1) and |A+A| * |A|**2 >= q**(3r-1).  The implied
    max-form 2 * max(|A+A|, |A^2+A^2|)**3 >= |A|**2 * q**r rides along.
    """
    _require_nonempty(A)
    ring = A.ring
    q, r = ring.q, ring.r
    na = len(A)
    AA = sumset(A, A)
    size = BoundRow("gate_size", na >= 2 * q ** (r - 1), na, 2 * q ** (r - 1))
    mass = BoundRow(
        "gate_mass", len(AA) * na**2 >= q ** (3 * r - 1), len(AA) * na**2, q ** (3 * r - 1)
    )
    rows = [size, mass]
    sets = {"A": set_literal_or_digest(A), "sumset_size": str(len(AA))}
    if not (size.ok and mass.ok):
        return CheckReport.conclude("T1_5", ring, rows, sets, seed)
    sq = power_set(A, 2)
    SS = sumset(sq, sq)
    sets["square_sum_size"] = str(len(SS))
    lhs = 2 * len(SS) * len(AA) ** 2
    rhs = na**2 * q**r
    m = max(len(AA), len(SS))
    rows.append(BoundRow("form_max_cubed", 2 * m**3 >= rhs, 2 * m**3, rhs))
    return CheckReport.conclude("T1_5", ring, rows, sets, seed, lhs, rhs, holds=lhs >= rhs)


def check_cube_sum(A: RSet, seed: int | None = None) -> CheckReport:
    """Cubes-plus-sumset growth with an unspecified constant.

    Records max(|A+A|, |A^3+A^3|)**10 / (q**r * |A|**9) exactly, under the
    gate |A+A|**4 >= q**(3r-1) * |A|.
    """
    _require_nonempty(A)
    ring = A.ring
    q, r = ring.q, ring.r
    na = len(A)
    AA = sumset(A, A)
    gate = BoundRow(
        "gate_mass", len(AA) ** 4 >= q ** (3 * r - 1) * na, len(AA) ** 4, q ** (3 * r - 1) * na
    )
    sets = {"A": set_literal_or_digest(A), "sumset_size": str(len(AA))}
    if not gate.ok:
        return CheckReport.conclude("T1_6", ring, [gate], sets, seed)
    cb = power_set(A, 3)
    CC = sumset(cb, cb)
    sets["cube_sum_size"] = str(len(CC))
    lhs = max(len(AA), len(CC)) ** 10
    rhs = q**r * na**9
    return CheckReport.conclude("T1_6", ring, [gate], sets, seed, lhs, rhs)


def check_f_of_A_plus_A(f, A: RSet, seed: int | None = None) -> CheckReport:
    """Shifted-image lower bound for a quadratic f, constant 1/2 after cubing.

    f is the coefficient triple (c2, c1, c0) with c2 != 0.  Cleared form:
    2 * |f(A)+A|**3 >= |A|**2 * q**r under |f(A)+A| * |A|**2 >= q**(3r-1).
    """
    _require_nonempty(A)
    ring = A.ring
    c2, c1, c0 = (int(c) for c in f)
    for c in (c2, c1, c0):
        ring.check_elem(c)
    if c2 == 0:
        raise ValueError("f must be quadratic (nonzero leading coefficient)")
    q, r = ring.q, ring.r
    na = len(A)
    fA = _scatter(ring, poly1_table(ring, (c2, c1, c0))[A.members])
    S = sumset(fA, A)
    gate = BoundRow(
        "gate_mass", len(S) * na**2 >= q ** (3 * r - 1), len(S) * na**2, q ** (3 * r - 1)
    )
    sets = {
        "f": f"{c2},{c1},{c0}",
        "A": set_literal_or_digest(A),
        "shifted_size": str(len(S)),
    }
    if not gate.ok:
        return CheckReport.conclude("T1_7", ring, [gate], sets, seed)
    lhs = 2 * len(S) ** 3
    rhs = na**2 * q**r
    return CheckReport.conclude("T1_7", ring, [gate], sets, seed, lhs, rhs, holds=lhs >= rhs)


def check_prod_diff(A: RSet, seed: int | None = None) -> CheckReport:
    """Difference-or-product-sum lower bound, constant 1/2 after cubing.

    Cleared form: 2 * max(|A-A|, |AA+AA|)**3 >= |A|**2 * q**r under the
    size gate |A|**3 >= q**(3r-1), which is |A| >= q**(r-1/3) cubed; the
    integer-root reading of the same gate is recorded alongside.
    """
    _require_nonempty(A)
    ring = A.ring
    q, r = ring.q, ring.r
    na = len(A)
    bound = q ** (3 * r - 1)
    gate = BoundRow("gate_size_cubed", na**3 >= bound, na**3, bound)
    root = iroot3_ceil(bound)
    rows = [gate, BoundRow("form_size_root", na >= root, na, root)]
    sets = {"A": set_literal_or_digest(A)}
    if not gate.ok:
        return CheckReport.conclude("T1_8", ring, rows, sets, seed)
    D = diffset(A, A)
    P = prodset(A, A)
    PP = sumset(P, P)
    sets["diff_size"] = str(len(D))
    sets["prod_sum_size"] = str(len(PP))
    m = max(len(D), len(PP))
    lhs = 2 * m**3
    rhs = na**2 * q**r
    return CheckReport.conclude("T1_8", ring, rows, sets, seed, lhs, rhs, holds=lhs >= rhs)


def check_power_energy(A: RSet, d: int, seed: int | None = None) -> CheckReport:
    """d-th power sumset against the product set, unspecified constant.

    Records |A^d+A^d| * |AA|**2 / (q**r * |A|**2) exactly for unit-only A
    under the gate |AA| * |A|**2 >= q**(3r-1).  The max-form reading and
    the d-power energy the derivation routes through ride along.
    """
    if d < 1:
        raise ValueError("power must be a positive integer")
    _require_nonempty(A)
    ring = A.ring
    q, r = ring.q, ring.r
    na = len(A)
    unit_members = sum(1 for a in A.indices() if ring.is_unit(a))
    rows = [BoundRow("gate_units", unit_members == na, unit_members, na)]
    sets = {"A": set_literal_or_digest(A), "d": str(d)}
    if not rows[-1].ok:
        return CheckReport.conclude("T1_9", ring, rows, sets, seed)
    P = prodset(A, A)
    rows.append(
        BoundRow(
            "gate_mass", len(P) * na**2 >= q ** (3 * r - 1), len(P) * na**2, q ** (3 * r - 1)
        )
    )
    sets["prod_size"] = str(len(P))
    if not rows[-1].ok:
        return CheckReport.conclude("T1_9", ring, rows, sets, seed)
    pd = power_set(A, d)
    S = sumset(pd, pd)
    e = energy(A, d)
    sets["power_sum_size"] = str(len(S))
    sets["energy"] = str(e)
    lhs = len(S) * len(P) ** 2
    rhs = q**r * na**2
    m = max(len(S), len(P))
    rows.append(BoundRow("form_max_cubed", m**3 >= rhs, m**3, rhs))
    # ordered-quadruple energy never drops below |A|**4 / q**r
    rows.append(BoundRow("form_energy_floor", q**r * e >= na**4, q**r * e, na**4))
    return CheckReport.conclude("T1_9", ring, rows, sets, seed, lhs, rhs)


def check_plunnecke_corollary(A: RSet, seed: int | None = None) -> CheckReport:
    """Sumset-growth corollary: |2*A - A - A| * |A|**2 <= |A+A|**3.

    2*A means the dilate {2a}, and since 2 is a unit |2*A - A - A| equals
    |A - (A+A)/2| exactly (recorded as an identity row).  The containment
    2*A - A - A inside A+A-A-A and the upper link |A+A-A-A| * |A|**2 <=
    |A+A|**3 are recorded as the derivation chain; the verdict requires
    every row.
    """
    _require_nonempty(A)
    ring = A.ring
    na = len(A)
    AA = sumset(A, A)
    lhs_set = diffset(diffset(dilate(A, 2), A), A)
    half = ring.inv(ring.add(1, 1))
    shifted = diffset(A, dilate(AA, half))
    chain = diffset(AA, AA)
    rows = [
        BoundRow("form_dilation_identity", len(shifted) == len(lhs_set), len(shifted), len(lhs_set)),
        BoundRow("form_chain_containment", len(lhs_set) <= len(chain), len(lhs_set), len(chain)),
        BoundRow(
            "form_chain_upper", len(chain) * na**2 <= len(AA) ** 3, len(chain) * na**2, len(AA) ** 3
        ),
    ]
    lhs = len(lhs_set) * na**2
    rhs = len(AA) ** 3
    sets = {
        "A": set_literal_or_digest(A),
        "sumset_size": str(len(AA)),
        "dilated_diff_size": str(len(lhs_set)),
        "chain_size": str(len(chain)),
    }
    holds = lhs <= rhs and all(h.ok for h in rows)
    return CheckReport.conclude("PLUN13", ring, rows, sets, seed, lhs, rhs, holds=holds)
