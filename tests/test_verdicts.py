"""Every verdict against an independent oracle of the claimed inequalities.

Small sweeps of each theorem id run through the library; for every report
the oracle in ``oracles.py`` re-decides the hypotheses and the claim, and
recomputes the exact ratio, from the recorded sizes, in the uncleared form
each check's docstring states, with sympy arithmetic.  The sizes themselves are checked against
brute force elsewhere; here the subject is the cleared comparison and the
verdict built from it.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from sympy import Rational, integer_nthroot

import oracles
from fvrlab.checks import iroot3_ceil
from fvrlab.experiments import ExperimentConfig, parse_mode, run_experiment
from fvrlab.incidence import WeightedFamily, weighted_bound_report
from fvrlab.ring import parse_ring_spec

RINGS = ("zpr:p=3,r=2", "fqxr:p=3,s=1,r=2")
LINEAR_T = "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
QUADRATIC_T = "a=1;R=0,1,0;S=0,0,0;T=1,0,0"

# (theorem, mode, extra config fields); every one runs on both RINGS
SWEEPS = [
    ("T1_3", "random:3,3,3:30", {"f": LINEAR_T}),
    ("T1_3", "random:7,7,7:5", {"f": LINEAR_T}),  # |A||B||C| > q**(3r-1)
    ("T1_3", "random:4,3,5:15", {"f": QUADRATIC_T}),
    ("T1_3", "random:4,3,6:15", {"f": QUADRATIC_T}),
    ("T1_5", "exhaustive:2", {}),
    ("T1_5", "random:6:20", {}),
    ("T1_6", "exhaustive:2", {}),
    ("T1_6", "random:5:20", {}),
    ("T1_7", "exhaustive:2", {"poly1": "1,0,2"}),
    ("T1_7", "random:7:20", {"poly1": "1,1,0"}),
    ("T1_8", "exhaustive:2", {}),
    ("T1_8", "random:5:20", {}),
    ("T1_8", "random:7:20", {}),
    ("T1_9", "exhaustive:2", {"d": 2}),
    ("T1_9", "random:5:20", {"d": 2}),
    ("T1_9", "random:6:10", {"d": 3}),
    ("T2_2", "random:5,4:15", {}),
    ("T2_2", "random:40,30:5", {}),
    ("T2_4", "random:6,6:15", {"max_weight": 3}),
    ("T7_1", "exhaustive:2", {}),
    ("T7_1", "random:3:10", {}),
    ("PLUN13", "exhaustive:2", {}),
    ("PLUN13", "random:4:20", {}),
]


def _count(literal: str) -> int:
    return len(literal.split(","))


def _family(literal: str) -> tuple[int, int]:
    """(number of triples, total weight) of a family literal."""
    triples = literal.split(";")
    weight = sum(int(t.partition("@")[2] or 1) for t in triples)
    return len(triples), weight


def _is_unit(ring, a: int) -> bool:
    return any(oracles.slow_mul(ring, a, b) == 1 for b in range(ring.order))


def _half_shifted_size(ring, members) -> int:
    """|A - (A+A)/2| by plain loops."""
    half = next(h for h in range(ring.order) if oracles.slow_mul(ring, h, 2) == 1)
    sums = {ring.add(a, b) for a in members for b in members}
    return len({ring.sub(a, oracles.slow_mul(ring, half, s)) for a in members for s in sums})


def oracle_of(rep, ring):
    """(gates, holds, ratio) of one report by the oracle, from its recorded sizes."""
    q, r, s = ring.q, ring.r, rep.sets

    def size(key):
        return int(s[key]) if key in s else None

    theorem = rep.theorem
    if theorem in ("T2_2", "T2_4"):
        (points, point_weight), (planes, plane_weight) = _family(s["points"]), _family(s["planes"])
        if theorem == "T2_2":
            return oracles.claim_incidences(q, r, points, planes, size("incidences"))
        return oracles.claim_weighted_incidences(
            q, r, point_weight, plane_weight, size("weighted_incidences")
        )
    A = _count(s["A"])
    if theorem == "T1_3":
        deg_T = 2 if s["f"].split("T=")[1].split(",")[0] != "0" else 1
        B, C = _count(s["B"]), _count(s["C"])
        return oracles.claim_expander(q, r, A, B, C, size("image_size"), deg_T)
    if theorem == "T1_5":
        return oracles.claim_sum_square(q, r, A, size("sumset_size"), size("square_sum_size"))
    if theorem == "T1_6":
        return oracles.claim_cube_sum(q, r, A, size("sumset_size"), size("cube_sum_size"))
    if theorem == "T1_7":
        return oracles.claim_shifted_image(q, r, A, size("shifted_size"))
    if theorem == "T1_8":
        return oracles.claim_prod_diff(q, r, A, size("diff_size"), size("prod_sum_size"))
    if theorem == "T1_9":
        members = [int(a) for a in s["A"].split(",")]
        units = sum(_is_unit(ring, a) for a in members)
        return oracles.claim_power_energy(
            q, r, A, units, size("prod_size"), size("power_sum_size")
        )
    if theorem == "T7_1" and "triples" in s:
        return oracles.claim_collinear_triples(q, r, A, size("triples"))
    if theorem == "T7_1":
        return oracles.claim_lines(q, r, A, size("lines"))
    members = [int(a) for a in s["A"].split(",")]
    return oracles.claim_plunnecke(
        A,
        size("sumset_size"),
        size("dilated_diff_size"),
        _half_shifted_size(ring, members),
        size("chain_size"),
    )


def assert_agrees(rep, ring):
    gates, holds, ratio = oracle_of(rep, ring)
    where = (rep.theorem, rep.ring, rep.sets)
    assert gates == (rep.verdict != "hypothesis_not_met"), where
    if not gates:
        assert rep.lhs == rep.rhs == 0 and rep.ratio is None, where
        return
    assert rep.ratio == Fraction(rep.lhs, rep.rhs), where
    assert Rational(rep.ratio.numerator, rep.ratio.denominator) == ratio, where
    expected = "ratio_recorded" if holds is None else "pass" if holds else "fail"
    assert rep.verdict == expected, where


def _configs():
    for spec in RINGS:
        for seed, (theorem, mode, extra) in enumerate(SWEEPS):
            yield ExperimentConfig(
                theorem=theorem, ring_spec=spec, mode=parse_mode(mode), seed=seed, **extra
            )
    # an order-9 ring has too few units to pass the T1_9 mass gate
    yield ExperimentConfig(
        theorem="T1_9", ring_spec="zpr:p=5,r=2", mode=parse_mode("random:14:5"), d=2
    )


def test_every_verdict_matches_the_oracle():
    seen = set()
    for config in _configs():
        ring = parse_ring_spec(config.ring_spec)
        reports, _ = run_experiment(config)
        for rep in reports:
            assert_agrees(rep, ring)
            seen.add((rep.theorem, rep.verdict))
    # both sides of every gate were exercised, and every claim was reached
    for theorem in ("T1_3", "T1_5", "T1_6", "T1_7", "T1_8", "T1_9", "T7_1"):
        assert (theorem, "hypothesis_not_met") in seen, theorem
    for theorem in ("T1_3", "T1_5", "T1_7", "T1_8", "T2_2", "T7_1", "PLUN13"):
        assert (theorem, "pass") in seen, theorem
    for theorem in ("T1_6", "T1_9", "T2_4", "T7_1"):
        assert (theorem, "ratio_recorded") in seen, theorem


def test_unequal_weights_match_the_oracle(z9):
    items = [[0, 1, 2], [3, 4, 5]]
    points = WeightedFamily(z9, items, [2, 1])
    planes = WeightedFamily(z9, items, [1, 1])
    rep = weighted_bound_report(points, planes)
    assert rep.verdict == "hypothesis_not_met"
    assert_agrees(rep, z9)


def _ceil_cube_root(n: int) -> int:
    c, exact = integer_nthroot(n, 3)
    return c if exact else c + 1


@given(st.integers(min_value=0, max_value=10**18 - 1))
def test_iroot3_ceil_matches_integer_nthroot(n):
    assert iroot3_ceil(n) == _ceil_cube_root(n)


@given(st.integers(min_value=1, max_value=10**6 - 1), st.sampled_from((-1, 0, 1)))
def test_iroot3_ceil_around_cubes(k, offset):
    n = k**3 + offset
    assert iroot3_ceil(n) == _ceil_cube_root(n)
