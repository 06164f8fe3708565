"""Per-inequality check functions: gating, exact comparisons, verdicts."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import fvrlab
from fvrlab.checks import (
    check_cube_sum,
    check_expander,
    check_f_of_A_plus_A,
    check_plunnecke_corollary,
    check_power_energy,
    check_prod_diff,
    check_sum_square,
    iroot3_ceil,
)
from fvrlab.sampling import SplitMix64, mix64, sample_subset
from fvrlab.setalg import QuadPolySpec, RSet

from oracles import brute_energy


def quadspec(ring, a=1, R=(0, 0, 0), S=(0, 0, 0), T=(0, 1, 0)):
    return QuadPolySpec(ring, a, R, S, T)


def test_iroot3_ceil():
    assert iroot3_ceil(0) == 0
    assert iroot3_ceil(1) == 1
    assert iroot3_ceil(8) == 2
    assert iroot3_ceil(9) == 3
    assert iroot3_ceil(27) == 3
    assert iroot3_ceil(28) == 4
    assert iroot3_ceil(10**18) == 10**6
    assert iroot3_ceil(10**18 + 1) == 10**6 + 1


def test_expander_full_ring(z9):
    full = RSet.full(z9)
    rep = check_expander(quadspec(z9), full, full, full, seed=1)
    assert rep.verdict == "pass"
    assert rep.lhs == 8 * 27 * 9
    assert rep.rhs == 243
    assert rep.sets["image_size"] == "9"
    assert rep.seed == 1


def test_expander_zero_divisor_sets(z9):
    A = RSet.from_indices(z9, [0, 3, 6])
    rep = check_expander(quadspec(z9), A, A, A)
    # products of multiples of three vanish, so the image is T(C) = C
    assert rep.sets["image_size"] == "3"
    assert rep.lhs == 8 * 27 * 3
    assert rep.rhs == 27
    assert rep.verdict == "pass"


def test_expander_quadratic_T_gate(z9):
    spec = quadspec(z9, T=(1, 0, 0))
    full = RSet.full(z9)
    C = RSet.from_indices(z9, [5])
    rep = check_expander(spec, full, full, C)
    assert rep.verdict == "hypothesis_not_met"
    assert rep.hypotheses[0].name == "gate_c_size"
    assert rep.hypotheses[0].lhs == 1 and rep.hypotheses[0].rhs == 6
    assert rep.ratio is None and rep.lhs == 0 and rep.rhs == 0
    # a degree-one T has no size gate
    ok = check_expander(quadspec(z9), full, full, C)
    assert ok.verdict == "pass"


def test_expander_ring_mismatch(z9, f9):
    full9 = RSet.full(f9)
    with pytest.raises(ValueError, match="different rings"):
        check_expander(quadspec(z9), full9, full9, full9)


def test_sum_square_full_rings(all_rings):
    for ring in all_rings:
        rep = check_sum_square(RSet.full(ring))
        assert rep.verdict == "pass", ring.spec_string()


def test_sum_square_frozen_z9(z9):
    rep = check_sum_square(RSet.full(z9))
    # squares {0,1,4,7} self-sum to seven residues
    assert rep.sets["square_sum_size"] == "7"
    assert rep.lhs == 2 * 7 * 81 == 1134
    assert rep.rhs == 729
    rows = {h.name: h for h in rep.hypotheses}
    assert rows["gate_size"].rhs == 6
    assert rows["gate_mass"].lhs == 729 and rows["gate_mass"].rhs == 243
    assert rows["form_max_cubed"].lhs == 2 * 729


def test_sum_square_gate(z9):
    rep = check_sum_square(RSet.from_indices(z9, [1, 2]), seed=4)
    assert rep.verdict == "hypothesis_not_met"
    assert rep.ratio is None
    assert not rep.gates_ok
    assert rep.seed == 4


def test_cube_sum_ratio_exactly_one(z9):
    rep = check_cube_sum(RSet.full(z9))
    assert rep.verdict == "ratio_recorded"
    # max(|A+A|, |A^3+A^3|) = 9 gives 9**10 / (9 * 9**9) exactly
    assert rep.ratio == 1
    assert rep.sets["cube_sum_size"] == "5"
    assert rep.hypotheses[0].lhs == 9**4


def test_cube_sum_gate(z9):
    rep = check_cube_sum(RSet.from_indices(z9, [0, 3]))
    assert rep.verdict == "hypothesis_not_met"
    assert rep.hypotheses[0].lhs == 3**4
    assert rep.hypotheses[0].rhs == 243 * 2


def test_f_of_A_plus_A_full(z9):
    rep = check_f_of_A_plus_A((1, 0, 0), RSet.full(z9))
    assert rep.verdict == "pass"
    assert rep.sets["shifted_size"] == "9"
    assert rep.lhs == 2 * 729 and rep.rhs == 729


def test_f_of_A_plus_A_gate_and_errors(z9):
    rep = check_f_of_A_plus_A((1, 0, 0), RSet.from_indices(z9, [0]))
    assert rep.verdict == "hypothesis_not_met"
    assert rep.hypotheses[0].lhs == 1
    with pytest.raises(ValueError, match="quadratic"):
        check_f_of_A_plus_A((0, 1, 0), RSet.full(z9))
    with pytest.raises(ValueError):
        check_f_of_A_plus_A((9, 0, 0), RSet.full(z9))


def test_prod_diff_frozen(z9):
    A = RSet.from_indices(z9, [1, 2, 4, 5, 6, 7, 8])
    rep = check_prod_diff(A)
    assert rep.verdict == "pass"
    # independent recomputation with plain python sets
    idx = A.indices()
    diff = {(a - b) % 9 for a in idx for b in idx}
    prod = {(a * b) % 9 for a in idx for b in idx}
    psum = {(u + v) % 9 for u in prod for v in prod}
    assert rep.sets["diff_size"] == str(len(diff))
    assert rep.sets["prod_sum_size"] == str(len(psum))
    assert rep.lhs == 2 * max(len(diff), len(psum)) ** 3
    assert rep.rhs == 49 * 9


def test_prod_diff_gate_rows_agree(z9, z27):
    small = check_prod_diff(RSet.from_indices(z9, [1, 2]))
    assert small.verdict == "hypothesis_not_met"
    rows = {h.name: h for h in small.hypotheses}
    assert not rows["gate_size_cubed"].ok
    assert not rows["form_size_root"].ok
    assert rows["form_size_root"].rhs == iroot3_ceil(243)
    for ring in (z9, z27):
        for size in range(1, 10):
            A = sample_subset(ring, size, mix64(41, size * ring.order))
            rep = check_prod_diff(A)
            rows = {h.name: h for h in rep.hypotheses}
            assert rows["gate_size_cubed"].ok == rows["form_size_root"].ok


def test_prod_diff_full_rings(all_rings):
    for ring in all_rings:
        rep = check_prod_diff(RSet.full(ring))
        assert rep.verdict == "pass"
        assert rep.lhs == 2 * ring.order**3


def test_power_energy_units_gate(z9):
    units = RSet.from_indices(z9, z9.units())
    rep = check_power_energy(units, 2)
    # unit products stay units: 6 * 36 falls short of 243
    assert rep.verdict == "hypothesis_not_met"
    rows = {h.name: h for h in rep.hypotheses}
    assert rows["gate_units"].ok
    assert rows["gate_mass"].lhs == 216 and rows["gate_mass"].rhs == 243
    mixed = check_power_energy(RSet.from_indices(z9, [0, 1, 2]), 2)
    assert mixed.verdict == "hypothesis_not_met"
    assert not mixed.gates_ok


def test_power_energy_z25_pinned(z25):
    units = RSet.from_indices(z25, z25.units())
    one = check_power_energy(units, 1, seed=8)
    assert one.verdict == "ratio_recorded"
    assert one.ratio == 1
    assert one.lhs == 10000 and one.rhs == 10000
    assert one.sets["energy"] == "6500"
    two = check_power_energy(units, 2)
    assert two.ratio == Fraction(3, 5)
    assert two.sets["power_sum_size"] == "15"
    assert two.sets["energy"] == "12000"
    rows = {h.name: h for h in two.hypotheses}
    assert rows["gate_mass"].lhs == 8000 and rows["gate_mass"].rhs == 3125
    assert not rows["form_max_cubed"].ok
    assert rows["form_energy_floor"].ok


def test_power_energy_matches_quadruple_loop(z25, f3x2):
    for ring, size, d in [(z25, 6, 2), (f3x2, 5, 3)]:
        units = [a for a in range(ring.order) if ring.is_unit(a)]
        A = RSet.from_indices(ring, units[:size])
        rep = check_power_energy(A, d)
        if rep.verdict == "ratio_recorded":
            assert int(rep.sets["energy"]) == brute_energy(ring, A.indices(), d)


def test_power_energy_rejects_d0(z9):
    with pytest.raises(ValueError, match="positive"):
        check_power_energy(RSet.from_indices(z9, [1]), 0)


def test_plunnecke_frozen(z9):
    rep = check_plunnecke_corollary(RSet.from_indices(z9, [1, 2]))
    assert rep.verdict == "pass"
    assert rep.lhs == 5 * 4 == 20
    assert rep.rhs == 27
    rows = {h.name: h for h in rep.hypotheses}
    assert rows["form_dilation_identity"].lhs == rows["form_dilation_identity"].rhs == 5
    assert rows["form_chain_containment"].rhs == 5
    assert rows["form_chain_upper"].ok


def test_plunnecke_edge_cases(all_rings):
    for ring in all_rings:
        full = check_plunnecke_corollary(RSet.full(ring))
        assert full.verdict == "pass"
        assert full.lhs == full.rhs  # equality at the full ring
        single = check_plunnecke_corollary(RSet.from_indices(ring, [ring.order - 1]))
        assert single.verdict == "pass"
        assert single.lhs == 1 and single.rhs == 1


def test_plunnecke_matches_literal_sets(z27, f9):
    for ring in (z27, f9):
        n = ring.order
        for t in range(6):
            A = sample_subset(ring, 2 + t, mix64(59, t * 100 + n))
            rep = check_plunnecke_corollary(A)
            idx = A.indices()
            if ring.kind == "zpr":
                two_a = {(2 * a) % n for a in idx}
                aa = {(a + b) % n for a in idx for b in idx}
                lhs_set = {(x - a - b) % n for x in two_a for a in idx for b in idx}
            else:
                two_a = {ring.mul(2, a) for a in idx}
                aa = {ring.add(a, b) for a in idx for b in idx}
                lhs_set = {
                    ring.sub(ring.sub(x, a), b) for x in two_a for a in idx for b in idx
                }
            assert rep.lhs == len(lhs_set) * len(idx) ** 2
            assert rep.rhs == len(aa) ** 3
            assert rep.verdict == "pass"


def test_no_fail_verdicts_on_random_sets(all_rings):
    # explicit-constant claims must never fail when their gates hold
    for ring in all_rings:
        for t in range(60):
            ts = mix64(67, t * 10 + ring.order % 10)
            size = 1 + SplitMix64(ts).bounded(ring.order)
            A = sample_subset(ring, size, mix64(ts, 3))
            for rep in (
                check_sum_square(A),
                check_f_of_A_plus_A((1, 1, 0), A),
                check_prod_diff(A),
                check_plunnecke_corollary(A),
            ):
                assert rep.verdict != "fail", (ring.spec_string(), rep.theorem, A.literal)


def test_empty_sets_rejected(z9):
    empty = RSet.from_indices(z9, [])
    with pytest.raises(ValueError, match="nonempty"):
        check_sum_square(empty)
    with pytest.raises(ValueError, match="nonempty"):
        check_plunnecke_corollary(empty)
    with pytest.raises(ValueError, match="nonempty"):
        check_expander(quadspec(z9), empty, empty, empty)


def test_verdict_policy_lives_in_report():
    # every report is built by CheckReport.conclude, so no other module
    # constructs a CheckReport or names a verdict constant
    verdict_names = {"PASS", "FAIL", "HYPOTHESIS_NOT_MET", "RATIO_RECORDED"}
    offenders = []
    for path in sorted(Path(fvrlab.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "CheckReport":
                    offenders.append(f"{path.name}:{node.lineno} CheckReport(...)")
            elif isinstance(node, ast.Name) and node.id in verdict_names:
                offenders.append(f"{path.name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in verdict_names:
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.alias) and node.name in verdict_names:
                offenders.append(f"{path.name}:{node.lineno} import {node.name}")
    assert offenders == []
