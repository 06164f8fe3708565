"""Acceptance gate: one test per shipped guarantee, one line printed per pass.

Each test covers one numbered guarantee end to end, asserts exact values
(zero tolerance unless a runtime cap is the statement), and prints a single
ACCEPTANCE line when it survives.  Nothing here is approximate: bound
comparisons are denominator-cleared integers and fixture comparisons are
byte-for-byte.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import fvrlab
from fvrlab.checks import (
    check_cube_sum,
    check_expander,
    check_f_of_A_plus_A,
    check_plunnecke_corollary,
    check_prod_diff,
    check_sum_square,
)
from fvrlab.experiments import ExperimentConfig, parse_mode, run_experiment
from fvrlab.geometry import (
    count_collinear_triples,
    geometry_bound_report,
    grid_lines,
    is_collinear,
)
from fvrlab.incidence import (
    WeightedFamily,
    count_incidences,
    count_weighted_incidences,
    incidence_bound_report,
)
from fvrlab.report import write_jsonl
from fvrlab.ring import Coset, parse_ring_spec
from fvrlab.sampling import SplitMix64, mix64, sample_planes, sample_points, sample_subset
from fvrlab.setalg import RSet, energy, parse_quadpoly, poly1_table

from conftest import child_env
from oracles import (
    brute_collinear_triples,
    brute_energy,
    brute_incidences,
    brute_is_collinear,
    brute_lines,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

RING_SPECS = (
    "zpr:p=3,r=2",      # Z9
    "zpr:p=3,r=3",      # Z27
    "zpr:p=5,r=2",      # Z25
    "fqxr:p=3,s=1,r=2",  # F3[x]/(x^2)
    "fqxr:p=3,s=2,r=1",  # F9
)


def _ring(spec):
    return parse_ring_spec(spec)


def _announce(num, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: PASS{suffix}", flush=True)


# -----------------------------------------------------------------------
# 1. ring foundations, exhaustive, < 10 s


def test_criterion_1_ring_foundations():
    t0 = time.monotonic()
    for spec in RING_SPECS:
        ring = _ring(spec)
        n, q, r = ring.order, ring.q, ring.r
        idx = np.arange(n, dtype=np.int64)
        add = ring.add_arr(idx[:, None], idx[None, :])
        mul = ring.mul_arr(idx[:, None], idx[None, :])
        val = ring.val_arr(idx)

        assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
        # associativity and distributivity over every triple, via the tables
        assert np.array_equal(add[add[:, :, None], idx[None, None, :]],
                              add[idx[:, None, None], add[None, :, :]])
        assert np.array_equal(mul[mul[:, :, None], idx[None, None, :]],
                              mul[idx[:, None, None], mul[None, :, :]])
        lhs = mul[idx[:, None, None], add[None, :, :]]
        rhs = add[mul[:, :, None], mul[:, None, :]]
        assert np.array_equal(lhs, rhs)

        assert np.array_equal(add[0, :], idx) and np.array_equal(mul[1, :], idx)
        assert np.array_equal((add == 0).sum(axis=1), np.ones(n, dtype=np.int64))
        has_inverse = (mul == 1).any(axis=1)
        assert np.array_equal(has_inverse, val == 0)

        # valuation is additive under products, clipped at r
        assert np.array_equal(
            ring.val_arr(mul.reshape(-1)).reshape(n, n),
            np.minimum(val[:, None] + val[None, :], r),
        )
        assert int((val == 0).sum()) == q**r - q ** (r - 1)
        for k in range(r + 1):
            assert int((val >= k).sum()) == q ** (r - k) == ring.ideal_size(k)
        z = ring.uniformizer()
        assert ring.pow(z, r) == 0
        assert r == 1 or ring.pow(z, r - 1) != 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _announce(1, "ring foundations", f"5 rings exhaustive in {elapsed:.2f}s")


# -----------------------------------------------------------------------
# 2. point-plane bound, 10^3 random families per ring, < 60 s


def test_criterion_2_incidence_bound_random_families():
    t0 = time.monotonic()
    master = 20260819
    for spec in ("zpr:p=3,r=2", "zpr:p=3,r=3", "fqxr:p=3,s=1,r=2"):
        ring = _ring(spec)
        cap = min(2000, ring.order**3)
        for trial in range(1000):
            ts = mix64(master, trial)
            gen = SplitMix64(mix64(ts, 0))
            # every tenth family stretches to the full size cap
            bound = cap if trial % 10 == 0 else min(300, cap)
            nq = 1 + gen.bounded(bound)
            npl = 1 + gen.bounded(bound)
            pts = sample_points(ring, nq, mix64(ts, 1))
            pls = sample_planes(ring, npl, mix64(ts, 2))
            rep = incidence_bound_report(ring, pts, pls, seed=ts)
            assert rep.verdict == "pass", (spec, trial, rep.lhs, rep.rhs)
        master += 1

    # the full family over Z3 reproduces the exact rational main term
    z3 = _ring("zpr:p=3,r=1")
    codes = np.arange(27, dtype=np.int64)
    fam = np.stack([codes // 9, (codes // 3) % 3, codes % 3], axis=1)
    rep = incidence_bound_report(z3, fam, fam)
    assert rep.sets["incidences"] == "243"
    assert rep.sets["main_term"] == "9477/40"
    assert Fraction(9477, 40) == Fraction(236925, 1000)
    assert rep.verdict == "pass"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _announce(2, "incidence bound", f"3000 families + full grid in {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 3. expander image bound, pinned battery of 20 polynomials


# deg T = 1 in the first half, deg T = 2 in the second; a ranges over units
# and nonzero non-units; R and S appear with every shape up to degree two
BATTERY = (
    "a=1;R=0,0,0;S=0,0,0;T=0,1,0",
    "a=1;R=0,1,0;S=0,2,0;T=0,1,0",
    "a=2;R=1,0,0;S=0,0,3;T=0,2,1",
    "a=4;R=2,1,5;S=1,4,2;T=0,1,8",
    "a=1;R=0,0,0;S=1,1,1;T=0,4,0",
    "a=5;R=3,0,1;S=0,5,0;T=0,7,2",
    "a=7;R=1,2,3;S=3,2,1;T=0,8,5",
    "a=3;R=0,1,0;S=0,1,0;T=0,1,0",
    "a=6;R=1,0,2;S=2,0,1;T=0,5,4",
    "a=8;R=0,3,0;S=6,0,0;T=0,2,7",
    "a=1;R=0,0,0;S=0,0,0;T=1,0,0",
    "a=1;R=0,1,0;S=0,2,0;T=1,1,0",
    "a=2;R=1,0,0;S=0,0,3;T=2,0,1",
    "a=4;R=2,1,5;S=1,4,2;T=1,2,3",
    "a=5;R=0,0,0;S=1,1,1;T=4,0,0",
    "a=7;R=3,0,1;S=0,5,0;T=2,1,0",
    "a=8;R=1,2,3;S=3,2,1;T=1,8,8",
    "a=3;R=0,1,0;S=0,1,0;T=1,0,0",
    "a=6;R=1,0,2;S=2,0,1;T=4,4,4",
    "a=1;R=6,3,0;S=3,6,0;T=2,0,5",
)


def _mask_enumerator_setup(ring):
    """Subsets of Z9 with at most 3 elements as 9-bit masks, plus shift maps."""
    n = ring.order
    combos = [c for k in (1, 2, 3) for c in itertools.combinations(range(n), k)]
    masks = np.array([sum(1 << e for e in c) for c in combos], dtype=np.uint16)
    sizes = np.array([len(c) for c in combos], dtype=np.int64)
    all_masks = np.arange(512, dtype=np.uint16)
    bit_matrix = (all_masks[:, None] >> np.arange(9)[None, :]) & 1
    pop = bit_matrix.sum(axis=1).astype(np.int64)
    shift = np.empty((n, 512), dtype=np.uint16)
    for v in range(n):
        perm = ring.add_arr(np.arange(n, dtype=np.int64), np.full(n, v, dtype=np.int64))
        shift[v] = (bit_matrix.astype(np.int64) << perm[None, :]).sum(axis=1).astype(np.uint16)
    return combos, masks, sizes, pop, shift


def _mask_images(ring, spec, combos):
    """pair_image[i, j] = bitmask of {a x y + R(x) + S(y)} over combo i x combo j."""
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    xy = ring.mul_arr(idx[:, None], idx[None, :])
    axy = ring.mul_arr(np.full((n, n), spec.a, dtype=np.int64), xy)
    r_tab = np.asarray(poly1_table(ring, spec.R), dtype=np.int64)
    s_tab = np.asarray(poly1_table(ring, spec.S), dtype=np.int64)
    g = ring.add_arr(ring.add_arr(axy, r_tab[:, None]), s_tab[None, :])
    gbits = (np.uint16(1) << g.astype(np.uint16))
    m = len(combos)
    col_or = np.empty((m, n), dtype=np.uint16)
    for i, c in enumerate(combos):
        col_or[i] = np.bitwise_or.reduce(gbits[list(c), :], axis=0)
    pair = np.empty((m, m), dtype=np.uint16)
    for j, c in enumerate(combos):
        pair[:, j] = np.bitwise_or.reduce(col_or[:, list(c)], axis=1)
    return pair


def test_criterion_3_expander_battery():
    ring = _ring("zpr:p=3,r=2")
    specs = [parse_quadpoly(ring, lit) for lit in BATTERY]
    assert len(specs) >= 20
    assert {s.deg_T for s in specs} == {1, 2}
    assert any(any(s.R) and any(s.S) for s in specs)

    combos, masks, sizes, pop, shift = _mask_enumerator_setup(ring)
    m = len(combos)
    assert m == 129
    size_a = np.repeat(sizes, m)
    size_b = np.tile(sizes, m)
    gate_floor = 2 * ring.q ** (ring.r - 1)
    assert gate_floor == 6  # every |C| <= 3 triple is shut out for deg T = 2

    t_tabs = {lit: np.asarray(poly1_table(ring, parse_quadpoly(ring, lit).T), dtype=np.int64)
              for lit in BATTERY}
    checked = 0
    for lit, spec in zip(BATTERY, specs):
        if spec.deg_T == 2:
            continue  # exhaustive leg is vacuous behind the |C| gate
        pair = _mask_images(ring, spec, combos).reshape(-1)
        t_tab = t_tabs[lit]
        for j, c in enumerate(combos):
            image = np.zeros_like(pair)
            for z in c:
                image |= shift[t_tab[z]][pair]
            lhs = 8 * ring.q ** (2 * ring.r - 1) * pop[image]
            rhs = np.minimum(ring.q ** (3 * ring.r - 1), size_a * size_b * sizes[j])
            bad = lhs < rhs
            assert not bad.any(), (lit, j, int(bad.sum()))
            checked += lhs.shape[0]
    assert checked == 10 * 129**3

    # the enumerator agrees with the real checker on seeded spot checks
    gen = SplitMix64(31415)
    for lit, spec in zip(BATTERY, specs):
        pair = None
        t_tab = t_tabs[lit]
        for _ in range(40):
            ia, ib, ic = (gen.bounded(m) for _ in range(3))
            rep = check_expander(spec, RSet.from_indices(ring, combos[ia]),
                                 RSet.from_indices(ring, combos[ib]),
                                 RSet.from_indices(ring, combos[ic]))
            if spec.deg_T == 2:
                assert rep.verdict == "hypothesis_not_met"
                continue
            if pair is None:
                pair = _mask_images(ring, spec, combos)
            image = 0
            for z in combos[ic]:
                image |= int(shift[t_tab[z]][pair[ia, ib]])
            assert int(pop[image]) == int(rep.sets["image_size"])
            assert rep.verdict == "pass"

    # random leg: larger triples through the real checker, all gated-in pass
    fails = 0
    gated_in = 0
    for k, spec in enumerate(specs):
        for trial in range(1000):
            ts = mix64(271828 + k, trial)
            A = sample_subset(ring, 4 + ts % 6, mix64(ts, 1))
            B = sample_subset(ring, 4 + (ts >> 8) % 6, mix64(ts, 2))
            C = sample_subset(ring, 4 + (ts >> 16) % 6, mix64(ts, 3))
            rep = check_expander(spec, A, B, C, seed=ts)
            if rep.verdict == "fail":
                fails += 1
            elif rep.verdict == "pass":
                gated_in += 1
    assert fails == 0
    assert gated_in > 10000
    _announce(3, "expander battery", f"20 polynomials, {checked} exhaustive + 20000 random")


# -----------------------------------------------------------------------
# 4. growth checks: exhaustive small, full-ring, 10^3 random per ring, < 120 s

PINNED_T17_POLY = (1, 1, 0)


def _growth_checks(A, seed=None):
    return (
        check_sum_square(A, seed=seed),
        check_f_of_A_plus_A(PINNED_T17_POLY, A, seed=seed),
        check_prod_diff(A, seed=seed),
        check_plunnecke_corollary(A, seed=seed),
    )


def test_criterion_4_growth_inequalities():
    t0 = time.monotonic()
    z9 = _ring("zpr:p=3,r=2")

    # (a) exhaustive |A| <= 5 over Z9; gates shut out the three gated checks
    # at this size, so the gateless corollary carries the conclusions
    plun_passes = 0
    for k in range(1, 6):
        for c in itertools.combinations(range(9), k):
            A = RSet.from_indices(z9, c)
            s, f, p, plun = _growth_checks(A)
            assert s.verdict == "hypothesis_not_met"
            assert f.verdict == "hypothesis_not_met"
            assert p.verdict == "hypothesis_not_met"
            assert plun.verdict == "pass"
            plun_passes += 1
    assert plun_passes == 381

    # (b) full-ring inputs pass in all five rings, with the forced Z9 values
    for spec in RING_SPECS:
        ring = _ring(spec)
        full = RSet.full(ring)
        for rep in _growth_checks(full):
            assert rep.verdict == "pass", (spec, rep.theorem, rep.lhs, rep.rhs)
    z9_full = check_sum_square(RSet.full(z9))
    assert z9_full.lhs == 2 * 7 * 81 == 1134 and z9_full.rhs == 729

    # (c) seeded random sets, every verdict recorded, zero failures
    fails = 0
    for si, spec in enumerate(RING_SPECS):
        ring = _ring(spec)
        for trial in range(1000):
            ts = mix64(602214 + si, trial)
            A = sample_subset(ring, 1 + ts % ring.order, mix64(ts, 1))
            for rep in _growth_checks(A, seed=ts):
                if rep.verdict == "fail":
                    fails += 1
    assert fails == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _announce(4, "growth inequalities", f"381 exhaustive + 5 full + 5000 random in {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 5. implicit-constant sweeps: byte-identical fixtures, exact unit ratio

FIXTURE_SWEEPS = (
    ("t16_z9_random.jsonl", ExperimentConfig(theorem="T1_6", ring_spec="zpr:p=3,r=2",
                                             mode=parse_mode("random:5:40"), seed=101)),
    ("t19_z25_d2_random.jsonl", ExperimentConfig(theorem="T1_9", ring_spec="zpr:p=5,r=2", d=2,
                                                 mode=parse_mode("random:14:30"), seed=102)),
    ("t24_z9_random.jsonl", ExperimentConfig(theorem="T2_4", ring_spec="zpr:p=3,r=2",
                                             mode=parse_mode("random:12,12:25"), seed=103,
                                             max_weight=5)),
    ("t71_z9_random.jsonl", ExperimentConfig(theorem="T7_1", ring_spec="zpr:p=3,r=2",
                                             mode=parse_mode("random:4:25"), seed=104)),
)


def test_criterion_5_implicit_constant_sweeps(tmp_path):
    constants = []
    for name, config in FIXTURE_SWEEPS:
        reports, summary = run_experiment(config)
        assert summary["verdicts"]["ratio_recorded"] > 0
        assert summary["verdicts"]["fail"] == 0
        out = tmp_path / name
        write_jsonl(reports, str(out))
        frozen = os.path.join(FIXTURE_DIR, name)
        assert out.read_bytes() == open(frozen, "rb").read(), name
        constants.append(f"{config.theorem}>={summary['ratio_min']}")

    z9 = _ring("zpr:p=3,r=2")
    full = check_cube_sum(RSet.full(z9))
    assert full.ratio == Fraction(1, 1)
    assert full.lhs == 9**10 and full.rhs == 9 * 9**9
    _announce(5, "implicit-constant sweeps",
              "byte-identical; unit full-ring ratio; empirical constants "
              + " ".join(constants))


# -----------------------------------------------------------------------
# 6. geometry: triple/line fixtures, bound sweep, collinearity oracle


def _reach_table(ring):
    """reach[d2_code, d1_code] is True when d1 = k * d2 for some k."""
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    mul = ring.mul_arr(idx[:, None], idx[None, :])
    reach = np.zeros((n * n, n * n), dtype=bool)
    for a in range(n):
        for b in range(n):
            reach[a * n + b, mul[:, a] * n + mul[:, b]] = True
    return reach


def test_criterion_6_geometry():
    # derived fixtures for the {0,1} grid over Z3, confirmed by brute force
    z3 = _ring("zpr:p=3,r=1")
    A01 = RSet.from_indices(z3, [0, 1])
    grid = [(x, y) for x in (0, 1) for y in (0, 1)]
    assert count_collinear_triples(A01) == 28 == brute_collinear_triples(z3, grid)
    lines = grid_lines(A01)
    assert len(lines) == 6
    assert {frozenset(l.points) for l in lines} == brute_lines(z3, grid)

    # triple bound: exhaustive |A| <= 4 over Z9 plus 10^3 random sets
    z9 = _ring("zpr:p=3,r=2")
    for k in range(1, 5):
        for c in itertools.combinations(range(9), k):
            rep = geometry_bound_report(RSet.from_indices(z9, c))
            assert rep.verdict == "pass", (c, rep.lhs, rep.rhs)
    for trial in range(1000):
        ts = mix64(16180, trial)
        A = sample_subset(z9, 1 + ts % 9, mix64(ts, 1))
        rep = geometry_bound_report(A, seed=ts)
        assert rep.verdict == "pass", (trial, rep.lhs, rep.rhs)

    # collinearity only sees the two coordinate differences, so checking
    # every (d1, d2) configuration covers every triple of the plane
    for spec in RING_SPECS:
        ring = _ring(spec)
        n = ring.order
        reach = _reach_table(ring)
        origin = (0, 0)
        for c1 in range(n * n):
            d1 = (c1 // n, c1 % n)
            row = reach[:, c1]
            for c2 in range(n * n):
                got = is_collinear(ring, d1, origin, (c2 // n, c2 % n))
                assert got == bool(row[c2]), (spec, d1, c2)

    # translation never changes the verdict
    for spec in RING_SPECS:
        ring = _ring(spec)
        gen = SplitMix64(299792458 + ring.order)
        for _ in range(200):
            p = [(gen.bounded(ring.order), gen.bounded(ring.order)) for _ in range(3)]
            t = (gen.bounded(ring.order), gen.bounded(ring.order))
            shifted = [(ring.add(x, t[0]), ring.add(y, t[1])) for x, y in p]
            assert is_collinear(ring, *p) == is_collinear(ring, *shifted)

    _announce(6, "geometry", "fixtures, 255+1000 bound checks, difference-space oracle")


def test_criterion_6b_collinearity_order_81():
    # order-81 ring: the scalar solver and the coset intersection are each
    # checked exhaustively, then the composition on seeded configurations
    ring = parse_ring_spec("fqxr:p=3,s=2,r=2")
    n = ring.order
    idx = np.arange(n, dtype=np.int64)
    mul = ring.mul_arr(idx[:, None], idx[None, :])
    for m in range(n):
        column = mul[:, m]
        for target in range(n):
            want = set(np.nonzero(column == target)[0].tolist())
            got = ring.solve_linear(m, target)
            assert (got is not None) == bool(want)
            if got is not None:
                assert set(got.members()) == want

    cosets = [Coset(ring, rep, v) for rep in range(n) for v in range(ring.r + 1)]
    member_sets = [frozenset(c.members()) for c in cosets]
    for i, a in enumerate(cosets):
        for j, b in enumerate(cosets):
            assert a.intersects(b) == bool(member_sets[i] & member_sets[j])

    gen = SplitMix64(6670)
    for _ in range(30000):
        d1 = (gen.bounded(n), gen.bounded(n))
        d2 = (gen.bounded(n), gen.bounded(n))
        got = is_collinear(ring, d1, (0, 0), d2)
        assert got == brute_is_collinear(ring, d1, (0, 0), d2)
    _announce(6, "geometry order-81", "solver + intersection exhaustive, 30000 configs")


# -----------------------------------------------------------------------
# 7. counting oracles


def test_criterion_7_counting_oracles():
    # bucketed incidence counting against the quadratic brute force
    trial = 0
    for spec in ("zpr:p=3,r=2", "zpr:p=3,r=3", "zpr:p=5,r=2"):
        ring = _ring(spec)
        for _ in range(34):
            ts = mix64(1729, trial)
            trial += 1
            gen = SplitMix64(ts)
            pts = sample_points(ring, 1 + gen.bounded(40), mix64(ts, 1))
            pls = sample_planes(ring, 1 + gen.bounded(30), mix64(ts, 2))
            assert count_incidences(ring, pts, pls) == brute_incidences(ring, pts, pls)
    assert trial >= 100

    # histogram energy against the quadruple loop
    for spec in RING_SPECS:
        ring = _ring(spec)
        gen = SplitMix64(4049 + ring.order)
        for d in (1, 2, 3):
            A = sample_subset(ring, 2 + gen.bounded(7), mix64(4050, ring.order * d))
            assert energy(A, d) == brute_energy(ring, A.indices(), d)

    # unit weights reproduce the plain count exactly
    for spec in ("zpr:p=3,r=2", "fqxr:p=3,s=2,r=1"):
        ring = _ring(spec)
        for t in range(15):
            ts = mix64(5897, t + ring.order)
            pts = sample_points(ring, 1 + ts % 25, mix64(ts, 1))
            pls = sample_planes(ring, 1 + (ts >> 8) % 25, mix64(ts, 2))
            plain = count_incidences(ring, pts, pls)
            weighted = count_weighted_incidences(
                WeightedFamily.uniform(ring, pts), WeightedFamily.uniform(ring, pls)
            )
            assert plain == weighted
    _announce(7, "counting oracles", "incidence, energy, unit weights all exact")


# -----------------------------------------------------------------------
# 8. determinism and exit codes


def _run(argv, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "fvrlab", *argv],
        cwd=cwd, env=child_env(env_extra), capture_output=True, text=True,
        timeout=120,
    )


def test_criterion_8_determinism_and_exit_codes(tmp_path):
    # the child runs the same fvrlab as this process, not another copy
    probe = subprocess.run(
        [sys.executable, "-c", "import fvrlab; print(fvrlab.__file__)"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert os.path.samefile(probe.stdout.strip(), fvrlab.__file__)

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "theorem = T2_4\n"
        "ring = zpr:p=3,r=2\n"
        "mode = random:10,10:20\n"
        "seed = 424242\n"
        "max_weight = 5\n"
    )
    runs = {}
    for tag, extra in (("one", None), ("two", None), ("workers", {"FVRLAB_WORKERS": "3"})):
        out = tmp_path / f"{tag}.jsonl"
        res = _run(["sweep", str(cfg), "--out", str(out)], tmp_path, extra)
        assert res.returncode == 0, res.stderr
        runs[tag] = out.read_bytes()
    assert runs["one"] == runs["two"] == runs["workers"]

    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    for out in (csv_a, csv_b):
        res = _run(["sweep", str(cfg), "--out", str(out), "--format", "csv"], tmp_path)
        assert res.returncode == 0, res.stderr
    assert csv_a.read_bytes() == csv_b.read_bytes()

    # stdout streams are reproduced byte-for-byte as well
    res1 = _run(["check", "T1_5", "--ring", "zpr:p=3,r=2", "--mode", "random:6:10",
                 "--seed", "7"], tmp_path)
    res2 = _run(["check", "T1_5", "--ring", "zpr:p=3,r=2", "--mode", "random:6:10",
                 "--seed", "7"], tmp_path)
    assert res1.returncode == 0 and res1.stdout == res2.stdout

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("theorem = T1_5\nring = zpr:p=3,r=2\ncolour = red\n")
    assert _run(["sweep", str(bad_cfg)], tmp_path).returncode == 2
    assert _run(["ring", "info", "zpr:p=6,r=2"], tmp_path).returncode == 2
    assert _run(["check", "T2_2", "--ring", "zpr:p=3,r=1", "--mode", "exhaustive:2"],
                tmp_path).returncode == 2

    # a fail verdict turns into exit status 1 (no honest input produces one,
    # so the emitter is exercised directly)
    from fvrlab.cli import _emit
    from fvrlab.report import CheckReport

    rep = CheckReport(theorem="T1_5", ring="zpr:p=3,r=2", hypotheses=[],
                      lhs=1, rhs=2, ratio=None, verdict="fail")
    out = tmp_path / "fail.jsonl"
    assert _emit([rep], {"verdicts": {"fail": 1}}, str(out), "jsonl") == 1
    _announce(8, "determinism and exit codes", "byte-identical sweeps; 0/1/2 policy")
