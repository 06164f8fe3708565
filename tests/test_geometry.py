"""Collinearity, grid triple counts, and line counts over R x R."""

import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvrlab import geometry
from fvrlab.experiments import ExperimentConfig, parse_mode, run_experiment
from fvrlab.geometry import (
    count_collinear_triples,
    count_collinear_triples_weak,
    count_lines,
    geometry_bound_report,
    grid_counts,
    grid_lines,
    grid_reports,
    is_collinear,
    line_count_report,
    line_through,
)
from fvrlab.ring import make_ring, parse_ring_spec
from fvrlab.sampling import mix64, sample_subset
from fvrlab.setalg import RSet, dilate, member_masks, translate

from oracles import (
    brute_collinear_triples,
    brute_is_collinear,
    brute_lines,
    hit_collinear_triples,
    is_collinear_weak,
    orbit_lines,
    point_loop_weak_triples,
)


@pytest.fixture(scope="module")
def z3():
    return make_ring("zpr", 3, r=1)


def grid_points(A):
    return [(a, b) for a in A.indices() for b in A.indices()]


def test_line_through_sizes(z9):
    full = line_through(z9, (0, 0), (1, 0))
    assert len(full) == 9
    assert full.points == tuple((k, 0) for k in range(9))
    short = line_through(z9, (0, 0), (3, 0))
    # direction (3, 0) is annihilated by multiples of 3, so the orbit is small
    assert short.points == ((0, 0), (3, 0), (6, 0))
    with pytest.raises(ValueError, match="distinct"):
        line_through(z9, (2, 5), (2, 5))


def test_collinear_examples(z9):
    assert is_collinear(z9, (0, 0), (1, 1), (2, 2))
    assert is_collinear(z9, (5, 7), (5, 7), (1, 2))
    assert not is_collinear(z9, (1, 0), (0, 0), (0, 1))
    # cross products vanish here, yet no scalar k works
    assert is_collinear_weak(z9, (3, 0), (0, 0), (0, 3))
    assert not is_collinear(z9, (3, 0), (0, 0), (0, 3))


def test_collinear_matches_search(z9, f3x2):
    for ring in (z9, f3x2):
        pts = [(0, 0), (1, 2), (3, 6), (4, 8), (2, 4)]
        for p1, p2, p3 in product(pts, repeat=3):
            want = brute_is_collinear(ring, p1, p2, p3)
            assert is_collinear(ring, p1, p2, p3) == want
            if want:
                assert is_collinear_weak(ring, p1, p2, p3)


def test_triples_frozen_z3(z3):
    A = RSet.from_indices(z3, [0, 1])
    # 16 triples with P1 = P2, 12 with P3 = P1 != P2, none in general position
    assert count_collinear_triples(A) == 28
    assert count_collinear_triples(RSet.full(z3)) == 225


def test_lines_frozen_z3(z3, z9, z25):
    A = RSet.from_indices(z3, [0, 1])
    assert count_lines(A) == 12 - 6  # 6 of the 12 affine lines are spanned
    lines = grid_lines(A)
    assert len(lines) == 6
    assert all(len(l) == 3 for l in lines)
    assert count_lines(RSet.full(z3)) == 12
    # z9 and z25 have point codes x*n + y past 255, where a byte-wise sort breaks
    for ring, members in [(z3, [0, 1]), (z9, [0, 1, 4, 7]), (z25, [0, 3, 11, 17, 20])]:
        A = RSet.from_indices(ring, members)
        lines = grid_lines(A)
        assert lines == sorted(lines, key=lambda l: l.points)
        want = brute_lines(ring, grid_points(A))
        assert len(lines) == len(want) == count_lines(A)
        assert {frozenset(l.points) for l in lines} == want


def _orbit_multiset(n_l, pairs):
    return Counter(zip(n_l.tolist(), pairs.tolist()))


@pytest.mark.parametrize(
    "spec",
    ["zpr:p=3,r=2", "zpr:p=5,r=2", "zpr:p=3,r=3", "zpr:p=3,r=4", "fqxr:p=3,s=2,r=2", "fqxr:p=3,s=1,r=3"],
)
def test_spanned_orbits_match_orbit_oracle(spec):
    # the line keys against the enumerated orbits they replace
    ring = parse_ring_spec(spec)
    for size in range(2, 8):
        A = sample_subset(ring, size, mix64(76, size))
        _, n_l, pairs = geometry._spanned_orbits(ring, A.members[None])
        want = Counter(tuple(c) for c in orbit_lines(A).values())
        assert _orbit_multiset(n_l, pairs) == want, A.literal


def test_spanned_orbits_full_plane(z9, f3x2):
    for ring in (z9, f3x2):
        A = RSet.full(ring)
        rows, n_l, pairs = geometry._spanned_orbits(ring, A.members[None])
        assert len(rows) == 216 and not rows.any()
        want = Counter(tuple(c) for c in orbit_lines(A).values())
        assert _orbit_multiset(n_l, pairs) == want


def _nonzero_directions(ring):
    codes = np.arange(1, ring.order**2, dtype=np.int64)
    return codes // ring.order, codes % ring.order


@pytest.mark.parametrize("spec, want", [("zpr:p=3,r=4", 160), ("fqxr:p=3,s=2,r=2", 100), ("zpr:p=3,r=2", 16)])
def test_direction_class_count(spec, want):
    # sum over v < r of q**(r-v) unflipped plus q**(r-v-1) flipped generators
    ring = parse_ring_spec(spec)
    q, r = ring.q, ring.r
    assert sum(q ** (r - v) + q ** (r - v - 1) for v in range(r)) == want
    cls = geometry._direction_class(ring, *_nonzero_directions(ring))
    assert len(np.unique(cls)) == want


def test_direction_class_generator_spans_d(z9, f3x2):
    # decode (2v + flip) * n + w into the generator (z**v, w), or (w, z**v) flipped
    for ring in (z9, f3x2):
        dx, dy = _nonzero_directions(ring)
        cls = geometry._direction_class(ring, dx, dy)
        for a, b, c in zip(dx.tolist(), dy.tolist(), cls.tolist()):
            vf, w = divmod(c, ring.order)
            zv = ring.q ** (vf // 2)
            g = (w, zv) if vf % 2 else (zv, w)
            assert line_through(ring, g, (0, 0)) == line_through(ring, (a, b), (0, 0)), (a, b)


def test_line_keys_fit_int64_at_order_cap():
    # zpr:p=7,r=7 has the largest 2r * n**2 under DEFAULT_MAX_ORDER; its largest
    # key has the top class code, the top low digit and hi = n - 1
    ring = make_ring("zpr", 7, r=7)
    n, r = ring.order, ring.r
    cls = geometry._direction_class(ring, np.int64(0), np.int64(ring.q ** (r - 1)))
    assert int(cls) == (2 * r - 1) * n
    point = np.int64(n - 1)
    key = int(geometry._line_keys(ring, point, point, cls))
    assert key == ((2 * r - 1) * n + ring.q ** (r - 1) - 1) * n + n - 1 < 2 * r * n * n < 2**63


def test_row_offset_keys_fit_int64_under_the_order_cap():
    # an orbit pass offsets row i's keys by i * 2r * n**2, with at most
    # max(1, BLOCK_ELEMS // n) rows; every ring order p**(s r) <= 10**6 counts
    # (odd p stands in for the primes; r <= s * r = e)
    p = np.arange(3, 10**6 + 1, 2, dtype=np.int64)
    worst = 0
    for e in range(1, 13):
        n = p[p <= round(10**6 ** (1 / e))] ** e
        n = n[n <= 10**6]
        rows = np.maximum(1, geometry.BLOCK_ELEMS // n)
        worst = max(worst, int((rows * 2 * e * n * n).max()))
    assert worst == 2 * 7 * 7**14 < 10**13 < 2**63  # one row of zpr:p=7,r=7


def test_counts_match_brute(all_rings):
    for ring in all_rings:
        for size in (1, 2, 3):
            A = sample_subset(ring, size, mix64(71, ring.order))
            pts = grid_points(A)
            assert count_collinear_triples(A) == brute_collinear_triples(ring, pts), (ring, size)
            if size >= 2:
                assert count_lines(A) == len(brute_lines(ring, pts)), (ring, size)


@pytest.mark.parametrize("spec", ["zpr:p=3,r=4", "fqxr:p=3,s=2,r=2"])
def test_triples_match_hit_oracle(spec):
    # grids too large for the scalar brute force: the per-base-point hit matrix
    ring = parse_ring_spec(spec)
    for trial in range(4):
        A = sample_subset(ring, 6, mix64(74, trial))
        assert count_collinear_triples(A) == hit_collinear_triples(A), A.literal


def test_bound_report_makes_one_orbit_pass(z9, monkeypatch):
    # the triples, lines and n(l) of an input come from one orbit pass over
    # its row, for a single report and on the sweep path, where one pass
    # takes a chunk of rows; the weak count is the other grid loop
    passes, grids = [], []
    orbits, grid = geometry._spanned_orbits, geometry._grid

    def counted_orbits(ring, members):
        passes.append(len(members))
        return orbits(ring, members)

    def counted_grid(members):
        grids.append(len(members))
        return grid(members)

    monkeypatch.setattr(geometry, "_spanned_orbits", counted_orbits)
    monkeypatch.setattr(geometry, "_grid", counted_grid)
    monkeypatch.delenv("FVRLAB_WORKERS", raising=False)
    A = sample_subset(z9, 4, mix64(75, 9))
    rep = geometry_bound_report(A)
    assert passes == [1] and grids == [1, 1]
    assert rep.sets["triples"] == str(hit_collinear_triples(A))
    passes.clear()
    geometry_bound_report(RSet.from_indices(z9, [4]))
    assert passes == []  # a single point spans no line
    # both reports of each of 40 inputs from one pass over its row
    config = ExperimentConfig(
        theorem="T7_1", ring_spec="zpr:p=3,r=4", mode=parse_mode("random:6:40"), seed=7
    )
    reports, summary = run_experiment(config)
    assert sum(passes) == 40 and len(passes) < 40 and summary["reports"] == 80
    # exhaustive: the nine |A| = 1 rows make no pass, the 36 pairs one each
    passes.clear()
    config = ExperimentConfig(theorem="T7_1", ring_spec="zpr:p=3,r=2", mode=parse_mode("exhaustive:2"))
    assert run_experiment(config)[1]["inputs"] == 45 and sum(passes) == 36


def test_a_forty_row_block_peaks_below_one_megabyte():
    # rows are taken in chunks of _CHUNK_ELEMS W entries, and every slice is bounded
    ring = parse_ring_spec("zpr:p=3,r=4")
    members = np.array([sample_subset(ring, 6, mix64(77, i)).members for i in range(40)])
    masks = member_masks(ring.order, members)
    seeds = list(range(40))
    grid_reports(ring, masks, seeds)  # ring tables are built once, outside the count
    tracemalloc.start()
    try:
        grid_reports(ring, masks, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


WEAK_RINGS = ["zpr:p=3,r=2", "zpr:p=5,r=2", "zpr:p=3,r=3", "fqxr:p=3,s=1,r=2", "fqxr:p=3,s=2,r=2"]


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(WEAK_RINGS),
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([None, 64]),
)
@example(spec="fqxr:p=3,s=2,r=2", sizes=[8, 8], seed=1, block=64)
def test_weak_count_from_the_alternating_form(spec, sizes, seed, block):
    # with BLOCK_ELEMS = 64 a middle point's (a, c) rectangle of a 64-point
    # grid is cut into slices of a few a, so the slices split a row
    ring = parse_ring_spec(spec)
    sets = [sample_subset(ring, k, mix64(seed, i)) for i, k in enumerate(sizes)]
    with pytest.MonkeyPatch.context() as mp:
        if block:
            mp.setattr(geometry, "BLOCK_ELEMS", block)
        t_weak = grid_counts(ring, np.stack([A.mask for A in sets]))[0]
    assert t_weak == [point_loop_weak_triples(A) for A in sets]


def test_weak_count_dominates(z9, f9, f3x2):
    for ring, size in [(z9, 4), (f9, 3)]:
        A = sample_subset(ring, size, mix64(72, ring.order))
        strict = count_collinear_triples(A)
        weak = count_collinear_triples_weak(A)
        assert strict <= weak
        pts = grid_points(A)
        want = sum(
            1
            for p1, p2, p3 in product(pts, repeat=3)
            if is_collinear_weak(ring, p1, p2, p3)
        )
        assert weak == want
    # |A| = 8: 64 grid points, so a chunk of _CHUNK_ELEMS W entries holds two rows
    assert geometry._CHUNK_ELEMS // 64**2 == 2
    for ring in (z9, f3x2):
        A = sample_subset(ring, 8, mix64(72, 8))
        assert count_collinear_triples(A) <= count_collinear_triples_weak(A)
        assert count_collinear_triples_weak(A) == point_loop_weak_triples(A)


def test_invariance_under_affine_maps(z9):
    A = RSet.from_indices(z9, [0, 1, 5])
    t = count_collinear_triples(A)
    l = count_lines(A)
    assert count_collinear_triples(translate(A, 7)) == t
    assert count_lines(translate(A, 7)) == l
    assert count_collinear_triples(dilate(A, 4)) == t
    assert count_lines(dilate(A, 4)) == l


def test_geometry_bound_report_frozen(z3):
    A = RSet.from_indices(z3, [0, 1])
    rep = geometry_bound_report(A, seed=3)
    assert rep.theorem == "T7_1"
    assert rep.verdict == "pass"
    assert rep.lhs == 3 * 28
    assert rep.rhs == 9 * 8 + 64 + 2 * 3 * 16
    rows = {h.name: h for h in rep.hypotheses}
    assert rows["form_weak_relaxation"].ok
    assert rows["form_pair_coverage"].lhs == 16
    assert rows["form_pair_coverage"].rhs == 24
    assert rows["form_pair_coverage"].ok
    assert rows["form_line_bound"].lhs == 54
    assert rows["form_line_bound"].rhs == 64
    assert rep.sets["triples"] == "28"
    assert rep.sets["lines"] == "6"
    assert rep.sets["sum_nl_sq"] == "24"


def test_geometry_bound_report_singleton(z3):
    A = RSet.from_indices(z3, [2])
    rep = geometry_bound_report(A)
    # the only collinear triple is the point repeated three times
    assert rep.lhs == 3
    assert rep.verdict == "pass"
    assert "lines" not in rep.sets


def test_line_count_report(z3):
    A = RSet.from_indices(z3, [0, 1])
    rep = line_count_report(A, seed=11)
    assert rep.verdict == "ratio_recorded"
    assert rep.lhs == 54 and rep.rhs == 64
    assert float(rep.ratio) == 0.84375
    single = line_count_report(RSet.from_indices(z3, [1]))
    assert single.verdict == "hypothesis_not_met"
    assert single.ratio is None
    assert not single.gates_ok


def test_bound_reports_on_samples(z27, z25, f3x2):
    for ring in (z27, z25, f3x2):
        A = sample_subset(ring, 4, mix64(73, ring.order))
        rep = geometry_bound_report(A)
        assert rep.verdict == "pass"
        lrep = line_count_report(A)
        assert lrep.verdict == "ratio_recorded"
        assert lrep.ratio is not None


def test_geometry_errors(z3):
    with pytest.raises(ValueError, match="nonempty"):
        count_collinear_triples(RSet.from_indices(z3, []))
    with pytest.raises(ValueError, match="nonempty"):
        geometry_bound_report(RSet.from_indices(z3, []))
    with pytest.raises(ValueError, match=">= 2"):
        count_lines(RSet.from_indices(z3, [0]))
