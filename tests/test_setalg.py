import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvrlab.ring import Ring, make_ring, parse_ring_spec
from fvrlab.setalg import (
    BLOCK_ELEMS,
    POWER_SUM,
    SUM,
    QuadPolySpec,
    RSet,
    diffset,
    dilate,
    energy,
    image_quad3,
    image_quad3_sizes,
    image_shifted_quad,
    member_masks,
    parse_quadpoly,
    parse_set_literal,
    power_set,
    prodset,
    rep_histogram,
    sumset,
    translate,
    _row_pairs,
    _two_var,
)
from oracles import (
    brute_diffset,
    brute_energy,
    brute_image_quad3,
    brute_image_shifted_quad,
    brute_sumset,
)

from fvrlab.sampling import mix64, sample_subset

# z9, z25, F_3[x]/(x^2) and F_9
COVER_RINGS = [
    make_ring("zpr", 3, r=2),
    make_ring("zpr", 5, r=2),
    make_ring("fqxr", 3, s=1, r=2),
    make_ring("fqxr", 3, s=2, r=1),
]


def rs(ring, *indices):
    return RSet.from_indices(ring, indices)


# -- basic set algebra, frozen values ------------------------------------------


def test_z9_small_set_algebra(z9):
    A = rs(z9, 1, 2)
    assert sumset(A, A).indices() == [2, 3, 4]
    assert diffset(A, A).indices() == [0, 1, 8]
    assert prodset(A, A).indices() == [1, 2, 4]
    assert translate(A, 1).indices() == [2, 3]
    assert dilate(rs(z9, 2, 4), 5).indices() == [1, 2]
    four_fold = diffset(sumset(A, A), sumset(A, A))
    assert four_fold.indices() == [0, 1, 2, 7, 8]
    assert len(four_fold) == 5


def test_power_sets(z9, f3x2):
    assert power_set(RSet.full(z9), 2).indices() == [0, 1, 4, 7]
    assert power_set(RSet.full(z9), 3).indices() == [0, 1, 8]
    # squares of F_3[x]/(x**2) land on the same canonical indices
    assert power_set(RSet.full(f3x2), 2).indices() == [0, 1, 4, 7]
    with pytest.raises(ValueError):
        power_set(RSet.full(z9), 0)


def test_literal_roundtrip(z9):
    A = parse_set_literal(z9, "1,2,5")
    assert A.literal == "1,2,5"
    assert parse_set_literal(z9, "all") == RSet.full(z9)
    assert parse_set_literal(z9, "2,1,1").indices() == [1, 2]
    with pytest.raises(ValueError):
        parse_set_literal(z9, "")
    with pytest.raises(ValueError):
        parse_set_literal(z9, "1,9")
    with pytest.raises(ValueError):
        parse_set_literal(z9, "1,x")


def test_mixed_rings_rejected(z9, z27):
    with pytest.raises(ValueError):
        sumset(RSet.full(z9), RSet.full(z27))


def test_set_op_properties(all_rings):
    for ring in all_rings:
        for seed in range(5):
            A = sample_subset(ring, 1 + seed % ring.order, seed)
            B = sample_subset(ring, 1 + (seed * 7 + 3) % ring.order, seed + 100)
            sab = sumset(A, B)
            assert sumset(B, A) == sab
            assert prodset(B, A) == prodset(A, B)
            assert 1 <= len(sab) <= min(ring.order, len(A) * len(B))
            # translation is a bijection, unit dilation is a bijection
            assert len(translate(A, 5 % ring.order)) == len(A)
            assert len(dilate(A, 1)) == len(A)
            dA = diffset(A, A)
            assert 0 in dA
            # x in A - A implies -x in A - A
            assert dA == RSet(ring, dA.mask[ring.neg_arr(np.arange(ring.order))])


# -- representation counts and energy -------------------------------------------


def test_rep_histogram_frozen(z9):
    A = rs(z9, 1, 2)
    hist = rep_histogram(A, A, SUM)
    assert hist[2] == 1 and hist[3] == 2 and hist[4] == 1
    assert hist.sum() == 4
    assert energy(A, 2) == 6


def test_rep_histogram_total(all_rings):
    for ring in all_rings:
        A = sample_subset(ring, min(5, ring.order), 11)
        B = sample_subset(ring, min(4, ring.order), 12)
        for op in ("sum", "product"):
            hist = rep_histogram(A, B, op)
            assert hist.sum() == len(A) * len(B)
        hist = rep_histogram(A, B, POWER_SUM, d=3)
        assert hist.sum() == len(A) * len(B)
    with pytest.raises(ValueError):
        rep_histogram(A, B, "xor")
    with pytest.raises(ValueError):
        rep_histogram(A, B, POWER_SUM)


def test_energy_matches_quadruple_loop(all_rings):
    for ring in all_rings:
        for seed, size in [(1, 3), (2, 5), (3, 6)]:
            A = sample_subset(ring, min(size, ring.order), seed)
            for d in (1, 2, 3):
                assert energy(A, d) == brute_energy(ring, A.indices(), d)


def test_energy_cauchy_schwarz_floor(all_rings):
    # E_d(A) >= |A|**4 / q**r, exactly, with ceiling
    for ring in all_rings:
        for seed in range(4):
            A = sample_subset(ring, 1 + (seed * 5) % ring.order, seed + 40)
            e = energy(A, 2)
            assert e >= -(-len(A) ** 4 // ring.order)
            assert e >= len(A) ** 2  # diagonal quadruples alone


# -- quadratic polynomial specs ---------------------------------------------------


def test_quadpoly_literal_roundtrip(z9):
    spec = parse_quadpoly(z9, "a=1;R=0,0,0;S=0,0,0;T=0,1,0")
    assert spec.literal == "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
    assert spec.deg_T == 1
    spec2 = parse_quadpoly(z9, "a=2;R=1,0,3;S=0,2,0;T=1,1,1")
    assert spec2.deg_T == 2


def test_quadpoly_validation(z9):
    with pytest.raises(ValueError):
        QuadPolySpec(z9, 0, (0, 0, 0), (0, 0, 0), (0, 1, 0))  # a = 0
    with pytest.raises(ValueError):
        QuadPolySpec(z9, 1, (0, 0, 0), (0, 0, 0), (0, 0, 5))  # T constant
    with pytest.raises(ValueError):
        QuadPolySpec(z9, 1, (0, 0, 0), (0, 0, 0), (0, 3, 0))  # leading not unit
    with pytest.raises(ValueError):
        QuadPolySpec(z9, 1, (0, 0, 0), (0, 0, 0), (3, 1, 0))  # leading not unit
    with pytest.raises(ValueError):
        parse_quadpoly(z9, "a=1;R=0,0,0;S=0,0,0")
    with pytest.raises(ValueError):
        parse_quadpoly(z9, "a=1;R=0,0;S=0,0,0;T=0,1,0")


# -- images ----------------------------------------------------------------------


def test_image_quad3_frozen(z9):
    xy_plus_z = parse_quadpoly(z9, "a=1;R=0,0,0;S=0,0,0;T=0,1,0")
    img = image_quad3(xy_plus_z, rs(z9, 1, 2), rs(z9, 1, 2), rs(z9, 0))
    assert img.indices() == [1, 2, 4]
    img = image_quad3(xy_plus_z, rs(z9, 0, 3, 6), rs(z9, 0, 3, 6), rs(z9, 0, 3, 6))
    assert img.indices() == [0, 3, 6]


def test_image_quad3_matches_triple_loop(all_rings):
    for ring in all_rings:
        z = ring.uniformizer()
        specs = [
            QuadPolySpec(ring, 1, (0, 0, 0), (0, 0, 0), (0, 1, 0)),
            QuadPolySpec(ring, 2, (1, 0, 2), (0, 1, 0), (1, 1, 1)),
            QuadPolySpec(ring, z or 1, (1, 2, 0), (2, 0, 1), (0, 1, 2)),
        ]
        for sd, spec in enumerate(specs):
            A = sample_subset(ring, min(4, ring.order), 3 * sd)
            B = sample_subset(ring, min(3, ring.order), 3 * sd + 1)
            C = sample_subset(ring, min(4, ring.order), 3 * sd + 2)
            img = image_quad3(spec, A, B, C)
            assert set(img.indices()) == brute_image_quad3(spec, A, B, C)


def test_image_quad3_sizes_match_triple_loop(all_rings):
    # one kernel call sizes the image of every row, sets of mixed sizes included
    for ring in all_rings:
        z = ring.uniformizer()
        specs = [
            QuadPolySpec(ring, 1, (0, 0, 0), (0, 0, 0), (0, 1, 0)),
            QuadPolySpec(ring, 2, (1, 0, 2), (0, 1, 0), (1, 1, 1)),
            QuadPolySpec(ring, z or 1, (1, 2, 0), (2, 0, 1), (0, 1, 2)),
        ]
        for sd, spec in enumerate(specs):
            triples = [
                [sample_subset(ring, 1 + (row + k) % min(5, ring.order), mix64(sd, 3 * row + k))
                 for k in range(3)]
                for row in range(12)
            ]
            masks = [np.array([t[k].mask for t in triples]) for k in range(3)]
            sizes = image_quad3_sizes(spec, *masks)
            assert sizes.tolist() == [len(brute_image_quad3(spec, *t)) for t in triples]


def test_row_pairs_across_slices():
    # rows of unequal sizes, padded to the longest row; rows empty in X, in Y
    # and in both; a sparse block runs several rows per chunk, and the dense
    # block's row 0 has more than BLOCK_ELEMS pairs, so it runs in x slices
    rng = np.random.default_rng(243)
    for ring in (make_ring("zpr", 3, r=6), parse_ring_spec("fqxr:p=3,s=3,r=2")):
        n = ring.order
        spec = QuadPolySpec(ring, 2, (1, 0, 2), (0, 1, 0), (1, 1, 1))
        ops = (ring.add_arr, ring.sub_arr, ring.mul_arr, lambda x, y: _two_var(spec, x, y))
        for rows, density in ((40, 0.15), (12, 0.5)):
            X = rng.random((rows, n)) < rng.uniform(0, density, (rows, 1))
            Y = rng.random((rows, n)) < rng.uniform(0, density, (rows, 1))
            X[3] = Y[5] = X[7] = Y[7] = False
            if density > 0.2:
                X[0, :400] = Y[0, :300] = True
            row_pairs = X.sum(axis=1).max() * Y.sum(axis=1).max()  # the padded rows
            assert row_pairs > BLOCK_ELEMS if density > 0.2 else 2 * row_pairs <= BLOCK_ELEMS
            assert rows * row_pairs > 2 * BLOCK_ELEMS
            for op in ops:
                got = _row_pairs(X, Y, op)
                for row in range(rows):
                    want = np.zeros(n, dtype=bool)
                    want[op(np.flatnonzero(X[row])[:, None], np.flatnonzero(Y[row]))] = True
                    assert (got[row] == want).all()


def test_member_masks(z9):
    masks = member_masks(9, np.array([[0, 3, 3], [8, 1, 2]]))
    assert [RSet(z9, m).indices() for m in masks] == [[0, 3], [1, 2, 8]]


def test_image_shifted_quad_frozen(z9):
    img = image_shifted_quad(z9, (1, 0, 0), rs(z9, 0, 1), rs(z9, 0, 1), rs(z9, 0))
    assert img.indices() == [0, 1]


def test_image_shifted_quad_matches_triple_loop(all_rings):
    for ring in all_rings:
        for sd, f in enumerate([(1, 0, 0), (1, 1, 0), (2, 0, 1)]):
            X = sample_subset(ring, min(4, ring.order), 50 + sd)
            Y = sample_subset(ring, min(4, ring.order), 60 + sd)
            Z = sample_subset(ring, min(3, ring.order), 70 + sd)
            img = image_shifted_quad(ring, f, X, Y, Z)
            assert set(img.indices()) == brute_image_shifted_quad(ring, f, X, Y, Z)


# -- the cover rule: |X| + |Y| > |R| gives X + Y = X - Y = R ---------------------


@st.composite
def set_pair_near_cover(draw):
    """A ring and two sets X, Y with |X| + |Y| within 2 of the ring's order."""
    ring = draw(st.sampled_from(COVER_RINGS))
    n = ring.order
    total = draw(st.integers(n - 2, n + 2))
    size_x = draw(st.integers(max(1, total - n), min(n, total - 1)))
    X, Y = (
        RSet.from_indices(ring, draw(st.permutations(range(n)))[:size])
        for size in (size_x, total - size_x)
    )
    return ring, X, Y


@settings(max_examples=150, deadline=None)
@given(set_pair_near_cover(), st.data())
def test_cover_rule_equals_pair_loops(drawn, data):
    ring, X, Y = drawn
    assert set(sumset(X, Y).indices()) == brute_sumset(ring, X, Y)
    assert set(diffset(X, Y).indices()) == brute_diffset(ring, X, Y)
    # with B = {1} and T(z) = z the image is X + Y: its sum stage sits at the cover line
    one = RSet.from_indices(ring, [1])
    linear = QuadPolySpec(ring, 1, (0, 0, 0), (0, 0, 0), (0, 1, 0))
    quadratic = QuadPolySpec(ring, 2, (1, 0, 2), (0, 1, 0), (1, 1, 1))
    B = data.draw(st.sampled_from([one, X, Y]))
    for spec in (linear, quadratic):
        assert set(image_quad3(spec, X, B, Y).indices()) == brute_image_quad3(spec, X, B, Y)
    # with U = {0} and f(u) = u the image is X - Y, its final sum at the cover line
    zero = RSet.from_indices(ring, [0])
    for f, U in (((0, 1, 0), zero), ((1, 1, 0), X)):
        img = image_shifted_quad(ring, f, U, Y, X)
        assert set(img.indices()) == brute_image_shifted_quad(ring, f, U, Y, X)
    # a block whose rows cover and do not: each row sized on its own
    rows = [(X, one, Y), (X, one, one), (Y, one, X), (one, one, one)]
    masks = [np.array([row[k].mask for row in rows]) for k in range(3)]
    sizes = image_quad3_sizes(linear, *masks)
    assert sizes.tolist() == [len(brute_image_quad3(linear, *row)) for row in rows]


def test_covered_sumset_evaluates_no_pairs(monkeypatch):
    ring = parse_ring_spec("fqxr:p=3,s=3,r=2")  # order 729
    calls = []
    add_arr = Ring.add_arr
    monkeypatch.setattr(Ring, "add_arr", lambda self, *a: calls.append(1) or add_arr(self, *a))
    X, Y = sample_subset(ring, 365, 1), sample_subset(ring, 365, 2)
    assert sumset(X, Y) == diffset(X, Y) == RSet.full(ring)
    assert calls == []
    sumset(sample_subset(ring, 364, 1), Y)  # 364 + 365 = 729 does not cover
    # 364 x 365 pairs run in ceil(364 / (BLOCK_ELEMS // 365)) = 3 slices of x members
    assert calls == [1, 1, 1]


def test_set_images_stay_bounded_on_a_large_ring():
    # two 2000-sets once broadcast their whole 2000 x 2000 grid at once: 61 MB
    # for sumset, diffset and prodset, 75 MB for image_shifted_quad
    ring = parse_ring_spec("zpr:p=3,r=8")
    n = ring.order
    X, Y = sample_subset(ring, 2000, 1), sample_subset(ring, 2000, 2)
    images = {
        "sumset": lambda: sumset(X, Y),
        "diffset": lambda: diffset(X, Y),
        "prodset": lambda: prodset(X, Y),
        "image_shifted_quad": lambda: image_shifted_quad(ring, (1, 0, 0), X, Y, X),
    }
    got, peaks = {}, {}
    tracemalloc.start()
    try:
        for name, image in images.items():
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            got[name] = image()
            peaks[name] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert all(peak < 4 * 2**20 for peak in peaks.values()), peaks
    x, y = X.members[:, None], Y.members
    squares = np.unique((x - y) % n) ** 2 % n
    want = {
        "sumset": (x + y) % n,
        "diffset": (x - y) % n,
        "prodset": x * y % n,
        "image_shifted_quad": (np.unique(squares)[:, None] + X.members) % n,
    }
    for name, vals in want.items():
        assert got[name].indices() == np.unique(vals).tolist(), name


def test_image_empty_rejected(z9):
    spec = parse_quadpoly(z9, "a=1;R=0,0,0;S=0,0,0;T=0,1,0")
    empty = RSet(z9, np.zeros(9, dtype=bool))
    with pytest.raises(ValueError):
        image_quad3(spec, empty, rs(z9, 1), rs(z9, 1))
    with pytest.raises(ValueError):
        image_shifted_quad(z9, (1, 0, 0), rs(z9, 1), empty, rs(z9, 1))
