"""Incidence counting and the plane-family bound reports."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fvrlab import incidence
from fvrlab.incidence import (
    CHUNK_ELEMS,
    MAX_TOTAL_WEIGHT,
    WeightedFamily,
    as_family,
    count_incidences,
    count_weighted_incidences,
    family_literal,
    format_family,
    incidence_bound_report,
    load_family,
    parse_family_lines,
    weighted_bound_report,
)
from fvrlab.experiments import ExperimentConfig, parse_mode, run_experiment
from fvrlab.report import CheckReport, read_jsonl, write_jsonl
from fvrlab.ring import make_ring, parse_ring_spec
from fvrlab.sampling import mix64, sample_planes, sample_points, sample_weights, shuffled

from oracles import brute_incidences, brute_weighted_incidences


@pytest.fixture(scope="module")
def z3():
    return make_ring("zpr", 3, r=1)


def all_triples(ring):
    n = ring.order
    codes = np.arange(n**3, dtype=np.int64)
    return np.stack([codes // n**2, (codes // n) % n, codes % n], axis=1)


def test_full_grid_z3_counts(z3):
    pts = all_triples(z3)
    # z is determined by (x, y) on each plane, so every plane meets 9 points
    assert count_incidences(z3, pts, pts) == 243


def test_full_grid_z3_report(z3):
    pts = all_triples(z3)
    rep = incidence_bound_report(z3, pts, pts, seed=7)
    # N = 729, D = 40, main term 9477/40, so the cleared gap is 243**2
    assert rep.verdict == "pass"
    assert rep.lhs == 243**2
    assert rep.rhs == 40**2 * 9 * 729
    assert rep.sets["incidences"] == "243"
    assert rep.sets["main_term"] == "9477/40"
    assert rep.hypotheses[0].name == "form_one_sided"
    assert rep.hypotheses[0].ok
    assert rep.seed == 7


def test_full_grid_z3_weighted_ratio(z3):
    pts = all_triples(z3)
    fam = WeightedFamily.uniform(z3, pts)
    rep = weighted_bound_report(fam, fam)
    assert rep.verdict == "ratio_recorded"
    assert rep.lhs == 3 * 243
    assert rep.rhs == 27**2 + 9 * 27
    assert float(rep.ratio) == 0.75


def histogram_groups(monkeypatch):
    """The (u, v) group count of each _bucket_histogram call, read as
    bench/spans.py reads incidence.uv_groups: hist.size // order."""
    groups = []
    real = incidence._bucket_histogram

    def spy(ring, *args):
        hist, group = real(ring, *args)
        groups.append(hist.size // ring.order)
        return hist, group

    monkeypatch.setattr(incidence, "_bucket_histogram", spy)
    return groups


def check_slices(groups, ring, planes, budget):
    """One call per slice of budget // order groups; the slices hold every group once."""
    G = len(np.unique(planes[:, 0] * ring.order + planes[:, 1]))
    per_slice = max(1, budget // ring.order)
    assert sum(groups) == G and len(groups) == -(-G // per_slice)
    groups.clear()


# the default budget makes one slice; 50 elements make several slices, each
# gathered in several chunks
BUDGETS = (CHUNK_ELEMS, 50)


# order 6561: past TABLE_MAX_ORDER, its products run the digit kernel and
# its spread sums gather in two chunks of digits
ABOVE_CAP = "fqxr:p=3,s=2,r=4"


def point_counts(ring, count):
    """count points, and on a small ring also three times the order, so that
    _bucket_histogram takes its products once per point (mostly distinct
    coordinates) and once per distinct coordinate (at most a third)."""
    return (count, 3 * ring.order) if ring.order < 64 else (count,)


def test_factors_are_distinct_only_when_points_repeat_them():
    col = np.array([4, 1, 4, 4, 1, 0])
    values, take = incidence._factors(col)
    assert values.tolist() == [0, 1, 4] and values[take].tolist() == col.tolist()
    col = np.array([4, 1, 3, 4])
    values, take = incidence._factors(col)
    assert values is col and take == slice(None)


def test_counts_match_brute(all_rings, monkeypatch):
    groups = histogram_groups(monkeypatch)
    rings = [*all_rings, parse_ring_spec(ABOVE_CAP)]
    for ring, budget in itertools.product(rings, BUDGETS):
        monkeypatch.setattr(incidence, "CHUNK_ELEMS", budget)
        for count in point_counts(ring, 8):
            pts = sample_points(ring, count, mix64(11, ring.order + count))
            pls = sample_planes(ring, 17, mix64(12, ring.order))
            want = brute_incidences(ring, pts.tolist(), pls.tolist())
            assert count_incidences(ring, pts, pls) == want
            check_slices(groups, ring, pls, budget)


def test_weighted_matches_brute(all_rings, monkeypatch):
    groups = histogram_groups(monkeypatch)
    rings = [*all_rings, parse_ring_spec(ABOVE_CAP)]
    for ring, budget in itertools.product(rings, BUDGETS):
        monkeypatch.setattr(incidence, "CHUNK_ELEMS", budget)
        for count in point_counts(ring, 7):
            pts = sample_points(ring, count, mix64(21, ring.order + count))
            pls = sample_planes(ring, 11, mix64(22, ring.order))
            wp = sample_weights(len(pts), 9, mix64(23, ring.order))
            wq = sample_weights(len(pls), 9, mix64(24, ring.order))
            pfam = WeightedFamily(ring, pts, np.array(wp))
            qfam = WeightedFamily(ring, pls, np.array(wq))
            want = brute_weighted_incidences(
                ring, list(zip(pts.tolist(), wp)), list(zip(pls.tolist(), wq))
            )
            assert count_weighted_incidences(pfam, qfam) == want
            check_slices(groups, ring, pls, budget)


def test_histograms_stay_bounded_on_a_large_ring():
    # 200 planes in 200 (u, v) groups once took one 200 x 99991 histogram
    # and a second one from bincount: 306 MB
    ring = parse_ring_spec("zpr:p=99991,r=1")
    pts = sample_points(ring, 200, 1)
    pls = sample_planes(ring, 200, 2)
    tracemalloc.start()
    try:
        got = count_incidences(ring, pts, pls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == brute_incidences(ring, pts.tolist(), pls.tolist())
    assert peak < 80 * 2**20


def test_count_invariances(z9):
    pts = sample_points(z9, 30, 501)
    pls = sample_planes(z9, 24, 502)
    base = count_incidences(z9, pts, pls)
    perm_p = np.array(shuffled(pts.tolist(), 503))
    perm_l = np.array(shuffled(pls.tolist(), 504))
    assert count_incidences(z9, perm_p, perm_l) == base
    # splitting either family splits the count
    assert base == count_incidences(z9, pts[:13], pls) + count_incidences(
        z9, pts[13:], pls
    )
    assert base == count_incidences(z9, pts, pls[:7]) + count_incidences(
        z9, pts, pls[7:]
    )
    # a repeated point counts twice
    doubled = np.concatenate([pts, pts[:1]])
    extra = count_incidences(z9, pts[:1], pls)
    assert count_incidences(z9, doubled, pls) == base + extra


def test_unit_weights_agree_with_plain(f3x2):
    pts = sample_points(f3x2, 19, 601)
    pls = sample_planes(f3x2, 19, 602)
    pfam = WeightedFamily.uniform(f3x2, pts)
    qfam = WeightedFamily.uniform(f3x2, pls)
    assert count_weighted_incidences(pfam, qfam) == count_incidences(f3x2, pts, pls)


def test_single_weighted_pair(z9):
    # point (1, 2, 4) lies on u=3, v=2, d = 3*1 + 2*2 + 4 = 2
    pfam = WeightedFamily(z9, [(1, 2, 4)], np.array([3]))
    on = WeightedFamily(z9, [(3, 2, 2)], np.array([2]))
    off = WeightedFamily(z9, [(3, 2, 1)], np.array([2]))
    assert count_weighted_incidences(pfam, on) == 6
    assert count_weighted_incidences(pfam, off) == 0


def test_random_distinct_families_pass_bound(z9, z27, z25):
    for ring, np_, nl in [(z9, 60, 45), (z27, 200, 150), (z25, 120, 80)]:
        pts = sample_points(ring, np_, mix64(31, ring.order))
        pls = sample_planes(ring, nl, mix64(32, ring.order))
        rep = incidence_bound_report(ring, pts, pls)
        assert rep.verdict == "pass"
        assert rep.ratio is not None and rep.ratio <= 1


def test_weight_gate_mismatch(z9):
    pfam = WeightedFamily(z9, [(0, 0, 0)], np.array([2]))
    qfam = WeightedFamily(z9, [(0, 0, 0)], np.array([3]))
    rep = weighted_bound_report(pfam, qfam, seed=5)
    assert rep.verdict == "hypothesis_not_met"
    assert rep.ratio is None
    assert rep.lhs == 0 and rep.rhs == 0
    assert not rep.gates_ok


def test_report_json_roundtrip(z3, tmp_path):
    pts = all_triples(z3)
    rep = incidence_bound_report(z3, pts[:12], pts[:9], seed=99)
    wire = json.loads(rep.to_json_line())
    back = CheckReport.from_json_dict(wire)
    assert isinstance(back, CheckReport)
    assert back.theorem == rep.theorem
    assert back.lhs == rep.lhs and back.rhs == rep.rhs
    assert back.verdict == rep.verdict
    assert back.hypotheses == rep.hypotheses
    assert back.ratio == rep.ratio

    # the wire ratio is a float; reading rebuilds the exact lhs/rhs
    config = ExperimentConfig(
        theorem="T1_6", ring_spec="zpr:p=3,r=2", mode=parse_mode("random:5:50"), seed=7
    )
    reports, _ = run_experiment(config)
    path = tmp_path / "t16.jsonl"
    write_jsonl(reports, str(path))
    again = read_jsonl(str(path))
    assert sum(r.ratio is not None for r in reports) == 50
    assert [r.ratio for r in again] == [r.ratio for r in reports]
    assert [r.to_json_line() for r in again] == [r.to_json_line() for r in reports]


def test_family_parse_and_format(z9, tmp_path):
    text = "# header\n1,2,3\n\n4,5,6@7\n 8,0,1 @2\n"
    fam = parse_family_lines(z9, text.splitlines())
    assert fam.items.tolist() == [[1, 2, 3], [4, 5, 6], [8, 0, 1]]
    assert fam.weights.tolist() == [1, 7, 2]
    assert fam.total_weight == 10
    assert fam.max_weight == 7
    out = format_family(fam)
    assert out == "1,2,3\n4,5,6@7\n8,0,1@2\n"
    path = tmp_path / "fam.txt"
    path.write_text(out)
    again = load_family(z9, str(path))
    assert again.items.tolist() == fam.items.tolist()
    assert again.weights.tolist() == fam.weights.tolist()


def test_family_literal_small_and_digest(z9):
    fam = WeightedFamily(z9, [(1, 2, 3)], np.array([4]))
    assert family_literal(fam) == "1,2,3@4"
    big = WeightedFamily.uniform(
        z9, [(i % 9, (i // 9) % 9, i % 3) for i in range(80)]
    )
    lit = family_literal(big)
    assert lit.startswith("count=80;sha256=")


def test_family_errors(z9):
    with pytest.raises(ValueError, match="expected"):
        parse_family_lines(z9, ["1,2"])
    with pytest.raises(ValueError, match="malformed"):
        parse_family_lines(z9, ["1,2,x"])
    with pytest.raises(ValueError, match="no triples"):
        parse_family_lines(z9, ["# nothing", ""])
    with pytest.raises(ValueError, match="out of range"):
        as_family(z9, [(0, 0, 9)])
    with pytest.raises(ValueError, match="empty"):
        as_family(z9, np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="triples"):
        as_family(z9, [(1, 2)])
    with pytest.raises(ValueError, match="positive"):
        WeightedFamily(z9, [(0, 0, 0)], np.array([0]))
    with pytest.raises(ValueError, match="one weight per"):
        WeightedFamily(z9, [(0, 0, 0)], np.array([1, 2]))
    with pytest.raises(ValueError, match="total weight"):
        WeightedFamily(z9, [(0, 0, 0), (1, 1, 1)], np.array([MAX_TOTAL_WEIGHT // 2] * 2))
    with pytest.raises(ValueError, match="different rings"):
        f9 = make_ring("fqxr", 3, s=2, r=1)
        count_weighted_incidences(
            WeightedFamily.uniform(z9, [(0, 0, 0)]),
            WeightedFamily.uniform(f9, [(0, 0, 0)]),
        )
