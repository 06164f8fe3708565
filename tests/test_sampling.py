"""Block sampling: every row of a block draw equals its scalar draw."""

import itertools

import numpy as np
import pytest

from fvrlab import sampling
from fvrlab.experiments import ExperimentConfig, _family, _random_masks, parse_mode
from fvrlab.ring import parse_ring_spec
from fvrlab.sampling import (
    _STREAM_MIN_COUNT,
    SplitMix64,
    _drawn_steps,
    bounded_arr,
    code_triples,
    mix64,
    mix64_arr,
    sample_distinct,
    sample_points,
    sample_subset,
    sample_subsets,
    sample_unit_subset,
)

from oracles import scalar_sample_distinct

RINGS = ("zpr:p=3,r=2", "fqxr:p=3,s=1,r=2", "zpr:p=3,r=4", "fqxr:p=3,s=2,r=2",
         "zpr:p=3,r=6", "fqxr:p=3,s=3,r=2")


def sizes_for(n):
    if n <= 81:
        return range(1, n + 1)
    return sorted({1, 2, 3, n // 2, n - 1, n, *range(1, n + 1, 53)})


def test_mix64_arr_matches_mix64():
    masters = [0, 1, 2**63, 2**64 - 1]
    for master in masters:
        got = mix64_arr(master, np.arange(50)).tolist()
        assert got == [mix64(master, t) for t in range(50)]
    seeds = np.array(masters, dtype=np.uint64)
    assert mix64_arr(seeds, 3).tolist() == [mix64(m, 3) for m in masters]


@pytest.mark.parametrize("spec", RINGS)
def test_block_rows_equal_sample_distinct(spec):
    n = parse_ring_spec(spec).order
    for size in sizes_for(n):
        seeds = [mix64(size, t) for t in range(12 if n > 81 else 30)]
        rows = sample_subsets(n, size, seeds)
        assert rows.shape == (len(seeds), size)
        for seed, row in zip(seeds, rows.tolist()):
            assert row == sample_distinct(n, size, seed), (spec, size, seed)


@pytest.mark.parametrize("spec", ["zpr:p=3,r=1", "zpr:p=3,r=2", "fqxr:p=3,s=2,r=2"])
def test_code_triples_split_codes_as_divmod_does(spec):
    ring = parse_ring_spec(spec)
    n = ring.order
    codes = sample_distinct(n**3, min(n**3, 450), 5)
    triples = [[code // n**2, code // n % n, code % n] for code in codes]
    assert code_triples(n, codes).tolist() == triples
    assert sample_points(ring, len(codes), 5).tolist() == triples
    if n <= 9:
        every = _family(ring, "all", None, 0, 0).tolist()
        assert every == [list(t) for t in itertools.product(range(n), repeat=3)]


def test_domains_past_the_block_take_the_sparse_path():
    seeds = [mix64(8, t) for t in range(5)]
    rows = sample_subsets(3**11, 6, seeds)
    assert rows.tolist() == [sample_distinct(3**11, 6, seed) for seed in seeds]


@pytest.mark.parametrize("spec", RINGS)
def test_sweep_draws_equal_scalar_subsets(spec):
    # the masks a random sweep draws, units included, against the RSet samplers
    ring = parse_ring_spec(spec)
    seeds = mix64_arr(77, np.arange(25))
    for theorem, draw, domain in (
        ("T1_5", sample_subset, ring.order),
        ("T1_9", sample_unit_subset, ring.units_count),
    ):
        extra = {"d": 2} if theorem == "T1_9" else {}
        for size in (1, 2, domain // 3 + 1, domain):
            config = ExperimentConfig(
                theorem=theorem, ring_spec=spec, mode=parse_mode(f"random:{size}:25"), **extra
            )
            (masks,) = _random_masks(config, ring, seeds)
            for seed, mask in zip(seeds.tolist(), masks):
                want = draw(ring, size, mix64(seed, 0))
                assert np.array_equal(mask, want.mask), (spec, theorem, size)


def test_sample_distinct_equals_the_scalar_walk():
    # n**3 domains, as the point and plane families draw them: no output of
    # the stream is rejected, so from _STREAM_MIN_COUNT draws on it is
    # computed in one pass
    counts = (1, 2, _STREAM_MIN_COUNT - 1, _STREAM_MIN_COUNT, 450, 2000)
    for n, count in itertools.product((3, 9, 25, 27, 81, 729), counts):
        domain = n**3
        if count > domain:
            continue
        for t in range(6):
            seed = mix64(n * count, t)
            assert len(_drawn_steps(domain, count, seed)) == count
            assert sample_distinct(domain, count, seed) == scalar_sample_distinct(
                domain, count, seed
            ), (domain, count, seed)
    # a bound just above 2**63 rejects about half of all outputs, and one
    # near 531441**3 (sample_points on fqxr:p=3,s=12,r=1) up to 1 in 123, so
    # the stream is cut at its first rejected output and the walk resumes
    # there; 2**64 - 1 rejects one output in 2**64
    cut, kept = {}, {}
    for domain, count in ((2**63 + 1, 1), (2**63 + 1000, 40), (531441**3, 450), (2**64 - 1, 5)):
        cut[domain] = kept[domain] = 0
        for t in range(25):
            seed = mix64(domain % 1000 + count, t)
            steps = _drawn_steps(domain, count, seed)
            cut[domain] += len(steps) < count
            kept[domain] += len(steps)
            assert sample_distinct(domain, count, seed) == scalar_sample_distinct(
                domain, count, seed
            ), (domain, count, seed)
    assert 5 < cut[2**63 + 1] < 20
    assert cut[2**63 + 1000] == cut[531441**3] == 25 and cut[2**64 - 1] == 0
    # the accepted prefixes: about one draw of 40, about a quarter of 450
    assert 0 < kept[2**63 + 1000] < 25 * 5 and kept[531441**3] > 25 * 50


def test_sample_distinct_walks_below_the_crossover(monkeypatch):
    passes = []
    # an empty accepted prefix: the whole stream is walked
    monkeypatch.setattr(sampling, "_drawn_steps", lambda *args: passes.append(args) or [])
    domain = 81**3
    for count in (1, _STREAM_MIN_COUNT - 1, _STREAM_MIN_COUNT):
        assert sample_distinct(domain, count, 5) == scalar_sample_distinct(domain, count, 5)
    assert passes == [(domain, _STREAM_MIN_COUNT, 5)]


def test_bounded_arr_redraws_rejected_rows_only():
    # near m = 2**63 + 1 about half of all draws are rejected
    m = 2**63 + 1
    seeds = np.array([mix64(3, t) for t in range(500)], dtype=np.uint64)
    states = seeds.copy()
    got = bounded_arr(states, m)
    redrawn = 0
    for seed, value, state in zip(seeds.tolist(), got.tolist(), states.tolist()):
        gen = SplitMix64(seed)
        assert value == gen.bounded(m)
        assert state == gen.state
        redrawn += (state - seed) % 2**64 != 0x9E3779B97F4A7C15
    assert 150 < redrawn < 350
    # a power-of-two bound never rejects
    states = seeds.copy()
    want = [SplitMix64(seed).bounded(2**40) for seed in seeds.tolist()]
    assert bounded_arr(states, 2**40).tolist() == want


def test_sample_subsets_refuses_bad_counts():
    with pytest.raises(ValueError, match="cannot draw 10 distinct values from 9"):
        sample_subsets(9, 10, [1])
    with pytest.raises(ValueError, match="cannot draw 0"):
        sample_subsets(9, 0, [1])
    with pytest.raises(ValueError, match="bound"):
        bounded_arr(np.zeros(2, dtype=np.uint64), 0)
