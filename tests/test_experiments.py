"""Sweep engine: enumeration order, seeding, summaries, config files."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from fvrlab import experiments
from fvrlab.cli import main
from fvrlab.experiments import (
    EXHAUSTIVE_BUDGET,
    ExperimentConfig,
    Mode,
    exhaustive_budget,
    input_count,
    load_config,
    parse_config_lines,
    parse_mode,
    run_experiment,
    subsets_up_to,
)
from fvrlab.report import (
    BoundColumn,
    CheckReport,
    InputBlock,
    ReportBlock,
    ReportList,
    jsonl_chunks,
)
from fvrlab.ring import parse_ring_spec
from fvrlab.sampling import mix64, sample_subset
from fvrlab.setalg import parse_quadpoly, parse_set_literal
from oracles import (
    scalar_check_expander,
    scalar_grid_reports,
    subset_by_rank,
    summarize_reports,
    unrank_combination,
)

Z9 = "zpr:p=3,r=2"


def test_parse_mode():
    assert parse_mode("exhaustive:3") == Mode("exhaustive", max_size=3)
    assert parse_mode("random:4:100") == Mode("random", sizes=(4,), trials=100)
    assert parse_mode("random:4,5,6:9") == Mode("random", sizes=(4, 5, 6), trials=9)
    assert parse_mode("random:4,5,6:9").literal == "random:4,5,6:9"
    assert parse_mode("exhaustive:2").literal == "exhaustive:2"
    for bad in ("", "exhaustive", "exhaustive:0", "random:4", "random::5",
                "random:0:5", "random:4:0", "walk:3", "exhaustive:two"):
        with pytest.raises(ValueError, match="bad mode"):
            parse_mode(bad)


def test_unrank_combination_matches_itertools():
    n, k = 7, 3
    expected = list(itertools.combinations(range(n), k))
    got = [unrank_combination(n, k, rank) for rank in range(math.comb(n, k))]
    assert got == expected


def test_subset_by_rank_enumerates_size_then_lex():
    ring = parse_ring_spec(Z9)
    span = subsets_up_to(9, 2)
    assert span == 9 + 36
    seen = [tuple(subset_by_rank(ring, 2, rank).indices()) for rank in range(span)]
    assert seen[:9] == [(i,) for i in range(9)]
    assert seen[9:] == list(itertools.combinations(range(9), 2))
    assert len(set(seen)) == span


@pytest.mark.parametrize("n, k", [(9, 2), (7, 4), (9, 3), (12, 5), (27, 2), (5, 5)])
def test_rank_masks_match_itertools(n, k):
    expected = [c for size in range(1, k + 1) for c in itertools.combinations(range(n), size)]
    masks = experiments._rank_masks(n, k, np.arange(subsets_up_to(n, k)))
    assert masks.shape == (len(expected), n)
    assert [tuple(np.flatnonzero(row)) for row in masks] == expected


def test_rank_masks_of_a_range_starting_inside_a_size():
    ring = parse_ring_spec("zpr:p=3,r=3")
    ranks = np.arange(400, 1200)  # sizes 2 and 3, from inside size 2
    masks = experiments._rank_masks(27, 3, ranks)
    assert [tuple(np.flatnonzero(row)) for row in masks] == [
        tuple(subset_by_rank(ring, 3, rank).indices()) for rank in ranks.tolist()
    ]


def test_budget_gate():
    assert exhaustive_budget(9, 2, 3) == 45**3
    config = ExperimentConfig(theorem="T1_3", ring_spec=Z9, mode=parse_mode("exhaustive:9"),
                              f="a=1;R=0,0,0;S=0,0,0;T=0,1,0")
    ring = parse_ring_spec(Z9)
    assert exhaustive_budget(9, 9, 3) == 511**3 > EXHAUSTIVE_BUDGET
    with pytest.raises(ValueError, match="budget"):
        input_count(config, ring)


def test_input_count_shapes():
    ring = parse_ring_spec(Z9)
    one_slot = ExperimentConfig(theorem="T1_5", ring_spec=Z9, mode=parse_mode("exhaustive:3"))
    assert input_count(one_slot, ring) == subsets_up_to(9, 3)
    rand = ExperimentConfig(theorem="T1_5", ring_spec=Z9, mode=parse_mode("random:4:17"))
    assert input_count(rand, ring) == 17
    fam = ExperimentConfig(theorem="T2_2", ring_spec=Z9, mode=parse_mode("exhaustive:2"))
    with pytest.raises(ValueError, match="random-mode only"):
        input_count(fam, ring)
    fam_one_size = ExperimentConfig(theorem="T2_2", ring_spec=Z9, mode=parse_mode("random:4:5"))
    with pytest.raises(ValueError, match="two sizes"):
        input_count(fam_one_size, ring)
    three_slots = ExperimentConfig(theorem="T1_3", ring_spec=Z9, mode=parse_mode("random:4:5"))
    with pytest.raises(ValueError, match="3 size"):
        input_count(three_slots, ring)


def test_exhaustive_sweep_covers_every_subset_once():
    config = ExperimentConfig(theorem="T1_6", ring_spec=Z9, mode=parse_mode("exhaustive:2"))
    reports, summary = run_experiment(config)
    assert summary["inputs"] == 45 and len(reports) == 45
    seen = [rep.sets["A"] for rep in reports]
    expected = [str(i) for i in range(9)] + [
        f"{i},{j}" for i, j in itertools.combinations(range(9), 2)
    ]
    assert seen == expected
    # the mass gate shuts out small sets, the rest record their ratio
    assert {rep.verdict for rep in reports} <= {"ratio_recorded", "hypothesis_not_met"}
    assert all(rep.seed is None for rep in reports)


def test_random_sweep_is_reproducible_and_trialwise_seeded():
    config = ExperimentConfig(theorem="T1_5", ring_spec=Z9, mode=parse_mode("random:5:12"), seed=7)
    first, summary_a = run_experiment(config)
    second, summary_b = run_experiment(config)
    assert [r.to_json_line() for r in first] == [r.to_json_line() for r in second]
    assert summary_a == summary_b
    assert len({r.seed for r in first}) == 12  # one seed per trial
    # a different master seed draws different sets
    other, _ = run_experiment(
        ExperimentConfig(theorem="T1_5", ring_spec=Z9, mode=parse_mode("random:5:12"), seed=8)
    )
    assert [r.sets["A"] for r in other] != [r.sets["A"] for r in first]


def test_worker_count_does_not_change_output(monkeypatch):
    config = ExperimentConfig(theorem="T1_6", ring_spec=Z9, mode=parse_mode("random:4:10"), seed=3)
    serial, summary_serial = run_experiment(config)
    monkeypatch.setenv("FVRLAB_WORKERS", "3")
    pooled, summary_pooled = run_experiment(config)
    assert [r.to_json_line() for r in serial] == [r.to_json_line() for r in pooled]
    assert summary_serial == summary_pooled


LINEAR_T = "a=1;R=0,0,0;S=0,0,0;T=0,1,0"
QUAD_T = "a=2;R=1,0,3;S=0,5,0;T=1,2,0"


def scalar_expander(config, index):
    """The T1_3 report of one sweep input, drawn and checked one set at a time."""
    ring = parse_ring_spec(config.ring_spec)
    spec = parse_quadpoly(ring, config.f)
    if config.mode.kind == "random":
        seed = mix64(config.seed, index)
        sizes = config.mode.sizes
        sets = [sample_subset(ring, k, mix64(seed, slot)) for slot, k in enumerate(sizes)]
        return scalar_check_expander(spec, *sets, seed=seed)
    span = subsets_up_to(ring.order, config.mode.max_size)
    ranks = [index // span**2, index // span % span, index % span]
    sets = [subset_by_rank(ring, config.mode.max_size, rank) for rank in ranks]
    return scalar_check_expander(spec, *sets)


@pytest.mark.parametrize(
    "spec, f, mode, block",
    [
        ("zpr:p=3,r=2", LINEAR_T, "random:3,3,3:40", 7281),
        ("fqxr:p=3,s=2,r=2", LINEAR_T, "random:2,2,2:900", 809),
        ("fqxr:p=3,s=3,r=2", QUAD_T, "random:4,3,54:200", 89),  # gate_c_size holds
        ("fqxr:p=3,s=3,r=2", QUAD_T, "random:4,3,53:100", 89),  # and fails
        ("zpr:p=3,r=1", LINEAR_T, "exhaustive:2", 21845),
        ("zpr:p=7,r=1", QUAD_T.replace("T=1,2,0", "T=3,2,0"), "exhaustive:2", 9362),
        ("fqxr:p=3,s=1,r=2", QUAD_T, "exhaustive:1", 7281),
    ],
)
def test_block_expander_reports_equal_check_expander(spec, f, mode, block):
    # blocks hold BLOCK_ELEMS // order inputs; rows at every block edge are compared
    assert experiments.BLOCK_ELEMS // parse_ring_spec(spec).order == block
    config = ExperimentConfig(theorem="T1_3", ring_spec=spec, f=f, mode=parse_mode(mode), seed=5)
    reports, summary = run_experiment(config)
    total = len(reports)
    edges = {i for edge in range(0, total, block) for i in range(edge - 2, edge + 2)}
    for i in sorted(edges | set(range(0, total, max(1, total // 150)))):
        if 0 <= i < total:
            assert reports[i].to_json_line() == scalar_expander(config, i).to_json_line(), i
    assert summary["verdicts"]["fail"] == 0


def test_block_expander_digests_sets_past_the_literal_cap():
    config = ExperimentConfig(
        theorem="T1_3", ring_spec="zpr:p=3,r=8", f=LINEAR_T,
        mode=parse_mode("random:4097,1,1:2"), seed=9,
    )
    reports, _ = run_experiment(config)
    for i, rep in enumerate(reports):
        assert rep.sets["A"].startswith("size=4097;sha256=")
        assert rep.to_json_line() == scalar_expander(config, i).to_json_line()


def test_block_expander_bytes_do_not_depend_on_workers(monkeypatch):
    config = ExperimentConfig(
        theorem="T1_3", ring_spec="fqxr:p=3,s=3,r=2", f=QUAD_T,
        mode=parse_mode("random:3,2,60:300"), seed=13,
    )
    serial, summary_serial = run_experiment(config)
    monkeypatch.setenv("FVRLAB_WORKERS", "2")
    pooled, summary_pooled = run_experiment(config)
    assert [r.to_json_line() for r in serial] == [r.to_json_line() for r in pooled]
    assert summary_serial == summary_pooled


@pytest.mark.parametrize(
    "spec, f, mode, workers",
    [
        # 3 blocks of 89 rows (edges at 89 and 178), gate_c_size holding on every row
        ("fqxr:p=3,s=3,r=2", QUAD_T, "random:4,3,54:200", None),
        # every row fails the gate: no ratio, null extremes
        ("fqxr:p=3,s=3,r=2", QUAD_T, "random:4,3,53:100", None),
        # 21952 inputs in 3 blocks of 9362, many tied ratios
        ("zpr:p=7,r=1", QUAD_T.replace("T=1,2,0", "T=3,2,0"), "exhaustive:2", None),
        ("zpr:p=3,r=2", LINEAR_T, "random:3,3,3:7300", "2"),
        ("zpr:p=3,r=1", LINEAR_T, "exhaustive:2", "2"),
    ],
)
def test_block_summary_equals_the_list_oracle(spec, f, mode, workers, monkeypatch):
    if workers:
        monkeypatch.setenv("FVRLAB_WORKERS", workers)
    config = ExperimentConfig(theorem="T1_3", ring_spec=spec, f=f, mode=parse_mode(mode), seed=4)
    reports, summary = run_experiment(config)
    assert all(isinstance(part, ReportBlock) for part in reports.parts)
    assert summary == summarize_reports(config, reports, summary["inputs"])
    if mode == "random:4,3,53:100":
        assert summary["verdicts"]["hypothesis_not_met"] == 100 and summary["ratio_min"] is None


def test_list_summary_equals_the_list_oracle():
    config = ExperimentConfig(theorem="T7_1", ring_spec=Z9, mode=parse_mode("random:4:30"), seed=6)
    reports, summary = run_experiment(config)
    assert summary == summarize_reports(config, reports, 30)
    # the summary does not depend on where the blocks split: one block per report
    one_each = ReportList([block for rep in reports for block in ReportBlock.runs([rep])])
    assert experiments.summarize(config, one_each, 30) == summary


# one small sweep of every theorem id
EVERY_THEOREM = [
    dict(theorem="T1_3", f=QUAD_T, mode="random:2,2,3:20"),
    dict(theorem="T1_5", mode="random:4:20"),
    dict(theorem="T1_6", mode="exhaustive:2"),
    dict(theorem="T1_7", poly1="1,0,2", mode="random:3:20"),
    dict(theorem="T1_8", mode="random:5:20"),
    dict(theorem="T1_9", d=2, mode="random:3:20"),
    dict(theorem="T2_2", mode="random:6,5:6"),
    dict(theorem="T2_4", mode="random:6,6:6"),
    dict(theorem="T7_1", mode="random:3:10"),
    dict(theorem="PLUN13", mode="random:4:20"),
]


@pytest.mark.parametrize("fields", EVERY_THEOREM, ids=[f["theorem"] for f in EVERY_THEOREM])
def test_every_sweep_part_is_a_report_block(fields, monkeypatch):
    fields = dict(fields, mode=parse_mode(fields["mode"]))
    config = ExperimentConfig(ring_spec=Z9, seed=8, **fields)
    reports, summary = run_experiment(config)
    # a T7_1 part holds one ReportBlock per report shape
    kind = InputBlock if config.theorem == "T7_1" else ReportBlock
    assert all(isinstance(part, kind) for part in reports.parts)
    blocks = [block for part in reports.parts for block in getattr(part, "shapes", [part])]
    assert all(isinstance(block, ReportBlock) for block in blocks)
    assert summary == summarize_reports(config, reports, summary["inputs"])
    text = "".join(jsonl_chunks(reports))
    assert text == "".join(rep.to_json_line() + "\n" for rep in reports)
    # the bytes do not depend on the worker count
    monkeypatch.setenv("FVRLAB_WORKERS", "2")
    pooled, pooled_summary = run_experiment(config)
    assert "".join(jsonl_chunks(pooled)) == text and pooled_summary == summary


def test_block_sweep_to_out_builds_no_report_objects(tmp_path, monkeypatch):
    # the block path renders its lines from columns: no CheckReport, and
    # json.dumps only for the summary line
    calls = {"init": 0, "dumps": 0}
    init, dumps = CheckReport.__init__, json.dumps

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return dumps(*args, **kwargs)

    monkeypatch.setattr(CheckReport, "__init__", counted_init)
    monkeypatch.setattr(json, "dumps", counted_dumps)
    monkeypatch.delenv("FVRLAB_WORKERS", raising=False)
    out = tmp_path / "t.jsonl"
    argv = ["check", "T1_3", "--ring", "fqxr:p=3,s=2,r=2", "--f", QUAD_T,
            "--mode", "random:2,3,18:300", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    assert calls == {"init": 0, "dumps": 1}
    assert len(out.read_bytes().splitlines()) == 300


def test_t7_1_emits_triple_and_line_reports_in_order():
    config = ExperimentConfig(theorem="T7_1", ring_spec=Z9, mode=parse_mode("random:3:4"), seed=1)
    reports, summary = run_experiment(config)
    assert summary["inputs"] == 4 and summary["reports"] == 8
    for geo, lines in zip(reports[0::2], reports[1::2]):
        assert geo.sets["A"] == lines.sets["A"]
        assert geo.seed == lines.seed
        assert any(h.name == "form_weak_relaxation" for h in geo.hypotheses)
        assert lines.verdict in ("ratio_recorded", "hypothesis_not_met")


# T7_1 on z9, z25, F_3[x]/(x^2) and F_9[x]/(x^2): random, exhaustive (its
# |A| = 1 rows first) and a literal A
T71_RINGS = ("zpr:p=3,r=2", "zpr:p=5,r=2", "fqxr:p=3,s=1,r=2", "fqxr:p=3,s=2,r=2")
T71_RUNS = [(spec, mode) for spec in T71_RINGS for mode in ("random:4:60", "exhaustive:3", None)]


def t71_input(config, ring, index):
    """The set of one T7_1 sweep input and its seed, drawn one set at a time."""
    if config.mode is None:
        return parse_set_literal(ring, config.literals["A"]), None
    if config.mode.kind == "random":
        seed = mix64(config.seed, index)
        return sample_subset(ring, config.mode.sizes[0], mix64(seed, 0)), seed
    return subset_by_rank(ring, config.mode.max_size, index), None


@pytest.mark.parametrize("spec, mode", T71_RUNS)
def test_t7_1_block_bytes_equal_the_oracle_reports(spec, mode, monkeypatch):
    monkeypatch.delenv("FVRLAB_WORKERS", raising=False)
    ring = parse_ring_spec(spec)
    config = ExperimentConfig(
        theorem="T7_1", ring_spec=spec, mode=mode and parse_mode(mode), seed=11,
        literals={} if mode else {"A": "0,1,4,7"},
    )
    reports, summary = run_experiment(config)
    total = summary["inputs"]
    text = "".join(jsonl_chunks(reports))
    lines = text.splitlines(keepends=True)
    assert len(lines) == summary["reports"] == 2 * total
    # inputs at block edges and at the ends of each size, and a stride of the rest
    block = experiments.BLOCK_ELEMS // ring.order
    edges = [*range(0, total, block), ring.order, ring.order + math.comb(ring.order, 2)]
    near = {i for edge in edges for i in range(edge - 2, edge + 2)}
    for i in sorted(near | set(range(0, total, max(1, total // 120)))):
        if 0 <= i < total:
            bound, line = scalar_grid_reports(*t71_input(config, ring, i))
            assert lines[2 * i] + lines[2 * i + 1] == bound.to_json_line() + "\n" + line.to_json_line() + "\n", i
    # ranges that split inside a block, one inside the |A| = 1 rows of an
    # exhaustive sweep, concatenate to the same bytes
    cuts = sorted({0, min(total, 5), min(total, 40), min(total, 1000)})
    parts = [p for lo, hi in zip(cuts, cuts[1:]) for p in experiments._run_range(config, lo, hi)]
    assert "".join(jsonl_chunks(ReportList(parts))) == "".join(lines[: 2 * cuts[-1]])
    monkeypatch.setenv("FVRLAB_WORKERS", "2")
    pooled, pooled_summary = run_experiment(config)
    assert "".join(jsonl_chunks(pooled)) == text and pooled_summary == summary


def test_t7_1_fixture_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "t71_z9_random.jsonl")
    config = ExperimentConfig(theorem="T7_1", ring_spec=Z9, mode=parse_mode("random:4:25"), seed=104)
    with open(fixture) as fh:
        frozen = fh.read()
    for workers in (None, "2"):
        if workers:
            monkeypatch.setenv("FVRLAB_WORKERS", workers)
        else:
            monkeypatch.delenv("FVRLAB_WORKERS", raising=False)
        reports, _ = run_experiment(config)
        assert "".join(jsonl_chunks(reports)) == frozen


@pytest.mark.parametrize("spec, mode", [(Z9, "exhaustive:3"), ("zpr:p=3,r=4", "random:6:40"), (Z9, "random:1:6")])
def test_t7_1_summary_equals_the_runs_summary(spec, mode):
    # the interleaved parts fold as the same reports in one-row blocks do
    config = ExperimentConfig(theorem="T7_1", ring_spec=spec, mode=parse_mode(mode), seed=9)
    reports, summary = run_experiment(config)
    assert {type(part) for part in reports.parts} == {InputBlock}
    runs = ReportList(ReportBlock.runs(list(reports)))
    assert len(runs.parts) == len(reports)  # the two shapes alternate
    assert experiments.summarize(config, runs, summary["inputs"]) == summary
    assert summary == summarize_reports(config, reports, summary["inputs"])


def test_interleaved_argmin_is_the_first_least_report_in_input_order():
    # least ratio 1/2: first at input 0's line report, then at input 1's
    # bound report, which a shape-by-shape fold would have reached first
    ring = parse_ring_spec(Z9)

    def block(name, lhs, rhs, tag):
        n = len(lhs)
        column = BoundColumn(name, [True] * n, [1] * n, [1] * n)
        sets = {"A": [f"{tag}{i}" for i in range(n)]}
        holds = [x <= y for x, y in zip(lhs, rhs)] if name.startswith("form") else [None] * n
        return ReportBlock.conclude("T7_1", ring, [column], sets, [None] * n, lhs, rhs, holds)

    part = InputBlock([
        block("form_weak_relaxation", [3, 2, 5], [4, 4, 2], "bound"),
        block("gate_two_points", [1, 5, 1], [2, 1, 2], "line"),
    ])
    config = ExperimentConfig(theorem="T7_1", ring_spec=Z9, mode=parse_mode("random:2:3"))
    one_row = ReportList(ReportBlock.runs(list(ReportList([part]))))
    summary = experiments.summarize(config, ReportList([part]), 3)
    assert summary == experiments.summarize(config, one_row, 3)
    assert summary == summarize_reports(config, ReportList([part]), 3)
    assert summary["argmin_sets"] == {"A": "line0"} and summary["ratio_min"] == "1/2"
    assert summary["verdicts"] == {"pass": 2, "fail": 1, "hypothesis_not_met": 0, "ratio_recorded": 3}


def test_t1_9_sweep_samples_units():
    ring = parse_ring_spec(Z9)
    units = set(ring.units())
    config = ExperimentConfig(
        theorem="T1_9", ring_spec=Z9, d=2, mode=parse_mode("random:4:10"), seed=5
    )
    reports, _ = run_experiment(config)
    for rep in reports:
        members = {int(tok) for tok in rep.sets["A"].split(",")}
        assert members <= units
        assert rep.sets["d"] == "2"


def test_family_sweep_draws_sizes_and_equal_totals():
    config = ExperimentConfig(
        theorem="T2_4", ring_spec=Z9, mode=parse_mode("random:6,6:8"), seed=2, max_weight=5
    )
    reports, summary = run_experiment(config)
    assert summary["inputs"] == 8
    for rep in reports:
        gate = next(h for h in rep.hypotheses if h.name == "gate_equal_weights")
        assert gate.ok and gate.lhs == gate.rhs
        assert rep.verdict == "ratio_recorded"
    plain = ExperimentConfig(
        theorem="T2_2", ring_spec=Z9, mode=parse_mode("random:10,7:6"), seed=2
    )
    reports, _ = run_experiment(plain)
    for rep in reports:
        assert rep.sets["points"].count(";") == 9
        assert rep.sets["planes"].count(";") == 6


def test_summary_ratio_stats_match_reports():
    from fractions import Fraction

    config = ExperimentConfig(theorem="T1_6", ring_spec=Z9, mode=parse_mode("random:5:30"), seed=9)
    reports, summary = run_experiment(config)
    ratios = [rep.ratio for rep in reports if rep.ratio is not None]
    low, high = min(ratios), max(ratios)
    assert summary["ratio_min"] == f"{low.numerator}/{low.denominator}"
    assert summary["ratio_max"] == f"{high.numerator}/{high.denominator}"
    assert summary["ratio_mean"] == pytest.approx(float(sum(ratios) / len(ratios)))
    winner = next(rep for rep in reports if rep.ratio == low)
    assert summary["argmin_sets"] == dict(winner.sets)
    assert sum(summary["verdicts"].values()) == summary["reports"]
    assert isinstance(low, Fraction)


def test_explicit_single_checks():
    config = ExperimentConfig(
        theorem="T1_3",
        ring_spec=Z9,
        f="a=1;R=0,0,0;S=0,0,0;T=0,1,0",
        literals={"A": "0,1", "B": "1,2", "C": "all"},
    )
    reports, summary = run_experiment(config)
    assert len(reports) == 1 and summary["mode"] == "single"
    assert reports[0].sets["A"] == "0,1" and reports[0].seed is None

    missing_set = ExperimentConfig(theorem="T1_3", ring_spec=Z9, f="a=1;R=0,0,0;S=0,0,0;T=0,1,0")
    with pytest.raises(ValueError, match="explicit set"):
        run_experiment(missing_set)
    with pytest.raises(ValueError, match="polynomial"):
        run_experiment(ExperimentConfig(theorem="T1_3", ring_spec=Z9, literals={"A": "0", "B": "0", "C": "0"}))
    with pytest.raises(ValueError, match="quadratic"):
        run_experiment(ExperimentConfig(theorem="T1_7", ring_spec=Z9, literals={"A": "0,1"}))


def test_config_validation():
    with pytest.raises(ValueError, match="unknown theorem"):
        ExperimentConfig(theorem="T9_9", ring_spec=Z9)
    with pytest.raises(ValueError, match="unknown format"):
        ExperimentConfig(theorem="T1_5", ring_spec=Z9, fmt="yaml")
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(theorem="T1_9", ring_spec=Z9, d=0)
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(theorem="T2_4", ring_spec=Z9, max_weight=0)


def test_config_refuses_unread_fields(monkeypatch):
    # the Python API once dropped fields its theorem does not read
    def no_input(*args):
        raise AssertionError("an input ran before an unread field was refused")

    monkeypatch.setattr(experiments, "_run_input", no_input)
    with pytest.raises(ValueError, match="T1_5 does not read 'd'"):
        run_experiment(
            ExperimentConfig(
                theorem="T1_5", ring_spec="zpr:p=3,r=2", literals={"A": "1,2"}, d=3, points="5"
            )
        )
    cases = [
        (dict(theorem="T1_5", literals={"A": "1,2"}, points="5"), "T1_5 does not read 'points'"),
        (dict(theorem="T1_5", literals={"A": "1,2", "B": "3"}), "T1_5 does not read 'B'"),
        (dict(theorem="T1_5", mode=parse_mode("random:2:1"), literals={"A": "1"}),
         "a mode draws its own sets"),
        (dict(theorem="T2_4", points="all", planes="all", max_weight=3),
         "T2_4 does not read 'max_weight'"),
        (dict(theorem="T7_1", literals={"A": "1"}, f="a=1;R=0,0,0;S=0,0,0;T=0,1,0"),
         "T7_1 does not read 'f'"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(ring_spec=Z9, **kwargs)
    # a field holding its default cannot be told from an absent one
    ExperimentConfig(theorem="T1_5", ring_spec=Z9, literals={"A": "1,2"}, d=1, max_weight=4)
    ExperimentConfig(theorem="T2_4", ring_spec=Z9, points="all", planes="all", max_weight=4)


def test_config_file_parsing(tmp_path):
    text = (
        "# sweep description\n"
        "theorem = T1_9\n"
        "ring = zpr:p=5,r=2\n"
        "\n"
        "mode = random:14:25\n"
        "seed = 11\n"
        "d = 2\n"
        "format = csv\n"
        "out = reports.csv\n"
    )
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    config = load_config(str(path))
    assert config.theorem == "T1_9" and config.ring_spec == "zpr:p=5,r=2"
    assert config.mode == Mode("random", sizes=(14,), trials=25)
    assert config.seed == 11 and config.d == 2
    assert config.fmt == "csv" and config.out == "reports.csv"

    defaults = parse_config_lines(["theorem = T1_5", "ring = zpr:p=3,r=2"])
    assert defaults.mode is None and defaults.seed == 0
    assert defaults.fmt == "jsonl" and defaults.d == 1 and defaults.max_weight == 4

    cases = [
        (["theorem = T1_5"], "needs a 'ring'"),
        (["ring = zpr:p=3,r=2"], "needs a 'theorem'"),
        (["theorem = T1_5", "ring = zpr:p=3,r=2", "colour = red"], "unknown key"),
        (["theorem = T1_5", "theorem = T1_6", "ring = zpr:p=3,r=2"], "duplicate key"),
        (["theorem"], "expected key = value"),
        (["theorem ="], "expected key = value"),
    ]
    for lines, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_config_lines(lines)


def test_config_literals_roundtrip():
    config = parse_config_lines(
        [
            "theorem = T1_3",
            "ring = zpr:p=3,r=2",
            "f = a=1;R=0,0,0;S=0,0,0;T=0,1,0",
            "A = 0,1",
            "B = 1,2",
            "C = all",
        ]
    )
    reports, _ = run_experiment(config)
    assert reports[0].sets["C"] == "all" or reports[0].sets["C"].startswith("0,1,2")
    assert reports[0].verdict in ("pass", "hypothesis_not_met")
