"""The JSONL renderer against json.dumps, for single reports and for blocks."""

import hashlib
import json
import pickle
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvrlab import report
from fvrlab.report import (
    LITERAL_CAP,
    THEOREMS,
    VERDICTS,
    BoundColumn,
    BoundRow,
    CheckReport,
    InputBlock,
    ReportBlock,
    ReportList,
    jsonl_chunks,
    literals_or_digests,
    set_literal_or_digest,
)
from fvrlab.ring import make_ring
from fvrlab.setalg import RSet


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def ring_of(spec: str):
    return SimpleNamespace(spec_string=lambda: spec)


def verdict_counts(reports) -> dict[str, int]:
    return {**dict.fromkeys(VERDICTS, 0), **Counter(rep.verdict for rep in reports)}


# quotes, backslashes, control characters, "%" (the block template's slot
# marker) and text outside ASCII, next to plain literals
SPECIAL = st.sampled_from('"\\%{}:,\x00\x1f\x7f\u00e9\u2028\U0001f600')
TEXT = st.text(alphabet=st.one_of(SPECIAL, st.characters()), max_size=12)
BIG = st.integers(-(2**80), 2**80)
SEEDS = st.one_of(st.sampled_from([None, 0, 2**64 - 1]), st.integers(0, 2**64 - 1))
INT64 = st.integers(-(2**63), 2**63 - 1).map(np.int64)


@st.composite
def reports(draw):
    lhs, rhs = draw(BIG), draw(BIG)
    ratio = None if rhs == 0 or draw(st.booleans()) else Fraction(lhs, rhs)
    rows = draw(st.lists(st.builds(BoundRow, TEXT, st.booleans(), BIG, BIG), max_size=3))
    return CheckReport(
        theorem=draw(st.sampled_from(THEOREMS)),
        ring=draw(TEXT),
        hypotheses=rows,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        verdict=draw(st.sampled_from(VERDICTS)),
        seed=draw(SEEDS),
        sets=draw(st.dictionaries(TEXT, TEXT, max_size=4)),
    )


@settings(max_examples=300, deadline=None)
@given(reports())
def test_to_json_line_is_json_dumps(rep):
    line = rep.to_json_line()
    assert line == dumps(rep.to_json_dict())
    assert CheckReport.from_json_dict(json.loads(line)).to_json_line() == line


@st.composite
def blocks(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    def sides():
        # Python ints, numpy int64s or a mix: each fills its "%s" slot as is;
        # bound rows are never divided, so they may hold int64s
        return column(draw(st.sampled_from([BIG, INT64, st.one_of(BIG, INT64)])))

    names = draw(st.lists(st.one_of(TEXT, st.sampled_from(["gate_a", "gate_b"])), max_size=3))
    columns = [BoundColumn(name, column(st.booleans()), sides(), sides()) for name in names]
    keys = draw(st.lists(TEXT, unique=True, max_size=4))
    # only the first sets column has a value on every row
    sets = {key: column(st.one_of(st.none(), TEXT) if i else TEXT) for i, key in enumerate(keys)}
    holds = column(st.sampled_from([None, True, False]))
    # seeds all ints (slotted as is), all None, or mixed
    seeds = column(draw(st.sampled_from([st.integers(0, 2**64 - 1), st.none(), SEEDS])))
    return ReportBlock.conclude(
        draw(st.sampled_from(THEOREMS)), ring_of(draw(TEXT)), columns, sets, seeds,
        column(BIG), column(st.integers(1, 2**80)), holds,
    )


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_block_lines_are_json_dumps_of_its_reports(block):
    lines = block.jsonl().splitlines(keepends=True)
    assert len(lines) == len(block)
    ratios = {row: Fraction(lhs, rhs) for row, lhs, rhs in block.ratio_rows()}
    for i, line in enumerate(lines):
        rep = block.report(i)
        assert line == dumps(rep.to_json_dict()) + "\n" == rep.to_json_line() + "\n"
        assert rep.ratio == ratios.get(i)
        # the block's gate rule is gates_hold on the row's own bound rows
        assert (rep.verdict == "hypothesis_not_met") == (not rep.gates_ok)
    run = list(map(block.report, range(len(block))))
    assert block.verdict_counts() == verdict_counts(run)
    assert ratios == {row: rep.ratio for row, rep in enumerate(run) if rep.ratio is not None}
    mixed = ReportList([block, *ReportBlock.runs(run[:1]), block])
    assert "".join(jsonl_chunks(mixed)) == "".join(r.to_json_line() + "\n" for r in mixed)
    assert [r.to_json_line() for r in mixed[::-1]] == [r.to_json_line() for r in reversed(mixed)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(blocks(n), min_size=1, max_size=3)))
def test_input_block_interleaves_its_shapes_input_by_input(shapes):
    part = InputBlock(shapes)
    k = len(shapes)
    run = [shapes[j % k].report(j // k) for j in range(len(part))]
    assert len(part) == k * len(shapes[0]) == len(run)
    assert part.jsonl() == "".join(rep.to_json_line() + "\n" for rep in run)
    assert [part.report(j).to_json_line() for j in range(len(part))] == [r.to_json_line() for r in run]
    assert [part.sets_at(j) for j in range(len(part))] == [r.sets for r in run]
    assert part.verdict_counts() == verdict_counts(run)
    ratios = [(j, Fraction(lhs, rhs)) for j, lhs, rhs in part.ratio_rows()]
    assert ratios == [(j, r.ratio) for j, r in enumerate(run) if r.ratio is not None]
    # workers send parts back pickled
    assert pickle.loads(pickle.dumps(part)).jsonl() == part.jsonl()
    assert list(ReportList([part])) == run


@st.composite
def concluded_runs(draw):
    """Concluded CheckReports of a few shapes (theorem, ring, bound-row names,
    sets keys), in a drawn order or alternating, with gates that may fail."""
    names = st.lists(st.one_of(TEXT, st.sampled_from(["gate_a", "gate_b", "form_c"])), max_size=3)
    shapes = draw(st.lists(
        st.tuples(st.sampled_from(THEOREMS), TEXT, names, st.lists(TEXT, unique=True, max_size=3)),
        min_size=1, max_size=3,
    ))
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        order = [i % len(shapes) for i in range(n)]
    else:
        order = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=n, max_size=n))
    out = []
    for k in order:
        theorem, spec, row_names, keys = shapes[k]
        rows = [BoundRow(name, draw(st.booleans()), draw(BIG), draw(BIG)) for name in row_names]
        out.append(CheckReport.conclude(
            theorem, ring_of(spec), rows, {key: draw(TEXT) for key in keys}, draw(SEEDS),
            draw(BIG), draw(st.integers(1, 2**80)), draw(st.sampled_from([None, True, False])),
        ))
    return out


def shape(rep):
    return rep.theorem, rep.ring, [h.name for h in rep.hypotheses], list(rep.sets)


@settings(max_examples=300, deadline=None)
@given(concluded_runs())
def test_runs_render_and_read_back_as_the_reports(reps):
    blocks = ReportBlock.runs(reps)
    # one block per maximal run of one shape
    changes = sum(shape(a) != shape(b) for a, b in zip(reps, reps[1:]))
    assert len(blocks) == (changes + 1 if reps else 0)
    reports = ReportList(blocks)
    assert list(reports) == reps and [reports[i] for i in range(len(reps))] == reps
    lines = "".join(dumps(rep.to_json_dict()) + "\n" for rep in reps)
    assert "".join(block.jsonl() for block in blocks) == lines
    assert "".join(jsonl_chunks(reports)) == lines == "".join(jsonl_chunks(reps))
    counts = dict.fromkeys(VERDICTS, 0)
    ratios = []
    for block in blocks:
        for verdict, count in block.verdict_counts().items():
            counts[verdict] += count
        ratios += [Fraction(lhs, rhs) for _, lhs, rhs in block.ratio_rows()]
    assert counts == verdict_counts(reps)
    assert ratios == [rep.ratio for rep in reps if rep.ratio is not None]


@pytest.mark.parametrize(
    "lhs, rhs, ratio, verdict",
    [
        (3, 4, Fraction(4, 3), "pass"),  # not lhs/rhs
        (3, 4, None, "fail"),  # no ratio on a concluded verdict
        (3, 4, Fraction(3, 4), "hypothesis_not_met"),  # a ratio past a failed gate
        (-3, -4, Fraction(3, 4), "ratio_recorded"),  # lhs/rhs, but rhs is not positive
    ],
)
def test_runs_refuse_a_ratio_the_block_cannot_derive(lhs, rhs, ratio, verdict):
    good = CheckReport("T1_5", "zpr:p=3,r=2", [], 3, 4, Fraction(3, 4), "pass")
    bad = CheckReport("T1_5", "zpr:p=3,r=2", [], lhs, rhs, ratio, verdict)
    with pytest.raises(ValueError, match="does not fit"):
        ReportBlock.runs([good, bad])


@given(st.integers(2**53, 2**200), st.integers(2**53, 2**200), st.integers(1, 2**70))
def test_int_true_division_is_the_fraction_float(num, den, scale):
    # the block renders a ratio as lhs / rhs on the unreduced sides
    assert (num * scale) / (den * scale) == float(Fraction(num, den))
    assert num / scale == float(Fraction(num, scale))


def literal_oracle(row, cap=LITERAL_CAP) -> str:
    members = [str(i) for i, member in enumerate(row.tolist()) if member]
    if len(members) <= cap:
        return ",".join(members)
    return f"size={len(members)};sha256={hashlib.sha256(row.tobytes()).hexdigest()[:16]}"


@st.composite
def mask_blocks(draw):
    """(rows, order) bool masks from a few distinct rows, repeated: empty and
    full rows, single rows, orders off multiples of 8, and row views."""
    order = draw(st.integers(1, 70))
    row = st.one_of(
        st.sampled_from([[False] * order, [True] * order]),
        st.lists(st.booleans(), min_size=order, max_size=order),
    )
    base = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(base) - 1), max_size=12))
    masks = np.array([base[k] for k in picks], dtype=bool).reshape(len(picks), order)
    return masks[::-1] if draw(st.booleans()) else masks


@settings(max_examples=300, deadline=None)
@given(mask_blocks(), st.integers(0, 70), st.integers(0, 13))
def test_literals_or_digests_render_every_row_as_the_oracle(masks, cap, min_rows):
    # a cap below the row sizes sends rows down the digest path as well, and
    # blocks on both sides of DISTINCT_MIN_ROWS take both paths
    with patch.object(report, "LITERAL_CAP", cap), patch.object(report, "DISTINCT_MIN_ROWS", min_rows):
        texts = literals_or_digests(masks)
        one_by_one = [set_literal_or_digest(SimpleNamespace(mask=row)) for row in masks]
    assert texts == one_by_one == [literal_oracle(row, cap) for row in masks]
    if len(masks) < min_rows:
        return
    # equal rows of a block searched for repeats share one str
    keys = [row.tobytes() for row in masks]
    for i, j in combinations(range(len(masks)), 2):
        assert (texts[i] is texts[j]) == (keys[i] == keys[j])


def test_literals_past_the_cap_are_digests():
    ring = make_ring("zpr", 3, r=8)  # order 6561
    rng = np.random.default_rng(5)
    masks = np.zeros((4, ring.order), dtype=bool)
    for row, size in enumerate((LITERAL_CAP + 1, LITERAL_CAP, LITERAL_CAP + 1, ring.order)):
        masks[row, rng.choice(ring.order, size, replace=False)] = True
    masks[2] = masks[0]
    texts = literals_or_digests(masks)
    assert texts == [literal_oracle(row) for row in masks]
    assert re.fullmatch(f"size={LITERAL_CAP + 1};sha256=[0-9a-f]{{16}}", texts[0])
    assert texts[1].count(",") == LITERAL_CAP - 1
    with patch.object(report, "DISTINCT_MIN_ROWS", 0):  # searched for repeats
        shared = literals_or_digests(masks)
    assert shared == texts and shared[0] is shared[2]
    assert [set_literal_or_digest(RSet(ring, row)) for row in masks] == texts
