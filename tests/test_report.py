"""The JSONL renderer against json.dumps, for single reports and for blocks."""

import json
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from fvrlab.report import (
    THEOREMS,
    VERDICTS,
    BoundColumn,
    BoundRow,
    CheckReport,
    ReportBlock,
    ReportList,
    ReportRun,
    jsonl_chunks,
)


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


# quotes, backslashes, control characters, "%" (the block template's slot
# marker) and text outside ASCII, next to plain literals
SPECIAL = st.sampled_from('"\\%{}:,\x00\x1f\x7f\u00e9\u2028\U0001f600')
TEXT = st.text(alphabet=st.one_of(SPECIAL, st.characters()), max_size=12)
BIG = st.integers(-(2**80), 2**80)
SEEDS = st.one_of(st.sampled_from([None, 0, 2**64 - 1]), st.integers(0, 2**64 - 1))


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
def blocks(draw):
    n = draw(st.integers(1, 6))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    names = draw(st.lists(st.one_of(TEXT, st.sampled_from(["gate_a", "gate_b"])), max_size=3))
    columns = [BoundColumn(name, column(st.booleans()), column(BIG), column(BIG)) for name in names]
    keys = draw(st.lists(TEXT, unique=True, max_size=4))
    # only the first sets column has a value on every row
    sets = {key: column(st.one_of(st.none(), TEXT) if i else TEXT) for i, key in enumerate(keys)}
    spec = draw(TEXT)
    ring = SimpleNamespace(spec_string=lambda: spec)
    holds = column(st.sampled_from([None, True, False]))
    return ReportBlock.conclude(
        draw(st.sampled_from(THEOREMS)), ring, columns, sets, column(SEEDS),
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
    run = ReportRun(map(block.report, range(len(block))))
    assert block.verdict_counts() == run.verdict_counts()
    assert ratios == {row: Fraction(num, den) for row, num, den in run.ratio_rows()}
    mixed = ReportList([block, ReportRun([block.report(0)]), block])
    assert "".join(jsonl_chunks(mixed)) == "".join(r.to_json_line() + "\n" for r in mixed)
    assert [r.to_json_line() for r in mixed[::-1]] == [r.to_json_line() for r in reversed(mixed)]


@given(st.integers(2**53, 2**200), st.integers(2**53, 2**200), st.integers(1, 2**70))
def test_int_true_division_is_the_fraction_float(num, den, scale):
    # the block renders a ratio as lhs / rhs on the unreduced sides
    assert (num * scale) / (den * scale) == float(Fraction(num, den))
    assert num / scale == float(Fraction(num, scale))
