"""Check reports: one record per verified inequality instance.

Every bound checker returns a :class:`CheckReport`, and every one is built
by :meth:`CheckReport.conclude`, which holds the verdict rules.  The
conclusion is kept as a denominator-cleared exact integer comparison (lhs
vs rhs); the ratio is the exact rational lhs/rhs and is only rendered to a
float on serialization.

A sweep keeps its reports as columns, in one part type: a
:class:`ReportBlock` holds one column per field (gate rows, lhs and rhs as
Python ints, verdict codes, seeds, set literals).  A block path builds one
with :meth:`ReportBlock.conclude`, which applies the same verdict rule to
every row; :meth:`ReportBlock.runs` turns concluded CheckReports into
blocks, one per maximal run of consecutive reports that share theorem,
ring, bound-row names and sets keys.  Inputs that write several reports
each (T7_1) make an :class:`InputBlock`, one ReportBlock per report shape,
interleaved input by input.  A :class:`ReportList` strings a sweep's parts
together in input order; indexing or iterating it builds each CheckReport
on demand, while :func:`write_jsonl` and :func:`jsonl_chunks` render a
part straight from its columns.

The JSONL wire format per line (integers as decimal strings):
{"theorem": str, "ring": str, "hypotheses": [{"name", "ok", "lhs", "rhs"}],
 "lhs": str, "rhs": str, "ratio": float|null, "verdict": str,
 "seed": int|null, "sets": {str: str}}

A single report's line is ``json.dumps(report.to_json_dict(),
separators=(",", ":"), ensure_ascii=True)``.  A block renders its lines from
one template, :meth:`ReportBlock.jsonl`, equal to that byte for byte: names,
verdicts and set literals go through json's own ``encode_basestring_ascii``;
integers (lhs, rhs, bound-row sides, and seeds when none is null) fill
their slots as they are, since decimal digits need no escaping; and a ratio
is rendered as ``repr(lhs / rhs)``, since int true division rounds
correctly and so gives the float of ``Fraction(lhs, rhs)``.  Set literals
come from :func:`literals_or_digests`, which renders each distinct mask row
of a large block once.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby

import numpy as np

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
RATIO_RECORDED = "ratio_recorded"

VERDICTS = (PASS, FAIL, HYPOTHESIS_NOT_MET, RATIO_RECORDED)
# a ReportBlock's verdict code is the verdict's index in VERDICTS
_NOT_MET_CODE = VERDICTS.index(HYPOTHESIS_NOT_MET)

THEOREMS = (
    "T1_3",
    "T1_5",
    "T1_6",
    "T1_7",
    "T1_8",
    "T1_9",
    "T2_2",
    "T2_4",
    "T7_1",
    "PLUN13",
)

# how many members a set literal may list before being digested
LITERAL_CAP = 4096
# how many mask rows make literals_or_digests look for repeated rows
DISTINCT_MIN_ROWS = 32


@dataclass(frozen=True)
class BoundRow:
    name: str
    ok: bool
    lhs: int
    rhs: int


@dataclass(frozen=True)
class BoundColumn:
    """One named bound row for every report of a block: a column per field."""

    name: str
    ok: list[bool]
    lhs: list[int]
    rhs: list[int]

    def row(self, i: int) -> BoundRow:
        return BoundRow(self.name, self.ok[i], self.lhs[i], self.rhs[i])


def gates_hold(rows) -> bool:
    """True when every ``gate_*`` row holds: the theorem's hypotheses are met."""
    return all(h.ok for h in rows if h.name.startswith("gate_"))


def gates_hold_columns(columns, n: int) -> list[bool]:
    """gates_hold of each of n rows, from the rows' BoundColumns."""
    gates = [col.ok for col in columns if col.name.startswith("gate_")]
    return [all(row) for row in zip(*gates)] if gates else [True] * n


def _verdict(gates_ok: bool, holds: bool | None) -> str:
    """The verdict rule; see CheckReport.conclude."""
    if not gates_ok:
        return HYPOTHESIS_NOT_MET
    return RATIO_RECORDED if holds is None else PASS if holds else FAIL


# -- single reports ----------------------------------------------------------


@dataclass
class CheckReport:
    theorem: str
    ring: str
    hypotheses: list[BoundRow]
    lhs: int
    rhs: int
    ratio: Fraction | None
    verdict: str
    seed: int | None = None
    sets: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {self.theorem!r}")
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    @property
    def gates_ok(self) -> bool:
        return gates_hold(self.hypotheses)

    @classmethod
    def conclude(cls, theorem, ring, rows, sets, seed, lhs=0, rhs=0, holds=None) -> "CheckReport":
        """The report of one check; the only place a verdict is decided.

        Rows named ``gate_*`` are the theorem's hypotheses.  When one fails
        the verdict is ``hypothesis_not_met``: the conclusion is not claimed,
        lhs and rhs are 0 and the ratio is null, so a caller returns early
        without computing them.  Otherwise the ratio is the exact lhs/rhs and
        ``holds`` decides: None for a claim stated only up to an implicit
        constant (``ratio_recorded``), else ``pass`` or ``fail`` for a claim
        with explicit constants.  ``holds`` is the caller's exact comparison
        of the denominator-cleared sides, ``lhs >= rhs`` or ``lhs <= rhs`` as
        the inequality points.

        Rows named ``form_*`` are companion comparisons recorded for the
        reader: secondary bound shapes, energies, one-sided variants, steps
        of the derivation.  They leave the verdict alone, except where a
        check puts them into ``holds``: PLUN13 passes only when every one of
        its rows (the derivation chain and the dilation identity) holds.
        """
        gates_ok = gates_hold(rows)
        verdict = _verdict(gates_ok, holds)
        if not gates_ok:
            lhs = rhs = 0
        ratio = Fraction(lhs, rhs) if gates_ok else None
        return cls(theorem, ring.spec_string(), rows, lhs, rhs, ratio, verdict, seed, sets)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "ring": self.ring,
            "hypotheses": [
                {"name": h.name, "ok": h.ok, "lhs": str(h.lhs), "rhs": str(h.rhs)}
                for h in self.hypotheses
            ],
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "ratio": None if self.ratio is None else float(self.ratio),
            "verdict": self.verdict,
            "seed": self.seed,
            "sets": dict(self.sets),
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), ensure_ascii=True)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CheckReport":
        rows = [
            BoundRow(h["name"], bool(h["ok"]), int(h["lhs"]), int(h["rhs"]))
            for h in obj["hypotheses"]
        ]
        lhs, rhs = int(obj["lhs"]), int(obj["rhs"])
        return cls(
            theorem=obj["theorem"],
            ring=obj["ring"],
            hypotheses=rows,
            lhs=lhs,
            rhs=rhs,
            # every ratio is built as Fraction(lhs, rhs); the float is for reading
            ratio=None if obj["ratio"] is None else Fraction(lhs, rhs),
            verdict=obj["verdict"],
            seed=obj["seed"],
            sets=dict(obj["sets"]),
        )


# -- blocks of reports -------------------------------------------------------


_esc = json.encoder.encode_basestring_ascii


def _value(value) -> str:
    """The json.dumps text of a bool, an int or None."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return int.__repr__(value)


@dataclass
class ReportBlock:
    """The reports of a block of inputs, one column per field.

    Row i is a concluded report: build a block with :meth:`conclude` from
    columns, or with :meth:`runs` from CheckReports.  ``verdicts`` holds
    codes, indices into VERDICTS; a row's ratio is lhs/rhs unless its verdict
    is ``hypothesis_not_met``.  A sets column holds None where a row lacks
    that key, except the first.  Every rhs with a ratio is positive.
    """

    theorem: str
    ring: str
    hypotheses: list[BoundColumn]
    lhs: list[int]
    rhs: list[int]
    verdicts: list[int]
    seeds: list[int | None]
    sets: dict[str, list[str | None]]

    @classmethod
    def conclude(cls, theorem, ring, columns, sets, seeds, lhs, rhs, holds) -> "ReportBlock":
        """CheckReport.conclude on every row: the same verdict rule, by column.

        ``columns`` are the bound rows as BoundColumns, and ``holds`` is a
        column of the caller's cleared comparisons (None entries for a
        ``ratio_recorded`` claim).  lhs and rhs are read only on rows whose
        gates hold, and must be Python ints: their true division is the
        correctly rounded ratio, where a numpy int64 division is not.
        """
        if theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {theorem!r}")
        gates_ok = gates_hold_columns(columns, len(seeds))
        verdicts = [VERDICTS.index(_verdict(*pair)) for pair in zip(gates_ok, holds)]
        lhs = [x if ok else 0 for x, ok in zip(lhs, gates_ok)]
        rhs = [x if ok else 0 for x, ok in zip(rhs, gates_ok)]
        if any(x <= 0 for x, ok in zip(rhs, gates_ok) if ok):
            raise ValueError("a ratio needs a positive rhs")
        if sets and None in next(iter(sets.values())):
            raise ValueError("the first sets column needs a value on every row")
        spec = ring.spec_string()
        return cls(theorem, spec, list(columns), lhs, rhs, verdicts, list(seeds), sets)

    @classmethod
    def runs(cls, reports) -> list["ReportBlock"]:
        """Concluded CheckReports as blocks, in input order: one block per
        maximal run of consecutive reports that share theorem, ring,
        bound-row names and sets keys.

        A block derives each ratio from lhs and rhs, so a report is refused
        unless its ratio is None exactly when its verdict is
        ``hypothesis_not_met``, and otherwise lhs/rhs with rhs positive.
        """

        def shape(rep):
            return rep.theorem, rep.ring, tuple(h.name for h in rep.hypotheses), tuple(rep.sets)

        blocks = []
        for (theorem, ring, names, keys), run in groupby(reports, shape):
            run = list(run)
            for rep in run:
                ratio, lhs, rhs = rep.ratio, rep.lhs, rep.rhs
                if ratio is None:
                    ok = rep.verdict == HYPOTHESIS_NOT_MET
                else:
                    ok = rep.verdict != HYPOTHESIS_NOT_MET and rhs > 0
                    ok = ok and ratio.numerator * rhs == ratio.denominator * lhs
                if not ok:
                    raise ValueError(f"ratio {ratio} does not fit {rep.verdict} and {lhs}/{rhs}")
            columns = [
                BoundColumn(name, [h.ok for h in col], [h.lhs for h in col], [h.rhs for h in col])
                for name, col in zip(names, zip(*(rep.hypotheses for rep in run)))
            ]
            blocks.append(cls(
                theorem,
                ring,
                columns,
                [rep.lhs for rep in run],
                [rep.rhs for rep in run],
                [VERDICTS.index(rep.verdict) for rep in run],
                [rep.seed for rep in run],
                {key: [rep.sets[key] for rep in run] for key in keys},
            ))
        return blocks

    def __len__(self) -> int:
        return len(self.verdicts)

    def sets_at(self, i: int) -> dict[str, str]:
        return {key: col[i] for key, col in self.sets.items() if col[i] is not None}

    def verdict_counts(self) -> dict[str, int]:
        return {verdict: self.verdicts.count(code) for code, verdict in enumerate(VERDICTS)}

    def ratio_rows(self):
        """(row, lhs, rhs) of every row with a ratio, in row order."""
        for row, (code, lhs, rhs) in enumerate(zip(self.verdicts, self.lhs, self.rhs)):
            if code != _NOT_MET_CODE:
                yield row, lhs, rhs

    def report(self, i: int) -> CheckReport:
        """Row i as a CheckReport."""
        code = self.verdicts[i]
        lhs, rhs = self.lhs[i], self.rhs[i]
        return CheckReport(
            self.theorem,
            self.ring,
            [col.row(i) for col in self.hypotheses],
            lhs,
            rhs,
            None if code == _NOT_MET_CODE else Fraction(lhs, rhs),
            VERDICTS[code],
            self.seeds[i],
            self.sets_at(i),
        )

    def jsonl(self) -> str:
        """The JSONL text of every row, from one template per block.

        The template is the line of the wire format with the block's
        constant texts in place and a "%s" slot for each per-row field; each
        row then fills the slots from its columns.  Integer columns fill
        their slots as they are (lhs and rhs inside quotes the template
        holds), seeds too unless one is None; bools, None seeds and strings
        fill them with their JSON texts.
        """
        if not self.verdicts:
            return ""
        texts = []  # a column of JSON texts per slot, in template order

        def slot(column) -> str:
            texts.append(column)
            return "%s"

        def const(text: str) -> str:
            return _esc(text).replace("%", "%%")

        hypotheses = ",".join(  # decimal digits need no escaping: ints fill "%s" as is
            f'{{"name":{const(col.name)},"ok":{slot(map(_value, col.ok))},'
            f'"lhs":"{slot(col.lhs)}","rhs":"{slot(col.rhs)}"}}'
            for col in self.hypotheses
        )
        verdicts = [_esc(v) for v in VERDICTS]
        ratios = [
            "null" if code == _NOT_MET_CODE else float.__repr__(lhs / rhs)
            for code, lhs, rhs in zip(self.verdicts, self.lhs, self.rhs)
        ]
        seeds = map(_value, self.seeds) if None in self.seeds else self.seeds
        head = (  # slots are filled in template order, so head comes before the sets
            f'"lhs":"{slot(self.lhs)}","rhs":"{slot(self.rhs)}",'
            f'"ratio":{slot(ratios)},"verdict":{slot(map(verdicts.__getitem__, self.verdicts))},'
            f'"seed":{slot(seeds)}'
        )
        members = []
        for key, col in self.sets.items():
            if None in col:  # the slot carries its own comma (see conclude)
                members.append(slot(["" if v is None else f",{_esc(key)}:{_esc(v)}" for v in col]))
            else:
                members.append(("," if members else "") + f"{const(key)}:{slot(map(_esc, col))}")
        line = (
            f'{{"theorem":{const(self.theorem)},"ring":{const(self.ring)},'
            f'"hypotheses":[{hypotheses}],{head},"sets":{{{"".join(members)}}}}}\n'
        )
        return "".join(map(line.__mod__, zip(*texts)))


@dataclass
class InputBlock:
    """The reports of a block of inputs that write several reports each.

    ``shapes`` holds one ReportBlock per report shape, all of one length:
    row i of each is a report of input i.  The reports run input by input,
    each input's in shape order, so report j is row j // len(shapes) of
    shape j % len(shapes); counts, ratio rows and lines follow that order.
    """

    shapes: list[ReportBlock]

    def __len__(self) -> int:
        return sum(map(len, self.shapes))

    def report(self, i: int) -> CheckReport:
        row, shape = divmod(i, len(self.shapes))
        return self.shapes[shape].report(row)

    def sets_at(self, i: int) -> dict[str, str]:
        row, shape = divmod(i, len(self.shapes))
        return self.shapes[shape].sets_at(row)

    def verdict_counts(self) -> dict[str, int]:
        counts = [block.verdict_counts() for block in self.shapes]
        return {verdict: sum(c[verdict] for c in counts) for verdict in VERDICTS}

    def ratio_rows(self):
        """(report, lhs, rhs) of every report with a ratio, in report order."""
        k = len(self.shapes)
        return sorted(  # report numbers are distinct, so only they are compared
            (row * k + shape, lhs, rhs)
            for shape, block in enumerate(self.shapes)
            for row, lhs, rhs in block.ratio_rows()
        )

    def jsonl(self) -> str:
        """Each shape's lines, from its template, interleaved input by input."""
        lines = [block.jsonl().split("\n")[:-1] for block in self.shapes]
        return "".join(line + "\n" for row in zip(*lines) for line in row)


class ReportList(Sequence):
    """A sweep's reports in input order, from parts that are ReportBlocks or
    InputBlocks.

    Indexing and iteration build each CheckReport of a part on demand;
    ``parts`` gives the parts themselves.
    """

    def __init__(self, parts):
        self.parts = [part for part in parts if len(part)]
        self._ends = list(accumulate(map(len, self.parts)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("report index out of range")
        k = bisect_right(self._ends, i)
        part, row = self.parts[k], i - (self._ends[k - 1] if k else 0)
        return part.report(row)

    def __iter__(self):
        for part in self.parts:
            yield from map(part.report, range(len(part)))


def jsonl_chunks(reports):
    """The JSONL text of reports, a ReportList or any iterable of CheckReports.

    One piece per block of a ReportList, rendered from its columns, and one
    line per report of any other iterable.
    """
    if isinstance(reports, ReportList):
        return (part.jsonl() for part in reports.parts)
    return (rep.to_json_line() + "\n" for rep in reports)


def sha256_prefix(data: bytes) -> str:
    """First 16 hex digits of the sha256 of data, as report literals carry it."""
    import hashlib  # loads OpenSSL, which a sweep of small sets never needs

    return hashlib.sha256(data).hexdigest()[:16]


def set_literal_or_digest(rset) -> str:
    """Member literal, or size plus a content hash for very large sets."""
    members = rset.mask.nonzero()[0]
    if len(members) <= LITERAL_CAP:
        return ",".join(map(str, members.tolist()))
    return _digest(rset.mask, len(members))


def _digest(mask: np.ndarray, size: int) -> str:
    """The text of a bool membership mask with size members past LITERAL_CAP."""
    return f"size={size};sha256={sha256_prefix(mask.tobytes())}"


def _literals(masks: np.ndarray) -> list[str]:
    """The literal of every row of a bool membership mask, or its digest
    past LITERAL_CAP members."""
    rows, members = masks.nonzero()
    ends = np.bincount(rows, minlength=len(masks)).cumsum().tolist()
    # one decimal text per element, once the members are as many as the
    # elements; a ring of at most LITERAL_CAP elements has no digest rows,
    # so every member is then named and the table never goes unused
    order = masks.shape[1]
    table = order <= len(members) and order <= LITERAL_CAP
    name = list(map(str, range(order))).__getitem__ if table else str
    members = members.tolist()
    out, lo = [], 0
    for row, hi in enumerate(ends):
        if hi - lo <= LITERAL_CAP:
            out.append(",".join(map(name, members[lo:hi])))
        else:
            out.append(_digest(masks[row], hi - lo))
        lo = hi
    return out


def literals_or_digests(masks: np.ndarray) -> list[str]:
    """set_literal_or_digest of every row of a (rows, order) bool membership mask.

    A block of DISTINCT_MIN_ROWS rows or more renders each distinct row
    once: rows are keyed by their packed bits (packbits pads with zeros, so
    equal keys mean equal rows), and equal rows share one str.  A smaller
    block skips the search, since np.unique costs about as much as
    rendering that many rows.
    """
    if len(masks) < DISTINCT_MIN_ROWS:
        return _literals(masks)
    packed = np.packbits(masks, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    texts = _literals(masks[first])
    return list(map(texts.__getitem__, inverse.ravel().tolist()))


def write_jsonl(reports, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.writelines(jsonl_chunks(reports))


def read_jsonl(path: str) -> list[CheckReport]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(CheckReport.from_json_dict(json.loads(line)))
    return out


def write_csv(reports, path: str) -> None:
    """Flat CSV: base columns, then one ok/lhs/rhs triple per hypothesis name."""
    reports = list(reports)
    hyp_names: list[str] = []
    for rep in reports:
        for h in rep.hypotheses:
            if h.name not in hyp_names:
                hyp_names.append(h.name)
    cols = ["theorem", "ring", "verdict", "lhs", "rhs", "ratio", "seed"]
    for name in hyp_names:
        cols += [f"{name}_ok", f"{name}_lhs", f"{name}_rhs"]
    cols.append("sets")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for rep in reports:
            row = [
                rep.theorem,
                rep.ring,
                rep.verdict,
                str(rep.lhs),
                str(rep.rhs),
                "" if rep.ratio is None else repr(float(rep.ratio)),
                "" if rep.seed is None else str(rep.seed),
            ]
            by_name = {h.name: h for h in rep.hypotheses}
            for name in hyp_names:
                h = by_name.get(name)
                if h is None:
                    row += ["", "", ""]
                else:
                    row += [str(h.ok).lower(), str(h.lhs), str(h.rhs)]
            row.append(json.dumps(rep.sets, separators=(",", ":"), ensure_ascii=True))
            writer.writerow(row)
