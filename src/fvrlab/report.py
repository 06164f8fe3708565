"""Check reports: one record per verified inequality instance.

Every bound checker returns a :class:`CheckReport`, and every one is built
by :meth:`CheckReport.conclude`, which holds the verdict rules.  The
conclusion is kept as a denominator-cleared exact integer comparison (lhs
vs rhs); the ratio is the exact rational lhs/rhs and is only rendered to a
float on serialization.

The JSONL wire format per line (integers as decimal strings):
{"theorem": str, "ring": str, "hypotheses": [{"name", "ok", "lhs", "rhs"}],
 "lhs": str, "rhs": str, "ratio": float|null, "verdict": str,
 "seed": int|null, "sets": {str: str}}
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
RATIO_RECORDED = "ratio_recorded"

VERDICTS = (PASS, FAIL, HYPOTHESIS_NOT_MET, RATIO_RECORDED)

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


@dataclass(frozen=True)
class BoundRow:
    name: str
    ok: bool
    lhs: int
    rhs: int


def gates_hold(rows) -> bool:
    """True when every ``gate_*`` row holds: the theorem's hypotheses are met."""
    return all(h.ok for h in rows if h.name.startswith("gate_"))


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
        report = cls(theorem, ring.spec_string(), rows, 0, 0, None, HYPOTHESIS_NOT_MET, seed, sets)
        if report.gates_ok:
            report.lhs, report.rhs, report.ratio = lhs, rhs, Fraction(lhs, rhs)
            report.verdict = RATIO_RECORDED if holds is None else PASS if holds else FAIL
        return report

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


def sha256_prefix(data: bytes) -> str:
    """First 16 hex digits of the sha256 of data, as report literals carry it."""
    return hashlib.sha256(data).hexdigest()[:16]


def set_literal_or_digest(rset) -> str:
    """Member literal, or size plus a content hash for very large sets."""
    return literals_or_digests(rset.mask[None, :])[0]


def literals_or_digests(masks: np.ndarray) -> list[str]:
    """set_literal_or_digest of every row of a (rows, order) bool membership mask."""
    rows, members = np.nonzero(masks)
    ends = np.cumsum(np.bincount(rows, minlength=len(masks))).tolist()
    members = members.tolist()
    out, lo = [], 0
    for row, hi in enumerate(ends):
        if hi - lo <= LITERAL_CAP:
            out.append(",".join(map(str, members[lo:hi])))
        else:
            out.append(f"size={hi - lo};sha256={sha256_prefix(masks[row].tobytes())}")
        lo = hi
    return out


def write_jsonl(reports, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for rep in reports:
            fh.write(rep.to_json_line())
            fh.write("\n")


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
