"""Sweep engine: enumerate or sample inputs, run checks, summarize.

An experiment is a pure function of its config.  Determinism rules:

* random trials draw their own seed as mix64(master_seed, trial_index) and
  every slot inside a trial mixes again, so any trial can be reproduced in
  isolation and concurrency cannot reorder draws,
* exhaustive mode walks subsets in (size, lexicographic) order, flattened
  across slots with the first slot varying slowest; positions decode by
  combinatorial unranking, so any range of the walk can run anywhere,
* reports are emitted in input order regardless of the worker count
  (workers only split contiguous ranges, set via the FVRLAB_WORKERS
  environment variable).

A range of inputs is walked in blocks of BLOCK_ELEMS // order inputs, and
_block_sets is the one place that builds set inputs: one (rows, order)
membership mask per slot.  A single check is one row parsed from the
A/B/C literals; an exhaustive block unranks its positions straight into
masks; a random block runs sample_subsets on every trial and slot seed
together, each row equal to the scalar draw.  A theorem with a block path
(T1_3, T7_1) takes the masks whole: one kernel counts every row, and the
block's reports are concluded as columns.  T1_3 writes one report per
input, a ReportBlock; T7_1 writes two, a bound report and a line report,
so its part is an InputBlock holding one ReportBlock per report shape and
rendering them input by input (its |A| = 1 rows, which take the short
shapes, make a part of their own).  Every other set theorem gets one RSet
per slot and row through _run_input, and point and plane families (T2_2,
T2_4) are built per input there; ReportBlock.runs turns those
CheckReports into columns as the block collects them.  So every part of a
sweep is made of ReportBlocks, which workers pickle as a few lists and
--out renders from one template each.

run_experiment returns the parts as a ReportList, which builds a
CheckReport only when one is indexed or iterated.  summarize folds the
parts one after another, in input order: verdict counts, the exact
extremes by integer cross-multiplication, and the exact mean from
per-denominator sums.

What a sweep needs to know about each theorem id (its set slots, whether
random sets are units only, the config keys it reads, and the check calls)
is listed once, in THEOREMS; _refuse_unread refuses, in ExperimentConfig
and config_from_fields alike, a key that the theorem or mode does not read.

Exhaustive sweeps are capped by a documented budget: the total number of
check evaluations, (sum of C(n, k) for k = 1..max_size) ** slots, must not
exceed 10**7.  The same budget caps the n**3 triples of a single family
input with points or planes = all, and the m(m - 1)/2 grid pairs, m =
|A|**2, that one T7_1 input keys at once (so |A| <= 66), for random sizes
and a literal A alike.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .checks import (
    check_cube_sum,
    check_f_of_A_plus_A,
    check_plunnecke_corollary,
    check_power_energy,
    check_prod_diff,
    check_sum_square,
    expander_reports,
)
from .geometry import grid_reports
from .incidence import WeightedFamily, incidence_bound_report, weighted_bound_report
from .report import VERDICTS, CheckReport, ReportBlock, ReportList
from .ring import Ring, parse_ring_spec
from .sampling import (
    code_triples,
    mix64,
    mix64_arr,
    sample_planes,
    sample_points,
    sample_subsets,
    sample_weights,
    shuffled,
)
from .setalg import (
    BLOCK_ELEMS,
    RSet,
    member_masks,
    parse_index,
    parse_quadpoly,
    parse_set_literal,
)

EXHAUSTIVE_BUDGET = 10**7

@dataclass(frozen=True)
class Mode:
    kind: str  # "exhaustive" | "random"
    max_size: int = 0
    sizes: tuple[int, ...] = ()
    trials: int = 0

    @property
    def literal(self) -> str:
        if self.kind == "exhaustive":
            return f"exhaustive:{self.max_size}"
        return f"random:{','.join(str(s) for s in self.sizes)}:{self.trials}"


def parse_mode(text: str) -> Mode:
    """exhaustive:MAX_SIZE or random:SIZE[,SIZE...]:TRIALS."""
    parts = text.split(":")
    try:
        if parts[0] == "exhaustive" and len(parts) == 2:
            k = parse_index(parts[1])
            if k < 1:
                raise ValueError
            return Mode("exhaustive", max_size=k)
        if parts[0] == "random" and len(parts) == 3:
            sizes = tuple(map(parse_index, parts[1].split(",")))
            trials = parse_index(parts[2])
            if trials < 1 or not sizes or any(s < 1 for s in sizes):
                raise ValueError
            return Mode("random", sizes=sizes, trials=trials)
    except ValueError:
        pass
    raise ValueError(f"bad mode {text!r}: expected exhaustive:K or random:SIZES:TRIALS")


@dataclass(frozen=True)
class ExperimentConfig:
    theorem: str
    ring_spec: str
    mode: Mode | None = None  # None runs one check on explicit inputs
    seed: int = 0
    f: str | None = None  # a=..;R=..;S=..;T=.. for T1_3
    poly1: str | None = None  # c2,c1,c0 for T1_7
    d: int = 1  # power for T1_9
    literals: dict = field(default_factory=dict)  # explicit A/B/C literals
    points: str | None = None  # "all" or a count, for T2_2/T2_4
    planes: str | None = None
    max_weight: int = 4  # sampled weight cap for T2_4
    out: str | None = None
    fmt: str = "jsonl"

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if self.fmt not in ("jsonl", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.max_weight < 1:
            raise ValueError("max_weight must be a positive integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        # a dataclass cannot tell a given default from an absent field
        defaults = {f.name: f.default for f in fields(self)}
        given = [key for key, (name, _) in _FIELDS.items() if getattr(self, name) != defaults[name]]
        _refuse_unread(self, [*given, *self.literals])


@lru_cache(maxsize=64)
def _ring_of(spec: str) -> Ring:
    return parse_ring_spec(spec)


@lru_cache(maxsize=64)
def _quadspec_of(ring_spec: str, literal: str):
    return parse_quadpoly(_ring_of(ring_spec), literal)


def _poly1_of(literal: str) -> tuple[int, int, int]:
    toks = literal.split(",")
    if len(toks) != 3:
        raise ValueError("poly1 must be 'c2,c1,c0'")
    return tuple(map(parse_index, toks))


# ---------------------------------------------------------------------------
# exhaustive enumeration by rank


@lru_cache(maxsize=64)
def _size_offsets(n: int, max_size: int) -> tuple[int, ...]:
    """Cumulative subset counts by size: offsets[k] = #subsets of size < k+1."""
    if max_size > n:
        raise ValueError(f"max subset size {max_size} exceeds ring order {n}")
    acc, out = 0, []
    for k in range(1, max_size + 1):
        acc += math.comb(n, k)
        out.append(acc)
    return tuple(out)


def subsets_up_to(n: int, max_size: int) -> int:
    return _size_offsets(n, max_size)[-1]


def exhaustive_budget(n: int, max_size: int, slots: int) -> int:
    return subsets_up_to(n, max_size) ** slots


def _rank_masks(n: int, max_size: int, ranks: np.ndarray) -> np.ndarray:
    """(rows, n) membership masks of the subsets of range(n) with these ranks.

    Ranks count subsets of size <= max_size in (size, lex) order.  A k-subset
    of lex rank L is the mirror image, x -> n - 1 - x, of the k-subset of
    colex rank C(n, k) - 1 - L, whose members the combinatorial number
    system gives greedily from the top: one searchsorted per member position
    on the row C(., i) of a binomial table.
    """
    bounds = np.array((0, *_size_offsets(n, max_size)))  # first rank of each size, then the end
    sizes = bounds.searchsorted(ranks, side="right")
    comb = np.zeros((max_size + 1, n + 1), dtype=np.int64)  # comb[i, x] = C(x, i)
    comb[0] = 1
    for i in range(1, max_size + 1):
        comb[i, 1:] = comb[i - 1, :-1].cumsum()  # C(x, i) = sum of C(y, i - 1), y < x
    colex = comb[sizes, n] - 1 - (ranks - bounds[sizes - 1])
    masks = np.zeros((len(ranks), n), dtype=bool)
    for i in range(max_size, 0, -1):
        rows = np.flatnonzero(sizes >= i)
        top = comb[i].searchsorted(colex[rows], side="right") - 1
        colex[rows] -= comb[i, top]
        masks[rows, n - 1 - top] = True
    return masks


# ---------------------------------------------------------------------------
# theorem registry and input construction


def _family(ring: Ring, count, sample, seed: int, salt: int) -> np.ndarray:
    """Every triple of the ring when count is "all", else count sampled ones."""
    if count == "all":
        return code_triples(ring.order, np.arange(ring.order**3))
    return sample(ring, count, mix64(seed, salt))


def _family_pair(config: ExperimentConfig, ring: Ring, index: int):
    """Points, planes and report seed of one family input."""
    if config.mode is None:
        counts = tuple(
            c if c in (None, "all") else parse_index(c, f"{name} count")
            for c, name in ((config.points, "point"), (config.planes, "plane"))
        )
        seed = None if counts == ("all", "all") else config.seed
    else:
        counts = config.mode.sizes  # input_count refuses points/planes here
        seed = mix64(config.seed, index)
    if None in counts:
        raise ValueError(f"{config.theorem} needs --points and --planes")
    points = _family(ring, counts[0], sample_points, seed, 1)
    planes = _family(ring, counts[1], sample_planes, seed, 2)
    return (points, planes), seed


def _expander_spec(config: ExperimentConfig):
    if config.f is None:
        raise ValueError("T1_3 needs a polynomial (f)")
    return _quadspec_of(config.ring_spec, config.f)


def _expander_block(config: ExperimentConfig, ring: Ring, masks, seeds):
    return [expander_reports(_expander_spec(config), *masks, seeds)]


def _shifted_image(config: ExperimentConfig, ring: Ring, sets, seed):
    if config.poly1 is None:
        raise ValueError("T1_7 needs a quadratic (poly1)")
    return [check_f_of_A_plus_A(_poly1_of(config.poly1), sets[0], seed=seed)]


def _weighted_incidences(config: ExperimentConfig, ring: Ring, families, seed):
    pts, pls = families
    if (config.points, config.planes) == ("all", "all"):
        pfam, qfam = WeightedFamily.uniform(ring, pts), WeightedFamily.uniform(ring, pls)
    else:
        if len(pts) != len(pls):
            raise ValueError("weighted sweeps need equally many points and planes")
        # one weight multiset, dealt to both sides, keeps the totals equal
        wp = sample_weights(len(pts), config.max_weight, mix64(seed, 3))
        wq = shuffled(wp, mix64(seed, 4))
        pfam = WeightedFamily(ring, pts, np.array(wp, dtype=np.int64))
        qfam = WeightedFamily(ring, pls, np.array(wq, dtype=np.int64))
    return [weighted_bound_report(pfam, qfam, seed=seed)]


@dataclass(frozen=True)
class Theorem:
    """What a sweep needs to know about one theorem id."""

    slots: int  # set slots per input; 0 for one point family and one plane family
    # (config, ring, sets or (points, planes), seed) -> reports of one input
    run: Callable | None = None
    units_only: bool = False  # random sets are drawn from the units
    reads: tuple[str, ...] = ()  # config keys read beyond _COMMON_KEYS and the set slots
    # (config, ring, one (rows, order) mask per slot, seeds) -> the parts of
    # a block of inputs; without it each input goes through run
    block: Callable | None = None


# The entries look the checks up by name at call time, so a wrapper put on
# a module attribute (a tracer, a test double) sees every call.
THEOREMS = {
    "T1_3": Theorem(3, reads=("f",), block=_expander_block),
    "T1_5": Theorem(1, lambda config, ring, sets, seed: [check_sum_square(sets[0], seed=seed)]),
    "T1_6": Theorem(1, lambda config, ring, sets, seed: [check_cube_sum(sets[0], seed=seed)]),
    "T1_7": Theorem(1, _shifted_image, reads=("poly1",)),
    "T1_8": Theorem(1, lambda config, ring, sets, seed: [check_prod_diff(sets[0], seed=seed)]),
    # T1_9 hypothesizes a set of units
    "T1_9": Theorem(
        1,
        lambda config, ring, sets, seed: [check_power_energy(sets[0], config.d, seed=seed)],
        units_only=True,
        reads=("d",),
    ),
    "T2_2": Theorem(
        0,
        lambda config, ring, fams, seed: [incidence_bound_report(ring, *fams, seed=seed)],
        reads=("points", "planes"),
    ),
    "T2_4": Theorem(0, _weighted_incidences, reads=("points", "planes", "max_weight")),
    "T7_1": Theorem(1, block=lambda config, ring, masks, seeds: grid_reports(ring, masks[0], seeds)),
    "PLUN13": Theorem(
        1, lambda config, ring, sets, seed: [check_plunnecke_corollary(sets[0], seed=seed)]
    ),
}


def _run_input(config: ExperimentConfig, ring: Ring, index: int, sets=None) -> list[CheckReport]:
    """The reports of one input of a theorem without a block path.

    A set theorem's sets come from _block_sets; a family theorem builds its
    point and plane families here.
    """
    theorem = THEOREMS[config.theorem]
    if theorem.slots == 0:
        return theorem.run(config, ring, *_family_pair(config, ring, index))
    drawn = config.mode is not None and config.mode.kind == "random"
    return theorem.run(config, ring, sets, mix64(config.seed, index) if drawn else None)


def _slot_ranks(ring: Ring, max_size: int, slots: int, index):
    """Subset rank of each slot at an exhaustive position (or array of them)."""
    span = subsets_up_to(ring.order, max_size)
    ranks = []
    for _ in range(slots):
        index, rank = divmod(index, span)
        ranks.append(rank)
    return ranks[::-1]  # first slot varies slowest


def _random_masks(config: ExperimentConfig, ring: Ring, seeds: np.ndarray) -> list[np.ndarray]:
    """One (rows, order) mask per slot: the sets of the trials with these seeds."""
    if THEOREMS[config.theorem].units_only:
        domain = np.array(ring.units(), dtype=np.int64)
    else:
        domain = np.arange(ring.order, dtype=np.int64)
    return [
        member_masks(ring.order, domain[sample_subsets(len(domain), size, mix64_arr(seeds, slot))])
        for slot, size in enumerate(config.mode.sizes)
    ]


def _refuse_grid_pairs(size: int) -> None:
    """T7_1's orbit pass keys every pair of the |A|**2 grid points at once."""
    m = size * size
    if m * (m - 1) // 2 > EXHAUSTIVE_BUDGET:
        raise ValueError(
            f"T7_1 on |A| = {size} would take {m * (m - 1) // 2} grid pairs"
            f" (budget {EXHAUSTIVE_BUDGET})"
        )


def input_count(config: ExperimentConfig, ring: Ring) -> int:
    if config.mode is None:
        if "all" in (config.points, config.planes) and ring.order**3 > EXHAUSTIVE_BUDGET:
            raise ValueError(
                f"points/planes = all would take {ring.order**3} triples"
                f" (budget {EXHAUSTIVE_BUDGET})"
            )
        if config.theorem == "T7_1" and "A" in config.literals:
            _refuse_grid_pairs(len(parse_set_literal(ring, config.literals["A"])))
        return 1
    slots = THEOREMS[config.theorem].slots
    if config.mode.kind == "exhaustive":
        if slots == 0:
            raise ValueError(f"{config.theorem} sweeps are random-mode only")
        budget = exhaustive_budget(ring.order, config.mode.max_size, slots)
        if budget > EXHAUSTIVE_BUDGET:
            raise ValueError(
                f"exhaustive sweep would take {budget} evaluations"
                f" (budget {EXHAUSTIVE_BUDGET})"
            )
        return budget
    if (config.points, config.planes) != (None, None):
        raise ValueError("random mode takes its counts from its sizes, not points/planes")
    if slots == 0 and len(config.mode.sizes) != 2:
        raise ValueError(f"{config.theorem} needs two sizes (points, planes)")
    if slots and len(config.mode.sizes) != slots:
        raise ValueError(f"{config.theorem} needs {slots} size(s) in random mode")
    for size in config.mode.sizes:
        if slots == 0 and size > ring.order**3:
            raise ValueError(f"cannot draw {size} distinct values from {ring.order**3}")
        if THEOREMS[config.theorem].units_only and size > ring.units_count:
            raise ValueError(f"unit subset size {size} out of range [1, {ring.units_count}]")
        if slots and size > ring.order:
            raise ValueError(f"subset size {size} out of range [1, {ring.order}]")
        if config.theorem == "T7_1":
            _refuse_grid_pairs(size)
    return config.mode.trials


def _run_range(config: ExperimentConfig, lo: int, hi: int) -> list:
    """Reports of inputs lo..hi-1, walked in blocks of BLOCK_ELEMS // order inputs.

    A theorem with a block path (T1_3, T7_1) gives the parts of each block
    from its masks whole; every other theorem runs each input through
    _run_input, and ReportBlock.runs turns the block's CheckReports into
    columns.
    """
    ring = _ring_of(config.ring_spec)
    theorem = THEOREMS[config.theorem]
    parts = []
    step = max(1, BLOCK_ELEMS // ring.order)
    for start in range(lo, hi, step):
        indices = range(start, min(hi, start + step))
        drawn = _block_sets(config, ring, indices)
        if theorem.block:
            parts.extend(theorem.block(config, ring, *drawn))
        else:
            masks = None if drawn is None else drawn[0]  # None for a family theorem
            parts.extend(ReportBlock.runs(
                rep
                for row, index in enumerate(indices)
                for rep in _run_input(
                    config, ring, index, masks and [RSet(ring, M[row]) for M in masks]
                )
            ))
    return parts


def _block_sets(config: ExperimentConfig, ring: Ring, indices: range):
    """(one (rows, order) mask per slot, seeds) of a block of inputs.

    A single check is one row parsed from the A/B/C literals, an exhaustive
    block unranks its positions and a random block draws them.  None for a
    theorem of point and plane families, which builds them per input.
    """
    theorem, mode = THEOREMS[config.theorem], config.mode
    if theorem.slots == 0:
        return None
    if mode is None:
        masks = []
        for name in ("A", "B", "C")[: theorem.slots]:
            lit = config.literals.get(name)
            if lit is None:
                raise ValueError(f"{config.theorem} needs an explicit set {name} (or a mode)")
            masks.append(parse_set_literal(ring, lit).mask[None])
        return masks, [None]
    positions = np.arange(indices.start, indices.stop)
    if mode.kind == "random":
        seeds = mix64_arr(config.seed, positions)
        return _random_masks(config, ring, seeds), seeds.tolist()
    ranks = _slot_ranks(ring, mode.max_size, theorem.slots, positions)
    return [_rank_masks(ring.order, mode.max_size, r) for r in ranks], [None] * len(positions)


def _run_range_star(args):
    return _run_range(*args)


def _worker_count() -> int:
    raw = os.environ.get("FVRLAB_WORKERS", "")
    if not raw:
        return 1
    count = parse_index(raw, "FVRLAB_WORKERS")
    if count < 1:
        raise ValueError("FVRLAB_WORKERS must be a positive integer")
    return count


def run_experiment(config: ExperimentConfig) -> tuple[ReportList, dict]:
    """Run the sweep and return (reports, summary); see the module notes."""
    ring = _ring_of(config.ring_spec)
    total = input_count(config, ring)
    workers = _worker_count()
    if workers > 1 and total > 1:
        # imported here: the pool's multiprocessing machinery loads hmac and
        # hashlib (OpenSSL), which a serial sweep never uses
        from concurrent.futures import ProcessPoolExecutor

        chunks = max(workers * 4, 1)
        step = max(1, -(-total // chunks))
        ranges = [(config, lo, min(total, lo + step)) for lo in range(0, total, step)]
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = [part for parts in ex.map(_run_range_star, ranges) for part in parts]
    else:
        parts = _run_range(config, 0, total)
    reports = ReportList(parts)
    return reports, summarize(config, reports, total)


def summarize(config: ExperimentConfig, reports: ReportList, inputs: int) -> dict:
    """Verdict counts and exact ratio extremes and mean, folded part by part.

    Each part gives its verdict counts and its ratio rows.  Ratios compare
    by integer cross-multiplication, and argmin_sets are the sets of the
    first report (in input order) with the least ratio.  The mean is the sum,
    over each denominator, of the numerators above it, so a block adds up
    in plain ints.
    """
    verdicts = dict.fromkeys(VERDICTS, 0)
    lo = hi = None  # (numerator, denominator[, part, row]) of the min and the max
    sums: dict[int, int] = {}  # denominator -> sum of the numerators over it
    count = 0
    for part in reports.parts:
        for verdict, n in part.verdict_counts().items():
            verdicts[verdict] += n
        for row, num, den in part.ratio_rows():
            count += 1
            sums[den] = sums.get(den, 0) + num
            if lo is None or num * lo[1] < lo[0] * den:
                lo = (num, den, part, row)
            if hi is None or num * hi[1] > hi[0] * den:
                hi = (num, den)
    summary = {
        "theorem": config.theorem,
        "ring": _ring_of(config.ring_spec).spec_string(),
        "mode": config.mode.literal if config.mode else "single",
        "seed": config.seed,
        "inputs": inputs,
        "reports": len(reports),
        "verdicts": verdicts,
        "ratio_min": None,
        "ratio_min_float": None,
        "ratio_max": None,
        "ratio_max_float": None,
        "ratio_mean": None,
        "argmin_sets": None,
    }
    if count:
        low, high = Fraction(lo[0], lo[1]), Fraction(hi[0], hi[1])
        mean = sum(Fraction(num, den) for den, num in sums.items()) / count
        summary["ratio_min"] = f"{low.numerator}/{low.denominator}"
        summary["ratio_min_float"] = float(low)
        summary["ratio_max"] = f"{high.numerator}/{high.denominator}"
        summary["ratio_max_float"] = float(high)
        summary["ratio_mean"] = float(mean)
        part, row = lo[2:]
        summary["argmin_sets"] = part.sets_at(row)
    return summary


# ---------------------------------------------------------------------------
# config files


# config key -> (ExperimentConfig field, value parser); A, B and C go to literals
_FIELDS = {
    "theorem": ("theorem", str),
    "ring": ("ring_spec", str),
    "mode": ("mode", parse_mode),
    "seed": ("seed", partial(parse_index, what="seed")),
    "f": ("f", str),
    "poly1": ("poly1", str),
    "d": ("d", partial(parse_index, what="d")),
    "points": ("points", str),
    "planes": ("planes", str),
    "max_weight": ("max_weight", partial(parse_index, what="max_weight")),
    "out": ("out", str),
    "format": ("fmt", str),
}
CONFIG_KEYS = (*_FIELDS, "A", "B", "C")
# keys every theorem and mode reads
_COMMON_KEYS = ("theorem", "ring", "mode", "seed", "out", "format")


def config_from_fields(raw: dict[str, str]) -> ExperimentConfig:
    """Build a config from flat key -> text fields; absent keys take the defaults.

    A given key that the config does not read is refused, default value or
    not (see _refuse_unread).
    """
    for needed in ("theorem", "ring"):
        if needed not in raw:
            raise ValueError(f"config needs a {needed!r} line")
    kwargs = {name: parse(raw[key]) for key, (name, parse) in _FIELDS.items() if key in raw}
    literals = {name: raw[name] for name in ("A", "B", "C") if name in raw}
    config = ExperimentConfig(literals=literals, **kwargs)
    _refuse_unread(config, raw)
    return config


def _refuse_unread(config: ExperimentConfig, keys) -> None:
    """Refuse each key config does not read: all but _COMMON_KEYS, its theorem's
    reads (not max_weight when points = planes = all, which weighs uniformly)
    and, without a mode, its set slots."""
    theorem = THEOREMS[config.theorem]
    slots = ("A", "B", "C")[: theorem.slots]
    reads = theorem.reads
    if (config.points, config.planes) == ("all", "all"):
        reads = tuple(key for key in reads if key != "max_weight")
    for key in keys:
        if key in slots and config.mode is not None:
            raise ValueError(f"{key} is an explicit set, and a mode draws its own sets")
        if key not in (*_COMMON_KEYS, *reads, *slots):
            raise ValueError(f"{config.theorem} does not read {key!r}")


def parse_config_fields(lines) -> dict[str, str]:
    """Flat key=value format; one pair per line, # comments allowed."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        key, eq, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not value:
            raise ValueError(f"line {lineno}: expected key = value")
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def parse_config_lines(lines) -> ExperimentConfig:
    """Config from flat key=value lines; see parse_config_fields."""
    return config_from_fields(parse_config_fields(lines))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config_lines(fh)
