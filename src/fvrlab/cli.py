"""Command line front end.

Subcommands:

* ``ring info <spec>``: print ring parameters as ``key: value`` lines.
* ``check <theorem> ...``: run one check on explicit inputs, or a sweep
  when ``--mode`` is given.
* ``incidence ...``: point-plane bound on families loaded from files.
* ``geometry ...``: collinear-triple and line-count reports for one grid set.
* ``sweep <config-file>``: run a sweep described by a flat key=value file.

Reports stream as JSON lines to stdout, or to ``--out`` in the chosen
format; the run summary is always the last stdout line.  Exit status: 0
when no check failed, 1 when some verdict is ``fail``, 2 on usage or
input errors.  ``hypothesis_not_met`` and ``ratio_recorded`` reports never
fail the process.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    CONFIG_KEYS,
    THEOREMS,
    ExperimentConfig,
    config_from_fields,
    parse_config_fields,
    run_experiment,
    summarize,
)
from .incidence import incidence_bound_report, load_family, weighted_bound_report
from .report import ReportBlock, ReportList, jsonl_chunks, write_csv, write_jsonl
from .ring import parse_ring_spec


def _poly_text(coeffs: tuple[int, ...]) -> str:
    terms = []
    for deg, c in enumerate(coeffs):
        if c == 0:
            continue
        if deg == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}y" if deg == 1 else f"{head}y^{deg}")
    return " + ".join(terms) if terms else "0"


def _cmd_ring_info(args) -> int:
    ring = parse_ring_spec(args.spec)
    lines = [
        ("spec", ring.spec_string()),
        ("kind", ring.kind),
        ("p", ring.p),
        ("s", ring.s),
        ("q", ring.q),
        ("r", ring.r),
        ("order", ring.order),
        ("units", ring.order - ring.order // ring.q),
        ("uniformizer", ring.uniformizer()),
        ("uniformizer_degenerate", "true" if ring.uniformizer_degenerate else "false"),
        ("ideal_sizes", ",".join(str(ring.ideal_size(k)) for k in range(ring.r + 1))),
    ]
    if ring.field_modulus is not None and ring.s > 1:
        lines.append(("residue_field_modulus", _poly_text(ring.field_modulus)))
    for key, value in lines:
        print(f"{key}: {value}")
    return 0


def _emit(reports, summary, out: str | None, fmt: str) -> int:
    if out is not None:
        if fmt == "csv":
            write_csv(reports, out)
        else:
            write_jsonl(reports, out)
    else:
        sys.stdout.writelines(jsonl_chunks(reports))
    print(json.dumps({"summary": summary}, separators=(",", ":")))
    return 1 if summary["verdicts"]["fail"] else 0


def _config(args, fields: dict[str, str]) -> ExperimentConfig:
    """Config-file fields overridden by the flags given; refuses csv to stdout."""
    flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    flags = {key: value for key, value in flags.items() if value is not None}
    config = config_from_fields({**fields, **flags})
    if config.fmt == "csv" and config.out is None:
        raise ValueError("csv format needs --out")
    return config


def _cmd_run(args) -> int:
    """check, geometry and sweep: one config from the file and the flags."""
    fields = {}
    if args.command == "sweep":
        with open(args.config) as fh:
            fields = parse_config_fields(fh)
    config = _config(args, fields)
    reports, summary = run_experiment(config)
    return _emit(reports, summary, config.out, config.fmt)


def _cmd_incidence(args) -> int:
    config = _config(args, {"theorem": "T2_4" if args.weighted else "T2_2"})
    ring = parse_ring_spec(config.ring_spec)
    points = load_family(ring, args.points_file)
    planes = load_family(ring, args.planes_file)
    if args.weighted:
        rep = weighted_bound_report(points, planes, seed=None)
    else:
        for fam, label in ((points, "points"), (planes, "planes")):
            if fam.max_weight != 1:
                raise ValueError(f"{label} file carries weights; pass --weighted")
        rep = incidence_bound_report(ring, points.items, planes.items, seed=None)
    reports = ReportList(ReportBlock.runs([rep]))
    return _emit(reports, summarize(config, reports, 1), config.out, config.fmt)


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default=None, help="write reports to this path")
    sub.add_argument("--format", default=None, choices=("jsonl", "csv"), help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvrlab", description="exact arithmetic checks over finite valuation rings"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ring_cmd = subs.add_parser("ring", help="ring utilities")
    ring_subs = ring_cmd.add_subparsers(dest="ring_command", required=True)
    info = ring_subs.add_parser("info", help="print ring parameters")
    info.add_argument("spec", help="ring spec, e.g. zpr:p=3,r=2 or fqxr:p=3,s=2,r=1")
    info.set_defaults(func=_cmd_ring_info)

    check = subs.add_parser("check", help="run one check or a sweep")
    check.add_argument("theorem", choices=sorted(THEOREMS))
    check.add_argument("--ring", required=True, help="ring spec")
    check.add_argument("--mode", default=None, help="exhaustive:K or random:SIZES:TRIALS")
    check.add_argument("--seed", default=None, help="master seed for random mode")
    check.add_argument("--f", default=None, help="three-variable quadratic, a=..;R=..;S=..;T=..")
    check.add_argument("--poly1", default=None, help="one-variable quadratic, c2,c1,c0")
    check.add_argument("--d", default=None, help="power for energy checks")
    check.add_argument("--A", default=None, help="set literal such as 0,1,4 or all")
    check.add_argument("--B", default=None, help="set literal")
    check.add_argument("--C", default=None, help="set literal")
    check.add_argument("--points", default=None, help="point count per trial, or all")
    check.add_argument("--planes", default=None, help="plane count per trial, or all")
    check.add_argument("--max-weight", default=None, dest="max_weight")
    _add_output_flags(check)
    check.set_defaults(func=_cmd_run)

    inc = subs.add_parser("incidence", help="incidence bound on families from files")
    inc.add_argument("--ring", required=True)
    inc.add_argument("--points-file", required=True, dest="points_file")
    inc.add_argument("--planes-file", required=True, dest="planes_file")
    inc.add_argument("--weighted", action="store_true", help="use weights from the files")
    _add_output_flags(inc)
    inc.set_defaults(func=_cmd_incidence)

    geo = subs.add_parser("geometry", help="collinear triples and spanned lines")
    geo.add_argument("--ring", required=True)
    geo.add_argument("--A", default=None, help="set literal for the grid, or all")
    geo.add_argument("--mode", default=None, help="exhaustive:K or random:SIZE:TRIALS")
    geo.add_argument("--seed", default=None)
    _add_output_flags(geo)
    geo.set_defaults(func=_cmd_run, theorem="T7_1")

    sweep = subs.add_parser("sweep", help="run a sweep from a config file")
    sweep.add_argument("config", help="flat key=value config file")
    sweep.add_argument("--out", default=None, help="override the config output path")
    sweep.add_argument("--format", default=None, choices=("jsonl", "csv"))
    sweep.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads the option value '--' (as in --A=--) as an empty list
        if [] in vars(args).values():
            raise ValueError("'--' is not an option value")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
