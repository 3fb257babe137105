"""Command-line interface.

Subcommands:
  c1           exact sliding-window constant of a potential
  solve        propagate a scenario and export the trace as CSV
  verify       run a suite config, emit a JSON report (exit 0/1/2)
  sweep        randomized corroboration sweep over potential families
  simon-stolz  transfer-matrix integral curve as CSV
  prufer       amplitude/phase decomposition as CSV

Exit codes: 0 all pass (expected failures honored), 1 unexpected failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import ConfigError, Schro1dError
from .harness import (
    ALL_FAMILIES,
    CURVE_FIELDS,
    _field,
    _known,
    default_suite_path,
    load_suite_config,
    parse_potential,
    parse_scenario,
    random_sweep,
    run_suite,
    scenario_trace,
)
from .potential import c1_sup
from .spectral import prufer_decompose, simon_stolz_curve


def _write_text(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _potential(doc):
    """The potential of a c1 or simon-stolz config: its "potential" object,
    or else the document less the curve's fields."""
    rest = {k: v for k, v in doc.items() if k not in CURVE_FIELDS}
    if "potential" in rest:
        _known(rest, ("potential",))
    return parse_potential(rest.get("potential", rest), "potential")


def _cmd_c1(args):
    pot = _potential(load_suite_config(args.config))
    profile = c1_sup(pot)
    payload = {
        "c1": profile.supremum,
        "argmax": profile.argmax,
        "described_interval": list(pot.support),
    }
    _write_text(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return 0


def _load(args, **options):
    """The config document, each option given on the command line in place
    of its field, so that it is read and tested as the field would be."""
    doc = load_suite_config(args.config)
    return {**doc, **{key: v for key, v in options.items() if v is not None}}


def _cmd_solve(args):
    scn = parse_scenario(_load(args, max_step=args.max_step), "scenario")
    trace = scenario_trace(scn)
    trace.to_csv(args.out or sys.stdout)
    return 0


def _summarize(report):
    lines = []
    for entry in report.entries:
        status = "ok" if entry["ok"] else "FAIL"
        lines.append(f"[{status}] {entry['id']} ({entry['expected']})")
        if "error" in entry:
            err = entry["error"]
            lines.append(f"    error {err['type']}: x={err['x']}, magnitude={err['magnitude']}")
        for out in entry["outcomes"]:
            mark = "pass" if out["pass"] else "FAIL"
            lines.append(
                f"    {mark:4s} {out['name']}: worst_ratio={out['worst_ratio']:.6f} "
                f"witness_x={out['witness_x']:.4f}"
            )
        for sk in entry["skipped"]:
            lines.append(f"    skip {sk['name']}: {sk['reason']}")
    return "\n".join(lines)


def _finish_report(report, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(_summarize(report))
    print(f"suite {'PASSED' if report.all_ok else 'FAILED'}")
    return 0 if report.all_ok else 1


def _cmd_verify(args):
    config = args.config or default_suite_path()
    report = run_suite(config, c2_floor=args.c2_floor)
    return _finish_report(report, args)


def _cmd_sweep(args):
    report = random_sweep(tuple(args.families.split(",")), args.n, args.seed,
                          args.max_step, args.lemma_samples)
    return _finish_report(report, args)


def _cmd_simon_stolz(args):
    doc = _load(args, energy=args.energy, x_max=args.x_max, step=args.max_step)
    curve = simon_stolz_curve(_potential(doc),
                              *[_field(doc, key, fields=CURVE_FIELDS) for key in CURVE_FIELDS])
    curve.to_csv(args.out or sys.stdout)
    return 0


def _cmd_prufer(args):
    scn = parse_scenario(_load(args, max_step=args.max_step), "scenario")
    trace = scenario_trace(scn)
    k = args.k
    if k is None:
        if scn.energy.real <= 0 or scn.energy.imag != 0:
            raise ConfigError("need E = k^2 > 0 real, or pass --k", f"{scn.id}.energy")
        k = math.sqrt(scn.energy.real)
    ptrace = prufer_decompose(trace, k)
    ptrace.to_csv(args.out or sys.stdout)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="schro1d", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"schro1d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, max_step=None):
        p.add_argument("--config", required=config_required,
                       help="path to the JSON configuration")
        p.add_argument("--out", help="output file (default: stdout)")
        if max_step:
            p.add_argument("--max-step", type=float, help=f"in place of the config's {max_step}")

    p = sub.add_parser("c1", help="exact C1 constant of a potential")
    common(p)
    p.set_defaults(func=_cmd_c1)

    p = sub.add_parser("solve", help="propagate a scenario, export trace CSV")
    common(p, max_step="max_step")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="run a suite config and report")
    common(p, config_required=False)
    p.add_argument("--c2-floor", type=float, default=None, dest="c2_floor",
                   help="opt-in lower bound for C2 (degenerate-case escape hatch)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="randomized corroboration sweep")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--families", default=",".join(ALL_FAMILIES),
                   help="comma-separated family names")
    p.add_argument("--lemma-samples", type=int, default=1000, dest="lemma_samples")
    p.add_argument("--out", help="report JSON output file")
    p.add_argument("--max-step", type=float, default=0.01)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simon-stolz", help="transfer-matrix integral curve CSV")
    common(p, max_step="step")
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None, dest="x_max")
    p.set_defaults(func=_cmd_simon_stolz)

    p = sub.add_parser("prufer", help="amplitude/phase decomposition CSV")
    common(p, max_step="max_step")
    p.add_argument("--k", type=float, default=None)
    p.set_defaults(func=_cmd_prufer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Schro1dError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
