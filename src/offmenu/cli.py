"""Command-line front end: synthesize, verify, simulate, report.

Exit code 0 means every requested verdict passed (or the command has no
verdicts); schema and sizing problems exit 2 with a diagnostic on stderr.
All outputs are byte-stable functions of (scenario, seed).
"""

from __future__ import annotations

import argparse
import sys
from .model import GameError
from .run import export_report, run_scenario
from .scenario import bundled_scenarios, load_scenario

__all__ = ["main"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario file path or bundled name")
    p.add_argument("--out", default=None, help="output directory for reports and CSV series")
    p.add_argument("--mode", choices=("exact", "mc"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)


def _overrides(args) -> dict:
    out = {}
    if args.mode is not None:
        out["mode"] = args.mode
    if args.seed is not None:
        out["seed"] = args.seed
    if args.samples is not None:
        out["samples"] = args.samples
    if args.tol is not None:
        out["tolerance"] = args.tol
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="offmenu",
        description="Synthesis and verification for dynamic delegation with off-menu participation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="build the mechanism and write its outputs, no checks")
    _add_common(p_syn)

    p_ver = sub.add_parser("verify", help="run the requested checks; exit 0 iff all pass")
    _add_common(p_ver)
    p_ver.add_argument("--checks", default=None,
                       help="comma-separated check list overriding the scenario")

    p_sim = sub.add_parser("simulate", help="seeded rollouts and quit-frequency series")
    _add_common(p_sim)

    p_rep = sub.add_parser("report", help="re-export an existing report")
    p_rep.add_argument("report", help="path to a report.json")
    p_rep.add_argument("--format", choices=("json", "csv"), default="json")
    p_rep.add_argument("--out", default=".")

    p_list = sub.add_parser("scenarios", help="list bundled scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "scenarios":
            for name in sorted(bundled_scenarios()):
                print(name)
            return 0
        if args.command == "report":
            paths = export_report(args.report, args.format, args.out)
            for p in paths:
                print(p)
            return 0

        scenario = load_scenario(args.scenario)
        overrides = _overrides(args)
        if args.command in ("synthesize", "simulate"):
            overrides["checks"] = ()
        elif args.command == "verify" and args.checks is not None:
            overrides["checks"] = tuple(c for c in args.checks.split(",") if c)
            if not overrides["checks"]:
                raise GameError(f"--checks {args.checks!r} names no check")
        result = run_scenario(scenario, args.out, overrides)
        for v in result.report["verdicts"]:
            status = "PASS" if v["passed"] else "FAIL"
            print(f"[{status}] {v['name']}: worst={v['worst']:.3e} tol={v['tolerance']:.1e} ({v['mode']})")
        if args.command == "simulate":
            sim = result.report["extras"]["simulation"]
            print(f"paths={sim['paths']} seed={sim['seed']}")
            for key, val in sim["quit_freq"].items():
                print(f"quit[{key}] = {val:.4f}")
        if args.out:
            for p in result.artifacts:
                print(p)
        return 0 if result.passed else 1
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
