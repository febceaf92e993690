#!/usr/bin/env python3
"""Reproduce the headline convergence studies and print a summary table.

Runs every study of `mtlab.harness.CERTIFIED`, in its order: the grid
studies (two-speed Dirac, uniform datum under W1 and L1, concentrating front,
Rusanov) and the semi-Lagrangian Dirac study on triangulated meshes.
--ladder replaces the ladder of the grid studies only.  Writes CSV/JSON
reports next to --out.  A malformed --ladder is reported on one line, with
exit status 2, and a report that cannot be written (say, --out in a missing
directory) on one line, with exit status 4, as `mtlab convergence` does.
"""

import argparse
import dataclasses
import sys

from mtlab.harness import CERTIFIED, StudyConfig, emit_report, run_study


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="report path prefix")
    ap.add_argument("--ladder", default=None,
                    help="comma-separated node counts of the grid studies")
    args = ap.parse_args(argv)

    configs = {name: entry.config for name, entry in CERTIFIED.items()}
    if args.ladder:
        try:  # ConfigError is a ValueError
            ladder = tuple(int(v) for v in args.ladder.split(","))
            configs = {name: dataclasses.replace(cfg, ladder=ladder)
                       if isinstance(cfg, StudyConfig) else cfg
                       for name, cfg in configs.items()}
        except ValueError as exc:
            print(f"config error: --ladder {args.ladder!r}: {exc}", file=sys.stderr)
            return 2

    print(f"{'study':<20} {'slope':>7} {'residual':>9} {'finest error':>13}")
    for name, cfg in configs.items():
        rep = run_study(cfg)
        print(f"{name:<20} {rep.slope:>7.3f} {rep.residual:>9.4f} "
              f"{rep.rows[-1].error:>13.5e}")
        if args.out:
            try:
                emit_report(rep, f"{args.out}-{name}")
            except OSError as exc:
                print(f"I/O error: {exc}", file=sys.stderr)
                return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
