"""Command-line front end: run studies, print reports.

Verbs:
  run CONFIG [--output DIR]    execute the study described by a JSON config
  report DIR                   summarize a finished study directory
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ExperimentConfig, report, run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chaoseig",
        description="Eigenpair studies for elliptic operators with "
                    "parametric coefficients")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a study from a JSON config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--output", default=None,
                       help="override the config's output directory")

    p_rep = sub.add_parser("report", help="summarize a study directory")
    p_rep.add_argument("directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            config = ExperimentConfig.from_file(args.config)
            outdir = run_experiment(config, outdir=args.output)
            print(f"wrote {outdir}")
            print(report(outdir))
        elif args.verb == "report":
            print(report(args.directory))
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
