"""``runner trace`` — query a saved trace and run analysis passes.

Examples::

    python -m repro.experiments.runner trace results/scaleout.trace.json
    ... trace run.json --pass decomposition --pass critical-path
    ... trace run.json --json report.json          # machine-readable

Also runnable directly: ``python -m repro.trace.cli <trace.json>``.  To
see the timeline itself, open the saved trace in the Perfetto UI.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.trace.passes import PASSES, run_passes
from repro.trace.query import TraceQuery


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runner trace",
        description="Query a saved simulation trace: analysis passes and "
                    "JSON reports.")
    parser.add_argument("trace", nargs="?",
                        help="path to a saved Chrome/Perfetto trace JSON "
                             "(e.g. from a runner --trace flag)")
    parser.add_argument("--pass", dest="passes", action="append",
                        metavar="NAME", default=None,
                        help="analysis pass to run (repeatable; default: "
                             "all). See --list-passes.")
    parser.add_argument("--list-passes", action="store_true",
                        help="list available analysis passes and exit")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the pass results as JSON "
                             "('-' for stdout)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_passes:
        for name, fn in PASSES.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name:<18}{doc[0] if doc else ''}")
        return 0
    if options.trace is None:
        parser.error("a trace file is required (or --list-passes)")
    path = pathlib.Path(options.trace)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    query = TraceQuery.from_file(str(path))
    try:
        results = run_passes(query, options.passes)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    blocks = [result.text for result in results]
    print("\n\n".join(blocks))
    if options.json:
        payload = {"trace": str(path),
                   "passes": [result.to_dict() for result in results]}
        text = json.dumps(payload, indent=2, sort_keys=True)
        if options.json == "-":
            print(text)
        else:
            target = pathlib.Path(options.json)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text + "\n")
            print(f"\nwrote {options.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
