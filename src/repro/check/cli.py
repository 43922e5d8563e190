"""``python -m repro check`` -- run the static contract analysis.

Usage::

    python -m repro check src/                 # text findings
    python -m repro check src/ --output json   # machine-readable
    python -m repro check src/ --output sarif  # for PR-diff annotation
    python -m repro check src/ --cache .repro-check-cache
    python -m repro check src/repro/sim --select DET001,DET002
    python -m repro check --list-rules

Exit codes: 0 clean (warn-only findings count as clean), 1 findings,
2 usage error / unparseable file.

The JSON document is stable (schema version 2)::

    {"version": 2, "files_checked": N,
     "counts": {"DET001": 2, ...},
     "findings": [{"rule", "message", "path", "line", "col",
                   "severity"}, ...],
     "errors": [],
     "cache": {"hits": 0, "misses": 0}}

``--cache DIR`` keys per-file results on a content hash of the file
bytes plus the active rule-set version; findings are byte-identical
with and without the cache (project rules always recompute from the
cached fact tables).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.check.engine import CheckError, all_rules, check_paths

__all__ = ["configure", "run"]


def _split_rules(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def configure(parser: argparse.ArgumentParser) -> None:
    parser.description = ("AST-based static contract analysis for the "
                          "repro codebase (determinism, async-safety, "
                          "telemetry schema conformance).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    # --format is the historical spelling; both write the same dest
    parser.add_argument("--output", "--format", dest="output",
                        choices=("text", "json", "sarif"), default="text",
                        help="output format (default text)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-hash result cache directory "
                             "(unchanged files skip parsing entirely)")
    parser.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--ignore", metavar="RULES", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def run(args: argparse.Namespace) -> int:
    """``python -m repro check``; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            scope = "project" if rule.project else "file"
            sev = "" if rule.severity == "error" else f", {rule.severity}"
            print(f"{rule.id}  {rule.title}  ({scope}{sev})")
            print(f"        {rule.rationale}")
        return 0

    try:
        report = check_paths(
            args.paths,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
            cache_dir=args.cache,
        )
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.output == "sarif":
        from repro.check.sarif import render_sarif
        rules = select_rules_for_sarif(args)
        print(json.dumps(render_sarif(report, rules), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        for err in report.errors:
            print(f"error: {err}", file=sys.stderr)
        n = len(report.findings)
        warns = sum(1 for f in report.findings if f.severity != "error")
        tail = f" ({warns} warn-only)" if warns else ""
        summary = (f"{n} finding{'s' if n != 1 else ''}{tail} "
                   f"in {report.files_checked} files checked")
        print(summary if n else f"clean: {summary}")
    return report.exit_code


def select_rules_for_sarif(args: argparse.Namespace):
    """The rule set to describe in the SARIF rule table."""
    from repro.check.engine import select_rules
    return select_rules(_split_rules(args.select), _split_rules(args.ignore))

