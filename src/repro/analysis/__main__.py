"""CLI entry point: ``python -m repro.analysis lint src/``.

Exit codes: 0 = clean, 1 = findings, 2 = usage error. The ``--json``
payload and the exit code are computed from the same post-suppression,
post-baseline finding list, so they can never disagree; ``--sarif``
writes that same list as a SARIF 2.1.0 file for code-scanning upload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.analysis.lint import (
    apply_baseline,
    lint_paths,
    load_baseline,
    to_sarif,
    write_baseline,
)
from repro.analysis.rules import ALL_RULES, RULES_BY_ID


def _git_toplevel() -> Path:
    return Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    )


def _git_changed_files() -> Set[Path]:
    """Changed ``*.py`` files: unstaged + staged ``git diff --name-only``,
    resolved against the repository root. Raises on any git failure."""
    top = _git_toplevel()
    names: Set[str] = set()
    for extra in ([], ["--cached"]):
        out = subprocess.run(
            ["git", "diff", "--name-only", *extra],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        names.update(line.strip() for line in out.splitlines() if line.strip())
    return {top / name for name in names if name.endswith(".py")}


def _cmd_lint(args: argparse.Namespace) -> int:
    select: Optional[List[str]] = None
    if args.select:
        select = [code for code in args.select.split(",") if code]
    if args.rule:
        select = (select or []) + list(args.rule)
    if select is not None:
        unknown = [code for code in select if code.upper() not in RULES_BY_ID]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    changed_only = None
    if args.changed:
        try:
            changed_only = _git_changed_files()
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: --changed needs a git checkout: {exc}", file=sys.stderr)
            return 2
    try:
        findings = lint_paths(
            args.paths,
            select=select,
            cache=args.cache,
            changed_only=changed_only,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(
            f"wrote {len(findings)} fingerprint(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    suppressed = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: bad baseline file: {exc}", file=sys.stderr)
            return 2
        kept = apply_baseline(findings, baseline)
        suppressed = len(findings) - len(kept)
        findings = kept
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(to_sarif(findings), indent=2), encoding="utf-8"
        )
    if args.json:
        payload = {
            "findings": [d.to_dict() for d in findings],
            "count": len(findings),
            "baseline_suppressed": suppressed,
            "clean": not findings,
        }
        print(json.dumps(payload, indent=2))
    else:
        for diagnostic in findings:
            print(diagnostic.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


def _cmd_rules(args: argparse.Namespace) -> int:
    for rule in ALL_RULES:
        print(f"{rule.rule_id}  {rule.title}")
    return 0


#: Repo-relative paths whose changes retrigger the model-checker
#: admission gate besides the registered cores' own modules: the core
#: boundary, the checker and its oracle, and the channel, topology,
#: routing and persistence code the checker executes for real.
_MODEL_TRIGGER_DIR = "src/repro/protocol/"
_MODEL_TRIGGER_FILES = (
    "src/repro/analysis/model.py",
    "src/repro/causality/order.py",
    "src/repro/mom/channel.py",
    "src/repro/mom/domain_item.py",
    "src/repro/mom/payloads.py",
    "src/repro/mom/persistence.py",
    "src/repro/topology/builders.py",
    "src/repro/topology/domains.py",
    "src/repro/topology/routing.py",
)


def _model_triggers() -> Set[str]:
    """Repo-relative source files that can move a model-checker verdict:
    the module of every registered core class, clock class and stamp
    class (their ``repro`` bases included), plus the checker and the
    protocol code it runs."""
    from repro.protocol import registered_cores

    files = set(_MODEL_TRIGGER_FILES)
    for core in registered_cores():
        for cls in (type(core), core.clock_cls, core.stamp_cls):
            for base in cls.__mro__:
                module = base.__module__
                if module.startswith("repro."):
                    files.add("src/" + module.replace(".", "/") + ".py")
    return files


def _model_relevant(paths: Set[Path], root: Path) -> bool:
    """Does any of ``paths`` (absolute) touch a model-checker trigger?
    Paths are matched relative to the repository ``root``, so the names
    of directories above the checkout never count."""
    triggers = _model_triggers()
    for path in paths:
        try:
            name = path.relative_to(root).as_posix()
        except ValueError:
            continue
        if name in triggers or name.startswith(_MODEL_TRIGGER_DIR):
            return True
    return False


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.analysis.model import (
        ScanError,
        check_core,
        check_named,
        checkable_cores,
        load_candidate,
    )

    if args.changed:
        try:
            changed = _git_changed_files()
            root = _git_toplevel()
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"error: --changed needs a git checkout: {exc}", file=sys.stderr)
            return 2
        if not _model_relevant(changed, root):
            print(
                "model: no changes to a registered core's modules, "
                "protocol/, the checker, its oracle or the channel it "
                "drives — admission gate skipped",
                file=sys.stderr,
            )
            return 0
    results = []
    try:
        if args.all:
            for name, causal in checkable_cores():
                if args.core and name != args.core:
                    continue
                if not causal:
                    print(
                        f"core '{name}': skipped (causal=False baseline; "
                        "check it explicitly to see its counterexample)",
                        file=sys.stderr,
                    )
                    continue
                results.append(
                    check_named(
                        name, servers=args.servers, messages=args.messages
                    )
                )
        else:
            if not args.core:
                print("error: name a core or pass --all", file=sys.stderr)
                return 2
            if args.core.endswith(".py"):
                core = load_candidate(Path(args.core))
                results.append(
                    check_core(
                        core, servers=args.servers, messages=args.messages
                    )
                )
            else:
                results.append(
                    check_named(
                        args.core,
                        servers=args.servers,
                        messages=args.messages,
                    )
                )
    except ScanError as exc:
        print(f"error: admission scan failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # ProtocolError: unknown core name, bad boot
        from repro.errors import ProtocolError

        if not isinstance(exc, ProtocolError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "results": [r.to_dict() for r in results],
                    "ok": all(r.ok for r in results),
                },
                indent=2,
            )
        )
    else:
        for result in results:
            print(result.format())
    return 0 if all(r.ok for r in results) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Protocol linter for the causal-middleware repo.",
    )
    sub = parser.add_subparsers(dest="command")

    lint_parser = sub.add_parser("lint", help="lint files or directories")
    lint_parser.add_argument("paths", nargs="+", help="files or directories")
    lint_parser.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    lint_parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write the findings as SARIF 2.1.0 (code scanning)",
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RXXX",
        help="run one rule (repeatable; combines with --select)",
    )
    lint_parser.add_argument(
        "--cache",
        default=None,
        metavar="FILE",
        help="content-hash result cache (rule selections get their own "
        "cache bucket)",
    )
    lint_parser.add_argument(
        "--changed",
        action="store_true",
        help="scope file rules to git-changed files (project rules still "
        "run whole-program)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress findings fingerprinted in this baseline file",
    )
    lint_parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline file and exit 0",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    rules_parser = sub.add_parser("rules", help="list the rule catalogue")
    rules_parser.set_defaults(func=_cmd_rules)

    model_parser = sub.add_parser(
        "model",
        help="small-scope model-check a causal core (admission gate)",
    )
    model_parser.add_argument(
        "core",
        nargs="?",
        default=None,
        help="registered core name, or a path to a candidate .py file",
    )
    model_parser.add_argument(
        "--all",
        action="store_true",
        help="check every registered causal core (causal=False baselines "
        "are skipped)",
    )
    model_parser.add_argument(
        "--servers",
        type=int,
        default=3,
        metavar="N",
        help="servers in the explored scope (capped at 3)",
    )
    model_parser.add_argument(
        "--messages",
        type=int,
        default=3,
        metavar="M",
        help="messages in the explored scope (capped at 4)",
    )
    model_parser.add_argument(
        "--changed",
        action="store_true",
        help="run only when git-changed files touch a registered core's "
        "modules, protocol/, the checker, its oracle or the channel it "
        "drives; otherwise exit 0 immediately",
    )
    model_parser.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    model_parser.set_defaults(func=_cmd_model)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
