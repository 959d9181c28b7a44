"""Batch command line front-end.

Subcommands: certify, solve, penalize, sfix, family, demo.  Exit codes separate
outcome classes so CI can assert the bundled counterexamples: 0 for
success / no-counterexample, 2 for a falsified or failed certificate,
3 for any input error, including a valid input above a dimension cap
(`DimensionCapError`).  Reports are deterministic for a fixed
(instance, seed); the volatile metadata (timestamp, version) lives in a
separate section that comparison tooling ignores.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

from . import __version__
from .instances import (
    EXIT_FALSIFIED,
    EXIT_INPUT,
    EXIT_OK,
    InstanceError,
    builtin_instances,
    decode_instance,
    jsonify,
    render_text,
    run_instance,
)
from .mappings import DimensionCapError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are input errors (exit 3)
        raise InstanceError("argv", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="setcover-kit",
                     description="certify covering behaviour, solve set inclusions, "
                                 "penalize inclusion-constrained problems")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("certify", "run a falsification certificate on an instance file"),
        ("solve", "solve a set-inclusion instance"),
        ("penalize", "minimize a penalty instance and verify exactness"),
        ("sfix", "search for a strongly fixed point"),
        ("family", "run the calmness and semiregularity diagnostics of a parameter family"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--instance", required=True, help="path to an instance JSON file")
        _common_flags(cmd)
    demo = sub.add_parser("demo", help="run the bundled end-to-end examples")
    _common_flags(demo)
    return parser


def _common_flags(cmd):
    cmd.add_argument("--seed", type=int, default=None, help="root seed (default: parameters.seed)")
    cmd.add_argument("--tol", type=float, default=None, help="override parameters.tol (> 0)")
    cmd.add_argument("--out", default=None, help="write the report to this path")
    cmd.add_argument("--format", choices=("json", "text"), default="json",
                     dest="fmt", help="report format (default json)")


_EXPECTED_KIND = {"certify": "certify", "solve": "inclusion",
                  "penalize": "penalty", "sfix": "sfix", "family": "family"}


def _render_report(result: dict, fmt: str) -> str:
    meta = {"tool": "setcover-kit", "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    clean = jsonify(result)
    if fmt == "json":
        return json.dumps({"meta": meta, "result": clean}, sort_keys=True, indent=2) + "\n"
    header = "\n".join(f"# {k}: {v}" for k, v in meta.items())
    return header + "\n" + render_text(clean) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _run_single(args) -> int:
    try:
        data = json.loads(Path(args.instance).read_text())
    except FileNotFoundError:
        print(f"input error: $.instance: no such file {args.instance!r}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"input error: {args.instance}:{exc.lineno}:{exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    decoded = decode_instance(data)
    expected = _EXPECTED_KIND[args.command]
    if decoded["kind"] != expected:
        raise InstanceError("$.kind",
                            f"subcommand {args.command!r} needs an instance of kind {expected!r}")
    code, result = run_instance(decoded, seed=args.seed, tol=args.tol)
    _emit(_render_report(result, args.fmt), args.out)
    return code


_DEMO_ORDER = ["t1", "t1_penalty", "sphere_scale_covering", "sphere_scale_set_covering",
               "sublinear", "process", "sfix", "family"]


def _run_demo(args) -> int:
    instances = builtin_instances()
    results = {}
    all_ok = True
    for name in _DEMO_ORDER:
        decoded = decode_instance(instances[name])
        code, result = run_instance(decoded, seed=args.seed, tol=args.tol)
        # an instance expected to falsify says so via "expect", which maps that to exit 0
        ok = code == EXIT_OK
        all_ok = all_ok and ok
        results[name] = {"exit_code": code, "as_expected": ok, "result": result}
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
    _emit(_render_report({"kind": "demo", "runs": results}, args.fmt), args.out)
    return EXIT_OK if all_ok else EXIT_FALSIFIED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise InstanceError("argv", "a subcommand is required "
                                        "(certify, solve, penalize, sfix, family, demo)")
        if args.seed is not None and args.seed < 0:
            raise InstanceError("argv", "--seed must be a nonnegative integer")
        if args.tol is not None and not args.tol > 0:  # the rule of parameters.tol
            raise InstanceError("argv", "--tol must be a number > 0")
        if args.command == "demo":
            return _run_demo(args)
        return _run_single(args)
    except (InstanceError, DimensionCapError) as exc:  # a valid input above a documented cap
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
