"""Command-line front end: run scripts, audits, the Kripke demonstration,
and SVG rendering.  Exit code 0 iff no failures; 2 when a script cannot be
read, parsed or rendered, or an output file cannot be written."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .audit import audit_run, report_to_json
from .dsl import ScriptSyntaxError, parse_script, run_script
from .field import render_element
from .geometry import CONSTRUCTIBLE, NONARCHIMEDEAN
from .kripke import check_ef_axioms, mp_counterexample
from .svg import UnrenderableMode, render_svg


def _field_mode(flag: str) -> str:
    return NONARCHIMEDEAN if flag == "nonarch" else CONSTRUCTIBLE


def _run_file(args):
    """The environment of the script `args.file` run in `args.field`, or
    None after reporting a file that cannot be read or a syntax error."""
    try:
        with open(args.file) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else err
        print(f"error: cannot read {args.file}: {reason}", file=sys.stderr)
        return None
    try:
        script = parse_script(text)
    except ScriptSyntaxError as err:
        print(f"syntax error: {err}", file=sys.stderr)
        return None
    return run_script(script, _field_mode(args.field))


def _write(path: str, text: str) -> bool:
    """Write text to path; False after reporting why it cannot be done."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err.strerror}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    env = _run_file(args)
    if env is None:
        return 2
    for a in env.assertions:
        mark = "ok" if a["holds"] else "FAILED"
        print(f"assert {mark}: {a['statement']}")
    for e in env.errors:
        print(f"error [{e['error']}]: {e['statement']}  ({e['detail']})")
    for name, p in env.bindings.items():
        print(f"{name} = ({render_element(p.x)}, {render_element(p.y)})")
    return 1 if env.failed else 0


def cmd_audit(args) -> int:
    if args.json and not _write(args.json, ""):  # fail before the run
        return 2
    report = audit_run(mode=_field_mode(args.field),
                       per_axiom=args.samples, seed=args.seed)
    if args.json and not _write(args.json, report_to_json(report)):
        return 2
    refusals = sum(c["guard_refusals"] for c in report["summary"].values())
    for label, c in report["summary"].items():
        line = f"{label}: {c['passes']}/{c['count']} pass"
        if c["guard_refusals"]:
            line += f", {c['guard_refusals']} guard-refused"
        if c["failures"]:
            line += f", {c['failures']} FAILED"
        print(line)
    print(f"total failures: {report['failures']}, "
          f"guard refusals: {refusals}, "
          f"runtime: {report['runtime']:.2f}s")
    return 1 if report["failures"] else 0


def cmd_kripke(args) -> int:
    demo = mp_counterexample()  # --demo mp, the one demonstration
    print(json.dumps(demo, indent=2))
    if not (demo["notnot_P_forced_at_M0"] and not demo["P_forced_at_M0"]
            and not demo["MP_forced_at_M0"]):
        return 1
    report = check_ef_axioms(samples=args.samples, seed=args.seed)
    print(f"EF axioms at the root: {report['samples']} environments, "
          f"{report['failures']} failures")
    return 1 if report["failures"] else 0


def cmd_render(args) -> int:
    env = _run_file(args)
    if env is None:
        return 2
    try:
        doc = render_svg(env, shadow=args.shadow)
    except UnrenderableMode as err:
        print(f"unrenderable: {err}", file=sys.stderr)
        return 2
    if not _write(args.out, doc):
        return 2
    print(f"wrote {args.out}")
    return 1 if env.failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="geokernel",
        description="exact constructive-geometry kernel")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", choices=["constructible", "nonarch"],
                       default="constructible")

    p = sub.add_parser("run", parents=[field],
                       help="run a .geo construction script")
    p.add_argument("file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("audit", parents=[field],
                       help="run the axiom and theorem audit")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("kripke", help="Kripke-model demonstrations")
    p.add_argument("--demo", choices=["mp"], default="mp")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_kripke)

    p = sub.add_parser("render", parents=[field],
                       help="render a script's trace to SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--shadow", action="store_true",
                   help="render the eps -> 0 shadow of a NonArchimedean run")
    p.set_defaults(fn=cmd_render)

    args = ap.parse_args(argv)
    if getattr(args, "samples", 0) < 0:
        ap.error(f"--samples must be >= 0, got {args.samples}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
