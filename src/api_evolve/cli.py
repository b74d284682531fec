"""Command-line driver.

Two modes mirroring the tool's published interface:

  api-evolve --generate-patch <deprecated_sig> <updated_sig> \\
      --input example.java --output update.cocci

  api-evolve --apply-patch <deprecated_sig> <updated_sig> \\
      --input target.java --patch update.cocci --output target_updated.java

Exit codes: 0 success; 1 nothing to update; 2 source parse failure;
3 patch/example problem; 64 usage error or an unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import engine, jast, patchgen, sigmap

EXIT_OK = 0
EXIT_NO_SITES = 1
EXIT_PARSE = 2
EXIT_BAD_INPUT = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="api-evolve",
                description="Synthesize and apply deprecated-API update patches.")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--generate-patch", action="store_true",
                      help="create an update patch from an after-update example")
    mode.add_argument("--apply-patch", action="store_true",
                      help="apply a previously created update patch to a target file")
    p.add_argument("deprecated", help="deprecated API signature, fqcn#name(types)")
    p.add_argument("updated", help="replacement API signature, fqcn#name(types)")
    p.add_argument("--input", required=True,
                   help="example file (generate) or target file (apply)")
    p.add_argument("--output", required=True, help="path for the produced file")
    p.add_argument("--patch", help="update patch file (apply mode)")
    p.add_argument("--report", help="write a JSON update report here (apply mode)")
    p.add_argument("--rewire-shared-args", action="store_true",
                   help="substitute target argument metavariables into resolved "
                        "values whose chain passes through a deprecated-call argument "
                        "(generate mode)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    if args.apply_patch and not args.patch:
        parser.print_usage(sys.stderr)
        sys.stderr.write("api-evolve: error: --patch is required with --apply-patch\n")
        return EXIT_USAGE
    # a flag of the other mode would be ignored, so it is refused
    other = ({"--patch": args.patch is not None, "--report": args.report is not None}
             if args.generate_patch else {"--rewire-shared-args": args.rewire_shared_args})
    stray = [flag for flag, given in other.items() if given]
    if stray:
        sys.stderr.write("api-evolve: error: %s cannot be used with %s\n" % (
            ", ".join(stray), "--generate-patch" if args.generate_patch else "--apply-patch"))
        return EXIT_USAGE

    try:
        mapping = sigmap.ApiMapping(sigmap.parse_signature(args.deprecated),
                                    sigmap.parse_signature(args.updated))
    except sigmap.MalformedSignature as exc:
        sys.stderr.write("api-evolve: %s\n" % exc)
        return EXIT_USAGE

    if args.generate_patch:
        return run_generate(args, mapping)
    return run_apply(args, mapping)


def run_generate(args, mapping) -> int:
    try:
        with open(args.input, "r", encoding="utf-8", newline="") as fh:
            unit = jast.parse(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write("api-evolve: cannot read %s: %s\n" % (args.input, exc))
        return EXIT_PARSE
    except jast.ParseError as exc:
        sys.stderr.write("api-evolve: parse failure in %s: %s\n" % (args.input, exc))
        return EXIT_PARSE
    try:
        patch = patchgen.generate_patch(unit, mapping,
                                        rewire_shared_args=args.rewire_shared_args)
    except (patchgen.ExampleShapeError, patchgen.ResolutionError) as exc:
        sys.stderr.write("api-evolve: %s\n" % exc)
        return EXIT_BAD_INPUT
    return EXIT_OK if _atomic_write(args.output, patchgen.render_patch(patch)) else EXIT_USAGE


def run_apply(args, mapping) -> int:
    try:
        with open(args.input, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write("api-evolve: cannot read %s: %s\n" % (args.input, exc))
        return EXIT_PARSE
    try:
        with open(args.patch, "r", encoding="utf-8") as fh:
            patch = patchgen.parse_patch(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write("api-evolve: cannot read %s: %s\n" % (args.patch, exc))
        return EXIT_BAD_INPUT
    except patchgen.MalformedPatch as exc:
        sys.stderr.write("api-evolve: malformed patch %s: %s\n" % (args.patch, exc))
        return EXIT_BAD_INPUT
    try:
        out_text, report = engine.update(text, patch, mapping)
    except jast.ParseError as exc:
        sys.stderr.write("api-evolve: parse failure in %s: %s\n" % (args.input, exc))
        return EXIT_PARSE
    except patchgen.MultipleUse as exc:
        sys.stderr.write("api-evolve: cannot update %s: %s\n" % (args.input, exc))
        return EXIT_BAD_INPUT

    report.file_path = args.input
    # the report first, so that a failure leaves the output path untouched
    if args.report and not _atomic_write(
            args.report, json.dumps(report.to_json_dict(text), indent=2) + "\n"):
        return EXIT_USAGE
    if not _atomic_write(args.output, out_text):
        return EXIT_USAGE
    return EXIT_OK if report.sites_updated >= 1 else EXIT_NO_SITES


def _atomic_write(path: str, content: str) -> bool:
    """Write content to path through a temporary in the same directory.
    False, after one stderr line and with no temporary left behind, when
    the path cannot be written."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".api-evolve-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        sys.stderr.write("api-evolve: cannot write %s: %s\n" % (path, exc))
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
