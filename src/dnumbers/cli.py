"""Command-line interface: validate, measure, check, gen.

Exit codes: 0 success, 1 validation failure, 2 property failure,
3 I/O or usage error, 141 (128 + SIGPIPE) stdout closed by its reader.
An argv that starts with a command builds that command's parser alone;
the root, listing all four, prints help or a usage error for any other
argv (none, an unknown command, an option first) or arguments left over.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import ENUMERATION_CAP, belief_interval, complete
from .document import DocumentError, parse_document, serialize_document
from .measures import UnknownModel, singleton_terms, total_uncertainty

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141

#: Each property suite's name and the :mod:`.oracle` function that runs it
SUITES = {"range": "check_range", "monotonicity": "check_monotonicity",
          "set-consistency": "check_set_consistency",
          "degeneration": "check_degeneration", "oracle": "check_oracle_equivalence"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _validate_arguments(p):
    p.add_argument("path")


def cmd_validate(args) -> int:
    with open(args.path, "rb") as file:
        parse_document(file.read())
    print("ok")
    return EXIT_OK


def _measure_arguments(p):
    p.add_argument("path")
    p.add_argument("--unknown-model", default="coefficient",
                   choices=[m.value for m in UnknownModel])
    p.add_argument("--output", default="table", choices=["table", "csv", "json-lines"])
    p.add_argument("--subsets", default="singletons", choices=["singletons", "all"])


def cmd_measure(args) -> int:
    with open(args.path, "rb") as file:
        frame, raw = parse_document(file.read())
    if args.subsets == "all" and frame.size > ENUMERATION_CAP:
        raise ValueError(f"--subsets all limited to frames of size "
                         f"{ENUMERATION_CAP}")
    d = complete(raw)
    injected = 0.0 if raw.completed else 1.0 - raw.total_mass
    tu = total_uncertainty(d, args.unknown_model)

    # (name, bel, pl, term): the singletons, then any subsets with no term
    rows = [(label, interval.lower, interval.upper, term)
            for label, (interval, term) in zip(frame.elements, singleton_terms(d))]
    if args.subsets == "all":
        for a in range(1, frame.full_mask + 1):
            interval = belief_interval(d, a)
            rows.append(("|".join(frame.labels_of(a)),
                         interval.lower, interval.upper, None))
    singletons, subsets = rows[:frame.size], rows[frame.size:]

    if args.output == "csv":
        import csv  # here, not at the top: only this output needs it
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("element", "bel", "pl", "term"))
        writer.writerows(rows)
    elif args.output == "json-lines":
        for label, lo, hi, term in singletons:
            print(json.dumps({"element": label, "bel": lo, "pl": hi, "term": term}))
        for name, lo, hi, _ in subsets:
            print(json.dumps({"set": name, "bel": lo, "pl": hi}))
        print(json.dumps({"ku": tu.ku, "uu_coefficient": tu.uu_coefficient,
                          "uu_evaluated": tu.uu_evaluated, "completion_mass": injected}))
    else:
        width = max(len("element"), *(len(r[0]) for r in singletons))
        print(f"{'element':<{width}}  {'bel':>9}  {'pl':>9}  {'term':>9}")
        for label, lo, hi, term in singletons:
            print(f"{label:<{width}}  {lo:9.7f}  {hi:9.7f}  {term:9.7f}")
        if subsets:
            print()
            print("subset intervals:")
            for name, lo, hi, _ in subsets:
                print(f"  {{{name}}}: [{lo:.7f}, {hi:.7f}]")
        print()
        if injected > 0.0:
            print(f"auto-completed: mass {injected:.7f} assigned to {{X}}")
        print(f"KU = {tu.ku:.7f}")
        print(f"UU coefficient = {tu.uu_coefficient:.7f}")
        if tu.uu_evaluated is not None:
            print(f"UU ({args.unknown_model}) = {tu.uu_evaluated:.7f}")
        print(f"TU = ({tu.ku:.7f}, {tu.uu_coefficient:.7f})")
    return EXIT_OK


def _check_arguments(p):
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-size", type=int, default=3)
    p.add_argument("--counterexample-dir", default=None)


def cmd_check(args) -> int:
    """Run the named suites; each failure is written, if asked, as
    ``<suite>-<k>.json`` through :func:`serialize_document`."""
    from . import oracle  # here, not at the top: validate and measure never need it
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    config = oracle.GeneratorConfig(frame_size=args.frame_size, seed=args.seed)
    suites = SUITES if args.suite == "all" else (args.suite,)
    failed = False
    for name in suites:
        # looked up on the oracle module at call time, so wrappers patched onto
        # it apply; a seeded random degree matrix exercises the non-exclusive terms
        check = getattr(oracle, SUITES[name])
        report = (check(oracle.generate_raw(config).frame) if name == "set-consistency"
                  else check(args.trials, config))
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} {name}: trials={report.trials} "
              f"failures={len(report.failures)} "
              f"max_violation={report.max_violation:.3e}")
        for note in report.notes:
            print(f"  note: {note}")
        if not report.ok:
            failed = True
            if args.counterexample_dir:
                os.makedirs(args.counterexample_dir, exist_ok=True)
                for k, (d, context) in enumerate(report.failures):
                    path = os.path.join(args.counterexample_dir, f"{name}-{k:04d}.json")
                    with open(path, "w", encoding="utf-8") as file:
                        file.write(serialize_document(d, context))
    return EXIT_PROPERTY if failed else EXIT_OK


def _gen_arguments(p):
    p.add_argument("--frame-size", type=int, default=3)
    p.add_argument("--focal-count", type=int, default=None)  # see GeneratorConfig
    p.add_argument("--completeness", default="random",
                   choices=["complete", "incomplete", "random"])
    p.add_argument("--exclusivity", default="random-degrees",
                   choices=["exclusive", "random-degrees"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def cmd_gen(args) -> int:
    from . import oracle
    config = oracle.GeneratorConfig(frame_size=args.frame_size,
                                    focal_count=args.focal_count,
                                    completeness=args.completeness,
                                    exclusivity=args.exclusivity,
                                    seed=args.seed)
    text = serialize_document(oracle.generate_raw(config))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


#: Each command's help text, the function that adds its arguments, and its handler
COMMANDS = {"validate": ("validate a document", _validate_arguments, cmd_validate),
            "measure": ("compute belief intervals and uncertainty", _measure_arguments,
                        cmd_measure),
            "check": ("run property suites", _check_arguments, cmd_check),
            "gen": ("generate a random document", _gen_arguments, cmd_gen)}


def build_parser(command=None) -> argparse.ArgumentParser:
    """``dnumbers <command>``, as the root's ``add_parser`` makes it, for an
    argv that starts with that command; with no command, the root ``dnumbers``
    with all four as subparsers, for any other argv or arguments left over."""
    if command is not None:
        parser = _Parser(prog=f"dnumbers {command}")
        COMMANDS[command][1](parser)
        return parser
    parser = _Parser(prog="dnumbers",
                     description="D number validation, uncertainty measures, "
                                 "instance generation, and property suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    """Run one command; the only place any outcome, help too, becomes an exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv and argv[0] in COMMANDS else None
        if command is not None:
            args, extra = build_parser(command).parse_known_args(argv[1:])
        if command is None or extra:  # no command first, or arguments left over
            build_parser().parse_args(argv)  # the root prints help or a usage error, and exits
        code = COMMANDS[command][2](args)
        sys.stdout.flush()  # a closed stdout raises here at the latest
        return code
    except SystemExit as exc:  # argparse's: 0 after help, 3 from _Parser.error
        return exc.code
    except BrokenPipeError:
        # quiet, as a process killed by SIGPIPE would be; stdout goes to
        # devnull so the flush at exit does not raise again
        # (https://docs.python.org/3/library/signal.html#note-on-sigpipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DocumentError as exc:
        for message in exc.errors:
            print(message, file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
