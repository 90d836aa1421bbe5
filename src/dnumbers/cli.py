"""Command-line interface: validate, measure, check, gen.

Exit codes: 0 success, 1 validation failure, 2 property failure,
3 I/O or usage error, 141 (128 + SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dnumbers",
                     description="D number validation, uncertainty measures, "
                                 "instance generation, and property suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[], help="validate a document")
    p.add_argument("path")

    p = sub.add_parser("measure", help="compute belief intervals and uncertainty")
    p.add_argument("path")
    p.add_argument("--unknown-model", default="coefficient",
                   choices=[m.value for m in UnknownModel])
    p.add_argument("--output", default="table", choices=["table", "csv", "json-lines"])
    p.add_argument("--subsets", default="singletons", choices=["singletons", "all"])

    p = sub.add_parser("check", help="run property suites")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-size", type=int, default=3)
    p.add_argument("--counterexample-dir", default=None)

    p = sub.add_parser("gen", help="generate a random document")
    p.add_argument("--frame-size", type=int, default=3)
    p.add_argument("--focal-count", type=int, default=None)  # see GeneratorConfig
    p.add_argument("--completeness", default="random",
                   choices=["complete", "incomplete", "random"])
    p.add_argument("--exclusivity", default="random-degrees",
                   choices=["exclusive", "random-degrees"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def cmd_validate(args) -> int:
    parse_document(Path(args.path).read_bytes())
    print("ok")
    return EXIT_OK


def cmd_measure(args) -> int:
    frame, raw = parse_document(Path(args.path).read_bytes())
    if args.subsets == "all" and frame.size > ENUMERATION_CAP:
        raise ValueError(f"--subsets all limited to frames of size "
                         f"{ENUMERATION_CAP}")
    d = complete(raw)
    injected = 0.0 if raw.completed else 1.0 - raw.total_mass
    model = UnknownModel(args.unknown_model)
    tu = total_uncertainty(d, model)

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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("element", "bel", "pl", "term"))
        writer.writerows(rows)
    elif args.output == "json-lines":
        for label, lo, hi, term in singletons:
            print(json.dumps({"element": label, "bel": lo, "pl": hi, "term": term}))
        for name, lo, hi, _ in subsets:
            print(json.dumps({"set": name, "bel": lo, "pl": hi}))
        print(json.dumps({**asdict(tu), "completion_mass": injected}))
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
            print(f"UU ({model.value}) = {tu.uu_evaluated:.7f}")
        print(f"TU = ({tu.ku:.7f}, {tu.uu_coefficient:.7f})")
    return EXIT_OK


def _run_suite(oracle, name: str, trials: int, config):
    # looks each suite up on the oracle module at call time, so wrappers
    # patched onto that module apply
    check = getattr(oracle, SUITES[name])
    if name == "set-consistency":
        # seeded random degree matrix exercises the non-exclusive terms
        return check(oracle.generate_raw(config).frame)
    return check(trials, config)


def cmd_check(args) -> int:
    from . import oracle  # here, not at the top: validate and measure never need it
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    config = oracle.GeneratorConfig(frame_size=args.frame_size, seed=args.seed)
    suites = SUITES if args.suite == "all" else (args.suite,)
    failed = False
    for name in suites:
        report = _run_suite(oracle, name, args.trials, config)
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} {report.name}: trials={report.trials} "
              f"failures={len(report.failures)} "
              f"max_violation={report.max_violation:.3e}")
        for note in report.notes:
            print(f"  note: {note}")
        if not report.ok:
            failed = True
            if args.counterexample_dir:
                out = Path(args.counterexample_dir)
                out.mkdir(parents=True, exist_ok=True)
                for k, doc in enumerate(report.failures):
                    path = out / f"{report.name}-{k:04d}.json"
                    path.write_text(json.dumps(doc, indent=2, ensure_ascii=False)
                                    + "\n", encoding="utf-8")
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_gen(args) -> int:
    from . import oracle
    config = oracle.GeneratorConfig(frame_size=args.frame_size,
                                    focal_count=args.focal_count,
                                    completeness=args.completeness,
                                    exclusivity=args.exclusivity,
                                    seed=args.seed)
    text = serialize_document(oracle.generate_raw(config))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; the only place its errors become exit codes."""
    args = build_parser().parse_args(argv)
    handler = {"validate": cmd_validate, "measure": cmd_measure,
               "check": cmd_check, "gen": cmd_gen}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout raises here at the latest
        return code
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # like argparse's usage errors
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
