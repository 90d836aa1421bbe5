"""Benchmark of the dnumbers CLI: closed-loop ``measure`` and ``check`` runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each workload generates its inputs from the seed, then one caller in one
thread of one process calls ``dnumbers.cli.main`` with stdout captured,
starting the next call only after the previous one returns. Every output
is checked afterwards against an independent literal computation
(``outcheck``). Gated timings are normalised to a reference machine speed
measured around them (``refspeed``); the measured ones are printed too.
The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0`` and its per-layer metrics
with ``--trace 1``.

Workloads (why each exists is in ``BENCHMARK.json`` and ``DESIGN.md``):

- ``measure-wide``: ``measure`` on N=64, F=128 documents.
- ``measure-small``: ``measure`` on N=3..6 documents, plus cold starts.
- ``check-suites``: ``check all`` at frame sizes 6, 3, 6, ... in turn.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import docgen
import outcheck
import refspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 9
#: Loop seconds between two samples of the reference speed.
REF_EVERY = 0.25
LADDER = (8, 16, 32, 64, 128)
CHECK_TRIALS = {3: 50, 6: 20}

#: Metrics printed for reading but not gated. BENCHMARK.json gates only
#: metrics that every workload reports and that are never zero. The
#: latencies are normalised like the gated timings; the ``measured_``
#: metrics are the gated timings before normalisation.
UNGATED_UNITS = {"docs_per_s": "1/s", "trials_per_s": "1/s",
                 "latency_p50_ms": "ms", "latency_p99_ms": "ms",
                 "measured_setup_s": "s", "measured_ops_per_s": "1/s",
                 "measured_cli_cold_ms": "ms"}

#: Functions that revision 242b96e, where this benchmark starts, calls on
#: each workload. One that records no calls in a traced run is reported,
#: not dropped.
_MEASURE_CALLS = {"cli.main", "cli.build_parser", "document.parse_document",
                  "core.build_dnumber", "core.complete", "core.belief_interval",
                  "core.bel", "core.pl", "measures.total_uncertainty",
                  "measures.ku", "measures.uu_coefficient"}
BASELINE_CALLS = {
    "measure-wide": _MEASURE_CALLS,
    "measure-small": _MEASURE_CALLS,
    "check-suites": {"cli.main", "cli.build_parser", "core.build_dnumber",
                     "core.complete", "core.belief_interval", "core.bel", "core.pl",
                     "measures.ku", "measures.uu_coefficient",
                     *(f"oracle.{f}" for f in spans.TIMED["oracle"]),
                     *(f"dst.{f}" for f in spans.TIMED["dst"])},
}


class MeasureOp:
    """``dnumbers measure`` on one generated document."""

    def __init__(self, path: Path, doc: docgen.Doc, fmt: str, all_subsets: bool):
        self.doc, self.fmt, self.all_subsets = doc, fmt, all_subsets
        self.argv = ["measure", str(path), "--output", fmt]
        if all_subsets:
            self.argv += ["--subsets", "all"]

    def verify(self, out: str) -> tuple[int, list[str]]:
        """Documents done (1) and the mismatches with the literal values."""
        expected = outcheck.expected_measure(self.doc, self.all_subsets)
        return 1, outcheck.check_measure(expected, self.fmt, out)


class CheckOp:
    """``dnumbers check all`` at one frame size and seed."""

    def __init__(self, seed: int, frame_size: int, trials: int):
        self.frame_size, self.trials = frame_size, trials
        self.argv = ["check", "all", "--seed", str(seed), "--trials", str(trials),
                     "--frame-size", str(frame_size)]

    def verify(self, out: str) -> tuple[int, list[str]]:
        """Trials reported and any problem with the suite reports."""
        return outcheck.check_suites(out, self.frame_size, self.trials)


@dataclass
class Workload:
    ops: list                 # the deck the closed loop cycles through
    trace_ops: int            # the traced run covers ops[:trace_ops]
    cold_runs: int            # subprocess runs, over ops in order
    unit: str                 # what one unit of work is: docs or trials
    inputs: dict              # what was generated, for the inputs: line


def _write_docs(workdir: Path, docs) -> list[Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, doc in enumerate(docs):
        path = workdir / f"doc{k:03d}.json"
        path.write_text(doc.to_json(), encoding="utf-8")
        paths.append(path)
    return paths


def _doc_inputs(docs) -> dict:
    return {"documents": len(docs),
            "N": sorted({d.n for d in docs}),
            "F": [min(len(d.focal) for d in docs), max(len(d.focal) for d in docs)],
            "focal_bits_per_doc": statistics.fmean(d.focal_bits for d in docs),
            "degree_density": [round(min(d.density for d in docs), 4),
                               round(max(d.density for d in docs), 4)]}


def measure_wide(seed: int, workdir: Path) -> Workload:
    # 16 documents, two in each cell of dense/sparse x complete/incomplete
    # x table/json-lines; the traced run covers the first eight, one per cell.
    rng = random.Random(f"measure-wide:{seed}")
    cells = [(k & 1 == 0, k >> 1 & 1 == 0, ("table", "json-lines")[k >> 2 & 1])
             for k in range(16)]
    docs = [docgen.wide_doc(rng, 64, 128, dense, complete)
            for dense, complete, _ in cells]
    ops = [MeasureOp(p, d, cell[2], False)
           for p, d, cell in zip(_write_docs(workdir, docs), docs, cells)]
    return Workload(ops, 8, 11, "docs", _doc_inputs(docs))


def measure_small(seed: int, workdir: Path) -> Workload:
    # 120 documents, ten for each N and output format; every other one is
    # incomplete and one in five asks for all subsets.
    rng = random.Random(f"measure-small:{seed}")
    cells = [(n, fmt, k) for n in range(3, 7)
             for fmt in ("table", "csv", "json-lines") for k in range(10)]
    rng.shuffle(cells)
    docs = [docgen.small_doc(rng, n, k % 2 == 0) for n, _, k in cells]
    ops = [MeasureOp(p, d, fmt, k % 5 == 0)
           for p, d, (_, fmt, k) in zip(_write_docs(workdir, docs), docs, cells)]
    return Workload(ops, len(ops), 41, "docs", _doc_inputs(docs))


def check_suites(seed: int, workdir: Path) -> Workload:
    # Frame sizes 6, 3, 6 in turn: two calls in three share one cost, so
    # the median call time stays inside one mode of the mix.
    rng = random.Random(f"check-suites:{seed}")
    ops = [CheckOp(rng.randrange(2 ** 31), n, CHECK_TRIALS[n])
           for _ in range(20) for n in (6, 3, 6)]
    inputs = {"calls": len(ops), "N": [3, 6], "F": 3,
              "trials_per_call": CHECK_TRIALS}
    return Workload(ops, 6, 15, "trials", inputs)


WORKLOADS = {"measure-wide": measure_wide, "measure-small": measure_small,
             "check-suites": check_suites}


def load_program():
    """Import ``dnumbers`` from this checkout's ``src/``, or exit."""
    if not (SRC / "dnumbers" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dnumbers sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dnumbers
    import dnumbers.cli  # noqa: F401  (the entry point every call goes through)
    if not Path(dnumbers.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported dnumbers from {dnumbers.__file__}, not {SRC}")
    return dnumbers


def call(cli, argv) -> tuple[object, str, float]:
    """One in-process CLI call: exit code, captured stdout, seconds."""
    out = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), perf_counter() - t0


class Checker:
    """Verifies each distinct (op, exit code, output) once, after timing."""

    def __init__(self, ops):
        self.ops = ops
        self.memo: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def tally(self, seen: Counter) -> int:
        """Count the calls in ``seen`` and return the work units they did."""
        units = 0
        for key, count in seen.items():
            i, rc, out = key
            if key not in self.memo:
                self.memo[key] = (self.ops[i].verify(out) if rc == 0
                                  else (0, [f"exit code {rc!r}"]))
            n, problems = self.memo[key]
            self.attempted += count
            units += n * count
            if problems:
                self.failed += count
                self.problems.append(f"{' '.join(self.ops[i].argv)}: {problems[:3]}")
        return units

    def note(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class ClosedLoop:
    """Cycles through ``ops``, one call after another, in slices of time.

    The reference speed is sampled at the start of a slice and after every
    ``REF_EVERY`` seconds of calls; each call is normalised by the samples
    on either side of it.
    """

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.latencies: list[float] = []   # normalised seconds of each call
        self.refs: list[float] = []        # reference samples, seconds
        self.seen: Counter = Counter()
        self.wall = 0.0                    # measured seconds in calls
        self.norm = 0.0                    # the same, normalised
        self.calls = 0

    def run_until(self, seconds: float) -> None:
        """Call until the loop's own time, over all slices, reaches ``seconds``."""
        before = refspeed.sample()
        while self.wall < seconds:
            pending = []
            until = min(seconds, self.wall + REF_EVERY)
            while self.wall < until:
                i = self.calls % len(self.ops)
                rc, out, dt = call(self.cli, self.ops[i].argv)
                pending.append(dt)
                self.seen[(i, rc, out)] += 1
                self.calls += 1
                self.wall += dt
            after = refspeed.sample()
            k = refspeed.scale(before, after)
            self.latencies += [dt * k for dt in pending]
            self.norm += sum(pending) * k
            self.refs.append(after)
            before = after


def one_pass(cli, ops, count: int, seen: Counter, tracer=None) -> float:
    """Run ``ops[:count]`` once; wall seconds."""
    start = perf_counter()
    for i in range(count):
        if tracer is not None:
            tracer.doc = i
        rc, out, _ = call(cli, ops[i].argv)
        seen[(i, rc, out)] += 1
    return perf_counter() - start


def cold_run(op, seen: Counter, i: int) -> tuple[float, float] | None:
    """Measured and normalised wall milliseconds of one
    ``python -m dnumbers.cli`` subprocess."""
    try:
        proc, elapsed, normalised = refspeed.timed(lambda: subprocess.run(
            [sys.executable, "-m", "dnumbers.cli", *op.argv],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120))
    except subprocess.TimeoutExpired:
        seen[(i, "timeout", "")] += 1
        return None
    seen[(i, proc.returncode, proc.stdout)] += 1
    return elapsed * 1e3, normalised * 1e3


def setup_probe(workload: str, seed: int, checker: Checker) -> tuple[float, float] | None:
    """Measured and normalised seconds from starting a fresh benchmark
    process until its timed loop would begin: import, input generation and
    one warm-up call."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    before = refspeed.sample()
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    ok = line.strip() == "ready" and proc.returncode == 0
    checker.note(ok, f"setup probe failed: exit {proc.returncode}, {line!r}")
    if not ok:
        return None
    return elapsed, elapsed * refspeed.scale(before, refspeed.sample())


def end_to_end(pkg, wl: Workload, name: str, seed: int, seconds: float,
               checker: Checker) -> tuple[dict, list[str]]:
    # Cold runs and setup probes run between slices of the closed loop, so
    # that all metrics sample the same stretch of time: on a shared virtual
    # machine CPU speed moves in phases of seconds, and back-to-back samples
    # would share one phase. Each is normalised by the reference speed
    # sampled just before and after it.
    tasks = sorted([((k + 0.5) / wl.cold_runs, "cold", k) for k in range(wl.cold_runs)]
                   + [((k + 0.5) / SETUP_PROBES, "probe", k) for k in range(SETUP_PROBES)])
    loop = ClosedLoop(pkg.cli, wl.ops)
    cold, cold_seen, setups = [], Counter(), []
    for j, (_, kind, k) in enumerate(tasks):
        loop.run_until(seconds * (j + 1) / (len(tasks) + 1))
        if kind == "cold":
            cold.append(cold_run(wl.ops[k % len(wl.ops)], cold_seen, k % len(wl.ops)))
        else:
            setups.append(setup_probe(name, seed, checker))
    loop.run_until(seconds)
    units = checker.tally(loop.seen)
    checker.tally(cold_seen)
    cold = [t for t in cold if t is not None]
    setups = [t for t in setups if t is not None]
    if not setups or not cold:
        sys.exit("perfbench: every setup probe or every cold run failed")
    lat_ms = [t * 1e3 for t in loop.latencies]
    values = {
        "setup_s": statistics.median(n for _, n in setups),
        "ops_per_s": units / loop.norm,
        f"{wl.unit}_per_s": units / loop.norm,
        "latency_p50_ms": statistics.median(lat_ms),
        "cli_cold_ms": statistics.median(n for _, n in cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "measured_setup_s": statistics.median(t for t, _ in setups),
        "measured_ops_per_s": units / loop.wall,
        "measured_cli_cold_ms": statistics.median(t for t, _ in cold),
    }
    refs_ms = [r * 1e3 for r in loop.refs]
    notes = [f"{len(lat_ms)} calls in {loop.wall:.2f} s measured, "
             f"{loop.norm:.2f} s normalised",
             f"reference (ms, {refspeed.REFERENCE_S * 1e3:g} nominal): median "
             f"{statistics.median(refs_ms):.3f}, range {min(refs_ms):.3f}.."
             f"{max(refs_ms):.3f} over {len(refs_ms)} samples",
             "cold runs (ms, measured/normalised): "
             + ", ".join(f"{t:.1f}/{n:.1f}" for t, n in cold),
             "setup probes (s, measured/normalised): "
             + ", ".join(f"{t:.3f}/{n:.3f}" for t, n in setups)]
    # The 99th percentile needs at least ten samples beyond it.
    if len(lat_ms) >= 1000:
        values["latency_p99_ms"] = statistics.quantiles(lat_ms, n=100)[98]
    else:
        notes.append(f"latency_p99_ms not reported: {len(lat_ms)} calls, 1000 needed")
    return values, notes


def ladder(pkg, seed: int, checker: Checker) -> dict:
    """One untraced ``total_uncertainty`` per N on a dense N, F=2N document."""
    out = {}
    for n in LADDER:
        doc = docgen.wide_doc(random.Random(f"ladder:{seed}:{n}"), n, 2 * n, True, False)
        _, raw = pkg.parse_document(doc.to_json())
        d = pkg.complete(raw)
        t0 = perf_counter()
        tu = pkg.total_uncertainty(d)
        out[f"ladder.total_uncertainty_s.n{n}"] = perf_counter() - t0
        want = outcheck.expected_measure(doc)
        checker.note(abs(tu.ku - want.ku) <= outcheck.EXACT_TOL
                     and abs(tu.uu_coefficient - want.uu_coefficient) <= outcheck.EXACT_TOL,
                     f"ladder n={n}: KU {tu.ku!r} vs {want.ku!r}")
    return out


def per_layer(pkg, wl: Workload, name: str, seed: int, seconds: float,
              checker: Checker) -> tuple[dict, list[str]]:
    """Traced passes over a fixed set of calls, each after an untraced one.

    Calls and counts are those of one pass; self times and the overhead
    ratio are medians over the pairs of passes that fit in ``seconds``.
    """
    tracer = spans.Tracer()
    spans_path = WORK / f"spans-{name}.json"
    seen = Counter()
    ratios, self_times = [], []
    deadline = perf_counter() + seconds
    while not ratios or perf_counter() < deadline:
        untraced = one_pass(pkg.cli, wl.ops, wl.trace_ops, seen)
        tracer.reset(record=not ratios)
        with tracer.installed(pkg):
            traced = one_pass(pkg.cli, wl.ops, wl.trace_ops, seen, tracer)
        if not ratios:
            calls, counts = dict(tracer.calls), dict(tracer.counts)
            tracer.write(spans_path)
            tracer.spans.clear()
        ratios.append(traced / untraced)
        self_times.append(dict(tracer.self_s))
    checker.tally(seen)

    metrics = {}
    for layer, fns in spans.TIMED.items():
        for fn in fns:
            key = f"{layer}.{fn}"
            metrics[f"{key}.calls"] = calls.get(key, 0)
            metrics[f"{key}.self_s"] = statistics.median(s.get(key, 0.0)
                                                         for s in self_times)
    for key in spans.COUNTS:
        metrics[key] = counts.get(key, 0)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics.update(ladder(pkg, seed, checker))

    notes = [f"{len(ratios)} pairs of passes over {wl.trace_ops} calls; "
             f"spans of the first traced pass in {spans_path.relative_to(ROOT)}"]
    total = sum(self_times[0].values())
    kernel = sum(v for k, v in self_times[0].items()
                 if k.startswith(("core.", "measures.")))
    notes.append(f"core + measures self time: {kernel / total:.1%} of the cli.main spans")
    for key in sorted(BASELINE_CALLS[name]):
        if not calls.get(key):
            notes.append(f"MISSING {key}: no calls recorded; revision 242b96e "
                         "records calls here")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pkg = load_program()
    # One CPU for this process and the processes it starts, so that the
    # reference speed is sampled on the CPU where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        checker = Checker(wl.ops)
        rc, out, _ = call(pkg.cli, wl.ops[0].argv)  # warm-up
        checker.tally(Counter({(0, rc, out): 1}))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return report(pkg, wl, args, bench, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(pkg, wl: Workload, args, bench: dict, checker: Checker) -> int:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("inputs: " + json.dumps(wl.inputs))
    print("loop: closed, 1 process, 1 thread, 1 caller")
    if args.trace:
        values, notes = per_layer(pkg, wl, args.workload, args.seed, args.seconds,
                                  checker)
        specs = bench["per_layer"]
    else:
        values, notes = end_to_end(pkg, wl, args.workload, args.seed, args.seconds,
                                   checker)
        specs = bench["end_to_end"]
    metrics = {}
    units = {m["name"]: m["unit"] for m in specs}
    for name, value in values.items():
        unit = units.get(name) or UNGATED_UNITS[name]
        print(f"{name} = {value:.6g} {unit}")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
    error_rate = checker.failed / max(checker.attempted, 1)
    print(f"error_rate = {error_rate:.6g} ratio "
          f"({checker.failed} of {checker.attempted} operations failed)")
    for note in notes + checker.problems[:20]:
        print(f"note: {note}")
    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
