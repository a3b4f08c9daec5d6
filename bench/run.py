"""Benchmark for monact: one workload per run, timed end to end or traced.

    python3 bench/run.py --workload {suite,classify,lattice,construct}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
its `src` directory.  A run draws its workload's inputs once, then times
SETUP_REPEATS set-ups (a fresh import of the library plus building the
library objects the items take) and keeps the median.  It then runs
whole passes over the workload's items as a closed loop, one item after
another in one thread, until the next pass would end more than
`--seconds` after the first began (at least one pass).
Every output is checked after its pass, outside the timed region.
Times are rescaled to a reference machine speed (see `speed`).

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it
runs one plain pass, then installs the per-layer wrappers (see
`tracing`) and reports per-layer figures per traced pass, plus how much
longer a traced pass takes than the plain one.  The last line of
standard output is one JSON object: correct, attempted, failed,
metrics.  The result and the spans are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
THEOREMS = tuple(f"T{k}" for k in range(1, 15))


def fresh_import():
    """Import monact from the checkout, dropping any earlier import.

    Returns a namespace holding the package and its modules by layer
    name; `monact.congruence` is a function, not the module, so the
    modules are taken from `sys.modules`.
    """
    src = ROOT / "src"
    if not (src / "monact" / "__init__.py").is_file():
        raise SystemExit(f"no monact sources under {src}")
    for name in [n for n in sys.modules if n == "monact" or n.startswith("monact.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = types.SimpleNamespace(package=importlib.import_module("monact"))
    for layer in tracing.LAYERS:
        setattr(lib, layer, importlib.import_module(f"monact.{layer}"))
    return lib


def set_up(name, seed, workdir, probe, repeats=SETUP_REPEATS):
    """(workload, median rescaled set-up seconds, median raw seconds).

    The benchmark's own part (drawing inputs and reference answers,
    writing input files) runs once, untimed.  The timed set-up is the
    program's part, repeated: a fresh import of monact and building the
    library objects the items take.
    """
    workload = workloads.WORKLOADS[name](seed, workdir)
    for path, text in workload.files.items():
        path.write_text(text, encoding="utf-8")
    scaled, raw = [], []
    for _ in range(repeats):
        gc.collect()
        mark = probe.mark()
        workload.bind(fresh_import())
        s, r = probe.scaled(mark)
        scaled.append(s)
        raw.append(r)
    return workload, statistics.median(scaled), statistics.median(raw)


class Runner:
    """Runs passes over one workload and checks what they return."""

    def __init__(self, workload, probe):
        self.workload = workload
        self.probe = probe
        self.pass_s = []  # at reference speed
        self.pass_raw_s = []
        self.item_ms = []  # at reference speed, in run order
        self.attempted = 0
        self.failed = 0
        self.errors = []  # operations that raised or exited non-zero
        self.wrong = []  # operations whose output failed a check

    def one_pass(self):
        items = self.workload.items
        probe = self.probe
        clock = time.perf_counter
        outputs = []
        took = []
        gc.collect()
        mark = probe.mark()
        for _, thunk in items:
            handler_s = probe.handler_s
            t0 = clock()
            try:
                out = thunk()
            except Exception as exc:  # an item that raises is a failed operation
                out = exc
            took.append(clock() - t0 - (probe.handler_s - handler_s))
            outputs.append(out)
        scaled, raw = probe.scaled(mark)
        self.pass_s.append(scaled)
        self.pass_raw_s.append(raw)
        self.item_ms.extend(t * scaled / raw * 1000.0 for t in took)
        for i, out in enumerate(outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self.errors.append(f"{items[i][0]}: {type(out).__name__}: {out}")
                continue
            try:
                why = self.workload.check(i, out)
            except (LookupError, TypeError, ValueError) as exc:
                why = f"unreadable output: {type(exc).__name__}: {exc}"
            if why is not None:
                self.failed += 1
                self.wrong.append(f"{items[i][0]}: {why}")

    def loop(self, seconds, start):
        """Whole passes, at least one, until the next would end more than
        `seconds` of wall-clock time after `start`, checks included."""
        while True:
            self.one_pass()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.pass_raw_s) > seconds:
                return


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(runner, setup_s):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(runner.pass_s), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    """The per-layer metrics, each per traced pass; times are rescaled
    to the reference speed by the passes' median factor."""
    st = tracer.stat
    passes = len(traced.pass_s)
    factor = statistics.median(s / r for s, r in zip(traced.pass_s, traced.pass_raw_s))

    def per_pass(value):
        return value / passes

    metrics = {}

    def seconds(name):
        metrics[f"{name}.s"] = (per_pass(st(name).seconds) * factor, "s")

    def calls(name):
        metrics[f"{name}.calls"] = (per_pass(st(name).calls), "count")

    for name in ("endo.end_monoid", "monoid.validate_monoid", "endo.homomorphisms",
                 "congruence.enumerate_congruences"):
        seconds(name)
        calls(name)
    metrics["endo.homomorphisms.maps"] = (per_pass(st("endo.homomorphisms").items), "count")
    seconds("endo.is_strongly_pi_regular")
    calls("congruence.congruence_closure")
    calls("congruence.join")
    for fn in ("classify_act", "chain_reports", "is_quasi_injective",
               "is_quasi_projective", "chain_conditions"):
        seconds(f"deciders.{fn}")
    seconds("harness.enumerate_monoids")
    seconds("harness.enumerate_acts")
    acts = st("harness.enumerate_acts")
    metrics["harness.enumerate_acts.acts"] = (per_pass(acts.items), "count")
    metrics["harness.enumerate_acts.kept_per_candidate"] = (
        acts.items / acts.candidates if acts.candidates else 0.0, "ratio")
    for tid in THEOREMS:
        seconds(f"harness.theorem.{tid}")
    parse = st("textio.parse_input")
    seconds("textio.parse_input")
    metrics["textio.parse_input.bytes_per_s"] = (
        parse.bytes / (parse.seconds * factor) if parse.seconds else 0.0, "B/s")
    seconds("act.validate_act")
    seconds("monoid.direct_product")
    metrics["cli.main.self_s"] = (per_pass(tracer.self_seconds("cli.main")) * factor, "s")
    overhead = statistics.median(traced.pass_s) / statistics.median(untraced.pass_s) - 1.0
    metrics["trace.overhead"] = (overhead * 100.0, "%")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = speed.Probe()
    probe.start()
    try:
        workload, setup_s, setup_raw_s = set_up(args.workload, args.seed, workdir, probe)
        start = time.perf_counter()
        runner = Runner(workload, probe)
        if args.trace:
            runner.one_pass()
            tracer = tracing.Tracer()
            tracer.install(workload.lib)
            traced = Runner(workload, probe)
            try:
                traced.loop(args.seconds, start)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, runner)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            for key in ("pass_s", "pass_raw_s", "item_ms", "errors", "wrong"):
                getattr(runner, key).extend(getattr(traced, key))
            runner.attempted += traced.attempted
            runner.failed += traced.failed
        else:
            runner.loop(args.seconds, start)
            metrics = end_to_end(runner, setup_s)
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.errors:
        print(f"FAILED {line}", file=sys.stderr)
    for line in runner.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    n_items = len(runner.item_ms)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(runner.pass_s)}"
          f"  items/pass {len(workload.items)}  attempted {runner.attempted}"
          f"  failed {runner.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48} {value:14.6g} {unit}")
    print(f"  {'raw wall_s (not rescaled)':48} {statistics.median(runner.pass_raw_s):14.6g} s")
    print(f"  {'raw setup_s (not rescaled)':48} {setup_raw_s:14.6g} s")
    if not args.trace and len(workload.items) > 1:
        # item latencies: the median, and p90 only with >= 100 samples
        print(f"  {'item_p50_ms':48} {statistics.median(runner.item_ms):14.6g} ms"
              f"  (n={n_items})")
        if n_items >= 100:
            print(f"  {'item_p90_ms':48} {percentile(runner.item_ms, 0.9):14.6g} ms")
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result, sort_keys=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
