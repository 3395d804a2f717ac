"""Run one workload of the sylq benchmark and print its metrics.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; sylq is imported from its `src/`
directory, so nothing needs installing.  One process and one client in a
closed loop: each pass runs every distinct input of the workload once, in an
order shuffled by the seed, through `sylq.cli.main` with the output captured,
and checks the exit code and output against an exact reference.  Passes
repeat until `--seconds` have passed (and at least one pass is complete).

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` each input runs untraced and traced back to back, and the last
line reports the per-layer metrics.  Lines before it show each metric with
its unit and the per-input figures.  See README.md in this directory for what
each metric means.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import bench_inputs as inputs
from bench_clock import KERNELS, ScaledClock
from bench_trace import PARENTS, Tracer, self_times

SRC = inputs.ROOT / "src"
RESULTS = inputs.ROOT / "perfbench" / "results"

# fresh interpreters timed per run; the median is reported
SETUP_REPS = 5
# the child times its import, then runs the Fraction kernel three times
SETUP_CODE = (
    "import time; t = time.perf_counter(); import sylq.cli; t = time.perf_counter() - t\n"
    "from bench_clock import fraction_kernel\n"
    "print(t, *sorted(fraction_kernel() for _ in range(3)))"
)
# the tail is the highest percentile with this many samples above it
TAIL_BEYOND = 10

# metric name -> unit, in the order BENCHMARK.json lists them
SPEC = json.loads((inputs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# counts that must repeat exactly on every run of the same input
GATED_COUNTS = ("simplex.pivots", "compiler.rows", "compiler.atoms", "solves")


def _numpy_import_s(importtime_log: str) -> float:
    """numpy's cumulative import time from a `python -X importtime` log."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return int(parts[1]) / 1e6
    return 0.0


def measure_setup(importtime: bool):
    """Median (import seconds, numpy's share) over fresh interpreters.

    Each child times its own `import sylq.cli` and scales it by its median
    Fraction kernel time; one unrecorded child runs first so that bytecode
    caches are written before timing.
    """
    env = dict(os.environ)
    path = (str(SRC), str(Path(__file__).resolve().parent), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, "-c", SETUP_CODE]
    nominal = KERNELS["fraction"][1]
    totals, numpy = [], []
    for rep in range(SETUP_REPS + 1):
        proc = subprocess.run(
            cmd, cwd=inputs.ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        seconds, _, kernel, _ = map(float, proc.stdout.split())
        if rep:
            totals.append(seconds * nominal / kernel)
            numpy.append(_numpy_import_s(proc.stderr) * nominal / kernel)
    return statistics.median(totals), statistics.median(numpy)


def exact_problems(sylq, cases):
    """Check each input's answer Fraction for Fraction through `sylq.infer`."""
    problems = []
    for case in cases:
        if not isinstance(case.expect, inputs.Answer):
            continue
        try:
            doc = sylq.parse(case.text)
            config = sylq.InferenceConfig(levels=doc.options.get("levels", 11))
            result = sylq.infer(
                doc.to_syllogism(), mode=doc.options.get("mode", "auto"), config=config
            )
            found = inputs.check_exact(result, case.expect)
        except Exception:
            found = [traceback.format_exc(limit=4)]
        problems += ["%s: %s" % (case.name, p) for p in found]
    return problems


def run_op(cli, case):
    """One operation: document text to rendered answer; returns (seconds, problems)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if case.stdin is not None:
        sys.stdin = io.StringIO(case.stdin)
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(case.argv))
    except Exception:
        return perf_counter() - start, [traceback.format_exc(limit=4)]
    finally:
        sys.stdin = saved_stdin
    elapsed = perf_counter() - start
    return elapsed, inputs.check_output(case, code, out.getvalue(), err.getvalue())


def measure(cli, cases, seconds, rng, tracer=None):
    """Closed loop over shuffled passes; returns (plain, traced, problems, ops, clock).

    plain maps each input to (wall seconds, scale) samples of untraced runs,
    where scale is the ScaledClock factor for the run.  With a tracer, each
    input also runs traced right before or after (alternating by pass), and
    traced maps it to (wall seconds, scale, first span, end span, counts)
    samples.
    """
    clock = ScaledClock({case.clock for case in cases})
    plain = {case.name: [] for case in cases}
    traced = {case.name: [] for case in cases}
    problems = []
    ops = 0
    deadline = perf_counter() + seconds
    passes = 0
    while not passes or perf_counter() < deadline:
        order = list(cases)
        rng.shuffle(order)
        for case in order:
            if passes and perf_counter() >= deadline:
                break
            sides = (False, True) if tracer else (False,)
            for with_trace in sides if passes % 2 == 0 else reversed(sides):
                ops += 1
                if with_trace:
                    tracer.op, tracer.counts, first = ops, Counter(), len(tracer.spans)
                with tracer if with_trace else nullcontext():
                    elapsed, found = run_op(cli, case)
                index = clock.tick()
                if with_trace:
                    traced[case.name].append(
                        (elapsed, index, first, len(tracer.spans), tracer.counts)
                    )
                else:
                    plain[case.name].append((elapsed, index))
                problems += ["%s: %s" % (case.name, p) for p in found[:1]]
        passes += 1

    def scaled(case, samples):
        return [(s[0], clock.scale(case.clock, s[1]), *s[2:]) for s in samples]

    plain = {case.name: scaled(case, plain[case.name]) for case in cases}
    traced = {case.name: scaled(case, traced[case.name]) for case in cases}
    return plain, traced, problems, ops, clock


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above.

    With too few samples for that, the maximum and 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tail_factor(cases, latencies, median):
    """(factor, percentile, samples): the tail of latencies relative to their input's median.

    One input gets far fewer than TAIL_BEYOND + 1 samples in a run, so the
    ratios of every sample to its own input's median are pooled first.
    """
    ratios = [x / median[c.name] for c in cases for x in latencies[c.name]]
    return (*tail(ratios), len(ratios))


def latency_metrics(cases, latencies):
    """Workload-level latency figures from each input's latencies in seconds.

    Besides the metrics, "tail_percentile" and "tail_samples" describe the tail.
    """
    median = {c.name: statistics.median(latencies[c.name]) for c in cases}
    by_s = defaultdict(list)
    for case in cases:
        by_s[case.s].append(median[case.name])
    low, high = min(by_s), max(by_s)
    geomean = statistics.geometric_mean(median.values())
    largest = statistics.geometric_mean(by_s[high])
    smallest = statistics.geometric_mean(by_s[low])
    factor, percentile, samples = tail_factor(cases, latencies, median)
    return {
        "docs_per_s": len(cases) / sum(median.values()),
        "geomean_ms": 1e3 * geomean,
        "tail_geomean_ms": 1e3 * geomean * factor,
        "tail_percentile": percentile,
        "tail_samples": samples,
        "largest_s_ms": 1e3 * largest,
        "s_growth": (largest / smallest) ** (1.0 / (high - low)) if high > low else 1.0,
    }


def layer_metrics(cases, traced, spans, workload):
    """Per-pass layer figures from the traced samples, plus gate failures.

    Times are each input's mean over its traced samples, scaled like the
    latencies and summed over the inputs; counts must be identical on every
    sample of an input.
    """
    per_pass = Counter()
    gate = []
    for case in cases:
        samples = traced[case.name]
        for elapsed, scale, first, last, counts in samples:
            weight = 1e3 * scale / len(samples)
            for name, (own, calls) in self_times(spans, first, last).items():
                suffix = ".self_ms" if name in PARENTS else ".ms"
                per_pass[name + suffix] += weight * own
                per_pass[name + ".calls"] += calls / len(samples)
            roots = sum(end - start for _, _, start, end, parent in spans[first:last] if parent < 0)
            per_pass["other.ms"] += weight * (elapsed - roots)
            per_pass["trace.total_ms"] += weight * elapsed
        counts = samples[0][-1]
        for *_, other in samples[1:]:
            changed = [k for k in GATED_COUNTS if other[k] != counts[k]]
            if changed:
                gate.append("%s: %s changed between runs" % (case.name, ", ".join(changed)))
                break
        want = inputs.BUNDLED_PIVOTS.get(case.name) if workload == "bundled" else None
        if want is not None and counts["simplex.pivots"] != want:
            gate.append(
                "%s: %d pivots, expected %d" % (case.name, counts["simplex.pivots"], want)
            )
        per_pass.update(counts)
    per_pass["inference.solves_per_doc"] = per_pass["solves"] / len(cases)
    per_pass["inference.feasible_share"] = per_pass["feasible_solves"] / max(1, per_pass["solves"])
    return per_pass, gate


def write_spans(workload, seed, tracer):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / ("spans_%s_seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "spans": tracer.spans}, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sylq" / "__init__.py").is_file():
        print("error: no sylq package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sylq
    import sylq.cli

    cases = inputs.WORKLOADS[args.workload](args.seed)
    rng = random.Random(args.seed)
    print(
        "workload %s, seed %d (held-out seed %d), %g s, trace %d, %d inputs"
        % (args.workload, args.seed, inputs.HELD_OUT_SEED, args.seconds, args.trace, len(cases))
    )

    setup_s, numpy_s = measure_setup(importtime=bool(args.trace))
    problems = exact_problems(sylq, cases)
    tracer = None
    if args.trace:
        tracer = Tracer({name: sys.modules[name] for name in
                         ("sylq.cli", "sylq.inference", "sylq.optimizer", "sylq.simplex")})
        for name in tracer.missing:
            print("note: %s not found; its layer is not traced" % name)
    plain, traced, found, ops, clock = measure(sylq.cli, cases, args.seconds, rng, tracer)
    problems += found
    failed = len(found)

    scaled = {name: [wall * scale for wall, scale in v] for name, v in plain.items()}
    wall = {name: [w for w, _ in v] for name, v in plain.items()}
    e2e = latency_metrics(cases, scaled)
    for kind, times in clock.times.items():
        print("times scaled by the %s kernel: nominal %g ms, median here %.2f ms"
              % (kind, 1e3 * KERNELS[kind][1], 1e3 * statistics.median(times)))
    print("%-32s %2s %5s %10s %10s" % ("input", "S", "n", "median_ms", "wall_ms"))
    for case in cases:
        print(
            "%-32s %2d %5d %10.2f %10.2f"
            % (case.name, case.s, len(scaled[case.name]),
               1e3 * statistics.median(scaled[case.name]), 1e3 * statistics.median(wall[case.name]))
        )
    print("tail: p%.1f of %d samples pooled relative to each input's median"
          % (e2e["tail_percentile"], e2e["tail_samples"]))
    unscaled = latency_metrics(cases, wall)
    print("wall-clock docs_per_s %.4g, geomean_ms %.4g"
          % (unscaled["docs_per_s"], unscaled["geomean_ms"]))

    if args.trace:
        layers, gate = layer_metrics(cases, traced, tracer.spans, args.workload)
        problems += gate
        layers["setup.import_s.numpy"] = numpy_s
        layers["setup.import_s.sylq"] = setup_s - numpy_s
        traced_rate = latency_metrics(
            cases, {name: [s[0] * s[1] for s in samples] for name, samples in traced.items()}
        )["docs_per_s"]
        layers["trace.overhead"] = traced_rate / e2e["docs_per_s"]
        for case in cases:
            own = Counter()
            for _, _, first, last, _ in traced[case.name]:
                for name, (seconds, _) in self_times(tracer.spans, first, last).items():
                    own[name] += seconds
            name, seconds = own.most_common(1)[0]
            print("traced %-32s largest layer %s, %.0f%%"
                  % (case.name, name, 100 * seconds / sum(own.values())))
        print("spans written to %s" % write_spans(args.workload, args.seed, tracer))
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}

    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    print("%-34s %14.6g (%d failed of %d)" % ("error_rate", failed / ops, failed, ops))
    for problem in problems[:20]:
        print("problem: %s" % problem)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": ops,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
