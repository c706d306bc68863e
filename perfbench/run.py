"""Run one benchmark workload of hocofin and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hocofin checkout; it imports hocofin from
``src/``.  The workload's operations run single-threaded in this process,
in passes, each pass in a seed-shuffled order, until another pass would
end after ``--seconds`` of wall time; at least one pass runs.  Every answer is
checked; a wrong answer, an exception, a resource cap firing or an
INCONCLUSIVE verdict counts as a failed operation.

Times are read on refclock's clock, which runs at a fixed reference
machine speed, so that the shared host's swings in speed cancel out; wall
seconds are printed and written to the details next to them.

With ``--trace 0`` the metrics are the end-to-end ones:
  solve_s      median seconds of one pass, set-up excluded
  setup_s      median, over fresh interpreters, of ``import hocofin.cli``
               plus building the workload's inputs
  peak_rss_mb  peak resident set size of this process

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are per layer: self seconds and counts per traced pass, taken by wrapping
each layer's public functions from outside (see tracer.py), plus the
tracing overhead, traced over untraced pass time.

Details go to ``.perfbench/`` in the checkout: per-operation times, input
sizes and failures, and for a traced run every span as
``[name, start, end, parent]``.  The last line of standard output is the
JSON result.
"""

import argparse
import collections
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import refclock
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
# fresh interpreters timed per run for setup_s; the first one in a new
# checkout also compiles bytecode, which the median discards
SETUP_REPEATS = 7

# one pass over a workload: whether it was traced, its summed operation
# seconds, its wall seconds, one record per operation, and for a traced
# pass the range of its spans and its counts
Pass = collections.namedtuple("Pass", "traced seconds wall records spans counts")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_setup(workload, seed):
    samples = []
    probe = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_pass(ops, order, tracer=None):
    """Run the operations once in the given order.  Returns the summed
    operation seconds and one record per operation:
    (name, seconds, failure or None, counts or None)."""
    total = 0.0
    records = []
    for i in order:
        op = ops[i]
        counts = None
        if tracer is not None:
            before = dict(tracer.counts)
            tracer.enabled = True
            span = tracer.open_span("op:" + op.name)
        t0 = refclock.now()
        try:
            result = op.run()
            failure = None
        except Exception as exc:  # caps and bugs alike count as failures
            result, failure = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = refclock.now() - t0
        if tracer is not None:
            tracer.close_span(span)
            tracer.enabled = False
            counts = {k: v - before[k] for k, v in tracer.counts.items() if v != before[k]}
        if failure is None:
            try:
                failure = op.check(result)
            except Exception as exc:
                failure = "check raised %s: %s" % (type(exc).__name__, exc)
        total += seconds
        records.append((op.name, seconds, failure, counts))
    return total, records


def run_passes(ops, rng, seconds, tracer=None):
    """Passes until the next one would overrun ``seconds``.  With a tracer,
    passes alternate untraced and traced, starting untraced, and at least
    one of each runs.  The reference clock runs throughout."""
    refclock.start()
    try:
        return _run_passes(ops, rng, seconds, tracer)
    finally:
        refclock.stop()


def _run_passes(ops, rng, seconds, tracer):
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(range(len(ops)))
        rng.shuffle(order)
        if traced:
            first_span = len(tracer.spans)
            tracer.counts.update(dict.fromkeys(tracer.counts, 0))
            tracer.install()
        started = time.perf_counter()
        try:
            total, records = run_pass(ops, order, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        now = time.perf_counter()
        if traced:
            passes.append(Pass(True, total, now - started, records,
                               (first_span, len(tracer.spans)), dict(tracer.counts)))
        else:
            passes.append(Pass(False, total, now - started, records, None, None))
        if len(passes) >= (2 if tracer else 1) and now + (now - started) > deadline:
            return passes


def per_layer_metrics(tracer, passes):
    per_pass = []
    for p in passes:
        if p.traced:
            first, end = p.spans
            values = tracing.layer_seconds(tracer.spans[:end], first)
            values.update(p.counts)
            per_pass.append(values)
    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": statistics.median(v[name] for v in per_pass), "unit": unit}
    # each traced pass against the mean of the untraced passes around it,
    # so that the first, cold pass does not bias the ratio
    ratios = []
    for i, p in enumerate(passes):
        if p.traced:
            around = [q.seconds for q in passes[i - 1:i + 2:2]]
            ratios.append(p.seconds / statistics.mean(around))
    metrics["trace.overhead"] = {"value": statistics.median(ratios), "unit": "ratio"}
    return metrics


def operation_table(ops, passes):
    """Per operation: untraced and traced seconds, failures, the counts of
    its last traced run, and its input sizes."""
    table = {}
    for p in passes:
        for name, seconds, failure, counts in p.records:
            entry = table.setdefault(name, {"seconds": [], "traced_seconds": [], "failures": []})
            entry["traced_seconds" if p.traced else "seconds"].append(seconds)
            if failure:
                entry["failures"].append(failure)
            if counts is not None:
                entry["counts"] = counts
    for op in ops:
        try:
            table[op.name]["sizes"] = op.sizes()
        except Exception as exc:
            table[op.name]["sizes"] = {"error": "%s: %s" % (type(exc).__name__, exc)}
    return table


def layer_shares(metrics):
    """Share of traced self time per layer, largest first."""
    layers = {}
    for name, m in metrics.items():
        if m["unit"] == "s":
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + m["value"]
    whole = sum(layers.values()) or 1.0
    return sorted(((k, v / whole) for k, v in layers.items()), key=lambda kv: -kv[1])


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hocofin", "cli.py")):
        sys.stderr.write("perfbench: run from the root of a hocofin checkout; "
                         "%s has no hocofin sources\n" % src)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    rng = random.Random(args.seed)
    ops = workloads.build(args.workload, rng)
    setup = measure_setup(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(ops, rng, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(name, failure) for p in passes for name, _, failure, _ in p.records if failure]
    attempted = sum(len(p.records) for p in passes)
    solve = [p.seconds for p in passes if not p.traced]
    wall = [p.wall for p in passes if not p.traced]
    solve_q, setup_q, wall_q = quartiles(solve), quartiles(setup), quartiles(wall)
    probes, probe_s = refclock.probe_stats()
    if args.trace:
        metrics = per_layer_metrics(tracer, passes)
    else:
        metrics = {
            "solve_s": {"value": solve_q[1], "unit": "s"},
            "setup_s": {"value": setup_q[1], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "caps": workloads.CAPS,
        "solve_s": {"q1": solve_q[0], "median": solve_q[1], "q3": solve_q[2], "n": len(solve),
                    "passes": solve},
        "wall_pass_s": {"q1": wall_q[0], "median": wall_q[1], "q3": wall_q[2], "n": len(wall),
                        "passes": wall},
        "refclock": {"probes": probes, "probe_wall_s": probe_s,
                     "ref_probe_s": refclock.REF_PROBE_S, "period_s": refclock.PERIOD},
        "setup_s": {"q1": setup_q[0], "median": setup_q[1], "q3": setup_q[2], "n": len(setup),
                    "samples": setup},
        "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "metrics": metrics, "operations": operation_table(ops, passes),
    }
    with open(os.path.join(OUT_DIR, "%s-trace%d.json" % (stem, args.trace)), "w") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, "spans-%s.json" % stem), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)

    for name, failure in failures[:10]:
        sys.stderr.write("FAILED %s: %s\n" % (name, failure))
    print("%s seed %d: %d operations x %d passes, %d failed, fail_frac %.4f"
          % (args.workload, args.seed, len(ops), len(passes), len(failures),
             len(failures) / attempted))
    print("solve_s median %.4f q1 %.4f q3 %.4f n=%d; setup_s median %.4f q1 %.4f q3 %.4f n=%d"
          % (solve_q[1], solve_q[0], solve_q[2], len(solve), setup_q[1], setup_q[0], setup_q[2],
             len(setup)))
    print("wall seconds per pass median %.4f q1 %.4f q3 %.4f; %d clock probes took %.3f s"
          % (wall_q[1], wall_q[0], wall_q[2], probes, probe_s))
    if args.trace:
        print("self time per layer: " + ", ".join(
            "%s %.1f%%" % (layer, 100.0 * share) for layer, share in layer_shares(metrics)))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
