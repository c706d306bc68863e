"""Run every workload once for each of ten seeds, untraced, and once
traced, for BENCHMARK.json's run_seconds each, and write the medians,
quartiles and spreads to perfbench/baseline.json.

    python3 perfbench/record_baseline.py

Run from the repository root, on an otherwise idle machine; it takes
about 44 x (run_seconds + 5) seconds.  The spread of a metric is the
distance between the first and third quartiles of its per-run values, as
a share of their median.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("solve_s", "setup_s", "peak_rss_mb")
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("%s seed %d: exit %d: %s" % (workload, seed, proc.returncode,
                                              proc.stderr.strip()[-500:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as fh:
        return result, json.load(fh)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def record(workload, seconds):
    results, details = [], []
    for seed in SEEDS:
        result, detail = run_once(workload, seed, seconds, 0)
        results.append(result)
        details.append(detail)
        print("%s seed %d: %s" % (workload, seed, ", ".join(
            "%s %.4f" % (k, m["value"]) for k, m in sorted(result["metrics"].items()))),
            flush=True)
    traced, _ = run_once(workload, SEEDS[0], seconds, 1)
    out = {
        "seeds": SEEDS, "runs": len(SEEDS),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "wall_pass_s": summary([d["wall_pass_s"]["median"] for d in details]),
    }
    for name in END_TO_END:
        out[name] = summary([r["metrics"][name]["value"] for r in results])
    operations = {}
    for d in details:
        for name, entry in d["operations"].items():
            operations.setdefault(name, {"seconds": [], "sizes": entry["sizes"]})
            operations[name]["seconds"] += entry["seconds"]
    out["operations"] = {name: {"median_s": statistics.median(op["seconds"]),
                                "samples": len(op["seconds"]), "sizes": op["sizes"]}
                         for name, op in sorted(operations.items())}
    metrics = traced["metrics"]
    out["traced"] = {
        "seed": SEEDS[0],
        "layer_self_share": {k: round(v, 4) for k, v in sorted(run.layer_shares(metrics))},
        "metrics": {k: m["value"] for k, m in sorted(metrics.items())},
    }
    for name in END_TO_END:
        print("%s %s median %.4f spread %.4f" % (workload, name, out[name]["median"],
                                                 out[name]["spread"]), flush=True)
    return out


def main():
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {
        "about": "Seed baseline of perfbench: one untraced run per seed and one traced "
                 "run per workload; run_seconds %d.  Times are on refclock's clock; "
                 "wall_pass_s is the median wall seconds of a pass." % seconds,
        "machine": "%s, %d CPUs, Python %s" % (platform.machine(), os.cpu_count(),
                                               platform.python_version()),
        "workloads": {w: record(w, seconds) for w in workloads.WORKLOADS},
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
