"""Record the answer fields of every theorem-sweep operation into
perfbench/expected_sweep.json.

    python3 perfbench/record_sweep.py

Run from the repository root, only when an answer is meant to change.
Each command must exit with the code the workload expects, or nothing
is written.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import workloads  # noqa: E402

expected = {}
for name, argv, code in workloads.sweep_commands():
    got, out, err = workloads.run_cli(argv)
    if got != code:
        sys.exit("%s: exit %d, expected %d: %s" % (name, got, code, err.strip()))
    expected[name] = workloads.answer_fields(json.loads(out))
with open(workloads.EXPECTED_SWEEP, "w", encoding="utf-8") as fh:
    json.dump(expected, fh, indent=1, sort_keys=True)
    fh.write("\n")
print("recorded %d operations" % len(expected))
