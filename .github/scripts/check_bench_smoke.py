"""Check the output of a ``bench/run.py --workload all`` smoke run.

Usage: python3 .github/scripts/check_bench_smoke.py OUTPUT

Fails when any call failed (a report that differs from ``bench/reference/``
or from the workload's first pass counts as failed), or when a workload ran
fewer than two passes of its calls, so that no later pass was compared with
the first.
"""

import json
import sys

sys.path.insert(0, "bench")
from workloads import invocations  # noqa: E402

lines = open(sys.argv[1]).read().splitlines()
result = json.loads(lines[-1])
if result["failed"] != 0:
    sys.exit(f"benchmark smoke: {result['failed']} of {result['attempted']} calls failed")
env = None
for line in lines[:-1]:
    if line.startswith("env "):
        env = json.loads(line[4:])
    elif line.startswith("{"):
        calls = len(invocations(env["workload"], env["input_seed"]))
        attempted = json.loads(line)["attempted"]
        if attempted < 2 * calls:
            sys.exit(f"benchmark smoke: {env['workload']} ran {attempted} calls, "
                     f"fewer than two passes of {calls}")
