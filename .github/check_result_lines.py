"""Check that each workload's last result line is complete and correct.

Usage: python .github/check_result_lines.py WORKLOAD...

Reads $RUNNER_TEMP/WORKLOAD.out, the output of `perfbench/run.py --workload WORKLOAD`,
and fails unless its last line is JSON with no NaN, Infinity or null, "correct" true
and "failed" equal to 0. The checks raise rather than assert, so they also hold under -O.
"""

import json
import os
import sys


def no_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


for workload in sys.argv[1:]:
    with open(os.path.join(os.environ["RUNNER_TEMP"], f"{workload}.out")) as f:
        line = f.read().splitlines()[-1]
    result = json.loads(line, parse_constant=no_constant)
    if "null" in line:
        raise SystemExit(f"{workload}: a metric is null")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload}: not correct or some operation failed: {result}")
