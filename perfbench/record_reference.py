#!/usr/bin/env python3
"""Rewrite reference.json from the current package's outputs.

    python3 perfbench/record_reference.py

Every later run compares its reference instances with this file, so run it
only for a change that is meant to alter makespans or schedule logs, and say
why in CHANGES.md.
"""

import json
import sys

from run import REFERENCE_FILE, Tally, check_reference, fingerprint
from workloads import REFERENCE_SEED, make_workloads


def main() -> int:
    out = {}
    for name, workload in make_workloads().items():
        tally = Tally()
        digests = check_reference(workload, {}, tally)
        # with no expected digests only the output checks can fail
        if tally.failed:
            print(f"{name}: {tally.failed} reference instances fail their checks; "
                  f"{REFERENCE_FILE.name} is left as it was", file=sys.stderr)
            for problem in tally.problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        out[name] = {"seed": REFERENCE_SEED, "fingerprint": fingerprint(digests), "instances": digests}
        print(f"{name}: {len(digests)} instances, fingerprint {out[name]['fingerprint']}")
    REFERENCE_FILE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
