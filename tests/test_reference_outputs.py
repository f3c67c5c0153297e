"""The GA, min-min and the document path still give their recorded answers.

perfbench/reference.json holds, for each fixed reference instance of the
grid, wide and chain_etc workloads, a digest of everything the run outputs:
makespans, chromosomes, the best series and the schedule logs. A change that
moves any of them, such as a different crossover for a pair or a different
random draw, fails here. wide and chain_etc reach the GA through
parse_dag/parse_platform, and chain_etc is the only workload with transfers
off and an ETC platform.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (puts the checkout's src on sys.path before the imports below)


@pytest.mark.parametrize("name", ["grid", "wide", "chain_etc"])
def test_the_reference_instances_keep_their_fingerprints(name):
    reference = json.loads(run.REFERENCE_FILE.read_text())[name]
    tally = run.Tally()
    run.check_reference(run.make_workloads()[name], reference, tally)
    assert (tally.failed, tally.problems) == (0, [])
    assert tally.attempted == len(reference["instances"])
