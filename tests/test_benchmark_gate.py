"""The benchmark's correctness gate, one round per workload at seed class 0.

perfbench/run.py accepts a round only when every claim it makes holds, it
checked as many instances as it expected, and its answer digest is the one
recorded in perfbench/digests.json.  The rounds here run the same worker
with the same environment, so a change that alters a benchmark answer fails
here too.  Nothing under perfbench/ is written."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())["digests"]


@pytest.mark.parametrize("workload", ["corpus-oracle", "collapse-truth", "iterated-etr-games"])
def test_a_seed_0_round_passes_the_benchmark_gate(workload):
    # run.py's environment: the checkout's own source and a fixed hash seed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                           "--seed-class", "0", "--mode", "round"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert [claim for claim, ok in result["claims"] if not ok] == []
    assert result["checked"] == result["expected"]
    assert result["digest"] == DIGESTS[workload]["0"]
