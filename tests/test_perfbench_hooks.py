"""The benchmark's tracer (perfbench/tracer.py) wraps program functions by
module attribute and signature. A rename or signature change there would
silently zero its per-layer metrics; this test fails instead.

The traced commands run in a subprocess, because the tracer replaces module
attributes for the rest of the interpreter's life."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_CONFIG = ROOT / "configs" / "toy_bank.json"

# wrap points the program no longer calls on these paths; a later benchmark
# change may re-point them, so the traced run may miss fewer, never more
KNOWN_UNTRACED = {"learner.state_actions", "oracle.state_actions",
                  "learner.kernel_matrix"}

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from battbank import cli
argv = json.loads(sys.argv[3])
rcs = [cli.main(a) for a in argv]
print(json.dumps({"rcs": rcs, "layers": tracer.metrics(),
                  "missing": tracer.missing}))
"""


def test_tracer_hooks_bind(tmp_path):
    argv = [
        ["compare", str(TOY_CONFIG), "--sizes", "2,3", "--seeds", "0",
         "--steps", "300", "--eval-steps", "300"],
        ["solve-exact", str(TOY_CONFIG), "--out", str(tmp_path / "sol.csv")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src"), json.dumps(argv)],
        capture_output=True, text=True, timeout=300, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["rcs"] == [0, 0]
    # learner.* come from the tracer's wrap of harness.train
    for metric in ("harness.rollout_s", "oracle.sweeps", "oracle.eval_s",
                   "learner.train_s", "learner.steps_per_s"):
        assert doc["layers"][metric] > 0, metric
    missing = {m.removeprefix("battbank.") for m in doc["missing"]}
    assert missing <= KNOWN_UNTRACED
