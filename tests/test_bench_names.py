"""The benchmark in `wmhbench/` wraps program functions by name. Every
name it wraps must resolve in `wmhseg`, and one case of `evaluate` (two
mask reads and `evaluate_case`) must call every span the benchmark
requires of that phase; otherwise a traced benchmark run fails. The
benchmark's files are only read here."""

import json
import subprocess
import sys
from pathlib import Path

import wmhseg

BENCH = Path(__file__).resolve().parents[1] / "wmhbench"
SRC = str(Path(wmhseg.__file__).resolve().parents[1])

# Runs apart, because installing the tracer patches the program's modules.
PROBE = """
import importlib, json, runpy, sys, tempfile
from pathlib import Path
import numpy as np
import wmhseg
from wmhseg import metrics, volume_io

tracing = runpy.run_path(sys.argv[1] + "/tracing.py", run_name="bench_tracing")
layers = runpy.run_path(sys.argv[1] + "/layers.py", run_name="bench_layers")
module = lambda name: importlib.import_module("wmhseg." + name)
unresolved = [f"{m}.{a}" for m, names in tracing["FUNCTIONS"].items()
              for a in names if not hasattr(module(m), a)]
unresolved += [f"{m}.{c}.{a}" for m, classes in tracing["METHODS"].items()
               for c, names in classes.items() for a in names
               if not hasattr(getattr(module(m), c, None), a)]
silent = None
if not unresolved:
    tracer = tracing["Tracer"]()
    tracing["install"](tracer, wmhseg)
    rng = np.random.default_rng(0)
    truth = rng.random((16, 14, 6)) < 0.1
    pred = truth ^ (rng.random(truth.shape) < 0.05)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in (("pred", pred), ("gt", truth)):
            volume_io.write_nifti(volume_io.BinaryMask3D(data, (0.9, 0.9, 3.0)),
                                  Path(tmp) / f"{name}.nii")
        tracer.phase = "evaluate"
        # through the modules, whose attributes the tracer patched
        metrics.evaluate_case(volume_io.read_nifti_mask(Path(tmp) / "pred.nii"),
                              volume_io.read_nifti_mask(Path(tmp) / "gt.nii"))
    silent = sorted({span for m in layers["METRICS"] if m.phase == "evaluate"
                     for span in m.required if not tracer.calls[("evaluate", span)]})
print(json.dumps({"unresolved": unresolved, "silent": silent}))
"""


def test_traced_names_resolve_and_evaluate_calls_every_required_span():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH)],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result == {"unresolved": [], "silent": []}
