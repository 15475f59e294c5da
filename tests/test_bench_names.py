"""The benchmark in `wmhbench/` wraps program functions by name. Every
name it wraps must resolve in `wmhseg`, and one run of each traced phase
must call every span the benchmark requires of that phase: `evaluate`
(two mask reads and `evaluate_case`), and `train_wm`, `train_wmh` and
`predict` (the CLI commands on a two-case phantom, training at width 2,
depth 2 for one iteration). Otherwise a traced benchmark run fails, as it
does when a graph op calls a function the tracer cannot patch. The
benchmark's files are only read here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import wmhseg

BENCH = Path(__file__).resolve().parents[1] / "wmhbench"
SRC = str(Path(wmhseg.__file__).resolve().parents[1])

# Runs apart, because installing the tracer patches the program's modules.
# argv: the benchmark directory and the phase to run under the tracer.
PROBE = """
import importlib, json, runpy, sys, tempfile
from pathlib import Path
import numpy as np
import wmhseg
from wmhseg import architectures, checkpoint, cli, metrics, phantom, volume_io

bench, phase = sys.argv[1], sys.argv[2]
tracing = runpy.run_path(bench + "/tracing.py", run_name="bench_tracing")
layers = runpy.run_path(bench + "/layers.py", run_name="bench_layers")
module = lambda name: importlib.import_module("wmhseg." + name)
unresolved = [f"{m}.{a}" for m, names in tracing["FUNCTIONS"].items()
              for a in names if not hasattr(module(m), a)]
unresolved += [f"{m}.{c}.{a}" for m, classes in tracing["METHODS"].items()
               for c, names in classes.items() for a in names
               if not hasattr(getattr(module(m), c, None), a)]
silent = None
if not unresolved:
    tracer = tracing["Tracer"]()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if phase == "evaluate":
            rng = np.random.default_rng(0)
            truth = rng.random((16, 14, 6)) < 0.1
            pred = truth ^ (rng.random(truth.shape) < 0.05)
            for name, data in (("pred", pred), ("gt", truth)):
                volume_io.write_nifti(volume_io.BinaryMask3D(data, (0.9, 0.9, 3.0)),
                                      tmp / f"{name}.nii")
        else:
            cfg = phantom.PhantomConfig()
            cases = [phantom.generate_case(cfg, seed=s) for s in (0, 1)]
            phantom.save_dataset(cases, cfg, tmp / "data")
            # every parameter zero and a large head bias: all voxels are white matter
            wm = architectures.Network(architectures.build_trimmed_unet(base_width=2, depth=2))
            {p.name: p for p in wm.parameters()}["head.b"].value[...] = 10.0
            wmh = architectures.Network(architectures.build_resunet(base_width=2, depth=2))
            architectures.he_init(wmh.graph, 0)
            checkpoint.save_checkpoint(tmp / "wm.ckpt", wm)
            checkpoint.save_checkpoint(tmp / "wmh.ckpt", wmh)
        tracing["install"](tracer, wmhseg)
        tracer.phase = phase
        # through the modules, whose attributes the tracer patched
        if phase == "evaluate":
            metrics.evaluate_case(volume_io.read_nifti_mask(tmp / "pred.nii"),
                                  volume_io.read_nifti_mask(tmp / "gt.nii"))
        else:
            io = ["--data", str(tmp / "data"), "--out", str(tmp / "out"),
                  "--report", str(tmp / "report.json")]
            net = ["--base-width", "2", "--depth", "2", "--max-iterations", "1"]
            wm_ckpt = ["--wm-checkpoint", str(tmp / "wm.ckpt")]
            argv = {"train_wm": ["train-wm", *io, *net],
                    "train_wmh": ["train-wmh", *io, *wm_ckpt, *net],
                    "predict": ["predict", *io, *wm_ckpt,
                                "--wmh-checkpoint", str(tmp / "wmh.ckpt")]}[phase]
            assert cli.dispatch(argv) == 0
    silent = sorted({span for m in layers["METRICS"] if m.phase == phase
                     for span in m.required if not tracer.calls[(phase, span)]})
print(json.dumps({"unresolved": unresolved, "silent": silent}))
"""


def probe(phase: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH), phase],
        env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_traced_names_resolve_and_evaluate_calls_every_required_span():
    assert probe("evaluate") == {"unresolved": [], "silent": []}


def test_predict_command_calls_every_required_span():
    assert probe("predict") == {"unresolved": [], "silent": []}


@pytest.mark.parametrize("phase", ["train_wm", "train_wmh"])
def test_training_command_calls_every_required_span(phase):
    assert probe(phase) == {"unresolved": [], "silent": []}
