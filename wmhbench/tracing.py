"""Spans around the program's public functions, patched in from outside.

Each wrapped function records one span per call: its name, the phase it
ran in, start, end and parent span. Times are CPU seconds of the calling
thread, as the end-to-end phases are timed in CPU seconds. Self time is
span time minus the time of its child spans. A function is patched in every `wmhseg` module that
holds it by name, because `from .x import f` copies the binding into the
importing module.

Spans are kept in memory and written as one JSON file when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) of every traced function, named "<module>.<attribute>"
FUNCTIONS = {
    "volume_io": ("read_nifti", "read_nifti_mask", "write_nifti"),
    "diff_core": (
        "conv2d_forward", "conv2d_backward", "upconv2_forward", "upconv2_backward",
        "relu_forward", "relu_backward", "maxpool2_forward", "maxpool2_backward",
        "concat_forward", "concat_backward", "add_forward", "sigmoid_forward",
        "sigmoid_backward",
    ),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "training": ("weighted_bce", "augment", "normalize_to_mask"),
    "morphology": ("connected_components", "largest_component", "dilate", "border_voxels"),
    "metrics": ("dice", "h95", "lesion_recall", "lesion_f1"),
    "phantom": ("generate_dataset",),
    # the two stages name the spans of the predict_probabilities they call
    "pipeline": ("segment_white_matter", "segment_wmh"),
}
METHODS = {"diff_core": {"Graph": ("forward", "backward")}, "training": {"SGD": ("step",)}}
MODULES = ("volume_io", "diff_core", "architectures", "checkpoint", "training",
           "morphology", "metrics", "phantom", "pipeline", "cli")


class Tracer:
    def __init__(self) -> None:
        self.phase = "none"
        self.spans: list[tuple] = []  # (id, phase, name, parent id or -1, start, end)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        frame = [next(self._ids), name, 0.0]  # id, name, child seconds
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        t0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.thread_time()
            stack.pop()
            if stack:
                stack[-1][2] += t1 - t0
            key = (self.phase, name)
            self.self_s[key] += t1 - t0 - frame[2]
            self.calls[key] += 1
            self.spans.append((frame[0], self.phase, name, parent, t0, t1))

    def count(self, key: str, amount: float) -> None:
        self.counts[(self.phase, key)] += amount

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "phase", "name", "parent", "start", "end"]
        with open(path, "w") as f:
            json.dump({"summary": summary, "fields": fields, "spans": self.spans}, f)


def _wrap(tracer: Tracer, name, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs, out)
        return out

    return traced


def _conv_flop(x_shape, w_shape) -> int:
    """Multiply-adds x 2 of one im2col GEMM of a same-padded stride-1
    conv2d; x_shape is (batch, channels, h, w) of its input or output."""
    batch, _, h, w = x_shape
    out_c, in_c, k, _ = w_shape
    return 2 * batch * out_c * in_c * k * k * h * w


def install(tracer: Tracer, package) -> None:
    """Patch every traced function of `package` (the imported `wmhseg`)."""
    import importlib

    mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}

    def file_bytes(path_arg):
        return lambda args, kwargs, out: tracer.count(
            "volume_io.bytes", os.path.getsize(args[path_arg]))

    after = {
        "volume_io.read_nifti": file_bytes(0),
        "volume_io.write_nifti": file_bytes(1),
        "diff_core.conv2d_forward": lambda a, k, out: tracer.count(
            "diff_core.conv_flop", _conv_flop(a[0].shape, a[1].shape)),
        # backward runs two GEMMs of the forward's size: dw and dx. The
        # upstream gradient has the forward input's batch and grid.
        "diff_core.conv2d_backward": lambda a, k, out: tracer.count(
            "diff_core.conv_flop", 2 * _conv_flop(a[0].shape, a[1].shape)),
    }
    for owner, names in FUNCTIONS.items():
        for attr in names:
            original = getattr(mods[owner], attr)
            name = f"{owner}.{attr}"
            _patch_by_identity(mods, original, _wrap(tracer, name, original, after.get(name)))

    for owner, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(mods[owner], cls_name)
            for meth in methods:
                setattr(cls, meth, _wrap(tracer, f"{owner}.{cls_name}.{meth}",
                                         getattr(cls, meth)))

    # predict_probabilities runs the network for validation inside `train`
    # and for both stages of the pipeline; its span is named by its caller
    original = mods["training"].predict_probabilities
    stage_of = {"pipeline.segment_white_matter": "pipeline.stage1_forward",
                "pipeline.segment_wmh": "pipeline.stage2_forward"}

    @functools.wraps(original)
    def predict_probabilities(*args, **kwargs):
        name = stage_of.get(tracer.parent_name(), "training.predict_probabilities")
        return tracer.call(name, original, args, kwargs)

    _patch_by_identity(mods, original, predict_probabilities)

    # H95's nearest-border queries: tree construction and query both count
    real_tree = mods["metrics"].cKDTree

    class TracedTree:
        def __init__(self, *args, **kwargs):
            self._tree = tracer.call("metrics.cKDTree", real_tree, args, kwargs)

        def query(self, *args, **kwargs):
            return tracer.call("metrics.cKDTree", self._tree.query, args, kwargs)

    _patch_by_identity(mods, real_tree, TracedTree)


def _patch_by_identity(mods: dict, original, replacement) -> None:
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
