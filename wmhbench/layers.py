"""The per-layer metrics: which spans of the traced run each one sums.

A metric is `<phase>.<module>.<metric>`, and every workload reports all
of them. A time is the self time of its spans in that phase, per run of
the phase (per set-up for `setup`); a count is per run of the phase,
except `cc_calls`, which is per case. Each metric lists the spans that
its phase must call: when one of them records no call, the run fails and
names it, so that a metric never reads 0 because the program stopped
calling the function the benchmark wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    phase: str
    name: str  # "<module>.<metric>"
    unit: str
    spans: tuple[str, ...]
    required: tuple[str, ...]
    count: str | None = None  # a Tracer count key instead of span time
    scale: float = 1.0
    per_case: bool = False  # divide by the cases of the phase too
    calls: bool = False  # report the number of calls instead of their time

    @property
    def full_name(self) -> str:
        return f"{self.phase}.{self.name}"


def _dc(*names: str) -> tuple[str, ...]:
    return tuple(f"diff_core.{n}" for n in names)


ELEMENTWISE_FWD = _dc("relu_forward", "maxpool2_forward", "concat_forward", "sigmoid_forward")
ELEMENTWISE_BWD = _dc("relu_backward", "maxpool2_backward", "concat_backward")
# add only exists in the residual network; training back-propagates from
# the logits, so sigmoid_backward never runs there
ELEMENTWISE = ELEMENTWISE_FWD + ELEMENTWISE_BWD + _dc("add_forward", "sigmoid_backward")
# predict reads images with read_nifti; evaluate reads masks with
# read_nifti_mask, which calls read_nifti
READS = ("volume_io.read_nifti", "volume_io.read_nifti_mask")


def _network(phase: str) -> list[LayerMetric]:
    train = phase != "predict"
    elementwise_required = (
        ELEMENTWISE_FWD + (ELEMENTWISE_BWD if train else ())
        + (() if phase == "train_wm" else _dc("add_forward"))
    )
    graph = _dc("Graph.forward") + (_dc("Graph.backward") if train else ())
    upconv = _dc("upconv2_forward") + (_dc("upconv2_backward") if train else ())
    out = [
        LayerMetric(phase, "diff_core.conv_fwd_s", "s", _dc("conv2d_forward"),
                    _dc("conv2d_forward")),
        LayerMetric(phase, "diff_core.upconv_s", "s", upconv, upconv),
        LayerMetric(phase, "diff_core.elementwise_s", "s", ELEMENTWISE, elementwise_required),
        LayerMetric(phase, "diff_core.executor_self_s", "s", graph, graph),
        LayerMetric(phase, "diff_core.conv_gflop", "Gflop", (), _dc("conv2d_forward"),
                    count="diff_core.conv_flop", scale=1e-9),
    ]
    if train:
        out.append(LayerMetric(phase, "diff_core.conv_bwd_s", "s", _dc("conv2d_backward"),
                               _dc("conv2d_backward")))
        for metric, span in (("sgd_step_s", "training.SGD.step"),
                             ("loss_s", "training.weighted_bce"),
                             ("augment_s", "training.augment"),
                             ("validation_s", "training.predict_probabilities")):
            out.append(LayerMetric(phase, f"training.{metric}", "s", (span,), (span,)))
        out.append(LayerMetric(phase, "training.iterations", "count", ("training.SGD.step",),
                               ("training.SGD.step",), calls=True))
        out.append(LayerMetric(phase, "checkpoint.save_s", "s", ("checkpoint.save_checkpoint",),
                               ("checkpoint.save_checkpoint",)))
    return out


def _cc(phase: str) -> list[LayerMetric]:
    cc = ("morphology.connected_components",)
    return [LayerMetric(phase, "morphology.cc_s", "s", cc, cc),
            LayerMetric(phase, "morphology.cc_calls", "count", cc, cc, calls=True,
                        per_case=True)]


def _one(phase: str, name: str, span: str) -> LayerMetric:
    return LayerMetric(phase, name, "s", (span,), (span,))


def _io_bytes(phase: str, required: tuple[str, ...]) -> LayerMetric:
    return LayerMetric(phase, "volume_io.bytes", "bytes", (), required, count="volume_io.bytes")


def _evaluate() -> list[LayerMetric]:
    return _cc("evaluate") + [
        _one("evaluate", "morphology.border_s", "morphology.border_voxels"),
        _one("evaluate", "metrics.dice_s", "metrics.dice"),
        _one("evaluate", "metrics.h95_s", "metrics.h95"),
        _one("evaluate", "metrics.kdtree_s", "metrics.cKDTree"),
        _one("evaluate", "metrics.lesion_recall_s", "metrics.lesion_recall"),
        _one("evaluate", "metrics.lesion_f1_s", "metrics.lesion_f1"),
        LayerMetric("evaluate", "volume_io.read_s", "s", READS, READS),
        _io_bytes("evaluate", READS),
    ]


def _setup() -> list[LayerMetric]:
    write = ("volume_io.write_nifti",)
    return [LayerMetric("setup", "volume_io.write_s", "s", write, write),
            _io_bytes("setup", write)]


def _metrics() -> list[LayerMetric]:
    stage1 = ("pipeline.segment_white_matter", "pipeline.stage1_forward")
    return (
        _setup()
        + [_one("setup", "phantom.generate_s", "phantom.generate_dataset")]
        + _network("train_wm")
        + _network("train_wmh")
        + [LayerMetric("train_wmh", "pipeline.stage1_masks_s", "s", stage1, stage1)]
        + _cc("train_wmh")
        + _network("predict")
        + [
            _one("predict", "pipeline.stage1_forward_s", "pipeline.stage1_forward"),
            _one("predict", "pipeline.largest_component_s", "morphology.largest_component"),
            _one("predict", "pipeline.dilate_s", "morphology.dilate"),
            _one("predict", "pipeline.normalize_s", "training.normalize_to_mask"),
            _one("predict", "pipeline.stage2_forward_s", "pipeline.stage2_forward"),
            LayerMetric("predict", "volume_io.read_s", "s", READS, READS[:1]),
            _one("predict", "volume_io.write_s", "volume_io.write_nifti"),
            _io_bytes("predict", ("volume_io.read_nifti", "volume_io.write_nifti")),
            _one("predict", "checkpoint.load_s", "checkpoint.load_checkpoint"),
        ]
        + _cc("predict")
        + _evaluate()
    )


METRICS = _metrics()


def report(tracer, runs: dict[str, int], cases: dict[str, int],
           not_called: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Every metric's value from the tracer, and the spans that recorded no
    call. A phase the workload does not run reads 0 throughout, and so
    does a metric it names in `not_called`.

    runs: how often each phase ran; cases: cases each phase handles per run.
    """
    values, silent = {}, []
    for m in METRICS:
        if not runs.get(m.phase):
            values[m.full_name] = {"value": 0.0, "unit": m.unit}
            continue
        if m.full_name not in not_called:
            for span in m.required:
                if tracer.calls.get((m.phase, span), 0) == 0 and f"{m.phase}: {span}" not in silent:
                    silent.append(f"{m.phase}: {span}")
        if m.count is not None:
            total = tracer.counts.get((m.phase, m.count), 0.0) * m.scale
        elif m.calls:
            total = sum(tracer.calls.get((m.phase, s), 0) for s in m.spans)
        else:
            total = sum(tracer.self_s.get((m.phase, s), 0.0) for s in m.spans)
        total /= runs[m.phase] * (cases[m.phase] if m.per_case else 1)
        values[m.full_name] = {"value": total, "unit": m.unit}
    return values, silent
