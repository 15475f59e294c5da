"""Seed sweep of the plain-vs-residual ablation: does training converge
beyond the pinned seeds?

For each (dataset seed, train seed) pair the white matter network trains
once (8 epochs, batch 4) on a 10-case default phantom, and its stage-1
masks feed one `run_ablation` call per lesion batch size. Each lesion
network is width 4, depth 4 and trains for 480 iterations. The table
prints the confined validation Dice of each validation case (the
`segment_wmh` output, as the ablation scores it) and marks with x a
setting whose mean is below 0.85. Nothing is written to disk.

Run from the repository root (about 6 CPU minutes):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/seed_sweep.py
"""

from __future__ import annotations

import numpy as np

from wmhseg.architectures import build_trimmed_unet
from wmhseg.metrics import dice
from wmhseg.phantom import PhantomConfig, generate_dataset
from wmhseg.pipeline import (
    CaseInput,
    PipelineConfig,
    run_ablation,
    segment_white_matter,
    segment_wmh,
    wm_training_cases,
)
from wmhseg.training import TrainConfig, train

SEED_PAIRS = ((42, 1), (7, 2), (11, 5), (123, 3), (2024, 4))  # (dataset, train)
BATCH_SIZES = (4, 8)
N_CASES = 10
ITERATIONS = 480
BAR = 0.85
VARIANTS = ("plain", "residual")


def confined_val_dice(cases, masks, net, history) -> list[float]:
    val_ids = set(history.val_case_ids)
    pcfg = PipelineConfig()
    return [
        dice(segment_wmh(CaseInput(t1=c.t1, flair=c.flair, case_id=c.case_id),
                         m, net, pcfg), c.wmh_truth)
        for c, m in zip(cases, masks)
        if c.case_id in val_ids
    ]


def main() -> None:
    passes = {kind: 0 for kind in VARIANTS}
    print("| seeds, batch | " + " | ".join(VARIANTS) + " |")
    print("|---|" + "---|" * len(VARIANTS))
    for data_seed, train_seed in SEED_PAIRS:
        cases = generate_dataset(PhantomConfig(), N_CASES, seed=data_seed)
        wm_net, _ = train(build_trimmed_unet(base_width=4, depth=3),
                          wm_training_cases(cases),
                          TrainConfig(epochs=8, seed=train_seed, batch_size=4))
        masks = [segment_white_matter(c.t1, wm_net) for c in cases]
        for batch in BATCH_SIZES:
            # the iteration cap ends training, at any batch size
            cfg = TrainConfig(epochs=ITERATIONS, max_iterations=ITERATIONS,
                              seed=train_seed, batch_size=batch)
            _, trained = run_ablation(cases, masks, cfg)
            cells = []
            for kind in VARIANTS:
                scores = confined_val_dice(cases, masks, *trained[kind])
                ok = float(np.mean(scores)) >= BAR
                passes[kind] += ok
                cells.append(", ".join(f"{s:.2f}" for s in scores) + ("" if ok else " x"))
            print(f"| {data_seed}/{train_seed}, b{batch} | " + " | ".join(cells) + " |",
                  flush=True)
    n = len(SEED_PAIRS) * len(BATCH_SIZES)
    print("passes at %.2f: " % BAR + ", ".join(f"{k} {passes[k]}/{n}" for k in VARIANTS))


if __name__ == "__main__":
    main()
