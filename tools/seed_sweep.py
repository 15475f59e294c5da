"""Seed sweep of the plain-vs-residual ablation: does training converge
beyond the pinned seeds?

For each (dataset seed, train seed) pair the white matter network trains
once (8 epochs, batch 4) on a 10-case default phantom, and its stage-1
masks feed one `run_ablation` call per lesion batch size. Each lesion
network is width 4, depth 4 and trains for 480 iterations. The table
prints each validation case's Dice from the ablation report (the
`segment_wmh` output, scored by `pipeline.score_cases`) and marks with x
a setting whose mean, the report's `val_summary` Dice, is below 0.85. Nothing is
written to disk.

Run from the repository root (about 6 CPU minutes):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/seed_sweep.py
"""

from __future__ import annotations

from wmhseg.architectures import build_trimmed_unet
from wmhseg.phantom import PhantomConfig, generate_dataset
from wmhseg.pipeline import run_ablation, segment_white_matter, wm_training_cases
from wmhseg.training import TrainConfig, train

SEED_PAIRS = ((42, 1), (7, 2), (11, 5), (123, 3), (2024, 4))  # (dataset, train)
BATCH_SIZES = (4, 8)
N_CASES = 10
ITERATIONS = 480
BAR = 0.85
VARIANTS = ("plain", "residual")


def main() -> None:
    passes = {kind: 0 for kind in VARIANTS}
    print("| seeds, batch | " + " | ".join(VARIANTS) + " |")
    print("|---|" + "---|" * len(VARIANTS))
    for data_seed, train_seed in SEED_PAIRS:
        cases = list(generate_dataset(PhantomConfig(), N_CASES, seed=data_seed))
        wm_net, _ = train(build_trimmed_unet(base_width=4, depth=3),
                          wm_training_cases(cases),
                          TrainConfig(epochs=8, seed=train_seed, batch_size=4))
        masks = [segment_white_matter(c.t1, wm_net) for c in cases]
        for batch in BATCH_SIZES:
            # the iteration cap ends training, at any batch size
            cfg = TrainConfig(epochs=ITERATIONS, max_iterations=ITERATIONS,
                              seed=train_seed, batch_size=batch)
            report, _ = run_ablation(cases, masks, cfg)
            cells = []
            for kind in VARIANTS:
                variant = report["variants"][kind]
                scores = [m["dice"] for m in variant["val_cases"].values()]
                ok = variant["val_summary"]["dice"] >= BAR
                passes[kind] += ok
                cells.append(", ".join(f"{s:.2f}" for s in scores) + ("" if ok else " x"))
            print(f"| {data_seed}/{train_seed}, b{batch} | " + " | ".join(cells) + " |",
                  flush=True)
    n = len(SEED_PAIRS) * len(BATCH_SIZES)
    print("passes at %.2f: " % BAR + ", ".join(f"{k} {passes[k]}/{n}" for k in VARIANTS))


if __name__ == "__main__":
    main()
