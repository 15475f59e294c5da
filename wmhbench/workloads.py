"""The two workloads: their set-up and their timed phases.

Every sub-command runs in this process through `wmhseg.cli.dispatch`,
with its run report written to a file. `setup` returns the CPU seconds
that count in `setup_s`; `ops` gives the operations each set-up and each
phase attempts. Both workloads end with `evaluate`, which a run repeats.
`not_called` names the per-layer metrics of a phase the workload runs
whose layer it does not call.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import inputs
from inputs import (TEST_CASES, TEST_DIMS, TRAIN_CASES, TRAIN_DATASET_SEED, TRAIN_SEED,
                    WM_NET, WMH_NET)
from wmhseg import volume_io
from wmhseg.cli import dispatch

# Set-ups and phases are timed in CPU seconds of this process (all its
# threads). The run is single-threaded (BLAS at one thread, --threads 1),
# so on an idle machine this is the wall time; on a shared host it leaves
# out the time other tenants hold the CPU, which halved the spread between
# runs.
clock = time.process_time


class OperationFailed(RuntimeError):
    pass


def cli(*argv) -> None:
    args = [str(a) for a in argv]
    if dispatch(args) != 0:
        raise OperationFailed(f"wmhseg {' '.join(args)} exited nonzero")


class PinnedPipeline:
    """Acceptance training set, then train-wm, train-wmh, predict and
    evaluate on a test cohort drawn from the workload seed."""

    name = "pinned_pipeline"
    phases = ("train_wm", "train_wmh", "predict", "evaluate")
    cases = {"setup": TRAIN_CASES + TEST_CASES, "train_wm": TRAIN_CASES,
             "train_wmh": TRAIN_CASES, "predict": TEST_CASES, "evaluate": TEST_CASES}
    # cases generated, training stages, cases predicted, cases evaluated
    ops = {"setup": TRAIN_CASES + TEST_CASES, "train_wm": 1, "train_wmh": 1,
           "predict": TEST_CASES, "evaluate": TEST_CASES}
    not_called: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.work: Path | None = None  # the set-up the timed phases use
        self.test_seed = seed % 2**31
        self.csv_texts: list[str] = []  # the CSV of every evaluate run

    def setup(self, into: Path) -> float:
        t0 = clock()
        cli("phantom", "--out", into / "train", "--cases", TRAIN_CASES,
            "--seed", TRAIN_DATASET_SEED, "--report", into / "phantom_train.json")
        cli("phantom", "--out", into / "test", "--cases", TEST_CASES, "--seed", self.test_seed,
            "--dims", *TEST_DIMS, "--report", into / "phantom_test.json")
        return clock() - t0

    def run_phase(self, phase: str) -> None:
        w = self.work
        if phase == "train_wm":
            cli("train-wm", "--data", w / "train", "--out", w / "wm.ckpt", *WM_NET,
                "--seed", TRAIN_SEED, "--report", w / "train_wm.json")
        elif phase == "train_wmh":
            cli("train-wmh", "--data", w / "train", "--out", w / "wmh.ckpt",
                "--wm-checkpoint", w / "wm.ckpt", *WMH_NET, "--seed", TRAIN_SEED,
                "--report", w / "train_wmh.json")
        elif phase == "predict":
            shutil.rmtree(w / "pred", ignore_errors=True)
            cli("predict", "--data", w / "test", "--out", w / "pred",
                "--wm-checkpoint", w / "wm.ckpt", "--wmh-checkpoint", w / "wmh.ckpt",
                "--report", w / "predict.json")
        else:
            cli("evaluate", "--pred-dir", w / "pred", "--gt-dir", w / "test",
                "--out-csv", w / "cases.csv", "--report", w / "evaluate.json")
            self.csv_texts.append((w / "cases.csv").read_text())


class ChallengeEval:
    """A challenge-sized cohort of (prediction, truth) mask pairs, then
    `evaluate` over the whole cohort, again and again."""

    name = "challenge_eval"
    phases = ("evaluate",)
    cases = {"setup": inputs.CASES, "evaluate": inputs.CASES}
    ops = cases
    not_called = ("setup.phantom.generate_s",)  # the benchmark makes the masks

    def __init__(self, seed: int) -> None:
        self.work: Path | None = None
        self.seed = seed
        self.csv_texts: list[str] = []

    def setup(self, into: Path) -> float:
        """Only the program's writes count in setup_s: the benchmark's own
        numpy code makes each case, untimed, just before it is written."""
        written = 0.0
        for case_id, pred, truth in inputs.make_cohort(self.seed):
            for kind, mask in (("pred", pred), ("gt", truth)):
                d = into / kind / case_id
                d.mkdir(parents=True)
                t0 = clock()
                # looked up at call time, so that a traced run sees the write
                volume_io.write_nifti(volume_io.BinaryMask3D(data=mask, spacing=inputs.SPACING),
                                      d / "wmh.nii")
                written += clock() - t0
        return written

    def run_phase(self, phase: str) -> None:
        w = self.work
        cli("evaluate", "--pred-dir", w / "pred", "--gt-dir", w / "gt",
            "--out-csv", w / "cases.csv", "--report", w / "evaluate.json")
        self.csv_texts.append((w / "cases.csv").read_text())


WORKLOADS = {w.name: w for w in (PinnedPipeline, ChallengeEval)}
