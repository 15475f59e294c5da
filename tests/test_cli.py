import csv
import hashlib
import json
import re
import shlex
import shutil
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from wmhseg import cli, phantom, pipeline
from wmhseg.acceptance import TABLE2, checkpoint_bytes
from wmhseg.architectures import Network, build_resunet, build_trimmed_unet
from wmhseg.checkpoint import load_checkpoint
from wmhseg.cli import build_parser, dispatch
from wmhseg.metrics import dice, evaluate_case, rank_teams, summarize_cases
from wmhseg.phantom import PhantomConfig, load_dataset
from wmhseg.pipeline import (
    run_ablation,
    segment_white_matter,
    segment_wmh,
    wm_training_cases,
    wmh_training_cases,
)
from wmhseg.training import TrainConfig, TrainHistory, predict_probabilities, train
from wmhseg.volume_io import (
    BinaryMask3D,
    Volume3D,
    read_nifti,
    read_nifti_mask,
    write_nifti,
)


def run(argv):
    return dispatch(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "phantom"
    assert run(["phantom", "--out", str(d), "--cases", "4", "--seed", "3"]) == 0
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    """Tiny fast checkpoints for CLI plumbing tests (quality irrelevant)."""
    out = tmp_path_factory.mktemp("ckpt")
    wm = out / "wm.ckpt"
    wmh = out / "wmh.ckpt"
    common = ["--base-width", "4", "--epochs", "6", "--seed", "1"]
    assert run(["train-wm", "--data", str(dataset), "--out", str(wm), *common]) == 0
    assert run(
        ["train-wmh", "--data", str(dataset), "--out", str(wmh),
         "--wm-checkpoint", str(wm), *common]
    ) == 0
    return wm, wmh


class TestPhantomCommand:
    def test_deterministic_directory_content(self, tmp_path):
        for name in ("d1", "d2"):
            assert run(
                ["phantom", "--out", str(tmp_path / name), "--cases", "3",
                 "--seed", "7"]
            ) == 0
        files1 = sorted(p.relative_to(tmp_path / "d1")
                        for p in (tmp_path / "d1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "d2")
                        for p in (tmp_path / "d2").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (tmp_path / "d1" / rel).read_bytes() == (
                tmp_path / "d2" / rel
            ).read_bytes()

    def test_report_echoes_config(self, tmp_path, capsys):
        assert run(
            ["phantom", "--out", str(tmp_path / "d"), "--cases", "2", "--seed", "9"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["config"]["seed"] == 9
        assert report["config"]["dims"] == [64, 64, 8]

    def test_report_to_file(self, tmp_path):
        rpt = tmp_path / "report.json"
        assert run(
            ["phantom", "--out", str(tmp_path / "d"), "--cases", "1",
             "--seed", "1", "--report", str(rpt)]
        ) == 0
        assert json.loads(rpt.read_text())["command"] == "phantom"

    # sha256 of each kind of file `phantom --cases 10 --seed 42` writes (the
    # acceptance training set), its bytes concatenated over the cases in
    # order, and of manifest.json, which no command reads
    PINNED_FILES = {
        "t1.nii": "ce16275b01d90c5082dc4bd7dcb328325594ec672a1217f7613ec985e1c360d0",
        "flair.nii": "ad9f404804a7c5ad67afeaa6d9347292ae992ee9884745f37f8faa73425383de",
        "wm.nii": "32aaf63f60b78796d84728fa72ba127b0e3c3152b97590dc6ff59bd470cee662",
        "wmh.nii": "e071f1d939eb8378b5f66479b340119a73d5f34a449507c6638285312731ea9c",
        "manifest.json": "3c28c1308788b002be64cfd203a21a0bc3168684b8d169104e8135eab37f992d",
    }

    def test_written_files_match_pinned_digests(self, tmp_path):
        out = tmp_path / "d"
        assert run(["phantom", "--out", str(out), "--cases", "10", "--seed", "42",
                    "--report", str(tmp_path / "r.json")]) == 0
        case_dirs = [f"case_{i:03d}" for i in range(10)]
        volumes = [name for name in self.PINNED_FILES if name.endswith(".nii")]
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert written == sorted(
            ["manifest.json"] + [f"{d}/{name}" for d in case_dirs for name in volumes])
        got = {"manifest.json": hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest()}
        for name in volumes:
            h = hashlib.sha256()
            for d in case_dirs:
                h.update((out / d / name).read_bytes())
            got[name] = h.hexdigest()
        assert got == self.PINNED_FILES

    def test_memory_independent_of_case_count(self, tmp_path):
        """The command holds one generated case at a time, so 8 cases
        peak where 1 does."""
        def peak(n_cases, name):  # `name`: phantom writes only to a new directory
            tracemalloc.start()
            try:
                assert run(["phantom", "--out", str(tmp_path / name),
                            "--cases", str(n_cases), "--seed", "5",
                            "--report", str(tmp_path / f"{name}.json")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, "warm-up")  # first-call costs are not a case's
        one, eight = peak(1, "one"), peak(8, "eight")
        assert eight <= 1.25 * one, (one, eight)

    def test_failure_part_way_leaves_no_loadable_dataset(self, tmp_path, monkeypatch):
        real = phantom.generate_case

        def fail_on_second(cfg, seed, case_id=None):
            if case_id == "case_001":
                raise phantom.PlacementError("could not place sphere")
            return real(cfg, seed, case_id)

        monkeypatch.setattr(phantom, "generate_case", fail_on_second)
        out = tmp_path / "d"
        assert run(["phantom", "--out", str(out), "--cases", "3", "--seed", "1",
                    "--report", str(tmp_path / "r.json")]) == 1
        assert "could not place sphere" in json.loads((tmp_path / "r.json").read_text())["error"]
        # case_000 went into a sibling directory, removed with it
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
        assert run(["train-wm", "--data", str(out), "--out", str(tmp_path / "wm.ckpt"),
                    "--report", str(tmp_path / "t.json")]) == 1
        assert not (tmp_path / "wm.ckpt").exists()
        assert run(["predict", "--data", str(out), "--out", str(tmp_path / "pred"),
                    "--wm-checkpoint", "wm.ckpt", "--wmh-checkpoint", "wmh.ckpt",
                    "--report", str(tmp_path / "p.json")]) == 1
        assert not (tmp_path / "pred").exists()
        for rpt in ("t.json", "p.json"):  # both name the missing dataset
            assert str(out) in json.loads((tmp_path / rpt).read_text())["error"]

    def test_existing_out_exits_1_and_is_left_unchanged(self, tmp_path):
        out = tmp_path / "d"
        (out / "case_000").mkdir(parents=True)
        (out / "case_000" / "t1.nii").write_bytes(b"not a volume")
        (out / "notes.txt").write_text("kept\n")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        rpt = tmp_path / "fail.json"
        assert run(["phantom", "--out", str(out), "--cases", "1", "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("phantom", "error")
        assert f"{out} already exists" in report["error"]
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in out.rglob("*")) == ["case_000", "notes.txt", "t1.nii"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "fail.json"]


def with_nan_voxel(src, dst):
    """Write `src` (a case directory's volume file) to `dst` with one NaN,
    at the first white matter voxel of the case's ground truth."""
    v = read_nifti(src)
    data = np.array(v.data)
    wm = read_nifti_mask(src.parent / "wm.nii")
    data[np.unravel_index(wm.foreground[0], wm.dims)] = np.nan
    write_nifti(Volume3D(data=data, spacing=v.spacing), dst)


def one_case_dir(dataset, root, case="case_000"):
    """A copy of one case directory of `dataset` as the only case under
    `root`: how `predict` and `evaluate` run a single case."""
    shutil.copytree(dataset / case, root / case)
    return root


def team_report(path, summary: dict):
    """Write `summary` where an `evaluate --team` run report holds it."""
    path.write_text(json.dumps({"command": "evaluate", "status": "ok",
                                "outputs": {"team_summary": summary}}))
    return str(path)


class TestTraining:
    def test_train_wmh_writes_the_lesion_network_trained_in_memory(self, dataset, trained):
        # generated cases hold the float32 values their files store, so the
        # CLI and an in-memory run (the acceptance run's) train one network
        cases = list(phantom.generate_dataset(PhantomConfig(), 4, 3))
        train_cfg = TrainConfig(epochs=6, seed=1)
        wm_net, _ = train(build_trimmed_unet(base_width=4, depth=3),
                          wm_training_cases(cases), train_cfg)
        masks = [segment_white_matter(c.t1, wm_net) for c in cases]
        wmh_net, _ = train(build_resunet(base_width=4, depth=4),
                           wmh_training_cases(cases, masks), train_cfg)
        wm, wmh = trained
        assert checkpoint_bytes(wm_net) == wm.read_bytes()
        assert checkpoint_bytes(wmh_net) == wmh.read_bytes()

    def test_train_wmh_with_a_nan_voxel_exits_1(self, tmp_path, dataset, trained):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        flair = data / "case_001" / "flair.nii"
        with_nan_voxel(flair, flair)
        rpt, out = tmp_path / "fail.json", tmp_path / "wmh.ckpt"
        code = run(["train-wmh", "--data", str(data), "--out", str(out),
                    "--wm-checkpoint", str(trained[0]), "--base-width", "2", "--depth", "2",
                    "--max-iterations", "1", "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("train-wmh", "error")
        assert "case_001 flair volume has non-finite voxels: 1" in report["error"]
        assert not out.exists()

    def test_train_wm_with_a_nan_t1_voxel_in_the_validation_case_exits_1(
            self, tmp_path, dataset, trained):
        # a NaN there once only cut the validation Dice, and train-wm exited 0
        val_id = json.loads(trained[0].with_suffix(".history.json").read_text())[
            "val_case_ids"][0]
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        t1 = data / val_id / "t1.nii"
        with_nan_voxel(t1, t1)
        rpt, out = tmp_path / "fail.json", tmp_path / "wm.ckpt"
        code = run(["train-wm", "--data", str(data), "--out", str(out), "--seed", "1",
                    "--base-width", "2", "--depth", "2", "--max-iterations", "1",
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("train-wm", "error")
        assert f"{val_id} t1 volume has non-finite voxels: 1" in report["error"]
        assert not out.exists()

    def test_history_files_written(self, trained):
        wm, _ = trained
        hist = json.loads(wm.with_suffix(".history.json").read_text())
        assert hist["iterations"] > 0
        assert all(np.isfinite(v) for v in hist["losses"])

    def test_history_independent_of_output_directory(self, tmp_path, dataset):
        common = ["--data", str(dataset), "--base-width", "2", "--depth", "2",
                  "--epochs", "1", "--seed", "3"]
        for name in ("a", "b"):
            assert run(["train-wm", "--out", str(tmp_path / name / "wm.ckpt"),
                        "--report", str(tmp_path / f"{name}.json"), *common]) == 0
        assert (tmp_path / "a" / "wm.history.json").read_bytes() == (
            tmp_path / "b" / "wm.history.json").read_bytes()
        # the flags set, the TrainConfig defaults fill the rest
        config = json.loads((tmp_path / "a.json").read_text())["config"]
        assert {k: config[k] for k in ("epochs", "seed", "batch_size", "max_iterations")} == {
            "epochs": 1, "seed": 3, "batch_size": 4, "max_iterations": None}

    def test_dataset_without_a_manifest_trains(self, tmp_path, dataset):
        # the manifest is a record of how the phantom was made; no command reads it
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        (data / "manifest.json").unlink()
        assert [c.case_id for c in load_dataset(data)] == [f"case_{i:03d}" for i in range(4)]
        assert run(["train-wm", "--data", str(data), "--out", str(tmp_path / "wm.ckpt"),
                    "--base-width", "2", "--depth", "2", "--max-iterations", "1",
                    "--report", str(tmp_path / "t.json")]) == 0


class TestAblation:
    @pytest.fixture(scope="class")
    def ablation(self, dataset, trained):
        """The ablation on the stage-1 masks of the CLI checkpoint, 3 iterations."""
        cases = load_dataset(dataset)
        wm_net = load_checkpoint(trained[0])
        masks = [segment_white_matter(c.t1, wm_net) for c in cases]
        train_cfg = TrainConfig(epochs=1, seed=2, max_iterations=3)
        report, nets = run_ablation(cases, masks, train_cfg, base_width=2, depth=2)
        return cases, masks, train_cfg, report, nets

    def test_scores_confined_pipeline_output(self, ablation):
        # score each variant's validation cases both ways
        cases, masks, _, report, nets = ablation
        tcs = wmh_training_cases(cases, masks)
        raw_differs = False
        for kind, (net, hist) in nets.items():
            dices, f1s, raw, rows = [], [], [], {}
            for case, mask, tc in zip(cases, masks, tcs):
                if case.case_id not in hist.val_case_ids:
                    continue
                scores = evaluate_case(segment_wmh(case.t1, case.flair, mask, net),
                                       case.wmh_truth)
                dices.append(scores.dice)
                f1s.append(scores.lesion_f1)
                rows[case.case_id] = asdict(scores)
                probs = predict_probabilities(net, tc.images)
                unconfined = BinaryMask3D(
                    data=(probs >= 0.5).astype(np.uint8), spacing=case.t1.spacing
                )
                raw.append(dice(unconfined, case.wmh_truth))
            got = report["variants"][kind]
            summary = got["val_summary"]
            assert summary["dice"] == float(np.mean(dices))
            assert got["val_dice_confined_per_epoch"][-1] == summary["dice"]
            assert summary["f1"] == float(np.mean(f1s))
            assert got["iterations"] == hist.iterations
            # all five metrics per case, and their means as summarize_cases
            # takes them (undefined values excluded and counted)
            assert got["val_cases"] == rows
            assert summary["team"] == kind
            for key, field, count in (
                ("dice", "dice", None),
                ("h95", "h95_mm", "h95_undefined_count"),
                ("avd_percent", "avd_percent", "avd_undefined_count"),
                ("recall", "lesion_recall", None),
                ("f1", "lesion_f1", None),
            ):
                defined = [r[field] for r in rows.values() if r[field] is not None]
                if defined:
                    assert summary[key] == float(np.mean(defined))
                else:
                    assert summary[key] is None
                if count:
                    assert summary[count] == len(rows) - len(defined)
            raw_differs |= summary["dice"] != float(np.mean(raw))
            # each value is held once: the summary's, not a copy beside it
            assert set(got) == {"val_cases", "val_summary", "val_dice_per_epoch",
                                "val_dice_confined_per_epoch", "iterations", "beta"}
        assert sorted(nets) == ["plain", "residual"]
        assert set(report) == {"variants", "train", "base_width", "depth"}
        assert raw_differs  # the two scorings are told apart on this data

    def test_residual_variant_is_the_lesion_network(self, ablation):
        # the property that lets one training run serve as both the
        # pipeline's lesion network and the ablation's residual variant
        cases, masks, train_cfg, _, nets = ablation
        direct, direct_hist = train(build_resunet(base_width=2, depth=2),
                                    wmh_training_cases(cases, masks), train_cfg)
        net, hist = nets["residual"]
        assert checkpoint_bytes(net) == checkpoint_bytes(direct)
        assert asdict(hist) == asdict(direct_hist)

    def test_command_writes_the_library_report(self, tmp_path, dataset, trained, ablation):
        out, rpt = tmp_path / "ablation.json", tmp_path / "report.json"
        assert run(["ablate", "--data", str(dataset), "--out", str(out),
                    "--wm-checkpoint", str(trained[0]), "--base-width", "2",
                    "--depth", "2", "--epochs", "1", "--seed", "2",
                    "--max-iterations", "3", "--report", str(rpt)]) == 0
        report = ablation[3]
        assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
        config = json.loads(rpt.read_text())["config"]
        assert config["wm_checkpoint"] == str(trained[0])
        assert (config["base_width"], config["depth"]) == (2, 2)

    def test_command_writes_null_for_a_metric_undefined_on_every_case(
            self, tmp_path, dataset, trained, monkeypatch):
        # An entrant that predicts nothing has no H95 on any case. The
        # report carries null for that mean, never the bare token NaN, so it
        # is valid JSON that strict parsers read.
        cases = load_dataset(dataset)
        val_ids = [c.case_id for c in cases[:2]]

        def predicts_nothing(spec, tcs, cfg):
            net = Network(spec)  # every parameter zero
            {p.name: p for p in net.parameters()}["head.b"].value[...] = -10.0
            return net, TrainHistory(val_case_ids=val_ids)

        monkeypatch.setattr(pipeline, "train", predicts_nothing)
        out = tmp_path / "ablation.json"
        assert run(["ablate", "--data", str(dataset), "--out", str(out),
                    "--wm-checkpoint", str(trained[0]), "--base-width", "2",
                    "--depth", "2", "--epochs", "1", "--max-iterations", "1",
                    "--report", str(tmp_path / "report.json")]) == 0
        text = out.read_text()
        for kind, variant in json.loads(text)["variants"].items():
            assert sorted(variant["val_cases"]) == sorted(val_ids)
            assert all(m["h95_mm"] is None for m in variant["val_cases"].values())
            summary = variant["val_summary"]
            assert summary["h95"] is None
            assert summary["h95_undefined_count"] == len(val_ids)
        assert text.count('"h95": null') == 2

        def reject(token):
            raise ValueError(token)

        json.loads(text, parse_constant=reject)

    def test_command_needs_wm_checkpoint(self, tmp_path, dataset):
        with pytest.raises(SystemExit) as exc:
            dispatch(["ablate", "--data", str(dataset), "--out", str(tmp_path / "a.json")])
        assert exc.value.code == 2


class TestPredictEvaluate:
    def test_predict_writes_masks_and_reports(self, tmp_path, dataset, trained):
        wm, wmh = trained
        out, rpt = tmp_path / "pred", tmp_path / "predict.json"
        assert run(
            ["predict", "--data", str(dataset), "--out", str(out),
             "--wm-checkpoint", str(wm), "--wmh-checkpoint", str(wmh), "--report", str(rpt)]
        ) == 0
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert written == [f"case_{i:03d}/{name}" for i in range(4) for name in ("wm.nii",
                                                                              "wmh.nii")]
        records = json.loads(rpt.read_text())["outputs"]["cases"]
        assert [r["case_id"] for r in records] == [f"case_{i:03d}" for i in range(4)]
        for rep in records:
            assert rep["wmh_volume_mm3"] == rep["wmh_voxels"] * 3.0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred", "predict.json"]

    def test_predict_confines_lesions_to_the_written_white_matter(self, tmp_path, dataset,
                                                                  trained):
        wm, wmh = trained
        data = one_case_dir(dataset, tmp_path / "data")
        rpt = tmp_path / "predict.json"
        assert run(["predict", "--data", str(data), "--out", str(tmp_path / "pred"),
                    "--wm-checkpoint", str(wm), "--wmh-checkpoint", str(wmh),
                    "--report", str(rpt)]) == 0
        out = tmp_path / "pred" / "case_000"
        lesions, white_matter = (read_nifti_mask(out / f"{kind}.nii")
                                 for kind in ("wmh", "wm"))
        assert lesions.voxel_count() > 0
        assert not np.any(lesions.data & ~white_matter.data)
        [report] = json.loads(rpt.read_text())["outputs"]["cases"]
        voxel_mm3 = float(np.prod(white_matter.spacing))
        assert report == {"case_id": "case_000",
                          "wmh_voxels": lesions.voxel_count(),
                          "wmh_volume_mm3": lesions.voxel_count() * voxel_mm3,
                          "wm_voxels": white_matter.voxel_count(),
                          "wm_volume_mm3": white_matter.voxel_count() * voxel_mm3}

    def test_predict_failing_on_a_later_case_leaves_no_output(self, tmp_path, dataset,
                                                             trained):
        # case_000 is predicted and written before case_001's NaN is read
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        flair = data / "case_001" / "flair.nii"
        with_nan_voxel(flair, flair)
        rpt = tmp_path / "fail.json"
        code = run(["predict", "--data", str(data), "--out", str(tmp_path / "pred"),
                    "--wm-checkpoint", str(trained[0]), "--wmh-checkpoint", str(trained[1]),
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert "case_001 flair volume has non-finite voxels: 1" in report["error"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "fail.json"]

    @pytest.mark.parametrize("channel", ["t1", "flair"])
    def test_single_case_mode_nan_voxel_exits_1(self, tmp_path, dataset, trained, channel):
        # a NaN inside the white matter once emptied the lesion mask (FLAIR)
        # or cut the white matter mask (T1), and predict exited 0
        data = one_case_dir(dataset, tmp_path / "data")
        volume = data / "case_000" / f"{channel}.nii"
        with_nan_voxel(volume, volume)
        rpt = tmp_path / "fail.json"
        code = run(["predict", "--data", str(data), "--out", str(tmp_path / "out"),
                    "--wm-checkpoint", str(trained[0]), "--wmh-checkpoint", str(trained[1]),
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert f"case_000 {channel} volume has non-finite voxels: 1" in report["error"]
        assert not (tmp_path / "out" / "case_000" / "wmh.nii").exists()

    @pytest.mark.parametrize("kind", ["grid", "spacing"])
    def test_single_case_mode_t1_flair_mismatch_exits_1(self, tmp_path, dataset, trained,
                                                        kind):
        data = one_case_dir(dataset, tmp_path / "data")
        t1 = read_nifti(data / "case_000" / "t1.nii")
        flair = (Volume3D(data=t1.data[..., :-1], spacing=t1.spacing) if kind == "grid" else
                 Volume3D(data=t1.data, spacing=(*t1.spacing[:2], 2 * t1.spacing[2])))
        write_nifti(flair, data / "case_000" / "flair.nii")
        rpt = tmp_path / "fail.json"
        code = run(["predict", "--data", str(data), "--out", str(tmp_path / "out"),
                    "--wm-checkpoint", str(trained[0]), "--wmh-checkpoint", str(trained[1]),
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert f"t1/flair {kind} mismatch" in report["error"]
        assert not (tmp_path / "out" / "case_000" / "wmh.nii").exists()

    @staticmethod
    def refused_predict(root, dataset, out):
        """Run predict from a copy of `dataset` at `root/data` into `root/out`
        beside an existing `root/pred`, with checkpoints that do not exist,
        and check that it exits 1 before it reads them and changes nothing."""
        data = root / "data"
        shutil.copytree(dataset, data)
        (root / "pred" / "case_000").mkdir(parents=True)
        (root / "pred" / "notes.txt").write_text("kept\n")
        before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        rpt, missing = root / "fail.json", str(root / "missing.ckpt")
        code = run(["predict", "--data", str(data), "--out", f"{root}/{out}",
                    "--wm-checkpoint", missing, "--wmh-checkpoint", missing,
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert "already exists" in report["error"]
        rpt.unlink()
        assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before
        assert sorted(p.name for p in root.iterdir()) == ["data", "pred"]

    def test_predict_refuses_out_equal_to_data(self, tmp_path, dataset):
        # a phantom case directory holds its truth as wm.nii and wmh.nii,
        # the names predict writes; --data exists, so the general rule refuses it
        self.refused_predict(tmp_path, dataset, "./data/")

    def test_predict_into_an_existing_out_exits_1_and_changes_nothing(self, tmp_path,
                                                                      dataset):
        self.refused_predict(tmp_path, dataset, "pred")

    def test_predict_needs_data_or_pair(self, tmp_path):
        # --data is required, and a --t1/--flair pair is no longer an input:
        # one case is a one-case directory
        ckpts = ["--out", str(tmp_path / "out"), "--wm-checkpoint", "a",
                 "--wmh-checkpoint", "b"]
        for pair in ([], ["--t1", "t1.nii", "--flair", "flair.nii", "--case-id", "X"]):
            with pytest.raises(SystemExit) as exc:
                dispatch(["predict", *pair, *ckpts])
            assert exc.value.code == 2

    def test_predict_data_without_cases_exits_1(self, tmp_path):
        (tmp_path / "data" / "not_a_case").mkdir(parents=True)
        rpt = tmp_path / "fail.json"
        missing = str(tmp_path / "missing.ckpt")
        code = run(["predict", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out"),
                    "--wm-checkpoint", missing, "--wmh-checkpoint", missing,
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert "t1.nii" in report["error"]

    def test_evaluate_needs_both_dirs(self, tmp_path, dataset):
        # `--pred --gt` once named two files; no abbreviation of the
        # directory flags parses either
        gt = str(dataset / "case_000" / "wmh.nii")
        for argv in (["--gt-dir", str(dataset)], ["--pred", gt, "--gt", gt]):
            with pytest.raises(SystemExit) as exc:
                dispatch(["evaluate", *argv, "--report", str(tmp_path / "fail.json")])
            assert exc.value.code == 2

    def test_evaluate_refuses_case_sets_that_differ(self, tmp_path, dataset):
        # one prediction against a four-case truth, and a stray prediction
        for case in ("case_000", "extra"):
            (tmp_path / "pred" / case).mkdir(parents=True)
            shutil.copy(dataset / "case_000" / "wmh.nii", tmp_path / "pred" / case)
        rpt = tmp_path / "fail.json"
        code = run(["evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(dataset),
                    "--team", "us", "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("evaluate", "error")
        assert report["error"] == (
            "prediction and truth case sets differ: no truth for ['extra'], "
            "no prediction for ['case_001', 'case_002', 'case_003']")

    def test_evaluate_identical_masks(self, tmp_path, dataset, capsys):
        data = one_case_dir(dataset, tmp_path / "data")
        assert run(["evaluate", "--pred-dir", str(data), "--gt-dir", str(data)]) == 0
        report = json.loads(capsys.readouterr().out)
        metrics = report["outputs"]["cases"]["case_000"]
        assert metrics["dice"] == 1.0
        assert metrics["h95_mm"] == 0.0

    def test_evaluate_batch_with_csv(self, tmp_path, dataset, trained, capsys):
        wm, wmh = trained
        pred = tmp_path / "pred"
        assert run(
            ["predict", "--data", str(dataset), "--out", str(pred),
             "--wm-checkpoint", str(wm), "--wmh-checkpoint", str(wmh)]
        ) == 0
        capsys.readouterr()
        csv_path = tmp_path / "cases.csv"
        assert run(
            ["evaluate", "--pred-dir", str(pred), "--gt-dir", str(dataset),
             "--out-csv", str(csv_path), "--team", "us"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["outputs"]["cases"]) == 4
        assert "team_summary" in report["outputs"]
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("case_id,dice,h95_mm,avd_percent")


class TestRank:
    def test_rank_table2_best_h95(self, tmp_path, capsys):
        reports = [team_report(tmp_path / f"{s.team}.json", asdict(s)) for s in TABLE2]
        out_csv = tmp_path / "ranks.csv"
        assert run(["rank", "--summaries", *reports, "--out-csv", str(out_csv)]) == 0
        with open(out_csv, newline="") as f:
            row = next(r for r in csv.DictReader(f) if r["team"] == "nih_cidi_2")
        assert float(row["h95_rank"]) == 0.0
        assert float(row["avd_rank"]) == 0.0

    def test_rank_reads_the_reports_evaluate_team_writes(self, tmp_path, dataset, trained):
        # team A submits the pipeline's predictions, team B the truth masks
        wm, wmh = trained
        assert run(["predict", "--data", str(dataset), "--out", str(tmp_path / "pred"),
                    "--wm-checkpoint", str(wm), "--wmh-checkpoint", str(wmh),
                    "--report", str(tmp_path / "predict.json")]) == 0
        teams = {"A": tmp_path / "pred", "B": dataset}
        for team, pred in teams.items():
            assert run(["evaluate", "--pred-dir", str(pred), "--gt-dir", str(dataset),
                        "--team", team, "--report", str(tmp_path / f"{team}.json")]) == 0
        rpt, ranks = tmp_path / "rank.json", tmp_path / "ranks.csv"
        assert run(["rank", "--summaries", str(tmp_path / "A.json"), str(tmp_path / "B.json"),
                    "--out-csv", str(ranks), "--report", str(rpt)]) == 0
        ids = [f"case_{i:03d}" for i in range(4)]
        want = rank_teams([
            summarize_cases(team, [evaluate_case(read_nifti_mask(pred / cid / "wmh.nii"),
                                                 read_nifti_mask(dataset / cid / "wmh.nii"))
                                   for cid in ids])
            for team, pred in teams.items()])
        assert json.loads(rpt.read_text())["outputs"]["overall"] == dict(
            zip(want.teams, want.overall))
        with open(ranks, newline="") as f:
            assert [(r["team"], float(r["overall_rank"])) for r in csv.DictReader(f)] == list(
                zip(want.teams, want.overall))
        assert want.overall[0] > want.overall[1] == 0.0  # the truth ranks first

    def test_rank_missing_file_exits_1(self, tmp_path):
        assert run(["rank", "--summaries", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("value, message", [
        (None, "team 'a' has no finite h95: None"),  # undefined on every case
        ("n/a", "a.json: team 'a': h95 'n/a' is not a number or null"),
    ], ids=["empty", "unparsable"])
    def test_rank_cell_without_a_value_exits_1_naming_team_and_metric(
            self, tmp_path, value, message):
        a, b = (asdict(s) for s in TABLE2[:2])
        a.update(team="a", h95=value)
        rpt = tmp_path / "fail.json"
        assert run(["rank", "--summaries", team_report(tmp_path / "a.json", a),
                    team_report(tmp_path / "b.json", b), "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("rank", "error")
        assert message in report["error"]

    @pytest.mark.parametrize("text", [
        json.dumps({"command": "evaluate", "status": "error", "error": "boom"}),
        json.dumps({"command": "phantom", "status": "ok", "outputs": {"case_ids": []}}),
        json.dumps({"command": "evaluate", "status": "ok", "outputs": {"cases": {}}}),
        "team,dice,h95,avd_percent,recall,f1\na,0.7,9.0,20.0,0.8,0.7\n",
    ], ids=["error-report", "phantom-report", "evaluate-without-team", "team-csv"])
    def test_rank_input_without_a_team_summary_exits_1_naming_the_file(self, tmp_path, text):
        bad, rpt = tmp_path / "bad.json", tmp_path / "fail.json"
        bad.write_text(text)
        good = team_report(tmp_path / "good.json", asdict(TABLE2[0]))
        assert run(["rank", "--summaries", good, str(bad), "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("rank", "error")
        assert report["error"].startswith(str(bad))

    def test_rank_summary_without_a_key_exits_1_naming_team_and_key(self, tmp_path):
        a = asdict(TABLE2[0])
        del a["recall"]
        rpt = tmp_path / "fail.json"
        assert run(["rank", "--summaries", team_report(tmp_path / "a.json", a),
                    team_report(tmp_path / "b.json", asdict(TABLE2[1])),
                    "--report", str(rpt)]) == 1
        assert json.loads(rpt.read_text())["error"] == (
            f"{tmp_path / 'a.json'}: team 'sysu_media' summary has no 'recall'")


class TestRunReports:
    KEYS = {"schema_version", "version", "command", "config", "outputs",
            "runtime_seconds", "peak_rss_mb", "status"}

    def test_every_command_writes_the_same_report_shape(self, tmp_path, dataset):
        flags = {
            "phantom": ["--out", str(tmp_path / "d"), "--cases", "1"],
            "train-wm": ["--data", str(dataset), "--out", str(tmp_path / "wm.ckpt"),
                         "--base-width", "2", "--depth", "2", "--max-iterations", "1"],
            "evaluate": ["--pred-dir", str(dataset), "--gt-dir", str(dataset),
                         "--team", "truth"],
            "rank": ["--summaries", str(tmp_path / "evaluate.json"),
                     team_report(tmp_path / "other.json", asdict(TABLE2[0]))],
        }
        for command, extra in flags.items():
            argv = [command, *extra, "--report", str(tmp_path / f"{command}.json")]
            assert run(argv) == 0
            report = json.loads((tmp_path / f"{command}.json").read_text())
            assert set(report) == self.KEYS
            assert (report["command"], report["status"]) == (command, "ok")
            assert report["schema_version"] == 4
            assert report["peak_rss_mb"] > 0
            # the config is the parsed flags, defaults included
            parsed = vars(build_parser().parse_args(argv))
            del parsed["func"], parsed["command"]
            assert report["config"] == parsed


class TestDocs:
    def test_readme_quickstart_commands_parse(self):
        """Every `wmhseg ...` line of the README's command-line block parses,
        so the README names no removed flag, and the block shows every
        sub-command."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("wmhseg ")]
        parser = build_parser()
        for line in commands:
            parser.parse_args(shlex.split(line)[1:])
        sub = next(a for a in parser._actions if a.dest == "command")
        assert {shlex.split(line)[1] for line in commands} == set(sub.choices)


class TestErrors:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["train-wm"])  # missing required flags
        assert exc.value.code == 2

    def test_runtime_error_exit_1_with_report(self, tmp_path):
        rpt = tmp_path / "fail.json"
        code = run(["train-wm", "--data", str(tmp_path / "missing"),
                    "--out", str(tmp_path / "x.ckpt"), "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert report["status"] == "error"
        assert report["command"] == "train-wm"

    def test_nonpositive_batch_size_exits_1_before_training(self, tmp_path, dataset):
        rpt, out = tmp_path / "fail.json", tmp_path / "x.ckpt"
        code = run(["train-wm", "--data", str(dataset), "--out", str(out),
                    "--batch-size", "-2", "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("train-wm", "error")
        assert "batch size" in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-wm", "train-wmh", "ablate"])
    @pytest.mark.parametrize("flag", ["--base-width", "--depth"])
    def test_zero_network_size_exits_1(self, tmp_path, dataset, trained, command, flag,
                                       monkeypatch):
        """The size is checked before any stage-1 mask is computed."""
        stage1_calls = []
        monkeypatch.setattr(cli, "segment_white_matter", lambda *a: stage1_calls.append(a))
        rpt, out = tmp_path / "fail.json", tmp_path / "out"
        stage1 = [] if command == "train-wm" else ["--wm-checkpoint", str(trained[0])]
        code = run([command, "--data", str(dataset), "--out", str(out), *stage1,
                    flag, "0", "--max-iterations", "1", "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == (command, "error")
        assert "invalid network sizes" in report["error"]
        assert not out.exists()
        assert stage1_calls == []

    @pytest.mark.parametrize("flags, message", [
        (["--dims", "0", "64", "8"], "dims"),
        (["--cases", "-1"], "number of cases"),
        (["--cases", "0"], "number of cases must be >= 1, got 0"),
    ])
    def test_bad_phantom_geometry_exits_1(self, tmp_path, flags, message):
        rpt, out = tmp_path / "fail.json", tmp_path / "phantom"
        code = run(["phantom", "--out", str(out), "--report", str(rpt), *flags])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("phantom", "error")
        assert message in report["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command, seed, message", [
        ("phantom", "-5", "dataset seed must be >= 0, got -5"),
        ("train-wm", "-1", "training seed must be >= 0, got -1"),
    ])
    def test_negative_seed_exits_1_naming_it(self, tmp_path, dataset, command, seed,
                                             message):
        rpt, out = tmp_path / "fail.json", tmp_path / "out"
        data = [] if command == "phantom" else ["--data", str(dataset)]
        code = run([command, *data, "--out", str(out), "--seed", seed, "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == (command, "error")
        assert message in report["error"]
        assert not out.exists()

    def test_evaluate_probability_map_exits_1_with_report(self, tmp_path, dataset):
        gt = one_case_dir(dataset, tmp_path / "gt")
        truth = read_nifti_mask(gt / "case_000" / "wmh.nii")
        (tmp_path / "pred" / "case_000").mkdir(parents=True)
        write_nifti(Volume3D(data=0.7 * truth.data, spacing=truth.spacing),
                    tmp_path / "pred" / "case_000" / "wmh.nii")
        rpt = tmp_path / "fail.json"
        code = run(["evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(gt),
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("evaluate", "error")

    def test_predict_with_a_checkpoint_cut_short_exits_1_naming_it(self, tmp_path, dataset,
                                                                     trained):
        # 200 bytes end inside the JSON index, which once failed with the bare
        # JSON decoder message
        cut = tmp_path / "wm.ckpt"
        cut.write_bytes(trained[0].read_bytes()[:200])
        rpt = tmp_path / "fail.json"
        assert run(["predict", "--data", str(dataset), "--out", str(tmp_path / "pred"),
                    "--wm-checkpoint", str(cut), "--wmh-checkpoint", str(trained[1]),
                    "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert report["error"].startswith(f"{cut}: malformed checkpoint index or spec: ")
        assert not (tmp_path / "pred").exists()


def faulty_root(dataset, root, fault, needed):
    """`root` as a dataset with `fault`, and the text its error must hold:
    `case_001` without the file `needed`, no case directory at all, or a
    stray empty sub-directory beside the four cases."""
    if fault == "empty-root":
        root.mkdir()
        return str(root)
    shutil.copytree(dataset, root)
    if fault == "missing-file":
        (root / "case_001" / needed).unlink()
        return f"case_001/{needed}"
    (root / "stray").mkdir()
    return "stray/"


def matrix_argv(command, root, out, dataset, trained):
    """The flags of `command` reading the cases under `root`: the truth side
    for `evaluate`, whose predictions are the `dataset` masks."""
    return {
        "train-wm": ["--data", str(root), "--out", str(out), "--base-width", "2",
                     "--depth", "2", "--max-iterations", "1"],
        "predict": ["--data", str(root), "--out", str(out),
                    "--wm-checkpoint", str(trained[0]), "--wmh-checkpoint", str(trained[1])],
        "evaluate": ["--pred-dir", str(dataset), "--gt-dir", str(root), "--out-csv", str(out)],
    }[command]


class TestFaultMatrix:
    """Every command that reads case directories lists them by one rule
    (`phantom.case_dirs`), so each fault of the layout exits 1 with an error
    naming the file or the root, before any case is read or written. A file
    that cannot be read exits 1 naming it, and leaves no output."""

    NEEDED = {"train-wm": "wm.nii", "predict": "flair.nii", "evaluate": "wmh.nii"}

    @pytest.mark.parametrize("fault", ["missing-file", "empty-root", "stray-directory"])
    @pytest.mark.parametrize("command", ["train-wm", "predict", "evaluate"])
    def test_case_directory_fault_exits_1_naming_it(self, tmp_path, dataset, trained, capsys,
                                                    command, fault):
        root = tmp_path / "data"
        named = faulty_root(dataset, root, fault, self.NEEDED[command])
        out = tmp_path / "out"
        rpt = tmp_path / "fail.json"
        capsys.readouterr()
        assert run([command, *matrix_argv(command, root, out, dataset, trained),
                    "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == (command, "error")
        assert named in report["error"]
        if fault == "stray-directory":
            assert report["error"].startswith("stray/") and ".nii is missing" in report["error"]
        assert '"status": "ok"' not in capsys.readouterr().out
        assert not out.exists()

    # predict reads no mask, so the mask row runs for the commands that do;
    # 3 is no label of the WMH challenge (1 lesion, 2 other pathology)
    @pytest.mark.parametrize("command, fault", [
        ("train-wm", "truncated"), ("predict", "truncated"), ("evaluate", "truncated"),
        ("train-wm", "mask-value-3"), ("evaluate", "mask-value-3"),
    ])
    def test_unreadable_file_exits_1_naming_it(self, tmp_path, dataset, trained, capsys,
                                               command, fault):
        root = tmp_path / "data"
        shutil.copytree(dataset, root)
        bad = root / "case_001" / self.NEEDED[command]
        if fault == "truncated":  # the header and 648 bytes of the payload
            bad.write_bytes(bad.read_bytes()[:1000])
            message = "payload has 648 bytes, expected "
        else:
            mask = read_nifti_mask(bad)
            data = mask.data.copy()
            data[0, 0, 0] = 3
            write_nifti(Volume3D(data=data, spacing=mask.spacing), bad)
            message = "mask values must be exactly 0 or 1"
        rpt = tmp_path / "fail.json"
        capsys.readouterr()
        assert run([command, *matrix_argv(command, root, tmp_path / "out", dataset, trained),
                    "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == (command, "error")
        assert report["error"].startswith(f"{bad}: {message}")
        assert '"status": "ok"' not in capsys.readouterr().out
        # predict wrote case_000 before it read case_001, into a sibling now removed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "fail.json"]

    @pytest.mark.parametrize("wm, wmh, named, message", [
        (1, 0, 1, "white matter model expects 1 input channel, has 2"),
        (0, 0, 0, "lesion model expects 2 input channels, has 1"),
    ], ids=["swapped", "white-matter-as-lesion"])
    def test_wrong_checkpoint_exits_1_naming_it_before_any_case_is_read(
            self, tmp_path, dataset, trained, monkeypatch, wm, wmh, named, message):
        reads = []
        monkeypatch.setattr(cli, "read_images", lambda d: reads.append(d))
        rpt = tmp_path / "fail.json"
        assert run(["predict", "--data", str(dataset), "--out", str(tmp_path / "out"),
                    "--wm-checkpoint", str(trained[wm]), "--wmh-checkpoint", str(trained[wmh]),
                    "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert report["error"] == f"{trained[named]}: {message}"
        assert reads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fail.json"]
