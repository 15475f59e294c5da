import csv
import hashlib
import json
import shutil
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from wmhseg import cli, phantom, pipeline
from wmhseg.acceptance import checkpoint_bytes
from wmhseg.architectures import Network, build_resunet, build_trimmed_unet
from wmhseg.checkpoint import load_checkpoint
from wmhseg.cli import build_parser, dispatch
from wmhseg.metrics import dice, evaluate_case
from wmhseg.phantom import load_dataset
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
    # order, and of manifest.json
    PINNED_FILES = {
        "t1.nii": "ce16275b01d90c5082dc4bd7dcb328325594ec672a1217f7613ec985e1c360d0",
        "flair.nii": "ad9f404804a7c5ad67afeaa6d9347292ae992ee9884745f37f8faa73425383de",
        "wm.nii": "32aaf63f60b78796d84728fa72ba127b0e3c3152b97590dc6ff59bd470cee662",
        "wmh.nii": "e071f1d939eb8378b5f66479b340119a73d5f34a449507c6638285312731ea9c",
        "confounder.nii": "ca9875007fa35a81ceea36fcd0a8d8a7cb54a6e72f00dfb5a9cfa4086ac907e9",
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
        def peak(n_cases):
            tracemalloc.start()
            try:
                assert run(["phantom", "--out", str(tmp_path / f"d{n_cases}"),
                            "--cases", str(n_cases), "--seed", "5",
                            "--report", str(tmp_path / f"r{n_cases}.json")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: first-call costs are not a case's
        one, eight = peak(1), peak(8)
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
        assert (out / "case_000" / "t1.nii").is_file()  # written before the failure
        assert not (out / "manifest.json").exists()
        assert run(["train-wm", "--data", str(out), "--out", str(tmp_path / "wm.ckpt"),
                    "--report", str(tmp_path / "t.json")]) == 1
        assert not (tmp_path / "wm.ckpt").exists()


def with_nan_voxel(src, dst):
    """Write `src` (a case directory's volume file) to `dst` with one NaN,
    at the first white matter voxel of the case's ground truth."""
    v = read_nifti(src)
    data = np.array(v.data)
    wm = read_nifti_mask(src.parent / "wm.nii")
    data[np.unravel_index(wm.foreground[0], wm.dims)] = np.nan
    write_nifti(Volume3D(data=data, spacing=v.spacing), dst)


class TestTraining:
    def test_train_wmh_writes_the_lesion_network_trained_in_memory(self, dataset, trained):
        # generated cases hold the float32 values their files store, so the
        # CLI and an in-memory run (the acceptance run's) train one network
        _, cfg = load_dataset(dataset)
        cases = list(phantom.generate_dataset(cfg, 4, 3))
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
        assert "flair volume has non-finite voxels: 1" in report["error"]
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

    def test_manifest_with_phantom_seed_fails(self, tmp_path, dataset):
        # manifests written while PhantomConfig had a `seed` field carry it
        old = tmp_path / "old"
        shutil.copytree(dataset, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["config"]["seed"] = 3
        (old / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TypeError, match="seed"):
            load_dataset(old)
        assert run(["train-wm", "--data", str(old), "--out",
                    str(tmp_path / "wm.ckpt")]) == 1


class TestAblation:
    @pytest.fixture(scope="class")
    def ablation(self, dataset, trained):
        """The ablation on the stage-1 masks of the CLI checkpoint, 3 iterations."""
        cases, _ = load_dataset(dataset)
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
        cases, _ = load_dataset(dataset)
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
        out = tmp_path / "pred"
        assert run(
            ["predict", "--data", str(dataset), "--out", str(out),
             "--wm-checkpoint", str(wm), "--wmh-checkpoint", str(wmh)]
        ) == 0
        case_dirs = sorted(p for p in out.iterdir() if p.is_dir())
        assert len(case_dirs) == 4
        for d in case_dirs:
            assert (d / "wmh.nii").exists()
            assert (d / "wm.nii").exists()
            rep = json.loads((d / "report.json").read_text())
            assert rep["wmh_volume_mm3"] == rep["wmh_voxels"] * 3.0

    def test_single_case_mode_matches_directory_mode(self, tmp_path, dataset, trained):
        wm, wmh = trained
        ckpts = ["--wm-checkpoint", str(wm), "--wmh-checkpoint", str(wmh)]
        case = dataset / "case_000"
        shutil.copytree(case, tmp_path / "data" / "case_000")
        assert run(["predict", "--data", str(tmp_path / "data"),
                    "--out", str(tmp_path / "dir"), *ckpts]) == 0
        assert run(["predict", "--t1", str(case / "t1.nii"), "--flair", str(case / "flair.nii"),
                    "--case-id", "X", "--out", str(tmp_path / "single"), *ckpts]) == 0
        for kind in ("wmh", "wm"):
            assert (tmp_path / "single" / "X" / f"{kind}.nii").read_bytes() == (
                tmp_path / "dir" / "case_000" / f"{kind}.nii").read_bytes()
        assert (tmp_path / "single" / "X" / "report.json").exists()

    def test_predict_confines_lesions_to_the_written_white_matter(self, tmp_path, dataset,
                                                                  trained):
        wm, wmh = trained
        case = dataset / "case_000"
        assert run(["predict", "--t1", str(case / "t1.nii"), "--flair", str(case / "flair.nii"),
                    "--out", str(tmp_path), "--wm-checkpoint", str(wm),
                    "--wmh-checkpoint", str(wmh)]) == 0
        lesions, white_matter = (read_nifti_mask(tmp_path / "case" / f"{kind}.nii")
                                 for kind in ("wmh", "wm"))
        assert lesions.voxel_count() > 0
        assert not np.any(lesions.data & ~white_matter.data)
        report = json.loads((tmp_path / "case" / "report.json").read_text())
        voxel_mm3 = float(np.prod(white_matter.spacing))
        assert report == {"case_id": "case",
                          "wmh_voxels": lesions.voxel_count(),
                          "wmh_volume_mm3": lesions.voxel_count() * voxel_mm3,
                          "wm_voxels": white_matter.voxel_count(),
                          "wm_volume_mm3": white_matter.voxel_count() * voxel_mm3}

    @pytest.mark.parametrize("channel", ["t1", "flair"])
    def test_single_case_mode_nan_voxel_exits_1(self, tmp_path, dataset, trained, channel):
        # a NaN inside the white matter once emptied the lesion mask (FLAIR)
        # or cut the white matter mask (T1), and predict exited 0
        case = dataset / "case_000"
        paths = {"t1": case / "t1.nii", "flair": case / "flair.nii"}
        paths[channel] = tmp_path / f"{channel}.nii"
        with_nan_voxel(case / f"{channel}.nii", paths[channel])
        rpt = tmp_path / "fail.json"
        code = run(["predict", "--t1", str(paths["t1"]), "--flair", str(paths["flair"]),
                    "--out", str(tmp_path / "out"), "--wm-checkpoint", str(trained[0]),
                    "--wmh-checkpoint", str(trained[1]), "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert f"{channel} volume has non-finite voxels: 1" in report["error"]
        assert not (tmp_path / "out" / "case" / "wmh.nii").exists()

    @pytest.mark.parametrize("kind", ["grid", "spacing"])
    def test_single_case_mode_t1_flair_mismatch_exits_1(self, tmp_path, dataset, trained,
                                                        kind):
        t1 = read_nifti(dataset / "case_000" / "t1.nii")
        flair = (Volume3D(data=t1.data[..., :-1], spacing=t1.spacing) if kind == "grid" else
                 Volume3D(data=t1.data, spacing=(*t1.spacing[:2], 2 * t1.spacing[2])))
        write_nifti(flair, tmp_path / "flair.nii")
        rpt = tmp_path / "fail.json"
        code = run(["predict", "--t1", str(dataset / "case_000" / "t1.nii"),
                    "--flair", str(tmp_path / "flair.nii"), "--out", str(tmp_path / "out"),
                    "--wm-checkpoint", str(trained[0]), "--wmh-checkpoint", str(trained[1]),
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert f"t1/flair {kind} mismatch" in report["error"]
        assert not (tmp_path / "out" / "case" / "wmh.nii").exists()

    def test_single_case_mode_needs_flair(self, tmp_path, dataset):
        # the pair is checked before either checkpoint is read
        rpt = tmp_path / "fail.json"
        missing = str(tmp_path / "missing.ckpt")
        code = run(["predict", "--t1", str(dataset / "case_000" / "t1.nii"),
                    "--out", str(tmp_path / "single"), "--wm-checkpoint", missing,
                    "--wmh-checkpoint", missing, "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert "--t1" in report["error"] and "--flair" in report["error"]

    def test_predict_needs_data_or_pair(self, tmp_path):
        rpt = tmp_path / "fail.json"
        missing = str(tmp_path / "missing.ckpt")
        code = run(["predict", "--out", str(tmp_path / "out"), "--wm-checkpoint", missing,
                    "--wmh-checkpoint", missing, "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("predict", "error")
        assert all(flag in report["error"] for flag in ("--data", "--t1", "--flair"))

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
        rpt = tmp_path / "fail.json"
        code = run(["evaluate", "--gt-dir", str(dataset), "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("evaluate", "error")
        assert "--pred-dir" in report["error"] and "--gt-dir" in report["error"]

    def test_evaluate_refuses_case_sets_that_differ(self, tmp_path, dataset):
        # one prediction against a four-case truth, and a stray prediction
        (tmp_path / "pred" / "case_000").mkdir(parents=True)
        shutil.copy(dataset / "case_000" / "wmh.nii", tmp_path / "pred" / "case_000")
        (tmp_path / "pred" / "extra").mkdir()
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
        gt = dataset / "case_000" / "wmh.nii"
        assert run(["evaluate", "--pred", str(gt), "--gt", str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        metrics = report["outputs"]["cases"]["wmh"]
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
    TABLE2_CSV = (
        "team,dice,h95,avd_percent,recall,f1\n"
        "sysu_media,0.74,11.0,26.2,0.87,0.72\n"
        "nih_cidi_2,0.70,9.7,21.9,0.79,0.68\n"
        "cain,0.74,14.1,28.4,0.82,0.66\n"
        "nic-vicorob,0.71,13.5,56.3,0.81,0.62\n"
        "nlp_logix,0.68,13.0,27.9,0.66,0.73\n"
    )

    def test_rank_table2_best_h95(self, tmp_path, capsys):
        path = tmp_path / "teams.csv"
        path.write_text(self.TABLE2_CSV)
        out_csv = tmp_path / "ranks.csv"
        assert run(["rank", "--summaries", str(path), "--out-csv", str(out_csv)]) == 0
        with open(out_csv, newline="") as f:
            row = next(r for r in csv.DictReader(f) if r["team"] == "nih_cidi_2")
        assert float(row["h95_rank"]) == 0.0
        assert float(row["avd_rank"]) == 0.0

    def test_rank_missing_file_exits_1(self, tmp_path):
        assert run(["rank", "--summaries", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("cell, message", [
        ("", "team 'a' has no finite h95: None"),  # undefined, as the case CSV writes it
        ("n/a", "team 'a': h95 'n/a' is not a number"),
    ], ids=["empty", "unparsable"])
    def test_rank_cell_without_a_value_exits_1_naming_team_and_metric(
            self, tmp_path, cell, message):
        path, rpt = tmp_path / "teams.csv", tmp_path / "fail.json"
        path.write_text("team,dice,h95,avd_percent,recall,f1\n"
                        f"a,0.7,{cell},20.0,0.8,0.7\n"
                        "b,0.6,9.0,25.0,0.7,0.6\n")
        assert run(["rank", "--summaries", str(path), "--report", str(rpt)]) == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("rank", "error")
        assert message in report["error"]


class TestRunReports:
    KEYS = {"schema_version", "version", "command", "config", "outputs",
            "runtime_seconds", "peak_rss_mb", "status"}

    def test_every_command_writes_the_same_report_shape(self, tmp_path, dataset):
        gt = dataset / "case_000" / "wmh.nii"
        teams = tmp_path / "teams.csv"
        teams.write_text(TestRank.TABLE2_CSV)
        flags = {
            "phantom": ["--out", str(tmp_path / "d"), "--cases", "1"],
            "train-wm": ["--data", str(dataset), "--out", str(tmp_path / "wm.ckpt"),
                         "--base-width", "2", "--depth", "2", "--max-iterations", "1"],
            "evaluate": ["--pred", str(gt), "--gt", str(gt)],
            "rank": ["--summaries", str(teams)],
        }
        for command, extra in flags.items():
            argv = [command, *extra, "--report", str(tmp_path / f"{command}.json")]
            assert run(argv) == 0
            report = json.loads((tmp_path / f"{command}.json").read_text())
            assert set(report) == self.KEYS
            assert (report["command"], report["status"]) == (command, "ok")
            assert report["peak_rss_mb"] > 0
            # the config is the parsed flags, defaults included
            parsed = vars(build_parser().parse_args(argv))
            del parsed["func"], parsed["command"]
            assert report["config"] == parsed


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
        (["--confounders", "-1"], "confounder count"),
        (["--dims", "0", "64", "8"], "dims"),
        (["--cases", "-1"], "number of cases"),
        (["--noise-std", "nan"], "noise std must be finite and >= 0, got nan"),
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
        gt = dataset / "case_000" / "wmh.nii"
        truth = read_nifti_mask(gt)
        prob = tmp_path / "prob.nii"
        write_nifti(Volume3D(data=0.7 * truth.data, spacing=truth.spacing), prob)
        rpt = tmp_path / "fail.json"
        code = run(["evaluate", "--pred", str(prob), "--gt", str(gt),
                    "--report", str(rpt)])
        assert code == 1
        report = json.loads(rpt.read_text())
        assert (report["command"], report["status"]) == ("evaluate", "error")
