"""Command-line entry point: phantom generation, two-stage training,
prediction, evaluation, ranking, and the plain-vs-residual ablation
harness.

The parser holds every flag and its default. Each sub-command returns
its outputs; `dispatch` times it and writes the machine-readable JSON
run report (to --report, else stdout), whose `config` echoes the parsed
flags. Progress is logged to stderr. Exit codes: 0 success, 2 usage
errors, 1 runtime failures (the failing stage is named, and the error
report goes to --report only).
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import __version__
from .architectures import Network, build_resunet, build_trimmed_unet
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import (
    TeamSummary,
    evaluate_case,
    rank_teams,
    summarize_cases,
    write_case_csv,
    write_rank_csv,
)
from .phantom import (PhantomConfig, case_dirs, generate_dataset, load_dataset, new_directory,
                      read_images, save_dataset)
from .pipeline import (
    PipelineError,
    check_model,
    run_ablation,
    segment_white_matter,
    segment_wmh,
    wm_training_cases,
    wmh_training_cases,
)
from .training import TrainConfig, TrainingCase, train
from .volume_io import BinaryMask3D, read_nifti_mask, write_nifti

log = logging.getLogger("wmhseg")

REPORT_SCHEMA_VERSION = 4


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
        log.info("run report written to %s", path)
    else:
        print(text)


def _add_train_flags(p: argparse.ArgumentParser, base_width: int, depth: int) -> None:
    """TrainConfig's fields at its defaults, and the command's network size."""
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--batch-size", dest="batch_size", type=int,
                   default=TrainConfig.batch_size)
    p.add_argument("--max-iterations", dest="max_iterations", type=int,
                   default=TrainConfig.max_iterations)
    p.add_argument("--base-width", dest="base_width", type=int, default=base_width)
    p.add_argument("--depth", type=int, default=depth)


# ---------------------------------------------------------------------------
# sub-commands


def cmd_phantom(args) -> dict:
    if args.cases < 1:  # a dataset without a case is one every reading command rejects
        raise ValueError(f"number of cases must be >= 1, got {args.cases}")
    cfg = PhantomConfig(dims=tuple(args.dims))
    log.info("generating %d phantom cases into %s", args.cases, args.out)
    # streamed: one generated case is held at a time
    case_ids = save_dataset(generate_dataset(cfg, args.cases, args.seed), cfg, args.out)
    return {"dataset_dir": args.out, "case_ids": case_ids}


def _load_model(path: str, stage: str) -> Network:
    """The network of checkpoint `path`, checked by `check_model` as it is
    loaded, so that a swapped checkpoint fails naming its file before any
    case is read."""
    try:
        return check_model(stage, load_checkpoint(path))
    except PipelineError as e:
        raise PipelineError(f"{path}: {e}") from None


def _stage1_masks(args) -> tuple[list, list[BinaryMask3D]]:
    """The cases of --data and the white matter mask that --wm-checkpoint
    segments in each. The checkpoint is loaded and checked before any case
    is read."""
    wm_net = _load_model(args.wm_checkpoint, "white matter")
    cases = load_dataset(args.data)
    log.info("computing stage-1 white matter masks for normalization")
    return cases, [segment_white_matter(c.t1, wm_net) for c in cases]


def _training_cases(args, stage: str) -> list[TrainingCase]:
    """The stage's training cases from --data. The loaded cases, the
    stage-1 network and its masks are dropped on return, so that
    training does not hold them."""
    if stage == "wm":
        return wm_training_cases(load_dataset(args.data))
    return wmh_training_cases(*_stage1_masks(args))


def _train_stage(args) -> dict:
    """train-wm and train-wmh: the stage is named by the sub-command."""
    stage = args.command.removeprefix("train-")
    build = build_trimmed_unet if stage == "wm" else build_resunet
    spec = build(base_width=args.base_width, depth=args.depth)
    train_cfg = TrainConfig(epochs=args.epochs, seed=args.seed,
                            batch_size=args.batch_size, max_iterations=args.max_iterations)
    tcs = _training_cases(args, stage)
    log.info(
        "training %s: %d cases, width %d, depth %d", stage, len(tcs),
        spec.base_width, spec.depth,
    )
    net, history = train(spec, tcs, train_cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, net)
    history_path = out.with_suffix(".history.json")
    history_path.write_text(json.dumps(asdict(history), indent=2, sort_keys=True) + "\n")
    log.info("%s training done: final val dice %.4f", stage, history.val_dice[-1])
    return {"checkpoint": str(out), "beta": history.beta,
            "val_dice": history.val_dice, "iterations": history.iterations,
            "history_json": str(history_path)}


def _predict_one(case_dir: Path, out_dir: Path, wm_net, wmh_net) -> dict:
    t1, flair = read_images(case_dir)
    wm_mask = segment_white_matter(t1, wm_net)
    wmh_mask = segment_wmh(t1, flair, wm_mask, wmh_net)
    d = out_dir / case_dir.name
    d.mkdir()
    write_nifti(wmh_mask, d / "wmh.nii")
    write_nifti(wm_mask, d / "wm.nii")
    n_wmh, n_wm, vox = wmh_mask.voxel_count(), wm_mask.voxel_count(), t1.voxel_volume_mm3()
    return {"case_id": case_dir.name, "wmh_voxels": n_wmh, "wmh_volume_mm3": n_wmh * vox,
            "wm_voxels": n_wm, "wm_volume_mm3": n_wm * vox}


def cmd_predict(args) -> dict:
    """Writes <out>/<case_id>/{wmh.nii, wm.nii} for each case of --data, all
    through `new_directory`: --out is new (so never --data), and a failure leaves none.
    An --out inside --data is refused too, since it would become a stray case there."""
    if Path(args.data).resolve() in Path(args.out).resolve().parents:
        raise ValueError(f"--out {args.out} lies inside --data {args.data}")
    cases = case_dirs(args.data, "t1.nii", "flair.nii")
    with new_directory(args.out) as out_dir:
        wm_net = _load_model(args.wm_checkpoint, "white matter")
        wmh_net = _load_model(args.wmh_checkpoint, "lesion")
        log.info("predicting %d cases", len(cases))
        return {"cases": [_predict_one(d, out_dir, wm_net, wmh_net) for d in cases]}


def cmd_evaluate(args) -> dict:
    """Pairs <pred-dir>/<id>/wmh.nii with <gt-dir>/<id>/wmh.nii and needs
    the same case ids on both sides. With --team, `outputs.team_summary`
    holds the team's means, which `rank` reads back from the report."""
    pred_dirs = case_dirs(args.pred_dir, "wmh.nii")
    gt_dirs = case_dirs(args.gt_dir, "wmh.nii")
    pred_ids, gt_ids = {d.name for d in pred_dirs}, {d.name for d in gt_dirs}
    if pred_ids != gt_ids:
        raise ValueError(f"prediction and truth case sets differ: no truth for "
                         f"{sorted(pred_ids - gt_ids)}, no prediction for "
                         f"{sorted(gt_ids - pred_ids)}")
    rows = [(p.name, evaluate_case(read_nifti_mask(p / "wmh.nii"),
                                   read_nifti_mask(g / "wmh.nii")))
            for p, g in zip(pred_dirs, gt_dirs)]

    outputs: dict = {"cases": {cid: asdict(m) for cid, m in rows}}
    if args.out_csv:
        write_case_csv(args.out_csv, rows)
        outputs["case_csv"] = args.out_csv
    if args.team:
        summary = summarize_cases(args.team, [m for _, m in rows])
        outputs["team_summary"] = asdict(summary)
    return outputs


def _read_team_summary(path: str) -> TeamSummary:
    """The `outputs.team_summary` of an `evaluate --team` run report. Every
    `TeamSummary` field must be there, and each but `team` must be a
    number or null; `rank_teams` rejects a null or non-finite metric."""
    try:
        report = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a JSON run report: {exc}") from None
    outputs = report.get("outputs") if isinstance(report, dict) else None
    summary = outputs.get("team_summary") if isinstance(outputs, dict) else None
    if not isinstance(summary, dict):
        raise ValueError(f"{path} has no outputs.team_summary: "
                         "it is not the report of an ok `evaluate --team` run")
    names = [f.name for f in fields(TeamSummary)]
    for key in names:
        if key not in summary:
            raise ValueError(f"{path}: team {summary.get('team')!r} summary has no {key!r}")
        value = summary[key]
        if key != "team" and value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(
                f"{path}: team {summary['team']!r}: {key} {value!r} is not a number or null")
    return TeamSummary(**{key: summary[key] for key in names})


def cmd_rank(args) -> dict:
    table = rank_teams([_read_team_summary(path) for path in args.summaries])
    outputs = {
        "teams": table.teams,
        "overall": dict(zip(table.teams, table.overall)),
    }
    if args.out_csv:
        write_rank_csv(args.out_csv, table)
        outputs["rank_csv"] = args.out_csv
    for i, team in enumerate(table.teams):
        log.info("team %-16s overall rank %.4f", team, table.overall[i])
    return outputs


def cmd_ablate(args) -> dict:
    build_resunet(base_width=args.base_width, depth=args.depth)  # a bad size fails first
    train_cfg = TrainConfig(epochs=args.epochs, seed=args.seed,
                            batch_size=args.batch_size, max_iterations=args.max_iterations)
    cases, masks = _stage1_masks(args)
    report, _ = run_ablation(cases, masks, train_cfg,
                             base_width=args.base_width, depth=args.depth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for kind, r in report["variants"].items():
        log.info("%s: val dice %.4f lesion F1 %.4f", kind, r["val_summary"]["dice"],
                 r["val_summary"]["f1"])
    return {"report_path": str(out), "variants": report["variants"]}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmhseg",
        description="Two-stage white-matter-hyperintensity segmentation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # whole flag names only: an abbreviation such as `evaluate --pred` would
    # otherwise parse as a flag that begins with it (--pred-dir)
    command = partial(sub.add_parser, allow_abbrev=False)

    p = command("phantom", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs=3, default=[64, 64, 8])
    p.add_argument("--report")
    p.set_defaults(func=cmd_phantom)

    p = command("train-wm", help="train the white matter network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p, base_width=64, depth=3)
    p.add_argument("--report")
    p.set_defaults(func=_train_stage)

    p = command("train-wmh", help="train the lesion network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wm-checkpoint", required=True)
    _add_train_flags(p, base_width=64, depth=4)
    p.add_argument("--report")
    p.set_defaults(func=_train_stage)

    p = command("predict", help="run the two-stage pipeline")
    p.add_argument("--data", required=True, help="dataset dir with per-case t1.nii/flair.nii")
    p.add_argument("--out", required=True)
    p.add_argument("--wm-checkpoint", required=True)
    p.add_argument("--wmh-checkpoint", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_predict)

    p = command("evaluate", help="compute the five challenge metrics")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--team", help="also emit a team summary under this name")
    p.add_argument("--report")
    p.set_defaults(func=cmd_evaluate)

    p = command("rank", help="rank the team summaries of `evaluate --team` reports")
    p.add_argument("--summaries", required=True, nargs="+",
                   help="one `evaluate --team` run report per team")
    p.add_argument("--out-csv")
    p.add_argument("--report")
    p.set_defaults(func=cmd_rank)

    p = command("ablate", help="paired plain-vs-residual training run")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wm-checkpoint", required=True,
                   help="stage-1 checkpoint whose masks normalize and bound the lesion stage")
    _add_train_flags(p, base_width=4, depth=4)
    p.add_argument("--report")
    p.set_defaults(func=cmd_ablate)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Run one sub-command, time it and write its run report, whose
    `config` is the parsed flags. A command returns its outputs; an
    exception exits 1 with an error report, written only to --report."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        outputs = args.func(args)
    except Exception as exc:  # noqa: BLE001 - report the failing stage, exit 1
        log.error("stage %s failed: %s", args.command, exc)
        if args.report:
            _write_report({"schema_version": REPORT_SCHEMA_VERSION,
                           "command": args.command, "status": "error",
                           "error": str(exc)}, args.report)
        return 1
    _write_report({
        "schema_version": REPORT_SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "outputs": outputs,
        "runtime_seconds": time.time() - t0,
        # the process peak so far, which for one CLI call is the command's
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "status": "ok",
    }, args.report)
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
