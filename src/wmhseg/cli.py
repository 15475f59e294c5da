"""Command-line entry point: phantom generation, two-stage training,
prediction, evaluation, ranking, and the plain-vs-residual ablation
harness.

Each sub-command returns the resolved flag values and its outputs;
`dispatch` times it and writes the machine-readable JSON run report (to
--report, else stdout). Progress is logged to stderr. Exit codes: 0
success, 2 usage errors, 1 runtime failures (the failing stage is named,
and the error report goes to --report only).
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .architectures import build_resunet, build_trimmed_unet
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import (
    evaluate_case,
    rank_teams,
    read_team_summaries,
    summarize_cases,
    write_case_csv,
    write_rank_csv,
)
from .phantom import PhantomConfig, generate_dataset, load_dataset, save_dataset
from .pipeline import (
    CaseInput,
    run_ablation,
    run_pipeline,
    segment_white_matter,
    wm_training_cases,
    wmh_training_cases,
)
from .training import TrainConfig, train
from .volume_io import read_nifti, read_nifti_mask, write_nifti

log = logging.getLogger("wmhseg")

REPORT_SCHEMA_VERSION = 1


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
        log.info("run report written to %s", path)
    else:
        print(text)


def _resolve_train_config(args) -> TrainConfig:
    """TrainConfig's defaults, with each flag the user set on top."""
    return TrainConfig(**{
        k: getattr(args, k) for k in ("epochs", "seed", "batch_size", "max_iterations")
        if getattr(args, k) is not None
    })


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--base-width", dest="base_width", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)


# ---------------------------------------------------------------------------
# sub-commands


def cmd_phantom(args) -> tuple[dict, dict]:
    cfg = PhantomConfig(
        dims=tuple(args.dims),
        spacing=tuple(args.spacing),
        lesion_count_range=(args.lesion_count_min, args.lesion_count_max),
        confounder_count=args.confounders,
        noise_std=args.noise_std,
    )
    log.info("generating %d phantom cases into %s", args.cases, args.out)
    cases = generate_dataset(cfg, args.cases, args.seed)
    save_dataset(cases, cfg, args.out)
    return (
        {"cases": args.cases, "seed": args.seed, "out": str(args.out),
         "phantom": asdict(cfg)},
        {"dataset_dir": str(args.out), "case_ids": [c.case_id for c in cases]},
    )


def _train_stage(args) -> tuple[dict, dict]:
    """train-wm and train-wmh: the stage is named by the sub-command."""
    stage = args.command.removeprefix("train-")
    train_cfg = _resolve_train_config(args)
    cases, _ = load_dataset(args.data)
    config: dict = {"data": str(args.data), "out": str(args.out),
                    "train": asdict(train_cfg)}
    if stage == "wm":
        spec = build_trimmed_unet(
            base_width=args.base_width or 64, depth=args.depth or 3
        )
        tcs = wm_training_cases(cases)
    else:
        wm_net = load_checkpoint(args.wm_checkpoint)
        log.info("computing stage-1 white matter masks for normalization")
        masks = [segment_white_matter(c.t1, wm_net) for c in cases]
        spec = build_resunet(base_width=args.base_width or 64, depth=args.depth or 4)
        tcs = wmh_training_cases(cases, masks)
        config.update(wm_checkpoint=args.wm_checkpoint)
    config.update(base_width=spec.base_width, depth=spec.depth)
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
    outputs = {"checkpoint": str(out), "beta": history.beta,
               "val_dice": history.val_dice, "iterations": history.iterations,
               "history_json": str(history_path)}
    log.info("%s training done: final val dice %.4f", stage, history.val_dice[-1])
    return config, outputs


def _predict_one(case_id: str, t1_path: Path, flair_path: Path, out_dir: Path,
                 wm_net, wmh_net, confine: bool) -> dict:
    case = CaseInput(t1=read_nifti(t1_path), flair=read_nifti(flair_path),
                     case_id=case_id)
    wmh_mask, wm_mask, report = run_pipeline(case, wm_net, wmh_net, confine=confine)
    d = out_dir / case_id
    d.mkdir(parents=True, exist_ok=True)
    write_nifti(wmh_mask, d / "wmh.nii")
    write_nifti(wm_mask, d / "wm.nii")
    record = asdict(report)
    (d / "report.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def cmd_predict(args) -> tuple[dict, dict]:
    """The single-case mode is a one-case list: both modes write
    <out>/<case_id>/{wmh.nii, wm.nii, report.json}."""
    if args.t1 or args.flair:
        if not (args.t1 and args.flair):
            raise ValueError("single-case mode needs both --t1 and --flair")
        inputs = [(args.case_id, Path(args.t1), Path(args.flair))]
    else:
        if not args.data:
            raise ValueError("predict needs --data, or both --t1 and --flair")
        case_dirs = sorted(
            d for d in Path(args.data).iterdir() if d.is_dir() and (d / "t1.nii").exists()
        )
        if not case_dirs:
            raise ValueError(f"no case directory with a t1.nii under {args.data}")
        inputs = [(d.name, d / "t1.nii", d / "flair.nii") for d in case_dirs]
    wm_net = load_checkpoint(args.wm_checkpoint)
    wmh_net = load_checkpoint(args.wmh_checkpoint)
    out_dir = Path(args.out)
    log.info("predicting %d cases", len(inputs))
    reports = [_predict_one(*case, out_dir, wm_net, wmh_net, not args.no_confine)
               for case in inputs]
    config = {
        "data": args.data,
        "t1": args.t1,
        "flair": args.flair,
        "case_id": args.case_id,
        "out": str(args.out),
        "wm_checkpoint": args.wm_checkpoint,
        "wmh_checkpoint": args.wmh_checkpoint,
        "no_confine": args.no_confine,
    }
    return config, {"cases": reports}


def cmd_evaluate(args) -> tuple[dict, dict]:
    if args.pred or args.gt:
        if not (args.pred and args.gt):
            raise ValueError("single-case mode needs both --pred and --gt")
        pairs = [(Path(args.pred).stem, Path(args.pred), Path(args.gt))]
    else:
        if not (args.pred_dir and args.gt_dir):
            raise ValueError("batch mode needs both --pred-dir and --gt-dir")
        pred_root, gt_root = Path(args.pred_dir), Path(args.gt_dir)
        pairs = []
        for d in sorted(p for p in pred_root.iterdir() if p.is_dir()):
            gt_path = gt_root / d.name / "wmh.nii"
            if gt_path.exists():
                pairs.append((d.name, d / "wmh.nii", gt_path))
        if not pairs:
            raise ValueError(f"no prediction/truth pairs under {pred_root}")

    rows = [
        (case_id, evaluate_case(read_nifti_mask(pred_path), read_nifti_mask(gt_path)))
        for case_id, pred_path, gt_path in pairs
    ]

    outputs: dict = {"cases": {cid: asdict(m) for cid, m in rows}}
    if args.out_csv:
        write_case_csv(args.out_csv, rows)
        outputs["case_csv"] = str(args.out_csv)
    if args.team:
        summary = summarize_cases(args.team, [m for _, m in rows])
        outputs["team_summary"] = asdict(summary)
    config = {
        "pred": args.pred,
        "gt": args.gt,
        "pred_dir": args.pred_dir,
        "gt_dir": args.gt_dir,
        "out_csv": args.out_csv,
        "team": args.team,
    }
    return config, outputs


def cmd_rank(args) -> tuple[dict, dict]:
    summaries = read_team_summaries(args.summaries)
    table = rank_teams(summaries)
    outputs = {
        "teams": table.teams,
        "overall": dict(zip(table.teams, table.overall)),
    }
    if args.out_csv:
        write_rank_csv(args.out_csv, table)
        outputs["rank_csv"] = str(args.out_csv)
    for i, team in enumerate(table.teams):
        log.info("team %-16s overall rank %.4f", team, table.overall[i])
    config = {"summaries": str(args.summaries), "out_csv": args.out_csv}
    return config, outputs


def cmd_ablate(args) -> tuple[dict, dict]:
    train_cfg = _resolve_train_config(args)
    base_width, depth = args.base_width or 4, args.depth or 4
    cases, _ = load_dataset(args.data)
    wm_net = load_checkpoint(args.wm_checkpoint)
    log.info("computing stage-1 white matter masks for normalization")
    masks = [segment_white_matter(c.t1, wm_net) for c in cases]
    report, _ = run_ablation(cases, masks, train_cfg,
                             base_width=base_width, depth=depth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for kind, r in report["variants"].items():
        log.info("%s: val dice %.4f lesion F1 %.4f", kind, r["val_summary"]["dice"],
                 r["val_summary"]["f1"])
    return (
        {"data": str(args.data), "out": str(args.out),
         "wm_checkpoint": args.wm_checkpoint, "base_width": base_width,
         "depth": depth, "train": asdict(train_cfg)},
        {"report_path": str(out), "variants": report["variants"]},
    )


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmhseg",
        description="Two-stage white-matter-hyperintensity segmentation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--cases", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs=3, default=[64, 64, 8])
    p.add_argument("--spacing", type=float, nargs=3, default=[1.0, 1.0, 3.0])
    p.add_argument("--lesion-count-min", type=int, default=2)
    p.add_argument("--lesion-count-max", type=int, default=5)
    p.add_argument("--confounders", type=int, default=1)
    p.add_argument("--noise-std", type=float, default=0.02)
    p.add_argument("--report")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train-wm", help="train the white matter network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.add_argument("--report")
    p.set_defaults(func=_train_stage)

    p = sub.add_parser("train-wmh", help="train the lesion network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wm-checkpoint", required=True)
    _add_train_flags(p)
    p.add_argument("--report")
    p.set_defaults(func=_train_stage)

    p = sub.add_parser("predict", help="run the two-stage pipeline")
    p.add_argument("--data", help="dataset dir with per-case t1.nii/flair.nii")
    p.add_argument("--t1")
    p.add_argument("--flair")
    p.add_argument("--case-id", default="case")
    p.add_argument("--out", required=True)
    p.add_argument("--wm-checkpoint", required=True)
    p.add_argument("--wmh-checkpoint", required=True)
    p.add_argument("--no-confine", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="compute the five challenge metrics")
    p.add_argument("--pred")
    p.add_argument("--gt")
    p.add_argument("--pred-dir")
    p.add_argument("--gt-dir")
    p.add_argument("--out-csv")
    p.add_argument("--team", help="also emit a team summary under this name")
    p.add_argument("--report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="rank team summaries")
    p.add_argument("--summaries", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--report")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("ablate", help="paired plain-vs-residual training run")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wm-checkpoint", required=True,
                   help="stage-1 checkpoint whose masks normalize and confine the lesion inputs")
    _add_train_flags(p)
    p.add_argument("--report")
    p.set_defaults(func=cmd_ablate)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Run one sub-command, time it and write its run report. A command
    returns (config, outputs); an exception exits 1 with an error report,
    written only to --report."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        config, outputs = args.func(args)
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
        "config": config,
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
