"""The five challenge evaluation metrics and the rank-aggregation scheme.

Voxel-overlap metrics (Dice, AVD%) work on voxel counts; the modified
Hausdorff distance (H95) works on border-voxel centers in mm; the lesion
metrics (recall, F-1) work on 26-connected components, the challenge
rule (Kuijf et al., IEEE TMI 2019), where a component counts as detected
when it shares at least one voxel with the other mask.
That rule lives in `detected_components` alone; recall, precision and the
acceptance false-positive count all go through it.

Every metric works from the masks' `foreground` flat indices and `dims`:
sizes, intersections (a `searchsorted` of one sorted index list in the
other), labels per foreground voxel and borders, which share one edge
pass per mask. A mask is scanned at most once, and a mask read from disk
not at all, nor is its dense grid built, so past that scan an evaluation
costs in proportion to the foreground, not to the grid.

Empty-mask conventions: both-empty Dice is 1.0; H95 is undefined unless
both masks are nonempty; AVD% is undefined for an empty ground truth.
Undefined values surface as None and are excluded from team averages,
with the exclusion count reported; a team average over no defined value
is None too.

The 95th percentile is nearest-rank: the element at 1-based position
ceil(0.95 * n) of the ascending sorted distances, computed with integer
arithmetic (ceil(19n/20)) to avoid float rounding at exact multiples.

H95's nearest-border queries use scipy's `cKDTree`, the package's only
use of scipy. The module attribute `cKDTree` imports it on first access
(module `__getattr__`), so a command that never computes H95 never loads
scipy; `h95` reads the attribute at call time, so it can be replaced.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .morphology import LabelVolume, border_voxels, connected_components
from .volume_io import BinaryMask3D

LESION_CONNECTIVITY = 26
LOWER_BETTER = ("h95", "avd_percent")
METRIC_ORDER = ("dice", "h95", "avd_percent", "recall", "f1")

CASE_CSV_COLUMNS = (
    "case_id",
    "dice",
    "h95_mm",
    "avd_percent",
    "lesion_recall",
    "lesion_f1",
    "h95_defined",
    "avd_defined",
)
RANK_CSV_COLUMNS = (
    "team",
    "dice_rank",
    "h95_rank",
    "avd_rank",
    "recall_rank",
    "f1_rank",
    "overall_rank",
)


@dataclass
class CaseMetrics:
    """Per-case record of the five metrics; None marks undefined."""

    dice: float
    h95_mm: float | None
    avd_percent: float | None
    lesion_recall: float
    lesion_f1: float


@dataclass
class TeamSummary:
    """Per-team metric averages over a shared case set; None marks a
    metric undefined on every case."""

    team: str
    dice: float
    h95: float | None
    avd_percent: float | None
    recall: float
    f1: float
    h95_undefined_count: int = 0
    avd_undefined_count: int = 0


@dataclass
class RankTable:
    teams: list[str]
    ranks: dict[str, list[float]]  # metric name -> per-team rank in [0, 1]
    overall: list[float] = field(default_factory=list)

    def rank_of(self, team: str, metric: str) -> float:
        return self.ranks[metric][self.teams.index(team)]


def __getattr__(name: str):
    """scipy's `cKDTree`, imported on first access and then bound as the
    module global, so that only H95 pays for loading scipy (PEP 562)."""
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        globals()["cKDTree"] = cKDTree
        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_grids(pred: BinaryMask3D, gt: BinaryMask3D) -> None:
    if pred.dims != gt.dims:
        raise ValueError(f"grid mismatch: {pred.dims} vs {gt.dims}")
    if pred.spacing != gt.spacing:
        raise ValueError(f"spacing mismatch: {pred.spacing} vs {gt.spacing}")


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each of the sorted flat indices `a` occurs in the sorted `b`."""
    if b.size == 0:
        return np.zeros(a.size, dtype=bool)
    return b[np.minimum(np.searchsorted(b, a), b.size - 1)] == a


def dice(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    """2|P n G| / (|P| + |G|); 1.0 when both masks are empty."""
    _check_grids(pred, gt)
    p, g = pred.foreground, gt.foreground
    if p.size + g.size == 0:
        return 1.0
    inter = int(np.count_nonzero(_in_sorted(p, g)))
    return 2.0 * inter / (p.size + g.size)


def _nearest_rank_95(tree: cKDTree, points: np.ndarray, shared: int) -> float:
    """The 95th-percentile nearest distance in `tree` over `shared` points
    that lie in it (0.0 mm each) and the other `points`."""
    n = shared + len(points)
    idx = (19 * n + 19) // 20 - 1  # ceil(0.95 n) in exact integer arithmetic
    if idx < shared:
        return 0.0
    return float(np.sort(tree.query(points)[0])[idx - shared])


def h95(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    """Modified Hausdorff distance in mm at the masks' shared spacing: max over
    both directions of the 95th-percentile nearest border-voxel distance.
    A border voxel of both masks lies 0.0 mm from the other's border, so
    only the border voxels the masks do not share are queried."""
    _check_grids(pred, gt)
    if pred.voxel_count() == 0 or gt.voxel_count() == 0:
        raise ValueError("h95 undefined for an empty mask")
    sp = np.asarray(pred.spacing, dtype=np.float64)
    a, b = border_voxels(pred), border_voxels(gt)
    a_flat, b_flat = (np.ravel_multi_index(v.T, pred.dims) for v in (a, b))
    a_in_b, b_in_a = _in_sorted(a_flat, b_flat), _in_sorted(b_flat, a_flat)
    a, b = a.astype(np.float64) * sp, b.astype(np.float64) * sp
    tree = sys.modules[__name__].cKDTree  # read at call time: it may be rebound
    return max(
        _nearest_rank_95(tree(b), a[~a_in_b], int(a_in_b.sum())),
        _nearest_rank_95(tree(a), b[~b_in_a], int(b_in_a.sum())),
    )


def avd_percent(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    """100 * | |P| - |G| | / |G| in voxel counts (spacing cancels)."""
    _check_grids(pred, gt)
    g = gt.voxel_count()
    if g == 0:
        raise ValueError("avd undefined for empty ground truth")
    return 100.0 * abs(pred.voxel_count() - g) / g


def detected_components(lab: LabelVolume, other: BinaryMask3D) -> int:
    """Number of components of `lab` that share a voxel with `other`."""
    hit = np.unique(lab.voxel_labels[_in_sorted(lab.foreground, other.foreground)])
    return int(hit.size)


def lesion_recall(pred: BinaryMask3D, gt: BinaryMask3D) -> float:
    """Fraction of ground-truth components touched by the prediction.

    Empty ground truth counts as fully recalled (1.0). With the masks
    swapped this is lesion precision.
    """
    _check_grids(pred, gt)
    lab = connected_components(gt, LESION_CONNECTIVITY)
    if lab.count == 0:
        return 1.0
    return detected_components(lab, pred) / lab.count


def lesion_f1(precision: float, recall: float) -> float:
    """Component-level F-1: the harmonic mean of lesion precision and
    recall, 0 when both are 0.

    An empty ground truth has recall 1.0 and an empty prediction
    precision 1.0 (nothing to find), so F-1 is 1.0 when both masks are
    empty and 0.0 when only one is.
    """
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_case(pred: BinaryMask3D, gt: BinaryMask3D) -> CaseMetrics:
    """Bundle the five metrics, propagating undefined flags as None."""
    _check_grids(pred, gt)
    d = dice(pred, gt)
    try:
        h = h95(pred, gt)
    except ValueError:
        h = None
    try:
        a = avd_percent(pred, gt)
    except ValueError:
        a = None
    r = lesion_recall(pred, gt)
    precision = lesion_recall(gt, pred)
    f1 = lesion_f1(precision, r)
    return CaseMetrics(dice=d, h95_mm=h, avd_percent=a, lesion_recall=r, lesion_f1=f1)


def summarize_cases(team: str, cases: list[CaseMetrics]) -> TeamSummary:
    """Average per-case metrics; undefined cases are excluded from the
    affected metric's average and counted, and the average is None when
    every case is undefined."""
    if not cases:
        raise ValueError("no cases to summarize")
    h95_vals = [c.h95_mm for c in cases if c.h95_mm is not None]
    avd_vals = [c.avd_percent for c in cases if c.avd_percent is not None]
    return TeamSummary(
        team=team,
        dice=float(np.mean([c.dice for c in cases])),
        h95=float(np.mean(h95_vals)) if h95_vals else None,
        avd_percent=float(np.mean(avd_vals)) if avd_vals else None,
        recall=float(np.mean([c.lesion_recall for c in cases])),
        f1=float(np.mean([c.lesion_f1 for c in cases])),
        h95_undefined_count=len(cases) - len(h95_vals),
        avd_undefined_count=len(cases) - len(avd_vals),
    )


def rank_teams(summaries: list[TeamSummary]) -> RankTable:
    """Min-max rank per metric in [0, 1], 0 best; overall is the mean of
    the five. A degenerate metric range ranks every team 0 on it. A
    value that is None (a metric undefined on every case) or not finite
    has no rank, so it raises ValueError naming the team and the metric,
    and so does a team name given twice, since teams are told apart by
    name."""
    if len(summaries) < 2:
        raise ValueError("ranking needs at least 2 teams")
    teams = [s.team for s in summaries]
    if len(set(teams)) < len(teams):
        raise ValueError(f"a team name is given twice: {teams}")
    ranks: dict[str, list[float]] = {}
    for metric in METRIC_ORDER:
        vals = [getattr(s, metric) for s in summaries]
        for team, v in zip(teams, vals):
            if v is None or not math.isfinite(v):
                raise ValueError(f"team {team!r} has no finite {metric}: {v}")
        lo, hi = min(vals), max(vals)
        if hi == lo:
            ranks[metric] = [0.0] * len(vals)
        elif metric in LOWER_BETTER:
            ranks[metric] = [(v - lo) / (hi - lo) for v in vals]
        else:
            ranks[metric] = [1.0 - (v - lo) / (hi - lo) for v in vals]
    overall = [
        float(np.mean([ranks[m][i] for m in METRIC_ORDER])) for i in range(len(teams))
    ]
    return RankTable(teams=teams, ranks=ranks, overall=overall)


# ---------------------------------------------------------------------------
# CSV interchange


def write_case_csv(path: str | Path, rows: list[tuple[str, CaseMetrics]]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CASE_CSV_COLUMNS)
        for case_id, m in rows:
            w.writerow(
                [
                    case_id,
                    repr(m.dice),
                    "" if m.h95_mm is None else repr(m.h95_mm),
                    "" if m.avd_percent is None else repr(m.avd_percent),
                    repr(m.lesion_recall),
                    repr(m.lesion_f1),
                    0 if m.h95_mm is None else 1,
                    0 if m.avd_percent is None else 1,
                ]
            )


def write_rank_csv(path: str | Path, table: RankTable) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RANK_CSV_COLUMNS)
        for i, team in enumerate(table.teams):
            w.writerow(
                [team]
                + [repr(table.ranks[m][i]) for m in METRIC_ORDER]
                + [repr(table.overall[i])]
            )

