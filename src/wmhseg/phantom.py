"""Synthetic co-registered T1/FLAIR phantom with white-matter and lesion
ground truth, so training, inference and every metric run at desk scale.

Geometry: a brain ellipsoid holding a tall inner white-matter ellipsoid
(near-cylindrical in z so that small dilations of the mask stay cheap),
spherical lesions fully inside the white matter, and one or more
FLAIR-bright confounder spheres outside it. Confounders use the same
T1/FLAIR intensities as true lesions, so intensity alone cannot reject
them; only white-matter confinement can.

Cost rule: the brain and WM ellipsoids are built from three broadcast
per-axis terms, not full-grid coordinate arrays. Each sphere placement
attempt is evaluated, checked against the allowed and blocked masks and
stamped only inside the sphere's bounding box grown by one voxel per side
(clipped to the grid), which also holds its 26-dilation. So placement cost
follows the lesion size, not the grid size.

Intensity model (documented constants, not taken from any dataset):
lesions are darker than white matter on T1 and brighter on FLAIR; the
intensity-ordering invariants hold per case for noise_std <= 0.1.
"""

from __future__ import annotations

import json
import math
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .volume_io import (BinaryMask3D, Volume3D, read_nifti, read_nifti_mask, require_finite,
                        write_nifti)
from .morphology import dilate


@dataclass(frozen=True)
class PhantomConfig:
    dims: tuple[int, int, int] = (64, 64, 8)
    spacing: tuple[float, float, float] = (1.0, 1.0, 3.0)
    lesion_count_range: tuple[int, int] = (2, 5)
    lesion_radius_range: tuple[float, float] = (2.0, 3.5)
    confounder_count: int = 1
    confounder_radius: float = 2.5
    # fractions of the volume half-extent
    brain_semiaxes: tuple[float, float, float] = (0.86, 0.86, 2.6)
    wm_semiaxes: tuple[float, float, float] = (0.54, 0.54, 1.8)
    t1_background: float = 0.05
    t1_brain: float = 0.30
    t1_wm: float = 0.70
    t1_lesion: float = 0.40
    flair_background: float = 0.05
    flair_brain: float = 0.30
    flair_wm: float = 0.50
    flair_lesion: float = 0.85
    noise_std: float = 0.02
    wm_clearance_voxels: int = 3  # min gap between confounder and white matter
    max_placement_tries: int = 200

    def __post_init__(self) -> None:
        if min(self.dims) < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if self.confounder_count < 0:
            raise ValueError(f"confounder count must be >= 0, got {self.confounder_count}")
        if not self.confounder_radius > 0:  # NaN too
            raise ValueError(f"confounder radius must be > 0, got {self.confounder_radius}")
        if self.max_placement_tries < 1:
            raise ValueError(
                f"max placement tries must be >= 1, got {self.max_placement_tries}"
            )
        if self.wm_clearance_voxels < 0:
            raise ValueError(
                f"wm clearance voxels must be >= 0, got {self.wm_clearance_voxels}"
            )
        if not 0 <= self.noise_std < math.inf:  # NaN too
            raise ValueError(f"noise std must be finite and >= 0, got {self.noise_std}")
        lo, hi = self.lesion_radius_range
        if not 0 < lo <= hi < math.inf:  # NaN too
            raise ValueError(f"bad lesion radius range {self.lesion_radius_range}")
        if self.lesion_count_range[0] < 0 or (
            self.lesion_count_range[1] < self.lesion_count_range[0]
        ):
            raise ValueError(f"bad lesion count range {self.lesion_count_range}")


@dataclass
class PhantomCase:
    """One case: float32 T1 and FLAIR in file order, as `read_nifti`
    gives them back from its files, and uint8 masks. A generated case
    also holds its seed and confounder mask; a loaded one holds neither."""

    case_id: str
    t1: Volume3D
    flair: Volume3D
    wm_truth: BinaryMask3D
    wmh_truth: BinaryMask3D
    seed: int | None = None
    confounder: BinaryMask3D | None = None


class PlacementError(RuntimeError):
    """Lesion or confounder placement failed after bounded retries."""


def _ellipsoid(dims, center, semiaxes, box=None) -> np.ndarray:
    """Voxels with sum(((i - c) / a) ** 2) <= 1 over the grid, or only
    inside `box` (a tuple of slices). The per-axis terms are broadcast and
    added in (x + y) + z order."""
    if box is None:
        box = tuple(slice(0, n) for n in dims)
    x, y, z = (
        ((np.arange(s.start, s.stop, dtype=np.float64) - c) / a) ** 2
        for s, c, a in zip(box, center, semiaxes)
    )
    return x[:, None, None] + y[:, None] + z <= 1.0


def _sphere_box(dims, center, radius) -> tuple[tuple[slice, ...], np.ndarray]:
    """The sphere's bounding box grown by one voxel per side and clipped to
    the grid, and the sphere inside it. Every voxel outside the box is more
    than radius + 1 from the center, so the box holds the whole sphere and
    its 26-dilation."""
    k = math.ceil(radius) + 1
    box = tuple(slice(max(c - k, 0), min(c + k + 1, n)) for c, n in zip(center, dims))
    return box, _ellipsoid(dims, center, (radius, radius, radius), box)


def _place_spheres(
    rng: np.random.Generator,
    count: int,
    radius_range: tuple[float, float],
    allowed: np.ndarray,
    dims: tuple[int, int, int],
    max_tries: int,
) -> np.ndarray:
    """Place spheres fully inside `allowed`, pairwise non-adjacent under
    26-connectivity so each sphere stays its own component."""
    placed = np.zeros(dims, dtype=bool)
    blocked = np.zeros(dims, dtype=bool)
    candidates = np.flatnonzero(allowed)
    if candidates.size == 0 and count > 0:
        raise PlacementError("no candidate centers for sphere placement")
    for _ in range(count):
        for _attempt in range(max_tries):
            center = np.unravel_index(candidates[int(rng.integers(len(candidates)))], dims)
            radius = float(rng.uniform(*radius_range))
            box, sphere = _sphere_box(dims, center, radius)
            if not (sphere & ~allowed[box]).any() and not (sphere & blocked[box]).any():
                placed[box] |= sphere
                blocked[box] |= dilate(BinaryMask3D(sphere, (1, 1, 1)), 1, 26).data > 0
                break
        else:
            raise PlacementError(f"could not place sphere after {max_tries} tries")
    return placed


def generate_case(cfg: PhantomConfig, seed: int, case_id: str | None = None) -> PhantomCase:
    """One deterministic (T1, FLAIR, WM truth, WMH truth) quadruple. The
    intensities are computed in float64 and kept as float32, in the
    file order that `write_nifti` writes without a copy."""
    rng = np.random.default_rng(seed)
    dims = cfg.dims
    center = tuple((n - 1) / 2.0 for n in dims)
    half = tuple(n / 2.0 for n in dims)

    brain = _ellipsoid(dims, center, tuple(h * s for h, s in zip(half, cfg.brain_semiaxes)))
    wm = _ellipsoid(dims, center, tuple(h * s for h, s in zip(half, cfg.wm_semiaxes)))
    wm &= brain

    n_lesions = int(rng.integers(cfg.lesion_count_range[0], cfg.lesion_count_range[1] + 1))
    wmh = _place_spheres(
        rng, n_lesions, cfg.lesion_radius_range, wm, dims, cfg.max_placement_tries
    )

    # confounders live in the brain but clear of the (dilated) white matter,
    # so confinement - and only confinement - can remove them
    wm_mask = BinaryMask3D(data=wm.astype(np.uint8), spacing=cfg.spacing)
    keepout = dilate(wm_mask, cfg.wm_clearance_voxels, 6).data.astype(bool)
    conf_zone = brain & ~keepout
    conf = _place_spheres(
        rng,
        cfg.confounder_count,
        (cfg.confounder_radius, cfg.confounder_radius),
        conf_zone,
        dims,
        cfg.max_placement_tries,
    )

    t1 = np.full(dims, cfg.t1_background)
    t1[brain] = cfg.t1_brain
    t1[wm] = cfg.t1_wm
    t1[wmh] = cfg.t1_lesion
    t1[conf] = cfg.t1_lesion

    flair = np.full(dims, cfg.flair_background)
    flair[brain] = cfg.flair_brain
    flair[wm] = cfg.flair_wm
    flair[wmh] = cfg.flair_lesion
    flair[conf] = cfg.flair_lesion

    if cfg.noise_std > 0:
        t1 = t1 + rng.normal(0.0, cfg.noise_std, size=dims)
        flair = flair + rng.normal(0.0, cfg.noise_std, size=dims)

    return PhantomCase(
        case_id=case_id if case_id is not None else f"case_{seed:08d}",
        t1=Volume3D(data=t1.astype(np.float32, order="F"), spacing=cfg.spacing),
        flair=Volume3D(data=flair.astype(np.float32, order="F"), spacing=cfg.spacing),
        wm_truth=BinaryMask3D(data=wm.astype(np.uint8), spacing=cfg.spacing),
        wmh_truth=BinaryMask3D(data=wmh.astype(np.uint8), spacing=cfg.spacing),
        seed=seed,
        confounder=BinaryMask3D(data=conf.astype(np.uint8), spacing=cfg.spacing),
    )


def generate_dataset(cfg: PhantomConfig, n_cases: int, seed: int) -> Iterator[PhantomCase]:
    """n independent cases from a seeded stream; deterministic. The
    arguments are checked and the seeds spawned on the call, and each case
    is generated when the iterator reaches it, so a caller that writes or
    drops each case before the next holds one case at a time. Wrap the
    call in list(...) to keep them all."""
    if n_cases < 0:
        raise ValueError(f"number of cases must be >= 0, got {n_cases}")
    if seed < 0:
        raise ValueError(f"dataset seed must be >= 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(n_cases)
    width = max(3, len(str(n_cases - 1)))  # ids sort in generation order
    return (
        generate_case(cfg, int(c.generate_state(1)[0]), case_id=f"case_{i:0{width}d}")
        for i, c in enumerate(children)
    )


# ---------------------------------------------------------------------------
# On-disk layout: one directory per case holding NIfTI volumes, and a
# write-only manifest recording how a generated dataset was made

CASE_FILES = ("t1.nii", "flair.nii", "wm.nii", "wmh.nii")


def case_dirs(root: str | Path, *names: str) -> list[Path]:
    """The sub-directories of `root`, sorted: the cases, each named by its
    directory. Raises ValueError naming `root` if there is none, or naming
    `<case>/<name>` if a case lacks one of `names`, so a stray sub-directory
    fails; every case is checked before the caller reads or writes one."""
    root = Path(root)
    dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not dirs:
        raise ValueError(f"no case directory under {root}")
    for d in dirs:
        for name in names:
            if not (d / name).is_file():
                raise ValueError(f"{d.name}/{name} is missing under {root}")
    return dirs


def read_images(case_dir: Path, *masks: str) -> tuple:
    """A case directory's T1 and FLAIR, then the truth mask of each file
    stem in `masks`. A volume off T1's grid or spacing, or a non-finite
    T1 or FLAIR voxel, raises ValueError naming the case."""
    t1 = read_nifti(case_dir / "t1.nii")
    rest = {"flair": read_nifti(case_dir / "flair.nii")}
    rest.update((m, read_nifti_mask(case_dir / f"{m}.nii")) for m in masks)
    for name, v in rest.items():
        for what, a, b in (("grid", t1.dims, v.dims), ("spacing", t1.spacing, v.spacing)):
            if a != b:
                raise ValueError(f"{case_dir.name} t1/{name} {what} mismatch: {a} vs {b}")
    for channel, v in (("t1", t1), ("flair", rest["flair"])):
        require_finite(f"{case_dir.name} {channel}", v)
    return (t1, *rest.values())


@contextmanager
def new_directory(out_dir: str | Path) -> Iterator[Path]:
    """Yields the fresh sibling `.<name>.partial`, renamed to `out_dir` when the block
    ends or removed if it raises; an existing `out_dir` raises FileExistsError."""
    out = Path(out_dir)
    if out.exists():
        raise FileExistsError(f"{out} already exists; the output must go to a new directory")
    partial = out.with_name(f".{out.name}.partial")
    partial.mkdir(parents=True)
    try:
        yield partial
        partial.rename(out)
    except BaseException:
        shutil.rmtree(partial)
        raise


def save_dataset(cases: Iterable[PhantomCase], cfg: PhantomConfig,
                 out_dir: str | Path) -> list[str]:
    """Write each case as the iterable yields it and drop it before taking
    the next, then manifest.json, the config and each case's id and seed,
    through `new_directory`. Returns the case ids in order."""
    with new_directory(out_dir) as partial:
        entries = []
        for case in cases:
            d = partial / case.case_id
            d.mkdir()
            volumes = case.t1, case.flair, case.wm_truth, case.wmh_truth
            for name, v in zip(CASE_FILES, volumes):
                write_nifti(v, d / name)
            entries.append({"case_id": case.case_id, "seed": case.seed})
            del case, volumes, v  # not held while the next case is generated
        text = json.dumps({"config": asdict(cfg), "cases": entries}, indent=2, sort_keys=True)
        (partial / "manifest.json").write_text(text + "\n")
    return [e["case_id"] for e in entries]


def load_dataset(data_dir: str | Path) -> list[PhantomCase]:
    """Every case directory of `data_dir` (see `case_dirs`) with its four
    volumes, read and checked by `read_images`."""
    return [PhantomCase(d.name, *read_images(d, "wm", "wmh"))
            for d in case_dirs(data_dir, *CASE_FILES)]
