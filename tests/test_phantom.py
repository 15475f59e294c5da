import hashlib
import json
import weakref

import numpy as np
import pytest

from wmhseg.morphology import connected_components, dilate
from wmhseg.phantom import (
    PhantomConfig,
    PlacementError,
    _ellipsoid,
    _sphere_box,
    generate_case,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from wmhseg.volume_io import BinaryMask3D

CFG = PhantomConfig()


class TestGenerateCase:
    def test_same_seed_bit_identical(self):
        a = generate_case(CFG, seed=11)
        b = generate_case(CFG, seed=11)
        assert np.array_equal(a.t1.data, b.t1.data)
        assert np.array_equal(a.flair.data, b.flair.data)
        assert np.array_equal(a.wm_truth.data, b.wm_truth.data)
        assert np.array_equal(a.wmh_truth.data, b.wmh_truth.data)

    def test_lesions_inside_white_matter(self):
        for seed in (0, 1, 2, 3, 4):
            c = generate_case(CFG, seed=seed)
            assert not np.any(c.wmh_truth.data & ~c.wm_truth.data)

    def test_lesion_count_in_configured_range(self):
        lo, hi = CFG.lesion_count_range
        for seed in range(8):
            c = generate_case(CFG, seed=seed)
            n = connected_components(c.wmh_truth, 26).count
            assert lo <= n <= hi

    def test_grids_and_spacing_shared(self):
        c = generate_case(CFG, seed=5)
        assert c.t1.dims == c.flair.dims == c.wm_truth.dims == c.wmh_truth.dims
        assert c.t1.spacing == c.flair.spacing == (1.0, 1.0, 3.0)

    def test_intensity_ordering(self):
        # FLAIR: lesions brighter than plain white matter; T1: darker
        for seed in (6, 7, 8):
            c = generate_case(CFG, seed=seed)
            les = c.wmh_truth.data > 0
            wm_only = (c.wm_truth.data > 0) & ~les
            assert c.flair.data[les].mean() > c.flair.data[wm_only].mean()
            assert c.t1.data[les].mean() < c.t1.data[wm_only].mean()

    def test_confounder_outside_white_matter_with_clearance(self):
        for seed in (9, 10):
            c = generate_case(CFG, seed=seed)
            assert c.confounder.voxel_count() > 0
            keepout = dilate(c.wm_truth, CFG.wm_clearance_voxels, 6)
            assert not np.any(c.confounder.data & keepout.data)

    def test_confounder_is_flair_bright(self):
        c = generate_case(CFG, seed=12)
        conf = c.confounder.data > 0
        wm_only = (c.wm_truth.data > 0) & (c.wmh_truth.data == 0)
        assert c.flair.data[conf].mean() > c.flair.data[wm_only].mean()

    def test_no_noise_exact_levels(self):
        cfg = PhantomConfig(noise_std=0.0)
        c = generate_case(cfg, seed=13)
        les = c.wmh_truth.data > 0
        assert np.all(c.flair.data[les] == cfg.flair_lesion)
        assert np.all(c.t1.data[les] == cfg.t1_lesion)

    def test_infeasible_placement_raises(self):
        cfg = PhantomConfig(
            lesion_count_range=(30, 30),
            lesion_radius_range=(6.0, 6.0),
            max_placement_tries=5,
        )
        with pytest.raises(PlacementError):
            generate_case(cfg, seed=14)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PhantomConfig(noise_std=-1.0)
        with pytest.raises(ValueError):
            PhantomConfig(lesion_radius_range=(3.0, 2.0))

    @pytest.mark.parametrize("bad", [
        {"dims": (0, 64, 8)},
        {"dims": (64, 64, -1)},
        {"confounder_count": -1},
        {"confounder_radius": 0.0},
        {"confounder_radius": float("nan")},
        {"max_placement_tries": 0},
        {"wm_clearance_voxels": -1},
        {"noise_std": float("nan")},
        {"noise_std": float("inf")},
        {"lesion_radius_range": (float("nan"), 3.0)},
        {"lesion_radius_range": (2.0, float("nan"))},
        {"lesion_radius_range": (2.0, float("inf"))},
    ])
    def test_bad_geometry_rejected(self, bad):
        with pytest.raises(ValueError):
            PhantomConfig(**bad)


class TestSphereBox:
    DIMS = (20, 17, 9)

    def centers(self):
        rng = np.random.default_rng(0)
        # every face and corner of the grid, then random interior points
        extremes = [(x, y, z) for x in (0, 19) for y in (0, 16) for z in (0, 8)]
        faces = [(0, 8, 4), (19, 8, 4), (10, 0, 4), (10, 16, 4), (10, 8, 0), (10, 8, 8)]
        rand = [tuple(int(v) for v in rng.integers(0, self.DIMS)) for _ in range(30)]
        return extremes + faces + rand

    @pytest.mark.parametrize("radius", [
        CFG.lesion_radius_range[0], 2.2, 2.75, 3.0, np.nextafter(3.0, 0.0),
        CFG.lesion_radius_range[1], CFG.confounder_radius,
    ])
    def test_stamped_box_equals_full_grid_sphere(self, radius):
        for center in self.centers():
            box, sphere = _sphere_box(self.DIMS, center, radius)
            stamped = np.zeros(self.DIMS, dtype=bool)
            stamped[box] = sphere
            full = _ellipsoid(self.DIMS, center, (radius, radius, radius))
            assert np.array_equal(stamped, full), (center, radius)
            # the 26-dilation stays inside the box too
            grown = dilate(BinaryMask3D(full, (1, 1, 1)), 1, 26).data > 0
            grown[box] = False
            assert not grown.any(), (center, radius)


class TestGenerateDataset:
    def test_deterministic_given_seed(self):
        a = list(generate_dataset(CFG, 4, seed=21))
        b = list(generate_dataset(CFG, 4, seed=21))
        assert len(a) == len(b) == 4
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.t1.data, cb.t1.data)

    def test_cases_distinct(self):
        cases = list(generate_dataset(CFG, 6, seed=22))
        placements = {cases[i].wmh_truth.data.tobytes() for i in range(6)}
        assert len(placements) == 6

    def test_zero_cases(self):
        assert list(generate_dataset(CFG, 0, seed=23)) == []

    def test_negative_cases_rejected(self):
        with pytest.raises(ValueError, match="number of cases"):
            generate_dataset(CFG, -1, seed=23)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="dataset seed must be >= 0, got -5"):
            generate_dataset(CFG, 2, seed=-5)

    def test_cases_generated_one_at_a_time(self, monkeypatch):
        """The call checks its arguments and returns before any case is
        generated; each next() generates one."""
        calls = []
        real = generate_case
        monkeypatch.setattr(
            "wmhseg.phantom.generate_case",
            lambda *a, **k: calls.append(k["case_id"]) or real(*a, **k),
        )
        cases = generate_dataset(CFG, 3, seed=24)
        assert calls == []
        assert next(cases).case_id == "case_000"
        assert calls == ["case_000"]
        assert [c.case_id for c in cases] == ["case_001", "case_002"]
        assert calls == ["case_000", "case_001", "case_002"]

    def test_case_ids_stable(self):
        cases = generate_dataset(CFG, 3, seed=24)
        assert [c.case_id for c in cases] == ["case_000", "case_001", "case_002"]

    def test_case_ids_sort_in_generation_order_past_1000_cases(self):
        # every command lists cases by sorted name, and case_1000 once sorted
        # between case_100 and case_101
        tiny = PhantomConfig(dims=(4, 4, 1), lesion_count_range=(0, 0), confounder_count=0)
        ids = [c.case_id for c in generate_dataset(tiny, 1001, seed=25)]
        assert ids == sorted(ids)
        assert (ids[0], ids[1000]) == ("case_0000", "case_1000")
        assert [c.case_id for c in generate_dataset(tiny, 1000, seed=25)][-1] == "case_999"


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        cases = list(generate_dataset(CFG, 2, seed=31))
        save_dataset(cases, CFG, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert [c.case_id for c in loaded] == [c.case_id for c in cases]
        # the file order values the cases hold are the ones read back
        for a, b in zip(cases, loaded):
            for kind in ("t1", "flair", "wm_truth", "wmh_truth"):
                assert np.array_equal(getattr(a, kind).data, getattr(b, kind).data)
            # the seed and confounder are recorded or dropped, not read back
            assert (b.seed, b.confounder) == (None, None)
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["cases"] == [{"case_id": c.case_id, "seed": c.seed} for c in cases]
        assert sorted(p.name for p in (tmp_path / "d" / "case_000").iterdir()) == [
            "flair.nii", "t1.nii", "wm.nii", "wmh.nii"]

    def test_directory_content_deterministic(self, tmp_path):
        for name in ("a", "b"):
            save_dataset(generate_dataset(CFG, 2, seed=32), CFG, tmp_path / name)
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_each_case_written_and_let_go_before_the_next(self, tmp_path):
        out, refs = tmp_path / "d", []

        def track(case):
            refs.append(weakref.ref(case))
            return case

        def stream():
            source = generate_dataset(CFG, 3, seed=33)
            for i in range(3):
                if i:
                    assert refs[-1]() is None  # nothing holds the written case
                    # written into the sibling that becomes `out` at the end
                    assert (tmp_path / ".d.partial" / f"case_{i - 1:03d}" / "wmh.nii").is_file()
                    assert not out.exists()
                yield track(next(source))

        assert save_dataset(stream(), CFG, out) == ["case_000", "case_001", "case_002"]
        assert len(refs) == 3
        assert not (tmp_path / ".d.partial").exists()
        seeds = [e["seed"] for e in json.loads((out / "manifest.json").read_text())["cases"]]
        assert seeds == [c.seed for c in generate_dataset(CFG, 3, seed=33)]


# sha256 of each volume's array bytes (float32 T1 and FLAIR, uint8 masks),
# concatenated over the cases in order.
# The crowded config clips lesions at the z faces and needs about ten
# placement attempts per sphere, so the retry path is pinned too.
GOLDEN_DATASETS = {
    "default": (PhantomConfig(), 10, 42, {
        "t1": "25dffe0236acd2ed136b4b8e265ac2e88fb706cc0954c7c03413610c1b36bfd0",
        "flair": "1216955728c337c05e823264716e03d7a3382db33bd328b7b1f61ba60ff05f83",
        "wm_truth": "7bd4ab8f7a833d762fdf99e4fca54a383c5a11fc89d0145a9e3507ed010c4710",
        "wmh_truth": "36690535ca400f92ddb23b5ab4716b3717fb186d35b1f1520c0c87abc7e406a6",
        "confounder": "4a12c36cc721a7c5faa995665cece6222ccb139731d51301278ac7b3e88d026d",
    }),
    "large": (PhantomConfig(dims=(128, 128, 16)), 8, 101, {
        "t1": "a23e4b3cf082d0befc645212364ce775f120fc32f1a54104f661d12a81ab1309",
        "flair": "b3d9f9290a9d4d7d1f02998e589afe52e4c7f227dc45b1a8fb7a1dbd9b567026",
        "wm_truth": "3e0ff0be29f1f585ff384c8928d4e8561a9787db622c5aec48ea7c1a6fffbf84",
        "wmh_truth": "ec95b873c559644a931556c5adfc4699336277931a649faa2ef7bc3670ad07a8",
        "confounder": "d2b2b103a226c3f52412b1c0593f3b0da57e86139253f74451e50647b6082f0e",
    }),
    "crowded": (
        PhantomConfig(dims=(40, 40, 6), lesion_count_range=(4, 4), confounder_count=3,
                      wm_clearance_voxels=1),
        6, 5, {
            "t1": "53df6603b2030386ab4f0ffe0496475bc87a1708b5550ddb2d5c96e848024a32",
            "flair": "fb26f3544acf22c2f2a5536047d5127f848a64079d2129055ce1c0bc2c69fa7d",
            "wm_truth": "7698ac3a98844ca3df589259efaa38f98a4f5e0a639e6b91f9372aa353170d75",
            "wmh_truth": "009ec876f7975d86f27d8b40bd6c8772314790d191389b087802ff33f2cb6b6e",
            "confounder": "30311caa0db2e8eaeaf6052dfda31e2d955d7ec7338ae4b8e559c70bfc78455e",
        }),
}


class TestGoldenDigests:
    """generate_dataset's volumes are pinned byte for byte, so a change to
    the geometry code that moves any voxel or RNG draw fails here."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_DATASETS))
    def test_volumes_match_pinned_digests(self, name):
        cfg, n_cases, seed, expected = GOLDEN_DATASETS[name]
        cases = list(generate_dataset(cfg, n_cases, seed))
        got = {}
        for field in expected:
            h = hashlib.sha256()
            for c in cases:
                h.update(getattr(c, field).data.tobytes())
            got[field] = h.hexdigest()
        assert got == expected

    def test_crowded_config_clips_at_grid_faces(self):
        cfg, n_cases, seed, _ = GOLDEN_DATASETS["crowded"]
        cases = generate_dataset(cfg, n_cases, seed)
        face = sum(int(c.wmh_truth.data[:, :, [0, -1]].sum()) for c in cases)
        assert face > 0
