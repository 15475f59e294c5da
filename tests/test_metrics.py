from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from wmhseg.acceptance import (
    TABLE1,
    TABLE2,
    oracle_avd,
    oracle_components,
    oracle_dice,
    oracle_f1,
    oracle_h95,
    oracle_recall,
)
from wmhseg import metrics, volume_io
from wmhseg.metrics import (
    CaseMetrics,
    TeamSummary,
    avd_percent,
    detected_components,
    dice,
    evaluate_case,
    h95,
    lesion_recall,
    rank_teams,
    summarize_cases,
    write_case_csv,
    write_rank_csv,
)
from wmhseg.morphology import border_voxels, connected_components, largest_component
from wmhseg.volume_io import BinaryMask3D, read_nifti_mask, write_nifti

SP = (1.0, 1.0, 1.0)


def mask(arr, spacing=SP) -> BinaryMask3D:
    return BinaryMask3D(data=np.asarray(arr, dtype=np.uint8), spacing=spacing)


def random_mask(rng, dims=(16, 16, 16), p=0.15, spacing=SP) -> BinaryMask3D:
    return mask((rng.random(dims) < p).astype(np.uint8), spacing)


class TestDice:
    def test_identical_nonempty(self):
        m = random_mask(np.random.default_rng(0))
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[0, 0, 0] = 1
        b[3, 3, 3] = 1
        assert dice(mask(a), mask(b)) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[0, 0, 0] = a[0, 0, 1] = 1
        b[0, 0, 1] = b[0, 0, 2] = 1
        assert dice(mask(a), mask(b)) == 0.5

    def test_both_empty_is_one(self):
        e = mask(np.zeros((3, 3, 3)))
        assert dice(e, e) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = random_mask(rng), random_mask(rng)
        assert dice(a, b) == dice(b, a)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dice(mask(np.zeros((2, 2, 2))), mask(np.zeros((3, 3, 3))))


class TestH95:
    def test_identical_masks_zero(self):
        m = random_mask(np.random.default_rng(2))
        assert h95(m, m) == 0.0

    def test_single_voxels_three_apart(self):
        a = np.zeros((5, 5, 5))
        b = np.zeros((5, 5, 5))
        a[2, 2, 0] = 1
        b[2, 2, 3] = 1
        assert h95(mask(a), mask(b)) == 3.0

    def test_anisotropic_spacing(self):
        a = np.zeros((5, 5, 5))
        b = np.zeros((5, 5, 5))
        a[2, 2, 0] = 1
        b[2, 2, 1] = 1
        assert h95(mask(a, (1, 1, 3)), mask(b, (1, 1, 3))) == 3.0

    def test_empty_mask_flagged(self):
        with pytest.raises(ValueError):
            h95(mask(np.zeros((3, 3, 3))), random_mask(np.random.default_rng(3), (3, 3, 3)))

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = random_mask(rng, (8, 8, 8)), random_mask(rng, (8, 8, 8))
        assert h95(a, b) == h95(b, a)

    def test_le_exact_hausdorff(self):
        # 95th percentile of nearest distances never exceeds the max
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = random_mask(rng, (12, 12, 12)), random_mask(rng, (12, 12, 12))
            from wmhseg.morphology import border_voxels
            from scipy.spatial import cKDTree

            ba = border_voxels(a).astype(float)
            bb = border_voxels(b).astype(float)
            exact = max(cKDTree(bb).query(ba)[0].max(), cKDTree(ba).query(bb)[0].max())
            assert h95(a, b) <= exact + 1e-12


def shortcut_cases() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Mask pairs whose borders share all, some or none of their voxels."""
    rng = np.random.default_rng(15)
    offset = np.indices((14, 12, 9)).transpose(1, 2, 3, 0) - (7, 6, 4)
    ball = ((offset / (5.0, 4.0, 3.0)) ** 2).sum(-1) <= 1
    small = ((offset / (2.5, 2.0, 1.5)) ** 2).sum(-1) <= 1
    noisy = ball ^ (rng.random(ball.shape) < 0.05)
    far = np.zeros_like(ball)
    far[0:3, 0:2, 0:2] = True
    return {
        "identical": (noisy, noisy),
        "nested": (ball & (offset[..., 0] >= 0), ball),  # shares half the outer border
        "partly_overlapping": (noisy, np.roll(ball, 2, axis=0)),
        "disjoint": (small, far),
    }


class TestH95Shortcut:
    """A border voxel of both masks is 0.0 mm from the other's border, so
    only the border voxels the masks do not share are queried."""

    SPACING = (0.7, 1.3, 2.9)

    @pytest.mark.parametrize("case", ["identical", "nested", "partly_overlapping", "disjoint"])
    def test_matches_oracle_and_queries_only_unshared(self, case, monkeypatch):
        queried = []

        class CountingTree(cKDTree):
            def query(self, x, *args, **kwargs):
                tree_points = {tuple(p) for p in self.data}
                assert not any(tuple(p) in tree_points for p in x)  # none shared
                queried.append(len(x))
                return super().query(x, *args, **kwargs)

        monkeypatch.setattr(metrics, "cKDTree", CountingTree)
        p, g = (mask(a, self.SPACING) for a in shortcut_cases()[case])
        bp = {tuple(v) for v in border_voxels(p)}
        bg = {tuple(v) for v in border_voxels(g)}
        assert h95(p, g) == pytest.approx(oracle_h95(p, g, self.SPACING), abs=1e-9)
        assert sum(queried) <= len(bp ^ bg)
        if case == "identical":
            assert h95(p, g) == 0.0 and sum(queried) == 0
        else:
            assert queried  # the unshared voxels set the 95th percentile


class TestAvd:
    def test_equal_volumes(self):
        m = random_mask(np.random.default_rng(6))
        assert avd_percent(m, m) == 0.0

    def test_ten_percent(self):
        a = np.zeros((5, 5, 5))
        b = np.zeros((5, 5, 5))
        a.ravel()[:110] = 1
        b.ravel()[:100] = 1
        assert avd_percent(mask(a), mask(b)) == 10.0

    def test_empty_prediction(self):
        b = np.zeros((5, 5, 5))
        b.ravel()[:100] = 1
        assert avd_percent(mask(np.zeros((5, 5, 5))), mask(b)) == 100.0

    def test_empty_gt_flagged(self):
        with pytest.raises(ValueError):
            avd_percent(random_mask(np.random.default_rng(7), (3, 3, 3)),
                        mask(np.zeros((3, 3, 3))))


class TestLesionMetrics:
    def test_recall_half(self):
        gt = np.zeros((8, 8, 1))
        gt[0:2, 0:2, 0] = 1
        gt[5:7, 5:7, 0] = 1
        pred = np.zeros((8, 8, 1))
        pred[0, 0, 0] = 1
        assert lesion_recall(mask(pred), mask(gt)) == 0.5

    def test_recall_superset(self):
        rng = np.random.default_rng(8)
        gt = random_mask(rng, (8, 8, 8), 0.1)
        assert lesion_recall(mask(np.ones((8, 8, 8))), gt) == 1.0

    def test_recall_empty_prediction(self):
        gt = np.zeros((4, 4, 4))
        gt[0, 0, 0] = 1
        assert lesion_recall(mask(np.zeros((4, 4, 4))), mask(gt)) == 0.0

    def test_recall_empty_gt_is_one(self):
        assert lesion_recall(mask(np.zeros((3, 3, 3))), mask(np.zeros((3, 3, 3)))) == 1.0

    def test_f1_one_matching_pair_of_two(self):
        gt = np.zeros((10, 10, 1))
        gt[0:2, 0:2, 0] = 1
        gt[7:9, 7:9, 0] = 1
        pred = np.zeros((10, 10, 1))
        pred[0:2, 0:2, 0] = 1  # hits the first gt lesion
        pred[4, 4, 0] = 1  # false positive
        assert evaluate_case(mask(pred), mask(gt)).lesion_f1 == 0.5

    def test_f1_perfect(self):
        rng = np.random.default_rng(9)
        m = random_mask(rng, (8, 8, 8), 0.1)
        assert evaluate_case(m, m).lesion_f1 == 1.0

    def test_f1_no_overlap(self):
        a = np.zeros((6, 6, 1))
        b = np.zeros((6, 6, 1))
        a[0, 0, 0] = 1
        b[5, 5, 0] = 1
        assert evaluate_case(mask(a), mask(b)).lesion_f1 == 0.0

    def test_criterion_7_false_positive_count(self):
        # the count of criterion 7: three predicted components, one on the truth
        pred = np.zeros((9, 9, 1))
        pred[0, 0, 0] = pred[4, 4, 0] = pred[8, 8, 0] = 1
        gt = np.zeros((9, 9, 1))
        gt[0:2, 0, 0] = 1
        lab = connected_components(mask(pred), 26)
        assert lab.count == 3
        assert lab.count - detected_components(lab, mask(gt)) == 2


class TestOracleEquivalence:
    def test_hundred_seeded_trials(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            spacing = (1.0, 1.0, 1.0) if trial % 2 == 0 else (0.5, 1.0, 2.0)
            pred = random_mask(rng, (16, 16, 16), 0.12, spacing)
            gt = random_mask(rng, (16, 16, 16), 0.12, spacing)
            m = evaluate_case(pred, gt)
            assert m.dice == oracle_dice(pred, gt)
            if gt.voxel_count():
                assert m.avd_percent == oracle_avd(pred, gt)
            assert m.lesion_recall == oracle_recall(pred, gt)
            assert m.lesion_f1 == oracle_f1(pred, gt)
            if pred.voxel_count() and gt.voxel_count():
                assert abs(m.h95_mm - oracle_h95(pred, gt, spacing)) <= 1e-9
            gt_voxels = {tuple(c) for c in np.argwhere(gt.data)}
            assert detected_components(connected_components(pred, 26), gt) == sum(
                1 for c in oracle_components(pred.data.astype(bool)) if c & gt_voxels
            )


class TestEvaluateCase:
    def test_labels_each_mask_once(self, monkeypatch):
        calls = []

        def counted(m, connectivity=26):
            calls.append(connectivity)
            return connected_components(m, connectivity)

        monkeypatch.setattr(metrics, "connected_components", counted)
        rng = np.random.default_rng(12)
        evaluate_case(random_mask(rng), random_mask(rng))
        assert calls == [26, 26]

    def test_scans_each_mask_once_and_a_read_mask_never(self, monkeypatch, tmp_path):
        scans = []
        scan = volume_io._scan_foreground

        def counted(data):
            scans.append(data.shape)
            return scan(data)

        monkeypatch.setattr(volume_io, "_scan_foreground", counted)
        rng = np.random.default_rng(14)
        pred, gt = random_mask(rng), random_mask(rng)
        built = evaluate_case(pred, gt)
        assert len(scans) == 2
        write_nifti(pred, tmp_path / "p.nii")
        write_nifti(gt, tmp_path / "g.nii")
        read = read_nifti_mask(tmp_path / "p.nii"), read_nifti_mask(tmp_path / "g.nii")
        scans.clear()
        assert evaluate_case(*read) == built
        assert scans == []

    def test_read_and_largest_component_masks_evaluate_without_a_grid(self, tmp_path):
        """Masks built from their foreground build `data` only when it is
        read, and then build the grid a mask made from it would hold."""
        rng = np.random.default_rng(15)
        pred, gt = random_mask(rng, (7, 9, 5), 0.3), random_mask(rng, (7, 9, 5), 0.3)
        write_nifti(pred, tmp_path / "p.nii")
        write_nifti(gt, tmp_path / "g.nii")
        lazy = (read_nifti_mask(tmp_path / "p.nii"), read_nifti_mask(tmp_path / "g.nii"),
                largest_component(pred), largest_component(gt))
        for m in lazy:
            assert m.dims == (7, 9, 5)
            assert m.voxel_count() == m.foreground.size
            write_nifti(m, tmp_path / "again.nii")
        assert np.array_equal(lazy[0].foreground, pred.foreground)
        assert np.array_equal(lazy[1].foreground, gt.foreground)
        assert evaluate_case(*lazy[:2]) == evaluate_case(pred, gt)
        eager_lcc = (mask(largest_component(m).data) for m in (pred, gt))
        assert evaluate_case(*lazy[2:]) == evaluate_case(*eager_lcc)
        for m in lazy:
            assert "data" not in vars(m)  # evaluated and written from the foreground
            grid = np.isin(np.arange(7 * 9 * 5), m.foreground).reshape(7, 9, 5)
            assert np.array_equal(m.data, grid)
            assert m.data.dtype == np.uint8
            assert m.data.flags.c_contiguous and m.data.flags.writeable
            assert m.data is m.data  # built once, then kept

    def test_grid_check_needs_no_grid(self, tmp_path):
        rng = np.random.default_rng(16)
        write_nifti(random_mask(rng, (4, 5, 6), 0.5), tmp_path / "a.nii")
        write_nifti(random_mask(rng, (4, 5, 7), 0.5), tmp_path / "b.nii")
        write_nifti(random_mask(rng, (4, 5, 6), 0.5, (1, 1, 2)), tmp_path / "c.nii")
        a, b, c = (read_nifti_mask(tmp_path / f"{n}.nii") for n in "abc")
        with pytest.raises(ValueError, match="grid mismatch"):
            evaluate_case(a, b)
        with pytest.raises(ValueError, match="spacing mismatch"):
            evaluate_case(a, c)
        assert all("data" not in vars(m) for m in (a, b, c))

    def test_perfect_case(self):
        m = random_mask(np.random.default_rng(10))
        cm = evaluate_case(m, m)
        assert (cm.dice, cm.h95_mm, cm.avd_percent, cm.lesion_recall,
                cm.lesion_f1) == (1.0, 0.0, 0.0, 1.0, 1.0)

    def test_empty_gt_flags(self):
        pred = random_mask(np.random.default_rng(11), (4, 4, 4))
        gt = mask(np.zeros((4, 4, 4)))
        cm = evaluate_case(pred, gt)
        assert cm.h95_mm is None and cm.avd_percent is None
        assert 0.0 <= cm.dice <= 1.0

    def test_summary_excludes_undefined_with_count(self):
        cases = [
            CaseMetrics(1.0, 2.0, 10.0, 1.0, 1.0),
            CaseMetrics(0.5, None, None, 0.5, 0.5),
        ]
        s = summarize_cases("t", cases)
        assert s.dice == 0.75
        assert s.h95 == 2.0
        assert s.h95_undefined_count == 1
        assert s.avd_undefined_count == 1
        s = summarize_cases("t", cases[1:])  # undefined on every case
        assert (s.h95, s.avd_percent) == (None, None)
        assert (s.h95_undefined_count, s.avd_undefined_count) == (1, 1)


class TestRanking:
    def test_table1_dice_ranks(self):
        table = rank_teams(TABLE1)
        assert abs(table.rank_of("sysu_media", "dice") - 0.0) <= 1e-12
        assert abs(table.rank_of("nih_cidi_2", "dice") - 1.0) <= 1e-12

    def test_table2_best_h95_and_avd(self):
        table = rank_teams(TABLE2)
        assert abs(table.rank_of("nih_cidi_2", "h95") - 0.0) <= 1e-12
        assert abs(table.rank_of("nih_cidi_2", "avd_percent") - 0.0) <= 1e-12

    def test_degenerate_metric_all_zero(self):
        rows = [
            TeamSummary("a", 0.5, 1.0, 10.0, 0.5, 0.5),
            TeamSummary("b", 0.5, 2.0, 20.0, 0.6, 0.7),
        ]
        table = rank_teams(rows)
        assert table.ranks["dice"] == [0.0, 0.0]

    def test_fewer_than_two_teams_rejected(self):
        with pytest.raises(ValueError):
            rank_teams(TABLE1[:1])

    def test_repeated_team_name_rejected(self):
        # a report keyed by team name would keep only one of the two
        twice = [TABLE1[0], replace(TABLE1[1], team=TABLE1[0].team), TABLE1[2]]
        with pytest.raises(ValueError, match="a team name is given twice"):
            rank_teams(twice)

    def test_overall_is_mean_of_five(self):
        table = rank_teams(TABLE1)
        for i, team in enumerate(table.teams):
            mean5 = np.mean([table.ranks[m][i]
                             for m in ("dice", "h95", "avd_percent", "recall", "f1")])
            assert abs(table.overall[i] - mean5) <= 1e-15

    def test_monotone_rank_improvement(self):
        base = rank_teams(TABLE1).rank_of("nih_cidi_2", "dice")
        better = [
            TeamSummary(s.team, s.dice + (0.02 if s.team == "nih_cidi_2" else 0.0),
                        s.h95, s.avd_percent, s.recall, s.f1)
            for s in TABLE1
        ]
        assert rank_teams(better).rank_of("nih_cidi_2", "dice") <= base

    # an H95 undefined on every case of a team summarizes to None; a run
    # report's NaN token parses to NaN
    @pytest.mark.parametrize("nan_position", [0, 1])
    def test_non_finite_value_rejected_in_any_row_order(self, nan_position):
        for h95 in (None, float("nan")):
            rows = [TeamSummary("b", 0.7, 5.0, 10.0, 0.8, 0.7),
                    TeamSummary("c", 0.6, 9.0, 20.0, 0.7, 0.6)]
            rows.insert(nan_position, TeamSummary("a", 0.5, h95, 30.0, 0.6, 0.5))
            with pytest.raises(ValueError, match=f"team 'a' has no finite h95: {h95}"):
                rank_teams(rows)


class TestCsv:
    def test_case_csv_round_trip_values(self, tmp_path):
        rows = [
            ("c0", CaseMetrics(0.9, 1.5, 12.0, 1.0, 0.8)),
            ("c1", CaseMetrics(0.7, None, None, 0.5, 0.4)),
        ]
        path = tmp_path / "cases.csv"
        write_case_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("case_id,dice,h95_mm")
        assert lines[2].split(",")[2] == ""  # undefined h95 empty
        assert lines[2].split(",")[6] == "0"  # defined flag

    def test_rank_csv_written(self, tmp_path):
        table = rank_teams(TABLE1)
        path = tmp_path / "ranks.csv"
        write_rank_csv(path, table)
        header = path.read_text().splitlines()[0]
        assert header == "team,dice_rank,h95_rank,avd_rank,recall_rank,f1_rank,overall_rank"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_property_dice_symmetry_and_range(seed):
    rng = np.random.default_rng(seed)
    a, b = random_mask(rng, (6, 6, 6)), random_mask(rng, (6, 6, 6))
    d = dice(a, b)
    assert 0.0 <= d <= 1.0
    assert d == dice(b, a)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_property_h95_lower_bounded_by_zero_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    a, b = random_mask(rng, (6, 6, 6), 0.3), random_mask(rng, (6, 6, 6), 0.3)
    if a.voxel_count() == 0 or b.voxel_count() == 0:
        return
    v = h95(a, b)
    assert v >= 0.0
    assert v == h95(b, a)
