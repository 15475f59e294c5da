import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from wmhseg.acceptance import oracle_border, oracle_components, oracle_offsets
from wmhseg.morphology import (
    border_voxels,
    connected_components,
    dilate,
    largest_component,
)
from wmhseg.volume_io import BinaryMask3D

SP = (1.0, 1.0, 1.0)


def mask(arr) -> BinaryMask3D:
    return BinaryMask3D(data=np.asarray(arr, dtype=np.uint8), spacing=SP)


def oracle_partition(data: np.ndarray, connectivity: int) -> set[frozenset]:
    """The brute-force flood fill's components, independent of the
    union-find implementation under test."""
    return {frozenset(c) for c in oracle_components(data, connectivity)}


def partition_of(label_volume) -> set[frozenset]:
    groups = {}
    for coord in np.argwhere(label_volume.labels > 0):
        lab = int(label_volume.labels[tuple(coord)])
        groups.setdefault(lab, set()).add(tuple(int(c) for c in coord))
    return {frozenset(g) for g in groups.values()}


class TestConnectedComponents:
    def test_single_voxel(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        assert connected_components(mask(m), 26).count == 1

    def test_empty_mask(self):
        assert connected_components(mask(np.zeros((3, 3, 3))), 26).count == 0

    def test_corner_touch_connectivity(self):
        m = np.zeros((3, 3, 3))
        m[0, 0, 0] = 1
        m[1, 1, 1] = 1
        assert connected_components(mask(m), 26).count == 1
        assert connected_components(mask(m), 6).count == 2

    def test_edge_touch_18_vs_6(self):
        m = np.zeros((3, 3, 3))
        m[0, 0, 0] = 1
        m[0, 1, 1] = 1  # shares an edge: order-2 offset
        assert connected_components(mask(m), 18).count == 1
        assert connected_components(mask(m), 6).count == 2

    def test_labels_consecutive_and_partition_disjoint(self):
        rng = np.random.default_rng(0)
        m = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
        lab = connected_components(mask(m), 26)
        present = np.unique(lab.labels)
        assert present[0] == 0 or lab.count == present.size
        assert set(present[present > 0]) == set(range(1, lab.count + 1))
        # union of components reproduces the mask
        assert np.array_equal((lab.labels > 0).astype(np.uint8), m)

    def test_labeling_is_first_visit_scan_order(self):
        m = np.zeros((4, 4, 1))
        m[0, 0, 0] = 1  # scanned first -> label 1
        m[3, 3, 0] = 1  # scanned later -> label 2
        lab = connected_components(mask(m), 6)
        assert lab.labels[0, 0, 0] == 1
        assert lab.labels[3, 3, 0] == 2

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_brute_force_on_seeded_trials(self, connectivity):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = (rng.random((6, 6, 6)) < 0.35).astype(np.uint8)
            lab = connected_components(mask(m), connectivity)
            assert partition_of(lab) == oracle_partition(m, connectivity)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_no_edges_wrap_across_rows_or_planes(self, connectivity):
        # Two voxels whose flat indices differ by a neighbour's flat offset
        # but which are not neighbours in space, such as the last voxel of
        # a row and the first of the next, stay separate components.
        shape = (3, 4, 5)
        strides = np.array([20, 5, 1])
        offs = set(oracle_offsets(connectivity))
        flat_offs = {int(np.dot(o, strides)) for o in offs}
        coords = [tuple(int(c) for c in p) for p in np.argwhere(np.ones(shape))]
        pairs = [
            (p, q)
            for p in coords
            for q in coords
            if int(np.dot(np.subtract(q, p), strides)) in flat_offs
            and tuple(np.subtract(q, p).tolist()) not in offs
        ]
        assert ((0, 0, 4), (0, 1, 0)) in pairs  # row end -> next row start
        assert ((0, 3, 4), (1, 0, 0)) in pairs  # plane end -> next plane start
        for p, q in pairs:
            m = np.zeros(shape)
            m[p] = m[q] = 1
            assert connected_components(mask(m), connectivity).count == 2, (p, q)

    @pytest.mark.parametrize(
        "shape", [(1, 12, 1), (12, 1, 1), (1, 1, 12), (1, 5, 7), (4, 1, 6), (3, 7, 2)]
    )
    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_first_visit_order_on_irregular_grids(self, shape, connectivity):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = (rng.random(shape) < 0.5).astype(np.uint8)
            lab = connected_components(mask(m), connectivity)
            assert partition_of(lab) == oracle_partition(m, connectivity)
            # label k's first voxel in C-order comes after label k-1's
            firsts = [np.flatnonzero(lab.labels == k).min() for k in range(1, lab.count + 1)]
            assert all(a < b for a, b in zip(firsts, firsts[1:]))

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_serpentine_path_is_one_component(self, connectivity):
        # A face-connected path along y on every other row (z) of every
        # other plane (x), reversing at each row and plane. Parallel runs
        # sit two voxels apart, so they touch only through the path.
        shape = (32, 32, 8)
        corners = []
        for i, x in enumerate(range(0, shape[0], 2)):
            zs = list(range(0, shape[2], 2))
            for z in reversed(zs) if i % 2 else zs:
                ys = (0, shape[1] - 1) if len(corners) % 4 == 0 else (shape[1] - 1, 0)
                corners += [(x, ys[0], z), (x, ys[1], z)]
        m = np.zeros(shape, dtype=np.uint8)
        for p, q in zip(corners, corners[1:]):
            lo, hi = np.minimum(p, q), np.maximum(p, q) + 1
            m[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = 1
        lab = connected_components(mask(m), connectivity)
        assert lab.count == 1
        assert np.array_equal(lab.labels, m)
        x, _, z = corners[len(corners) // 2]
        m[x, shape[1] // 2, z] = 0  # cut the path in the middle of a run
        cut = connected_components(mask(m), connectivity)
        assert cut.count == 2
        assert cut.labels[corners[0]] != cut.labels[corners[-1]]

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_comb_is_one_component(self, connectivity):
        # Teeth along x start at x = 0 and meet only at a spine in the
        # last plane, so every tooth joins its root late in the scan.
        shape = (32, 32, 8)
        m = np.zeros(shape, dtype=np.uint8)
        m[:, ::2, ::2] = 1
        m[-1, :, ::2] = 1
        m[-1, 0, :] = 1
        lab = connected_components(mask(m), connectivity)
        assert lab.count == 1
        assert np.array_equal(lab.labels, m)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_matches_scipy_label_at_scale(self, connectivity):
        rng = np.random.default_rng(2019)
        shape = (96, 96, 24)
        grid = np.indices(shape)
        m = rng.random(shape) < 0.01  # scattered voxels make diagonal contacts
        for _ in range(40):
            center = rng.uniform(0, shape)
            semiaxes = rng.uniform(1.0, 4.0, 3)
            d = (grid - center[:, None, None, None]) / semiaxes[:, None, None, None]
            m |= (d**2).sum(axis=0) <= 1
        structure = ndimage.generate_binary_structure(3, {6: 1, 18: 2, 26: 3}[connectivity])
        ref, ref_count = ndimage.label(m, structure)
        lab = connected_components(mask(m), connectivity)
        assert lab.count == ref_count
        pairs = np.unique(np.stack([lab.labels[m], ref[m]]), axis=1)
        assert pairs.shape[1] == lab.count  # one-to-one: same partition

    def test_empty_mask_still_checks_connectivity(self):
        with pytest.raises(ValueError):
            connected_components(mask(np.zeros((3, 3, 3))), 5)

    def test_labels_per_foreground_voxel_and_dense_grid_on_demand(self):
        m = (np.random.default_rng(5).random((9, 7, 5)) < 0.3).astype(np.uint8)
        lab = connected_components(mask(m), 26)
        assert np.array_equal(lab.foreground, np.flatnonzero(m))
        assert "labels" not in vars(lab)  # no dense grid until one is asked for
        dense = lab.labels
        assert dense is lab.labels and dense.dtype == np.int32
        assert np.array_equal(dense.reshape(-1)[lab.foreground], lab.voxel_labels)
        assert np.array_equal(dense > 0, m > 0)
        # the largest component is built from its foreground and keeps it
        big = largest_component(mask(m), 26)
        assert np.array_equal(big._foreground, np.flatnonzero(big.data))

    def test_component_sizes(self):
        m = np.zeros((6, 6, 1))
        m[0:2, 0, 0] = 1
        m[4, 4:6, 0] = 1
        m[3, 0, 0] = 1
        lab = connected_components(mask(m), 6)
        assert sorted(lab.component_sizes()[1:].tolist()) == [1, 2, 2]


class TestLargestComponent:
    def test_picks_max_count(self):
        m = np.zeros((10, 3, 3))
        m[0:5, 0, 0] = 1  # size 5
        m[7:10, 2, 2] = 1  # size 3
        out = largest_component(mask(m), 6)
        assert out.voxel_count() == 5
        assert out.data[0, 0, 0] == 1

    def test_single_component_unchanged(self):
        m = np.zeros((4, 4, 4))
        m[1:3, 1:3, 1:3] = 1
        out = largest_component(mask(m), 6)
        assert np.array_equal(out.data, mask(m).data)

    def test_tie_goes_to_scan_order_first(self):
        m = np.zeros((6, 6, 1))
        m[0, 0, 0] = 1  # earlier in scan order
        m[5, 5, 0] = 1
        out = largest_component(mask(m), 6)
        assert out.data[0, 0, 0] == 1 and out.data[5, 5, 0] == 0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            largest_component(mask(np.zeros((2, 2, 2))), 6)

    def test_subset_of_input(self):
        rng = np.random.default_rng(1)
        m = (rng.random((8, 8, 4)) < 0.2).astype(np.uint8)
        if m.sum() == 0:
            m[0, 0, 0] = 1
        out = largest_component(mask(m), 26)
        assert not np.any(out.data & ~m)


class TestDilate:
    def test_radius_zero_identity(self):
        rng = np.random.default_rng(2)
        m = (rng.random((5, 5, 5)) < 0.3).astype(np.uint8)
        assert np.array_equal(dilate(mask(m), 0, 6).data, m)

    def test_single_voxel_6conn_radius1(self):
        m = np.zeros((5, 5, 5))
        m[2, 2, 2] = 1
        assert dilate(mask(m), 1, 6).voxel_count() == 7

    def test_single_voxel_26conn_radius1(self):
        m = np.zeros((5, 5, 5))
        m[2, 2, 2] = 1
        assert dilate(mask(m), 1, 26).voxel_count() == 27

    def test_empty_stays_empty(self):
        assert dilate(mask(np.zeros((4, 4, 4))), 3, 6).voxel_count() == 0

    def test_superset_of_input(self):
        rng = np.random.default_rng(3)
        m = (rng.random((6, 6, 6)) < 0.2).astype(np.uint8)
        out = dilate(mask(m), 2, 6)
        assert np.all(out.data >= m)

    def test_boundary_clipping(self):
        m = np.zeros((3, 3, 3))
        m[0, 0, 0] = 1
        out = dilate(mask(m), 1, 6)
        assert out.voxel_count() == 4  # 3 of 6 neighbors fall outside

    @pytest.mark.parametrize("conn", [6, 26])
    def test_iterated_dilation_composes(self, conn):
        # dilate(m, a+b) == dilate(dilate(m, a), b), brute force on 8^3 masks
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = mask((rng.random((8, 8, 8)) < 0.1).astype(np.uint8))
            for a, b in ((1, 1), (1, 2), (2, 1)):
                lhs = dilate(m, a + b, conn)
                rhs = dilate(dilate(m, a, conn), b, conn)
                assert np.array_equal(lhs.data, rhs.data)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            dilate(mask(np.zeros((2, 2, 2))), -1, 6)


class TestBorderVoxels:
    def test_solid_cube(self):
        m = np.zeros((5, 5, 5))
        m[1:4, 1:4, 1:4] = 1
        assert len(border_voxels(mask(m))) == 26  # all but the center

    def test_single_voxel(self):
        m = np.zeros((3, 3, 3))
        m[1, 1, 1] = 1
        b = border_voxels(mask(m))
        assert b.tolist() == [[1, 1, 1]]

    def test_empty(self):
        assert border_voxels(mask(np.zeros((3, 3, 3)))).size == 0

    def test_volume_boundary_counts_as_outside(self):
        m = np.ones((2, 2, 2))
        assert len(border_voxels(mask(m))) == 8

    def test_brute_force_agreement(self):
        # criterion 4's oracle: the same coordinates in the same order, on
        # random shapes with singleton axes and on the full and empty grid
        rng = np.random.default_rng(5)
        shapes = [(6, 6, 6), (1, 7, 9), (8, 1, 1), (1, 1, 1), (5, 1, 6), (4, 9, 1)]
        shapes += [tuple(int(n) for n in rng.integers(1, 10, size=3)) for _ in range(10)]
        for shape in shapes:
            for arr in (rng.random(shape) < 0.4, np.ones(shape, bool), np.zeros(shape, bool)):
                got = border_voxels(mask(arr))
                assert got.dtype == np.int64 and got.shape[1:] == (3,)
                assert np.array_equal(got, oracle_border(arr).reshape(-1, 3))

    def test_row_wrap_is_not_an_edge(self):
        # (x, y, 4) and (x, y + 1, 0) are flat-adjacent but not neighbours.
        # In the full grid each has five in-grid neighbours, so both are
        # border voxels; a wrapped edge would give each a sixth.
        got = {tuple(c) for c in border_voxels(mask(np.ones((3, 4, 5)))).tolist()}
        for x in range(3):
            for y in range(3):
                assert {(x, y, 4), (x, y + 1, 0)} <= got


# Grids of 1-4 voxels per axis, where most voxels lie on a face, an edge or
# a corner of the grid.
small_grids = st.tuples(*[st.integers(1, 4)] * 3).flatmap(
    lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1)))


@settings(max_examples=150, deadline=None)
@given(grid=small_grids, connectivity=st.sampled_from([6, 18, 26]))
def test_property_labels_and_borders_match_oracles_in_any_order(grid, connectivity):
    """Labels and borders share a mask's kept edges, so neither may depend
    on which of them ran first."""
    border = oracle_border(grid.astype(bool)).reshape(-1, 3)
    fresh = connected_components(mask(grid), connectivity)
    assert partition_of(fresh) == oracle_partition(grid, connectivity)
    assert np.array_equal(border_voxels(mask(grid)), border)

    labels_first = mask(grid)
    lab = connected_components(labels_first, connectivity)
    assert np.array_equal(border_voxels(labels_first), border)
    border_first = mask(grid)
    assert np.array_equal(border_voxels(border_first), border)
    lab2 = connected_components(border_first, connectivity)
    for other in (lab, lab2):
        assert other.count == fresh.count
        assert np.array_equal(other.voxel_labels, fresh.voxel_labels)
