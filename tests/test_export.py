"""Heatmap images, JSON sidecars, and the per-leaf CSV table."""

import errno
import json
import os

import numpy as np
import pytest

from meshprof import export
from meshprof.analysis import combine
from meshprof.builder import BuildConfig, FixedSampling, ProfileFunction, build
from meshprof.domain import GridDomain
from meshprof.export import leaf_csv, slice_grid, write_heatmap, write_leaf_csv
from meshprof.mesh import constant, leaf_arrays

from helpers import dense_eval, random_subdivision


def exact_tree(domain, fn):
    """Build an exact per-cell tree for an integer-valued cell function."""
    pf = ProfileFunction(1, lambda p: (float(fn(*p.index)),))
    sub, _ = build(pf, domain,
                   BuildConfig(threshold=(0.5,), policy=FixedSampling(4096), seed=0))
    return sub


class TestSliceGrid:
    def test_two_axes_match_dense(self):
        rng = np.random.default_rng(41)
        sub = random_subdivision(rng, GridDomain((8, 6)))
        np.testing.assert_array_equal(slice_grid(sub), dense_eval(sub))

    def test_fixed_axis_selects_the_slice(self):
        sub = exact_tree(GridDomain((4, 4, 2)), lambda i, j, k: k)
        grid = slice_grid(sub, {2: 1})
        assert grid.shape == (4, 4)
        np.testing.assert_array_equal(grid, np.ones((4, 4)))

    def test_single_free_axis_renders_as_strip(self):
        sub = exact_tree(GridDomain((4, 4)), lambda i, j: i)
        grid = slice_grid(sub, {1: 0})
        assert grid.shape == (4, 1)
        np.testing.assert_array_equal(grid[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_no_free_axis_renders_one_pixel(self):
        sub = exact_tree(GridDomain((4, 3)), lambda i, j: 10 * i + j)
        assert slice_grid(sub, {0: 2, 1: 1}).tolist() == [[21.0]]

    def test_errors(self):
        sub = constant(GridDomain((4, 4, 4)), (1.0,))
        with pytest.raises(ValueError, match="free"):
            slice_grid(sub)
        with pytest.raises(ValueError, match="no axis"):
            slice_grid(sub, {7: 0})
        with pytest.raises(ValueError, match="out of range"):
            slice_grid(sub, {0: 9})
        with pytest.raises(ValueError, match="arity"):
            slice_grid(constant(GridDomain((4, 4)), (1.0, 2.0)))


class TestHeatmaps:
    def test_pgm_header_and_size(self, tmp_path):
        sub = constant(GridDomain((8, 4)), (1.0,))
        path = tmp_path / "map.pgm"
        info = write_heatmap(sub, str(path))
        data = path.read_bytes()
        assert data.startswith(b"P5\n8 4\n255\n")
        assert len(data) == len(b"P5\n8 4\n255\n") + 8 * 4
        assert (info.width, info.height) == (8, 4)

    def test_constant_renders_mid_gray(self, tmp_path):
        sub = constant(GridDomain((4, 4)), (7.0,))
        path = tmp_path / "flat.pgm"
        write_heatmap(sub, str(path))
        payload = path.read_bytes().split(b"\n", 3)[3]
        assert payload == bytes([128] * 16)

    def test_rows_run_top_to_bottom(self, tmp_path):
        sub = exact_tree(GridDomain((4, 4)), lambda i, j: j)
        path = tmp_path / "rows.pgm"
        info = write_heatmap(sub, str(path))
        assert (info.vmin, info.vmax) == (0.0, 3.0)
        payload = path.read_bytes().split(b"\n", 3)[3]
        # highest y first, x ascending within a row
        assert payload == bytes([255] * 4 + [170] * 4 + [85] * 4 + [0] * 4)

    def test_diverging_palette_colors(self, tmp_path):
        sub = exact_tree(GridDomain((3, 1)), lambda i, j: 2 * (i - 1))
        path = tmp_path / "diff.ppm"
        write_heatmap(sub, str(path), palette="diverging")
        data = path.read_bytes()
        assert data.startswith(b"P6\n3 1\n255\n")
        payload = data.split(b"\n", 3)[3]
        blue, white, red = payload[0:3], payload[3:6], payload[6:9]
        assert blue == bytes([0, 0, 255])
        assert white == bytes([255, 255, 255])
        assert red == bytes([255, 0, 0])

    def test_unknown_palette(self, tmp_path):
        with pytest.raises(ValueError):
            write_heatmap(constant(GridDomain((2, 2)), (1.0,)),
                          str(tmp_path / "x.pgm"), palette="rainbow")

    def test_sidecar_contents(self, tmp_path):
        sub = exact_tree(GridDomain((4, 4, 2)), lambda i, j, k: i + j + k)
        path = tmp_path / "map.pgm"
        write_heatmap(sub, str(path), fixed={2: 1})
        raw = (tmp_path / "map.pgm.json").read_text()
        doc = json.loads(raw)
        assert doc == {"path": "map.pgm", "width": 4, "height": 4,
                       "min": 1.0, "max": 7.0, "palette": "gray",
                       "fixed_axes": {"2": 1}}
        assert list(doc) == sorted(doc)
        assert raw.endswith("\n")

    def test_writes_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(43)
        sub = random_subdivision(rng, GridDomain((8, 8)))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_heatmap(sub, str(a))
        write_heatmap(sub, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.pgm.json").read_text().replace("a.pgm", "b.pgm") == \
            (tmp_path / "b.pgm.json").read_text()


class TestLeafCsv:
    def test_header_and_row_count(self):
        rng = np.random.default_rng(47)
        sub = random_subdivision(rng, GridDomain((8, 8)))
        lines = leaf_csv(sub).splitlines()
        assert lines[0] == "lo_0,lo_1,hi_0,hi_1,value_0,samples,saturated,degenerate"
        assert len(lines) == 1 + len(leaf_arrays(sub).depth)

    def test_single_leaf_row(self):
        text = leaf_csv(constant(GridDomain((4, 4)), (1.5,)))
        assert text == ("lo_0,lo_1,hi_0,hi_1,value_0,samples,saturated,degenerate\n"
                        "0,0,4,4,1.5,0,0,0\n")

    def test_values_round_trip_through_repr(self):
        third = 1.0 / 3.0
        text = leaf_csv(constant(GridDomain((2, 2)), (third,)))
        cell = text.splitlines()[1].split(",")[4]
        assert float(cell) == third

    def test_degenerate_flag_appears(self):
        dom = GridDomain((2, 2))
        ratio = combine(constant(dom, (1.0,)), constant(dom, (0.0,)), "ratio")
        row = leaf_csv(ratio).splitlines()[1]
        assert row.endswith(",1")  # degenerate flag set

    def test_vector_columns(self):
        text = leaf_csv(constant(GridDomain((2, 2)), (1.0, 2.0)))
        assert text.splitlines()[0].count("value_") == 2

    def test_write_to_disk(self, tmp_path):
        path = tmp_path / "leaves.csv"
        write_leaf_csv(constant(GridDomain((2, 2)), (1.0,)), str(path))
        assert path.read_text() == leaf_csv(constant(GridDomain((2, 2)), (1.0,)))


class TestAtomicWrites:
    """A write that fails partway leaves the old files and no temporary file."""

    @staticmethod
    def fail_on_write(monkeypatch, target: str):
        """Make any write to ``target``, or to a temporary file for it, stop halfway."""
        real_open = open

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def fake_open(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            name, base = os.path.basename(path), os.path.basename(target)
            if name == base or name.startswith(base + ".tmp."):
                return HalfWriter(fh)
            return fh

        monkeypatch.setattr(export, "open", fake_open, raising=False)

    @pytest.mark.parametrize("failing", ["map.pgm", "map.pgm.json"])
    def test_heatmap(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "map.pgm"
        sub = exact_tree(GridDomain((8, 4)), lambda i, j: i + j)
        write_heatmap(constant(GridDomain((2, 2)), (1.0,)), str(path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self.fail_on_write(monkeypatch, str(tmp_path / failing))
        with pytest.raises(OSError):
            write_heatmap(sub, str(path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_leaf_csv(self, tmp_path, monkeypatch):
        path = tmp_path / "leaves.csv"
        self.fail_on_write(monkeypatch, str(path))
        with pytest.raises(OSError):
            write_leaf_csv(random_subdivision(np.random.default_rng(2), GridDomain((8, 8))),
                           str(path))
        assert list(tmp_path.iterdir()) == []
