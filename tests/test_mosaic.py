"""Mosaic layout geometry and SVG rendering."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from confres import mosaic
from confres.errors import InputError
from confres.evaluation import ContingencyTable, contingency, rms_align
from confres.mosaic import layout, render_svg


@pytest.fixture
def no_gap(monkeypatch):
    """Cells that fill their bands, for exact geometry."""
    monkeypatch.setattr(mosaic, "GAP", 0.0)


def _cells_by_pos(cells):
    return {(c.row, c.col): c for c in cells}


class TestLayout:
    def test_identity_table_two_squares(self, no_gap):
        cells = layout(ContingencyTable(np.diag([5, 5])))
        assert len(cells) == 2
        for cell in cells:
            assert cell.w == pytest.approx(0.5)
            assert cell.h == pytest.approx(0.5)

    def test_split_scenario_half_width_full_height(self, no_gap):
        # category 0 split evenly into predicted clusters 0 and 1
        counts = np.array([[5, 5]])
        cells = _cells_by_pos(layout(ContingencyTable(counts)))
        left, right = cells[(0, 0)], cells[(0, 1)]
        # each column band spans half the canvas; each cell fills it fully
        # in height and takes half the row's extent in width
        assert left.w == pytest.approx(0.5)
        assert left.h == pytest.approx(0.5)
        assert right.x == pytest.approx(0.5)
        assert left.x + left.w == pytest.approx(right.x)

    def test_hand_fractions(self, no_gap):
        counts = np.array([[2, 2], [0, 4]])
        cells = _cells_by_pos(layout(ContingencyTable(counts)))
        n = 8
        # widths/heights are N_ij/n in canvas units (squares)
        assert cells[(0, 0)].w == pytest.approx(2 / n)
        assert cells[(0, 0)].h == pytest.approx(2 / n)
        assert cells[(1, 1)].w == pytest.approx(4 / n)
        # band-relative fractions follow the marginals
        r0, c0 = 4, 2
        assert cells[(0, 0)].w / (r0 / n) == pytest.approx(2 / r0)
        assert cells[(0, 0)].h / (c0 / n) == pytest.approx(2 / c0)
        assert (1, 0) not in cells  # zero cells omitted

    def test_row_and_column_sums_match_band_extents(self, rng, no_gap):
        for _ in range(20):
            counts = rng.integers(0, 9, (4, 5)).astype(np.int64)
            if counts.sum() == 0:
                continue
            cells = layout(ContingencyTable(counts))
            n = counts.sum()
            r = counts.sum(axis=1)
            c = counts.sum(axis=0)
            for i in range(4):
                widths = sum(cell.w for cell in cells if cell.row == i)
                assert widths == pytest.approx(r[i] / n, abs=1e-9)
            for j in range(5):
                heights = sum(cell.h for cell in cells if cell.col == j)
                assert heights == pytest.approx(c[j] / n, abs=1e-9)

    def test_cells_stay_inside_bands(self, rng):
        counts = rng.integers(0, 9, (3, 4)).astype(np.int64)
        counts[0, 0] += 1
        cells = layout(ContingencyTable(counts))
        n = counts.sum()
        x0 = np.concatenate([[0.0], np.cumsum(counts.sum(axis=0) / n)])
        y0 = np.concatenate([[0.0], np.cumsum(counts.sum(axis=1) / n)])
        for cell in cells:
            assert cell.x >= x0[cell.col] - 1e-12
            assert cell.x + cell.w <= x0[cell.col + 1] + 1e-12
            assert cell.y >= y0[cell.row] - 1e-12
            assert cell.y + cell.h <= y0[cell.row + 1] + 1e-12

    def test_errors(self):
        with pytest.raises(InputError):
            layout(ContingencyTable(np.zeros((2, 2), dtype=np.int64)))


class TestRenderSvg:
    def test_well_formed_and_cell_count(self):
        svg = render_svg(layout(ContingencyTable(np.diag([3, 4, 5]))))
        root = ET.fromstring(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 1 + 3  # background + one per nonzero cell

    def test_byte_identical(self):
        table = ContingencyTable(np.array([[2, 1], [0, 3]]))
        assert render_svg(layout(table)) == render_svg(layout(table))

    def test_color_monotone(self):
        svg = render_svg(layout(ContingencyTable(np.array([[1, 0], [0, 9]]))))
        root = ET.fromstring(svg)
        fills = [e.get("fill") for e in root.iter() if e.tag.endswith("rect")]
        # darker fill (smaller channel values) for the larger count
        light, dark = fills[1], fills[2]
        assert int(dark[1:3], 16) < int(light[1:3], 16)

    def test_alignment_grows_diagonal_band(self, rng, no_gap):
        a = rng.integers(0, 5, 200)
        noise = rng.integers(0, 5, 200)
        b = np.where(rng.random(200) < 0.3, noise, a)
        b = rng.permutation(5)[b]  # scramble predicted ids
        table = contingency(a, b)
        aligned = rms_align(table).aligned

        def diagonal_band_area(cells):
            # summed area of the cells whose rectangle the line y = x crosses
            return sum(c.w * c.h for c in cells
                       if c.x <= c.y + c.h and c.y <= c.x + c.w)

        raw_area = diagonal_band_area(layout(table))
        aligned_area = diagonal_band_area(layout(aligned))
        assert aligned_area > raw_area
