"""Proportional mosaic layout of a contingency table and SVG rendering.

Bands follow marginal fractions: column band j spans c_j/n of the canvas
width, row band i spans r_i/n of the height.  Cell (i, j) is anchored at
its band origin with width (N_ij / r_i) of the row's extent and height
(N_ij / c_j) of the column's extent, i.e. a square of side N_ij / n in
canvas units.  Cells with zero count are omitted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .evaluation import ContingencyTable


@dataclass(frozen=True)
class MosaicCell:
    row: int
    col: int
    x: float
    y: float
    w: float
    h: float
    value: int


GAP = 0.01  # each band shrinks symmetrically by this fraction of its extent


def layout(table: ContingencyTable) -> tuple:
    """The `MosaicCell`s of the unit-canvas mosaic, bands shrunk by `GAP`."""
    counts = np.asarray(table.counts)
    if counts.size == 0 or counts.sum() == 0:
        raise InputError("empty contingency table")
    n = float(counts.sum())
    r = counts.sum(axis=1).astype(np.float64)
    c = counts.sum(axis=0).astype(np.float64)
    x0 = np.concatenate([[0.0], np.cumsum(c / n)])
    y0 = np.concatenate([[0.0], np.cumsum(r / n)])
    scale = 1.0 - GAP
    cells = []
    for i, j in zip(*np.nonzero(counts)):
        side = counts[i, j] / n
        x = x0[j] + 0.5 * GAP * (c[j] / n)
        y = y0[i] + 0.5 * GAP * (r[i] / n)
        cells.append(MosaicCell(row=int(i), col=int(j), x=float(x), y=float(y),
                                w=float(scale * side), h=float(scale * side),
                                value=int(counts[i, j])))
    return tuple(cells)


_PIXELS = 480  # side of the SVG canvas


def _hue(value: int, vmax: int) -> str:
    # single-hue linear ramp: white -> dark blue
    t = 0.0 if vmax == 0 else value / vmax
    r = int(round(255 - 205 * t))
    g = int(round(255 - 175 * t))
    b = int(round(255 - 80 * t))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(cells: tuple) -> str:
    """Deterministic SVG 1.1 text for the cells of a mosaic layout; cells
    are shaded from white to dark blue by count."""
    vmax = max((c.value for c in cells), default=0)
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_PIXELS}" height="{_PIXELS}" viewBox="0 0 {_PIXELS} {_PIXELS}">')
    out.append(f'<rect x="0" y="0" width="{_PIXELS}" height="{_PIXELS}" fill="#ffffff"/>')
    for cell in cells:
        out.append(
            f'<rect x="{cell.x * _PIXELS:.3f}" y="{cell.y * _PIXELS:.3f}" '
            f'width="{cell.w * _PIXELS:.3f}" height="{cell.h * _PIXELS:.3f}" '
            f'fill="{_hue(cell.value, vmax)}" stroke="#333333" stroke-width="0.5">'
            f'<title>N[{cell.row},{cell.col}]={cell.value}</title></rect>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
