"""Static SVG figures: colored point families rendered as grouped dots.

Each family member becomes one `<g class="piece LABEL">` holding its sample
dots, so piece counts are recoverable from the markup; fills come from the
family label (red / blue / green). The y-axis is flipped so figures read in
the usual mathematical orientation.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Sequence

import numpy as np

from .covers import SubsetFamily

_FILL = {"red": "#d62728", "blue": "#1f77b4", "green": "#2ca02c"}
_MARGIN = 1.0
_SLOT = "slot"  # placeholder element for a piece's dots


def _g_words(values: np.ndarray) -> list[str]:
    """``f"{v:g}"`` for each value, formatting each distinct bit pattern once."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    words = [f"{v:g}" for v in keys.view(np.float64).tolist()]
    return [words[k] for k in inverse.tolist()]


def render_families_svg(points: np.ndarray, families: Sequence[SubsetFamily],
                        path: str | Path, dot_radius: float = 0.12,
                        title: str | None = None) -> Path:
    """Write an SVG of the point set colored by family; returns the path.

    ElementTree writes the skeleton (root, title, frame, family and piece
    groups), so it escapes the labels and the title; each piece's dots are
    then spliced in as one text block.
    """
    pts = np.asarray(points, dtype=np.float64)
    xmin, ymin = pts[:, 0].min() - _MARGIN, pts[:, 1].min() - _MARGIN
    xmax, ymax = pts[:, 0].max() + _MARGIN, pts[:, 1].max() + _MARGIN
    r = f"{dot_radius:g}"
    dots = [f'<circle cx="{x}" cy="{y}" r="{r}" />'
            for x, y in zip(_g_words(pts[:, 0] - xmin), _g_words(ymax - pts[:, 1]))]

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "viewBox": f"0 0 {xmax - xmin:g} {ymax - ymin:g}",
        "width": "640",
    })
    if title is not None:
        ET.SubElement(svg, "title").text = title
    ET.SubElement(svg, "rect", {
        "x": "0", "y": "0",
        "width": f"{xmax - xmin:g}", "height": f"{ymax - ymin:g}",
        "fill": "white",
    })
    blocks = []
    for fam in families:
        fill = _FILL.get(fam.label, "#777777")
        layer = ET.SubElement(svg, "g", {"class": f"family {fam.label}", "fill": fill})
        fam_dots, bounds = [dots[i] for i in fam._index[0].tolist()], fam._index[1].tolist()
        for start, end in zip(bounds, bounds[1:]):
            piece = ET.SubElement(layer, "g", {"class": f"piece {fam.label}"})
            ET.SubElement(piece, _SLOT)
            blocks.append("".join(fam_dots[start:end]))
    # ElementTree escapes every "<" in text and attributes, so the slot
    # markup appears only where a slot element was written
    parts = ET.tostring(svg, encoding="unicode").split(f"<{_SLOT} />")
    out = Path(path)
    with open(out, "w", encoding="utf-8", errors="xmlcharrefreplace") as fh:
        fh.write("<?xml version='1.0' encoding='utf-8'?>\n")
        for part, block in zip(parts, blocks):
            fh.write(part)
            fh.write(block)
        fh.write(parts[-1])
    return out
