"""CSV, JSON and SVG emission.

CSV files carry full double precision (17 significant digits) so reruns
can be compared byte for byte. SVG plots are generated directly as
polylines; they are conveniences for eyeballing runs, the CSVs are the
data of record.

The CSV text comes from ``csvtext.format_block``, which writes every
value as ``fmt`` would, a block at a time. The CSV writers import it on
first use: without bytecode files each run compiles the modules it
imports, and start-up compiles only what every command needs.
"""
from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from .reports import write_json_atomic
from .system import row_blocks


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def trajectory_rows(traj) -> Iterator[bytes]:
    """The samples' CSV text over the stored width w, one block of rows after another.

    A row is ``format_block`` of the time and the stored row's sizes 1..w;
    a block holds at most ``system.BLOCK_CELLS`` values. The text does not
    depend on truncation_k, so a run that serves several k is formatted once.
    """
    from .csvtext import format_block

    times, states = traj.times, traj.states
    for rows in row_blocks(times.size, states.shape[1] + 1):
        yield format_block(np.column_stack((times[rows], states[rows])))


def write_trajectory_csv(path: str, traj, rows=None) -> str:
    """One row per sample, over all k sizes; the same text as joining ``fmt`` of every value.

    Each row is its ``trajectory_rows`` text, then one literal run of
    ``,0`` from the stored width out to size k, the same for every row. A
    block goes to the file in one write, each newline replaced by that run
    and a newline. ``rows`` is those blocks of a run with the same times
    and states, formatted once by a caller that writes it at several k;
    without it, each block goes to the file as it is formatted.
    """
    k = traj.truncation_k
    end = b",0" * (k - traj.states.shape[1]) + b"\n"
    with _create(path, "wb") as fh:
        fh.write(("t,xi_" + ",xi_".join(map(str, range(1, k + 1))) + "\n").encode())
        for block in trajectory_rows(traj) if rows is None else rows:
            fh.write(block.replace(b"\n", end))
    return path


def write_diagnostics_csv(path: str, traj) -> str:
    """One row per sample; the same text as joining ``fmt`` of every value.

    The rows go through ``format_block`` a block of at most
    ``system.BLOCK_CELLS`` values at a time, each written as it is formatted.
    """
    from .csvtext import format_block

    values = np.array([(t, d.moment_0, d.moment_1, d.moment_2, d.tail_mass_fraction, d.rhs_sup,
                        d.mass_leak_rate) for t, d in zip(traj.times.tolist(), traj.diagnostics)],
                      dtype=float).reshape(-1, 7)
    with _create(path, "wb") as fh:
        fh.write(b"t,M0,M1,M2,tail_fraction,rhs_sup,mass_leak_rate\n")
        for rows in row_blocks(len(values), 7):
            fh.write(format_block(values[rows]))
    return path


def write_summary_json(path: str, payload: dict) -> str:
    return write_json_atomic(path, payload)


def _create(path: str, mode: str = "w"):
    """path opened for writing (text unless mode says otherwise), its directory created first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, mode)


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
SVG_WIDTH = 640
SVG_HEIGHT = 420


def write_line_svg(
    path: str,
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Minimal polyline plot of SVG_WIDTH x SVG_HEIGHT pixels. Log axes drop nonpositive points."""
    x = np.asarray(x, dtype=float)
    width, height = SVG_WIDTH, SVG_HEIGHT
    ml, mr, mt, mb = 70, 20, 34, 48
    pw, ph = width - ml - mr, height - mt - mb

    def tx(v):
        return np.log10(v) if logx else v

    def ty(v):
        return np.log10(v) if logy else v

    xs_all, ys_all = [], []
    clean = []
    for label, ys in series:
        ys = np.asarray(ys, dtype=float)
        mask = np.isfinite(ys) & np.isfinite(x)
        if logy:
            mask &= ys > 0
        if logx:
            mask &= x > 0
        xv, yv = tx(x[mask]), ty(ys[mask])
        clean.append((label, xv, yv))
        xs_all.append(xv)
        ys_all.append(yv)
    xs_all = np.concatenate(xs_all) if xs_all else np.array([0.0, 1.0])
    ys_all = np.concatenate(ys_all) if ys_all else np.array([0.0, 1.0])
    if xs_all.size == 0:
        xs_all = np.array([0.0, 1.0])
    if ys_all.size == 0:
        ys_all = np.array([0.0, 1.0])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def py(v):
        return mt + ph - (v - y0) / (y1 - y0) * ph

    def esc(s):
        return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{esc(title)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        xlab = f"1e{xv:.2g}" if logx else f"{xv:.4g}"
        ylab = f"1e{yv:.2g}" if logy else f"{yv:.4g}"
        parts.append(
            f'<line x1="{px(xv):.1f}" y1="{mt + ph}" x2="{px(xv):.1f}" y2="{mt + ph + 5}" stroke="#444"/>'
            f'<text x="{px(xv):.1f}" y="{mt + ph + 18}" text-anchor="middle" font-size="10">{xlab}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(yv):.1f}" x2="{ml}" y2="{py(yv):.1f}" stroke="#444"/>'
            f'<text x="{ml - 8}" y="{py(yv):.1f}" text-anchor="end" dominant-baseline="middle" '
            f'font-size="10">{ylab}</text>'
        )
    for n, (label, xv, yv) in enumerate(clean):
        color = _COLORS[n % len(_COLORS)]
        if xv.size:
            pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, yv))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{ml + 10}" y="{mt + 16 + 14 * n}" font-size="11" fill="{color}">{esc(label)}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle" font-size="12">{esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2})">{esc(ylabel)}</text>'
    )
    parts.append("</svg>")
    with _create(path) as fh:
        fh.write("\n".join(parts) + "\n")
    return path
