"""CSV emission, deterministic SVG rendering and a run's export.

All emitters are pure functions of their inputs: floats are written with repr
(CSV) or fixed precision (SVG), nothing timestamped or random, so rerunning
with the same data reproduces byte-identical files. Only `_write_here` opens
an output file. `write_run` writes a run's files, listed once by `_pieces`;
with a trajectory, a child forked by `experiments._forked` formats about half
of them, reporting where each ends, and this process writes every file.
"""

import os
from itertools import chain, groupby, zip_longest
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .experiments import _can_fork, _forked, _parts

SWEEP_COLUMNS = ("a_target", "a_mp", "n_trials", "mean_vot", "sd_vot", "sem_vot",
                 "skewness", "ch_ms", "frac_stabilized", "mean_time_to_threshold",
                 "readout_method", "master_seed")

PLOT_KINDS = ("sweep_line", "field_evolution_heatmap", "surface_2d")


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


class _File:
    """A text file opened at its first write, in place of what its path held,
    so a writer that fails before its first byte leaves no file."""

    fh = None

    def __init__(self, path):
        self.path = path

    def write(self, text):
        if self.fh is None:
            self.fh = open(self.path, "w", newline="", encoding="utf-8")
        return self.fh.write(text)

    def copy(self, fd, start, end):
        """Write bytes start..end of the file `fd` after the text written so
        far, by os.sendfile."""
        self.write("")  # opens the file at its first write
        self.fh.flush()
        while start < end:
            start += os.sendfile(self.fh.fileno(), fd, start, end - start)


def _write_here(pieces):
    """Write `pieces` (see `_pieces`) in this process, each path, and any
    directory it lacks, opened once as a `_File` and its pieces written as
    they come; returns the paths in write order."""
    written = []
    for path, same in groupby(pieces, key=lambda piece: piece[1]):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = _File(path)
        try:
            for _, _, write, *args in same:
                write(fh, *args)
        finally:
            if fh.fh is not None:
                fh.fh.close()
        written.append(path)
    return written


def _write_sweep(fh, result):
    # no field needs quoting: a repr float, an int, "" or a readout method
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for c in result.cells:  # each column from the condition, the cell or the sweep
        row = {**vars(result), **vars(c), **vars(c.condition)}
        fh.write(",".join(_cell(row[name]) for name in SWEEP_COLUMNS) + "\n")


def emit_sweep_csv(result, path):
    """One row per condition, grid order (a_target outer asc, a_mp inner asc)."""
    return _write_here([(0, path, _write_sweep, result)])[0]


def _states(traj, what):
    if traj.states is None:
        raise ConfigError("trajectory has no per-step states (memory-lean mode); "
                          f"re-run with keep_states=True to {what} it")
    return traj.states


def _summary_path(path):
    return path.with_name(path.stem + "_summary" + path.suffix)


def _write_trajectory_rows(fh, traj, start, stop):
    """Step rows start..stop-1 of a trajectory's long CSV; the header goes with
    row 0."""
    states = _states(traj, "export")
    if start == 0:
        fh.write("step,x,u\n")
    # one %-template per step row, "t,0,%r\nt,1,%r\n...": repr of each value
    # is the only per-value work, and one row at a time is held
    lines = [f",{x},%r\n" for x in range(states.shape[1])]
    for t in range(start, stop):
        step = str(t)
        fh.write((step + step.join(lines)) % tuple(states[t].tolist()))


def _write_trajectory_summary(fh, traj):
    fh.write("step,max_u,n_above_threshold\n")
    fh.write("".join("%d,%r,%d\n" % row for row in zip(
        range(len(traj)), traj.max_u.tolist(), traj.n_above.tolist())))


def emit_trajectory_csv(traj, path):
    """Long-format (step, x, u) dump plus a per-step summary file
    (step, max_u, n_above_threshold), which lands next to `path` with an
    `_summary` suffix."""
    path = Path(path)
    return tuple(_write_here([(0, path, _write_trajectory_rows, traj, 0, len(traj)),
                              (0, _summary_path(path), _write_trajectory_summary, traj)]))


# ------------------------------------------------------------ SVG rendering


def _f(v):
    return f"{v:.2f}"


_BLUE = (42, 76, 170)
_YELLOW = (238, 201, 21)
_RED = (188, 36, 38)
_WHITE = (255, 255, 255)
_NO_DATA = "#bdbdbd"  # grey: no value in the blue/white/yellow blends


def _diverging(values, vmax, pos_color, neg_color):
    """Hex fill for each value: white at 0, blended linearly towards
    `pos_color` at +vmax and `neg_color` at -vmax, clipped beyond.

    Returns an array of '#rrggbb' strings shaped like `values`. Channels are
    computed as white + (color - white) * |t| in float64 and rounded half to
    even, so a fill depends only on its value, never on the array around it.
    """
    values = np.asarray(values, dtype=np.float64)
    if vmax <= 0:
        return np.full(values.shape, "#ffffff")
    # fmin/fmax send NaN to +1 (full pos_color), as Python's min/max do
    t = np.fmax(-1.0, np.fmin(1.0, values / vmax))
    neg = t < 0
    a = np.abs(t, out=t)
    # one channel at a time, packed as 0xrrggbb in float64 (exact below 2**53)
    packed = np.zeros(values.shape)
    channel = np.empty(values.shape)
    for w, p, n in zip(_WHITE, pos_color, neg_color):
        np.multiply(a, float(p - w), out=channel)
        np.multiply(a, float(n - w), out=channel, where=neg)
        channel += w
        packed *= 256
        packed += np.rint(channel, out=channel)
    keys, index = np.unique(packed, return_inverse=True)
    table = np.array([f"#{k:06x}" for k in keys.astype(np.int64).tolist()])
    return table[index.reshape(values.shape)]


def _tick_step(span, target_ticks=8):
    if span <= 0:
        return 1.0
    raw = span / target_ticks
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo, hi, step):
    first = np.ceil(lo / step) * step
    vals = []
    v = first
    while v <= hi + 1e-9:
        vals.append(round(v, 9))
        v += step
    return vals


class _Svg:
    def __init__(self, width, height):
        self.width = width
        self.height = height
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
                          f'stroke="{stroke}" stroke-width="{_f(width)}"{d}/>')

    def rect(self, x, y, w, h, fill):
        self.parts.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
                          f'fill="{fill}"/>')

    def circle(self, cx, cy, r, fill):
        self.parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>')

    def polyline(self, pts, stroke="#000000", width=1.5):
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.parts.append(f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
                          f'stroke-width="{_f(width)}"/>')

    def text(self, x, y, s, size=11, anchor="start", fill="#000000"):
        self.parts.append(f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
                          f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{s}</text>')

    def dump(self, fh):
        # part by part: one joined copy of a heatmap is megabytes
        for part in self.parts:
            fh.write(part)
            fh.write("\n")
        fh.write("</svg>\n")


class _Axes:
    """Maps data coordinates onto a margin-framed plot box."""

    def __init__(self, svg, xlim, ylim, left=62, right=16, top=28, bottom=46):
        self.svg = svg
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        self.l, self.t = left, top
        self.w = svg.width - left - right
        self.h = svg.height - top - bottom

    def px(self, x):
        return self.l + (x - self.x0) / (self.x1 - self.x0) * self.w

    def py(self, y):
        return self.t + (self.y1 - y) / (self.y1 - self.y0) * self.h

    def frame(self, xlabel, ylabel):
        s = self.svg
        s.line(self.l, self.t + self.h, self.l + self.w, self.t + self.h)
        s.line(self.l, self.t, self.l, self.t + self.h)
        s.text(self.l + self.w / 2, s.height - 10, xlabel, anchor="middle")
        s.text(14, self.t + self.h / 2, ylabel, anchor="middle")
        # rotate y label around its anchor point
        self.svg.parts[-1] = self.svg.parts[-1].replace(
            "<text ", f'<text transform="rotate(-90 14 {_f(self.t + self.h / 2)})" ', 1)

    def xticks(self, vals, fmt="{:g}"):
        for v in vals:
            x = self.px(v)
            self.svg.line(x, self.t + self.h, x, self.t + self.h + 4)
            self.svg.text(x, self.t + self.h + 16, fmt.format(v), size=10, anchor="middle")

    def yticks(self, vals, fmt="{:g}"):
        for v in vals:
            y = self.py(v)
            self.svg.line(self.l - 4, y, self.l, y)
            self.svg.text(self.l - 7, y + 3.5, fmt.format(v), size=10, anchor="end")


def _colorbar(svg, x, y, height, vmax, pos_color, neg_color):
    """Vertical strip of 40 swatches from +vmax (top) to -vmax."""
    steps = 40
    values = [vmax * (1 - 2 * k / (steps - 1)) for k in range(steps)]
    for k, fill in enumerate(_diverging(values, vmax, pos_color, neg_color).tolist()):
        svg.rect(x, y + k * height / steps, 14, height / steps + 0.05, fill)


def _render_sweep_line(result):
    """mean_vot ± SEM against a_mp, reference line at the target center,
    highlighted conditions marked. Cells whose mean_vot is NaN (no trial gave
    a readout) are left out; the line breaks there."""
    xs = list(result.a_mp_values)
    rows = list(result.a_target_values)
    svg = _Svg(640, 440)
    spans = [(c.mean_vot, 0.0 if np.isnan(c.sem_vot) else c.sem_vot)
             for c in result.cells if not np.isnan(c.mean_vot)]
    lo = min([m - s for m, s in spans] + [result.p_target]) - 1.5
    hi = max([m + s for m, s in spans] + [result.p_target]) + 1.5
    xpad = 0.25 if len(xs) > 1 else 1.0
    ax = _Axes(svg, (min(xs) - xpad, max(xs) + xpad), (lo, hi))
    svg.text(ax.l, 18, f"mean VOT vs competitor amplitude (n={result.cells[0].n_trials}, "
                       f"{result.readout_method})", size=12)
    ax.frame("competitor amplitude a_mp", "mean VOT (ms)")
    ax.xticks(_ticks(min(xs), max(xs), max(1.0, _tick_step(max(xs) - min(xs)))))
    ax.yticks(_ticks(lo, hi, _tick_step(hi - lo)))
    yref = ax.py(result.p_target)
    svg.line(ax.l, yref, ax.l + ax.w, yref, stroke="#777777", dash="6,4")
    svg.text(ax.l + ax.w, yref - 5, f"{result.p_target:g} ms", size=10, anchor="end",
             fill="#777777")
    shades = ["#000000", "#555555", "#999999"]
    for r in range(len(rows)):
        cells = result.cells[r * len(xs):(r + 1) * len(xs)]
        color = shades[r % len(shades)]
        for missing, run in groupby(zip(xs, cells), key=lambda xc: np.isnan(xc[1].mean_vot)):
            if not missing:
                svg.polyline([(ax.px(x), ax.py(c.mean_vot)) for x, c in run], stroke=color)
        for x, c in zip(xs, cells):
            if np.isnan(c.mean_vot):
                continue
            if not np.isnan(c.sem_vot) and c.sem_vot > 0:
                svg.line(ax.px(x), ax.py(c.mean_vot - c.sem_vot),
                         ax.px(x), ax.py(c.mean_vot + c.sem_vot), stroke=color)
            svg.circle(ax.px(x), ax.py(c.mean_vot), 2.5, color)
        for x, c in zip(xs, cells):
            if x in (0.0, -3.0, -6.0):
                if not np.isnan(c.mean_vot):
                    svg.circle(ax.px(x), ax.py(c.mean_vot), 4.5, "#bc2426")
                svg.text(ax.px(x), ax.t + 12, f"a_mp={x:g}", size=10, anchor="middle",
                         fill="#bc2426")
    return svg


def _plot_heatmap(traj):
    """Activation over (time step, field position), diverging around u = 0."""
    states = _states(traj, "plot")
    n_rows, n = states.shape
    svg = _Svg(700, 460)
    ax = _Axes(svg, (0, n_rows), (0, n), left=62, right=90, top=28, bottom=46)
    vmax = float(np.max(np.abs(states)))
    svg.text(ax.l, 18, "field evolution (activation u; threshold at 0)", size=12)
    cw = ax.w / n_rows
    chh = ax.h / n
    xs = [_f(ax.l + t * cw) for t in range(n_rows)]
    ys = [_f(ax.t + (n - 1 - i) * chh) for i in range(n)]
    size = f'width="{_f(cw + 0.05)}" height="{_f(chh + 0.05)}"'
    # one part per time column: the fixed pieces of its n rects, with the
    # column's x and fills set into their slots, joined once
    pieces = []
    for y in ys:
        pieces += ['<rect x="', None, f'" y="{y}" {size} fill="', None, '"/>\n']
    pieces[-1] = '"/>'
    for x, fills in zip(xs, _diverging(states, vmax, _RED, _BLUE)):
        pieces[1::5] = [x] * n
        pieces[3::5] = fills.tolist()
        svg.parts.append("".join(pieces))
    ax.frame("time step", "VOT (ms)")
    ax.xticks(_ticks(0, n_rows - 1, max(1.0, _tick_step(n_rows, 6))))
    ax.yticks(_ticks(0, n, max(1.0, _tick_step(n, 8))))
    # colorbar
    cb_x = svg.width - 70
    cb_h = ax.h * 0.6
    cb_y = ax.t + (ax.h - cb_h) / 2
    _colorbar(svg, cb_x, cb_y, cb_h, vmax, _RED, _BLUE)
    svg.text(cb_x + 18, cb_y + 8, f"{vmax:.1f}", size=9)
    svg.text(cb_x + 18, cb_y + cb_h / 2 + 3, "0", size=9)
    svg.text(cb_x + 18, cb_y + cb_h, f"{-vmax:.1f}", size=9)
    svg.text(cb_x + 7, cb_y - 8, "u", size=10, anchor="middle")
    return svg


def _render_surface(result):
    """ch_ms over the (a_mp, a_target) grid; yellow above the zero plane
    (hyperarticulation), blue below (trace), grey where ch_ms is NaN (no trial
    gave a readout)."""
    xs = list(result.a_mp_values)
    ys = list(result.a_target_values)
    svg = _Svg(640, 420)
    ax = _Axes(svg, (0, len(xs)), (0, len(ys)), left=62, right=120, top=28, bottom=46)
    ch = np.array([c.ch_ms for c in result.cells], dtype=np.float64)
    missing = np.isnan(ch)
    vmax = max(1e-9, float(np.abs(ch[np.isfinite(ch)]).max(initial=0.0)))
    svg.text(ax.l, 18, f"ch_ms over the amplitude grid (zero plane = mean VOT at "
                       f"{result.p_target:g} ms)", size=12)
    cw = ax.w / len(xs)
    chh = ax.h / len(ys)
    fills = _diverging(ch, vmax, _YELLOW, _BLUE)
    fills[missing] = _NO_DATA
    fills = fills.tolist()
    for r in range(len(ys)):
        for k in range(len(xs)):
            svg.rect(ax.l + k * cw, ax.t + (len(ys) - 1 - r) * chh, cw + 0.05, chh + 0.05,
                     fills[r * len(xs) + k])
    ax.frame("competitor amplitude a_mp", "target amplitude a_target")
    for k, v in enumerate(xs):
        if float(v).is_integer():
            svg.line(ax.l + (k + 0.5) * cw, ax.t + ax.h, ax.l + (k + 0.5) * cw, ax.t + ax.h + 4)
            svg.text(ax.l + (k + 0.5) * cw, ax.t + ax.h + 16, f"{v:g}", size=10,
                     anchor="middle")
    for r, v in enumerate(ys):
        if float(v).is_integer():
            y = ax.t + (len(ys) - 1 - r + 0.5) * chh
            svg.line(ax.l - 4, y, ax.l, y)
            svg.text(ax.l - 7, y + 3.5, f"{v:g}", size=10, anchor="end")
    # colorbar with the zero plane marked
    cb_x = svg.width - 100
    cb_h = ax.h * 0.7
    cb_y = ax.t + (ax.h - cb_h) / 2
    _colorbar(svg, cb_x, cb_y, cb_h, vmax, _YELLOW, _BLUE)
    zero_y = cb_y + cb_h / 2
    svg.line(cb_x - 3, zero_y, cb_x + 17, zero_y)
    svg.text(cb_x + 20, cb_y + 8, f"+{vmax:.1f}", size=9)
    svg.text(cb_x + 20, zero_y + 3, f"0 ({result.p_target:g} ms)", size=9)
    svg.text(cb_x + 20, cb_y + cb_h, f"-{vmax:.1f}", size=9)
    svg.text(cb_x + 7, cb_y - 8, "ch_ms", size=10, anchor="middle")
    if missing.any():
        svg.rect(cb_x, cb_y + cb_h + 14, 14, 10, _NO_DATA)
        svg.text(cb_x + 20, cb_y + cb_h + 23, "no data", size=9)
    return svg


def _write_plot(fh, data, kind):
    render = {"sweep_line": _render_sweep_line, "field_evolution_heatmap": _plot_heatmap,
              "surface_2d": _render_surface}.get(kind)
    if render is None:
        raise ConfigError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    render(data).dump(fh)


def render_plots(data, kind, path):
    """Render `data` as a deterministic SVG of the given kind.

    kinds: sweep_line (SweepResult), field_evolution_heatmap (Trajectory with
    states), surface_2d (SweepResult grid).
    """
    return _write_here([(0, path, _write_plot, data, kind)])[0]


# ------------------------------------------------------------ a run's export


def _fork_export(trajectories):
    """Whether `write_run` shares the export with a forked child: for a run
    that exports a trajectory (most of the cost), has memfds and may fork."""
    return bool(trajectories) and hasattr(os, "memfd_create") and _can_fork()


def _pieces(out, stem, sweep, kind, trajectories):
    """A run's export as (cost, path, text writer, *its arguments) pieces in
    write order: the sweep's CSV and plot, then for each trajectory its step
    rows in up to four row ranges (the first with the header), its summary
    and its heatmap. A trajectory's rows are priced at 2 against its heatmap's
    1 (measured: about 3; `_split` cuts simulate, fig6, fig7 and conditions at
    3, 11, 11 and 14 at either price); the sweep's files and a summary cost 0."""
    pieces = []
    if sweep is not None:
        pieces.append((0, out / f"{stem}.csv", _write_sweep, sweep))
    if kind is not None:
        pieces.append((0, out / f"{stem}.svg", _write_plot, sweep, kind))
    for tag, traj in sorted(trajectories.items()):
        path = out / (f"{stem}_traj_{tag}.csv" if tag else f"{stem}.csv")
        rows = _parts(len(traj), -(-len(traj) // 4))
        pieces += [(2 / len(rows), path, _write_trajectory_rows, traj, r.start, r.stop)
                   for r in rows]
        pieces += [(0, _summary_path(path), _write_trajectory_summary, traj),
                   (1, path.with_suffix(".svg"), _write_plot, traj, "field_evolution_heatmap")]
    return pieces


def _split(pieces):
    """Where the child's share of the pieces starts: the tail of the pieces
    up to half their total cost."""
    left = sum(piece[0] for piece in pieces) / 2
    k = len(pieces)
    while pieces[k - 1][0] <= left:
        k -= 1
        left -= pieces[k][0]
    return k


def _handed_back(pieces, memfd, ends):
    """The child's share `pieces` for `_write_here`: a copy from `memfd` of
    each one `ends` says it finished, and each one after as it is."""
    start = 0
    for piece, end in zip_longest(pieces, ends):  # no end: the child stopped before it
        yield piece if end is None else (*piece[:2], _File.copy, memfd, start, end)
        start = end


def _write_forked(pieces):
    """`_write_here` with a forked child (`experiments._forked`) formatting
    the tail of the pieces (`_split`) into a memfd. This process writes every
    file in one pass, copying each piece as the child reports where it ends
    and formatting the rest (`_handed_back`): files, bytes and errors are
    those of one process."""
    k = _split(pieces)
    try:
        memfd = os.memfd_create("votfield-export", os.MFD_CLOEXEC)
    except OSError:  # no memfd: write every file here
        return _write_here(pieces)

    def format_share(report):  # the child's work
        with os.fdopen(memfd, "w", encoding="utf-8", newline="", closefd=False) as fh:
            for _, _, format_piece, *args in pieces[k:]:
                format_piece(fh, *args)
                report(fh.tell())

    try:
        with _forked(format_share) as ends:  # with no child, every piece is formatted here
            return _write_here(chain(pieces[:k], _handed_back(pieces[k:], memfd, ends or ())))
    finally:
        os.close(memfd)


def write_run(out, stem, sweep, kind, trajectories):
    """Write a run's CSV and SVG files; returns their paths in write order.
    Where `_fork_export` allows, a forked child formats about half of them."""
    pieces = _pieces(out, stem, sweep, kind, trajectories)
    return _write_forked(pieces) if _fork_export(trajectories) else _write_here(pieces)
