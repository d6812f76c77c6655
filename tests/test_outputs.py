"""CSV schemas and deterministic SVG rendering."""

import base64
import csv
import math
import os
import re
import struct
import tracemalloc
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from votfield import experiments, outputs
from votfield import (SWEEP_COLUMNS, Condition, ConditionStats, ConfigError,
                      FieldParams, FieldState, GaussianInput, SweepResult,
                      Trajectory, compose_inputs, config_from_dict,
                      default_config, emit_sweep_csv, emit_trajectory_csv,
                      evolve, example_trajectory, render_plots, sweep_1d,
                      sweep_2d)


@pytest.fixture(scope="module")
def tiny_sweep():
    return sweep_1d(a_mp_range=(-1.0, 0.0, 0.5), n_trials=4, master_seed=2)


@pytest.fixture(scope="module")
def tiny_grid():
    return sweep_2d(a_mp_range=(-1.0, 0.0, 1.0), a_target_range=(5.0, 6.0, 1.0),
                    n_trials=2, master_seed=2)


@pytest.fixture(scope="module")
def traj():
    return example_trajectory(None, Condition(6.0, 0.0), 2)


@pytest.fixture(scope="module")
def lean_traj():
    params = FieldParams(field_size=40, n_steps=10)
    drive = compose_inputs([GaussianInput(6.0, 20.0, 5.0, "target")], 40)
    return evolve(None, drive, params, np.random.default_rng(1), keep_states=False)


def test_sweep_csv_schema_and_row_count(tiny_sweep, tmp_path):
    path = emit_sweep_csv(tiny_sweep, tmp_path / "s.csv")
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[0] == ("a_target,a_mp,n_trials,mean_vot,sd_vot,sem_vot,skewness,"
                        "ch_ms,frac_stabilized,mean_time_to_threshold,"
                        "readout_method,master_seed")
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "6.0" and first[1] == "-1.0" and first[2] == "4"
    assert first[10] == "argmax" and first[11] == "2"
    assert text.endswith("\n") and "\r" not in text


def test_sweep_csv_values_round_trip_exactly(tiny_sweep, tmp_path):
    path = emit_sweep_csv(tiny_sweep, tmp_path / "s.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, cell in zip(rows, tiny_sweep.cells):
        assert float(row["a_mp"]) == cell.condition.a_mp
        assert float(row["mean_vot"]) == cell.mean_vot  # repr round-trips floats
        assert float(row["ch_ms"]) == cell.ch_ms
        assert int(row["n_trials"]) == cell.n_trials


def test_sweep_csv_blank_cell_for_missing_values(tmp_path):
    stats = ConditionStats(condition=Condition(6.0, -6.0), n_trials=2,
                           mean_vot=math.nan, sd_vot=math.nan, sem_vot=math.nan,
                           skewness=math.nan, ch_ms=math.nan, frac_stabilized=0.0,
                           mean_time_to_threshold=None)
    res = SweepResult(a_target_values=(6.0,), a_mp_values=(-6.0,), cells=(stats,),
                      master_seed=1, readout_method="first_to_threshold",
                      p_target=70.0, config=default_config())
    line = emit_sweep_csv(res, tmp_path / "s.csv").read_text().splitlines()[1]
    cells = line.split(",")
    assert cells[9] == ""  # None -> empty cell
    assert cells[3] == "nan"


def test_trajectory_csv_long_format_and_summary(traj, tmp_path):
    path, spath = emit_trajectory_csv(traj, tmp_path / "t.csv")
    assert spath == tmp_path / "t_summary.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "step,x,u"
    assert len(lines) == 1 + 121 * 200
    n = traj.states.shape[1]
    for k, line in enumerate(lines[1:]):
        step, x, u = line.split(",")
        assert (int(step), int(x)) == divmod(k, n)
        assert float(u) == traj.states[int(step), int(x)]  # repr round-trips floats

    slines = spath.read_text().splitlines()
    assert slines[0] == "step,max_u,n_above_threshold"
    assert len(slines) == 1 + 121
    last = slines[-1].split(",")
    assert int(last[0]) == 120
    assert float(last[1]) == traj.max_u[-1]
    assert int(last[2]) == traj.n_above[-1]


def test_trajectory_csv_requires_states(lean_traj, tmp_path):
    with pytest.raises(ConfigError, match="keep_states"):
        emit_trajectory_csv(lean_traj, tmp_path / "t.csv")


def test_svg_outputs_deterministic_and_wellformed(tiny_sweep, traj, tmp_path):
    a = render_plots(tiny_sweep, "sweep_line", tmp_path / "a.svg").read_bytes()
    b = render_plots(tiny_sweep, "sweep_line", tmp_path / "b.svg").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("<?xml")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text and "mean VOT" in text

    h1 = render_plots(traj, "field_evolution_heatmap", tmp_path / "h1.svg").read_bytes()
    h2 = render_plots(traj, "field_evolution_heatmap", tmp_path / "h2.svg").read_bytes()
    assert h1 == h2
    text = h1.decode()
    assert text.count("<rect") == 1 + 40 and text.count("<image") == 1  # background, colorbar
    for svg in (a, h1):
        assert ET.fromstring(svg).tag == "{http://www.w3.org/2000/svg}svg"


def _reference_fill(v, vmax, pos_color, neg_color):
    """Per-value scalar form of the renderer's diverging colour map."""
    if vmax <= 0:
        return "#ffffff"
    t = max(-1.0, min(1.0, v / vmax))
    color, t = (pos_color, t) if t >= 0 else (neg_color, -t)
    rgb = (255 + (c - 255) * t for c in color)
    return "#%02x%02x%02x" % tuple(int(round(c)) for c in rgb)


_RECT = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" '
                   r'fill="([^"]+)"/>')
_HEAT_RED = (188, 36, 38)
_HEAT_BLUE = (42, 76, 170)


def _states_trajectory(states):
    states = np.asarray(states, dtype=np.float64)
    return Trajectory(states=states, final=FieldState(states[-1]),
                      max_u=states.max(axis=1), n_above=(states > 0).sum(axis=1),
                      first_cross_step=None, first_cross_pos=None)


_SVG_NS = "{http://www.w3.org/2000/svg}"
_XLINK_NS = "{http://www.w3.org/1999/xlink}"
_PNG_HREF = "data:image/png;base64,"


def _png_chunks(png):
    """(type, data) of each chunk of a PNG file, after checking the signature
    and every chunk's CRC."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        size, = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + size]
        assert png[pos + 8 + size:pos + 12 + size] == struct.pack(">I", zlib.crc32(kind + data))
        chunks.append((kind, data))
        pos += 12 + size
    return chunks


def _stored_blocks(stream):
    """The deflate blocks of a zlib stream, after checking that each is a
    stored block (type 00) with its length and the length's complement, that
    only the last is final, and the adler32 that ends the stream."""
    assert stream[:2] == b"\x78\x01"  # deflate, 32 KiB window, no dictionary
    blocks, pos, final = [], 2, 0
    while not final:
        final, size, nsize = struct.unpack("<BHH", stream[pos:pos + 5])
        assert final in (0, 1) and nsize == size ^ 0xffff
        blocks.append(stream[pos + 5:pos + 5 + size])
        pos += 5 + size
    assert stream[pos:] == struct.pack(">I", zlib.adler32(b"".join(blocks)))
    return blocks


def _png_pixels(png):
    """(height, width, 3) RGB bytes of a PNG as `outputs._png` writes it:
    8-bit RGB, one IDAT of stored blocks, no row filter."""
    chunks = _png_chunks(png)
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    width, height, *form = struct.unpack(">IIBBBBB", chunks[0][1])
    assert form == [8, 2, 0, 0, 0]  # bit depth, RGB, deflate, adaptive filters, no interlace
    raw = zlib.decompress(chunks[1][1])
    assert b"".join(_stored_blocks(chunks[1][1])) == raw
    rows = np.frombuffer(raw, np.uint8).reshape(height, 1 + 3 * width)
    assert not rows[:, 0].any()  # filter type 0 (None): the bytes are the pixels
    return rows[:, 1:].reshape(height, width, 3)


def test_png_of_a_small_image_is_pinned_byte_for_byte():
    pixels = np.array([[0xbc2426, 0xffffff, 0x2a4caa], [0x000000, 0x0102fe, 0xde9292]])
    png = outputs._png(pixels)
    assert png == bytes.fromhex(
        "89504e470d0a1a0a"  # signature
        "0000000d 49484452 00000003 00000002 08 02 00 00 00 1216f14d"  # IHDR: 3 x 2 RGB; CRC
        "0000001f 49444154 7801"  # IDAT of 31 bytes: the zlib header
        "01 1400 ebff"  # one stored block, final: 20 bytes, and 20's complement
        "00 bc2426 ffffff 2a4caa"  # row 0: filter type 0, then the pixels
        "00 000000 0102fe de9292"  # row 1
        "55410827 c931813e"  # adler32 of the 20 bytes; IDAT's CRC
        "00000000 49454e44 ae426082")  # IEND
    assert _png_pixels(png).tolist() == [[[188, 36, 38], [255, 255, 255], [42, 76, 170]],
                                         [[0, 0, 0], [1, 2, 254], [222, 146, 146]]]


def test_png_round_trips_an_image_of_several_stored_blocks():
    pixels = np.random.default_rng(5).integers(0, 1 << 24, (200, 121))
    png = outputs._png(pixels[::-1].T)  # a strided view, as the heatmap passes
    idat = _png_chunks(png)[1][1]
    assert [len(b) for b in _stored_blocks(idat)] == [65535, 121 * (1 + 3 * 200) - 65535]
    rgb = _png_pixels(png).astype(np.int64)
    assert (rgb[:, :, 0] << 16 | rgb[:, :, 1] << 8 | rgb[:, :, 2] == pixels[::-1].T).all()


def _heatmap_fills(svg, traj):
    """'#rrggbb' of each pixel of the heatmap file `svg` (bytes), indexed
    [step, position], after checking that the file parses as XML, that it is
    the reference writer's text around its one PNG image, which has a pixel
    per (step, position) with position 0 at the bottom, and that the
    40-swatch colorbar has the scalar reference's fills."""
    href = ET.fromstring(svg).find(_SVG_NS + "image").get(_XLINK_NS + "href")
    assert href.startswith(_PNG_HREF)
    text = svg.decode()
    assert text == _reference_heatmap(traj, href)
    vmax = float(np.max(np.abs(traj.states)))
    bar = [_reference_fill(vmax * (1 - 2 * k / 39), vmax, _HEAT_RED, _HEAT_BLUE)
           for k in range(40)]
    assert [r[4] for r in _RECT.findall(text)[1:]] == bar
    rgb = _png_pixels(base64.b64decode(href[len(_PNG_HREF):], validate=True))
    n_rows, n = traj.states.shape
    assert rgb.shape == (n, n_rows, 3)
    return np.array([["#%02x%02x%02x" % tuple(c) for c in column]
                     for column in rgb[::-1].transpose(1, 0, 2).tolist()])


def _render_heatmap(traj, tmp_path):
    return render_plots(traj, "field_evolution_heatmap", tmp_path / "h.svg").read_bytes()


def _expected_fills(states):
    vmax = float(np.max(np.abs(states)))
    return [[_reference_fill(u, vmax, _HEAT_RED, _HEAT_BLUE) for u in row]
            for row in states.tolist()]


def test_heatmap_cells_match_scalar_reference(traj, tmp_path):
    fills = _heatmap_fills(_render_heatmap(traj, tmp_path), traj)
    assert fills.tolist() == _expected_fills(traj.states)


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "inf_nan"])
def test_heatmap_cells_of_awkward_states_match_scalar_reference(finite, tmp_path):
    traj = _states_trajectory(_awkward_states(finite))
    fills = _heatmap_fills(_render_heatmap(traj, tmp_path), traj)
    assert fills.tolist() == _expected_fills(traj.states)


def test_heatmap_of_all_zero_field_is_white(tmp_path):
    traj = _states_trajectory(np.zeros((5, 7)))
    fills = _heatmap_fills(_render_heatmap(traj, tmp_path), traj)
    assert fills.tolist() == _expected_fills(traj.states)
    assert set(fills.ravel().tolist()) == {"#ffffff"}


def test_heatmap_extremes_and_half_channel_ties(tmp_path):
    # vmax = 2; t = +-0.5 puts channels exactly on .5: 255 - 217 * 0.5 = 146.5
    # (red's blue) and 255 - 213 * 0.5 = 148.5 (blue's red) round to even
    states = np.array([[2.0, 1.0, 0.0, -1.0],
                       [-2.0, 0.5, -0.5, 0.0],
                       [3e-9, -3e-9, 1.0, -1.0]])
    traj = _states_trajectory(states)
    fills = _heatmap_fills(_render_heatmap(traj, tmp_path), traj)
    assert fills.tolist() == _expected_fills(states)
    assert fills[0, 0] == "#bc2426" and fills[1, 0] == "#2a4caa"  # +-vmax: full colours
    assert fills[0, 1] == "#de9292" and fills[0, 3] == "#94a6d4"
    assert fills[0, 2] == fills[1, 3] == "#ffffff"


def test_surface_svg_renders_grid_with_colorbar(tiny_grid, tmp_path):
    text = render_plots(tiny_grid, "surface_2d", tmp_path / "g.svg").read_text()
    assert text.count("<rect") >= 6  # one cell per condition at least
    assert "ch_ms" in text and "a_target" in text


def test_surface_colorbar_zero_label_follows_target_position(tmp_path):
    cfg = config_from_dict({"inputs": [
        {"label": "target", "a": 6.0, "p": 60.0, "w": 30.0},
        {"label": "mp", "a": 0.0, "p": 20.0, "w": 30.0}]})
    grid = sweep_2d(cfg, a_mp_range=(-1.0, 0.0, 1.0), a_target_range=(5.0, 6.0, 1.0),
                    n_trials=2, master_seed=2)
    text = render_plots(grid, "surface_2d", tmp_path / "g.svg").read_text()
    assert "zero plane = mean VOT at 60 ms" in text
    assert ">0 (60 ms)<" in text and "70 ms" not in text


def _surface_fills(ch, tmp_path):
    """Fill of each cell of a 2 x 3 surface whose cells have these ch_ms
    values (cell order), and the SVG text."""
    a_mp, a_t = (-1.0, 0.0, 1.0), (5.0, 6.0)
    conds = [Condition(t, m) for t in a_t for m in a_mp]
    cells = tuple(ConditionStats(c, 2, 70.0 + v, math.nan, math.nan, math.nan, v, 1.0, None)
                  for c, v in zip(conds, ch))
    result = SweepResult(a_t, a_mp, cells, 1, "argmax", 70.0, default_config())
    text = render_plots(result, "surface_2d", tmp_path / "s.svg").read_text()
    return [r[4] for r in _RECT.findall(text)[1:7]], text


def test_surface_draws_nan_cells_grey_and_scales_by_finite_cells(tmp_path):
    yellow, blue, grey = (238, 201, 21), (42, 76, 170), "#bdbdbd"
    ch = [1.0, -2.0, 0.5, 4.0, -4.0, 2.0]
    full, text = _surface_fills(ch, tmp_path)
    assert full == [_reference_fill(v, 4.0, yellow, blue) for v in ch]
    assert grey not in full and "no data" not in text
    for missing in ((0,), (2,), (0, 2)):  # the first cell, a middle one, both
        held = [math.nan if i in missing else v for i, v in enumerate(ch)]
        fills, text = _surface_fills(held, tmp_path)
        # vmax still comes from the finite cells, so they keep their colours
        assert fills == [grey if i in missing else f for i, f in enumerate(full)]
        assert "+4.0" in text and "-4.0" in text
        assert _RECT.findall(text)[-1][4] == grey and "no data" in text  # legend


def test_sweep_line_leaves_nan_cells_unplotted(tmp_path):
    # first_to_threshold sweeps can give cells with no readout; a NaN first
    # cell used to turn the y-limits and every point into "nan"
    nan = math.nan
    a_mp = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0)
    for means, runs in (([nan, nan, nan, 75.0, nan, nan], [1]),
                        ([72.0, nan, 74.0, 75.0, nan, 71.0], [1, 2, 1]),
                        ([nan] * 6, [])):
        cells = tuple(ConditionStats(Condition(6.0, x), 3, m, nan, 0.5, nan, m - 70.0,
                                     0.0, None) for x, m in zip(a_mp, means))
        result = SweepResult((6.0,), a_mp, cells, 1, "first_to_threshold", 70.0,
                             default_config())
        text = render_plots(result, "sweep_line", tmp_path / "l.svg").read_text()
        assert "nan" not in text
        lines = re.findall(r'<polyline points="([^"]+)"', text)
        assert [len(pts.split()) for pts in lines] == runs  # broken at NaN cells
        ys = [float(pt.split(",")[1]) for pts in lines for pt in pts.split()]
        assert all(28.0 <= y <= 440.0 - 46.0 for y in ys)  # inside the plot box


def test_heatmap_requires_states(lean_traj, tmp_path):
    with pytest.raises(ConfigError, match="keep_states"):
        render_plots(lean_traj, "field_evolution_heatmap", tmp_path / "x.svg")


def test_unknown_plot_kind_rejected(tiny_sweep, tmp_path):
    with pytest.raises(ConfigError) as info:
        render_plots(tiny_sweep, "pie", tmp_path / "x.svg")
    assert str(info.value) == ("unknown plot kind 'pie'; expected one of "
                               "('sweep_line', 'field_evolution_heatmap', 'surface_2d')")
    assert not (tmp_path / "x.svg").exists()


def test_emitters_create_parent_directories(tiny_sweep, tmp_path):
    path = emit_sweep_csv(tiny_sweep, tmp_path / "deep" / "nested" / "s.csv")
    assert path.is_file()


# -------------------------------------------------- byte references for export
# The per-value writers that the exporters replaced, kept as the byte
# reference for any rewrite of them, as tests/test_backends.py keeps the
# literal update for the engine.


def _reference_trajectory_csv(traj, path, summary_path):
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("step,x,u\n")
        for t, row_u in enumerate(traj.states):
            for x, u in enumerate(row_u.tolist()):
                fh.write(f"{t},{x},{u!r}\n")
    with summary_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("step", "max_u", "n_above_threshold"))
        for t in range(len(traj)):
            writer.writerow((t, repr(float(traj.max_u[t])), int(traj.n_above[t])))


def _reference_heatmap(traj, href):
    """The per-value writer that the heatmap renderer replaced, with its cell
    rects replaced by one image of this `xlink:href`."""
    states = traj.states
    n_rows, n = states.shape
    svg = outputs._Svg(700, 460)
    ax = outputs._Axes(svg, (0, n_rows), (0, n), left=62, right=90, top=28, bottom=46)
    vmax = float(np.max(np.abs(states)))
    svg.text(ax.l, 18, "field evolution (activation u; threshold at 0)", size=12)
    svg.parts.append('<image x="62.00" y="28.00" width="548.00" height="386.00" '
                     'preserveAspectRatio="none" image-rendering="pixelated" '
                     f'xmlns:xlink="http://www.w3.org/1999/xlink" xlink:href="{href}"/>')
    ax.frame("time step", "VOT (ms)")
    ax.xticks(outputs._ticks(0, n_rows - 1, max(1.0, outputs._tick_step(n_rows, 6))))
    ax.yticks(outputs._ticks(0, n, max(1.0, outputs._tick_step(n, 8))))
    cb_x, cb_h = svg.width - 70, ax.h * 0.6
    cb_y = ax.t + (ax.h - cb_h) / 2
    outputs._colorbar(svg, cb_x, cb_y, cb_h, vmax, _HEAT_RED, _HEAT_BLUE)
    svg.text(cb_x + 18, cb_y + 8, f"{vmax:.1f}", size=9)
    svg.text(cb_x + 18, cb_y + cb_h / 2 + 3, "0", size=9)
    svg.text(cb_x + 18, cb_y + cb_h, f"{-vmax:.1f}", size=9)
    svg.text(cb_x + 7, cb_y - 8, "u", size=10, anchor="middle")
    return "\n".join(svg.parts) + "\n</svg>\n"


_AWKWARD = (-0.0, 1e-05, 1e+16, 5e-324, -5.0, math.inf, math.nan)


def _awkward_states(finite):
    """121 x 200 states seeded with values whose repr or colour is awkward:
    signed zero, exponent forms, the smallest subnormal and (unless `finite`)
    inf and nan, which make the heatmap's vmax inf or nan."""
    states = np.random.default_rng(4).standard_normal((121, 200)) * 3.0
    values = [v for v in _AWKWARD if math.isfinite(v) or not finite]
    flat = states.reshape(-1)
    for k, v in enumerate(values):
        flat[k * 3457 % flat.size] = v
        flat[-1 - k] = -v
    return states


@pytest.mark.parametrize("states", ["example", "awkward", "awkward_finite"])
def test_exports_keep_the_bytes_of_the_per_value_writers(states, traj, tmp_path):
    if states != "example":
        traj = _states_trajectory(_awkward_states(finite=states == "awkward_finite"))
    path, spath = emit_trajectory_csv(traj, tmp_path / "t.csv")
    _reference_trajectory_csv(traj, tmp_path / "r.csv", tmp_path / "r_summary.csv")
    assert path.read_bytes() == (tmp_path / "r.csv").read_bytes()
    assert spath.read_bytes() == (tmp_path / "r_summary.csv").read_bytes()
    fills = _heatmap_fills(_render_heatmap(traj, tmp_path), traj)
    assert fills.tolist() == _expected_fills(traj.states)


@pytest.mark.parametrize("finite", [True, False])
def test_forked_exports_keep_the_bytes_of_the_per_value_writers(finite, tmp_path, monkeypatch):
    # the forked export cuts the CSV at a step row: this process writes the
    # rows before the cut, a forked child formats the rest, the summary and
    # the heatmap into a memfd and sends where each ends through a pipe, and
    # this process copies each into its file after what it wrote there
    traj = _states_trajectory(_awkward_states(finite))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    monkeypatch.setattr(experiments, "_can_fork", lambda: True)
    written = outputs.write_run(tmp_path, "t", None, None, {"": traj})
    assert len(forks) == 1
    assert [p.name for p in written] == ["t.csv", "t_summary.csv", "t.svg"]
    _reference_trajectory_csv(traj, tmp_path / "r.csv", tmp_path / "r_summary.csv")
    for name in ("%s.csv", "%s_summary.csv"):
        assert (tmp_path / (name % "t")).read_bytes() == (tmp_path / (name % "r")).read_bytes()
    fills = _heatmap_fills((tmp_path / "t.svg").read_bytes(), traj)
    assert fills.tolist() == _expected_fills(traj.states)


def test_exporting_a_trajectory_holds_under_a_file_of_memory(traj, tmp_path):
    # One row is formatted at a time, so the CSV export peaks below its own
    # file size: on the 121 x 200 example the per-value writer peaked at 0.15
    # MB, the row templates at 0.04 MB and one whole-file template and tuple at
    # 1.8 MB, against a file of 0.62 MB. The heatmap's colour arrays (a few
    # float64 copies of the states) set its peak, 0.8 MB against a file of
    # 0.10 MB, so it is bounded in bytes: its per-value rects peaked at 3.8 MB
    # and its rect columns at 2.5 MB.
    def peak(export):
        tracemalloc.start()
        try:
            export()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    csv_peak = peak(lambda: emit_trajectory_csv(traj, tmp_path / "t.csv"))
    svg_peak = peak(lambda: render_plots(traj, "field_evolution_heatmap", tmp_path / "h.svg"))
    csv_files = csv_peak / (tmp_path / "t.csv").stat().st_size
    assert (csv_files < 1.0, svg_peak < 1.2e6) == (True, True), (csv_files, svg_peak)
