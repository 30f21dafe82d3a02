import ast
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spwt
from spwt import pattern, placement
from spwt.cli import (
    CliError,
    _csv,
    _fmt,
    _grid_points,
    _resolve_config,
    _scenario,
    _sweep_grid,
    _write_outputs,
    main,
    parse_config,
)
from spwt.pattern import _pattern_files, _write_pattern_csv
from conftest import heatmap_image, make_scenario
from import_edges import import_edges
from test_golden import _TIMESTAMP, CONFIGS, GOLDEN


BASE = {
    "m": 4,
    "n": 4,
    "f_c_hz": "3e9",
    "x_e_m": 500,
    "g_m": 200,
    "theta_a_rad": repr(math.pi / 4.0),
    "p_w": 1.0,
    "sigma2_w": repr(10.0 ** -1.5),
    "alpha": 1.0,
    "seed": 0,
}


def write_config(path, drop=(), **overrides):
    values = {**BASE, **overrides}
    for key in drop:
        values.pop(key, None)
    lines = ["# test configuration"]
    lines += [f"{k} = {v}" for k, v in values.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_place_reports_reference_solutions(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["place", "--config", cfg, "--scheme", "azimuth"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 2" in out
    assert "630.476010646" in out and "-630.476010646" in out
    assert "scheme=azimuth" in out


def test_place_at_a_quarter_turn_uses_the_column_factor(tmp_path, capsys):
    # at 90 degrees the row factor's direction-cosine difference is constant
    # on both loci; the column factor still places on both of them
    cfg = write_config(tmp_path / "a.cfg", theta_a_rad=repr(math.pi / 2.0))
    assert main(["place", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "solutions: 4" in out and out.count("factor=column") == 4
    for coordinate in ("y_m=947.364766075", "y_m=-947.364766075",
                       "x_m=-100.430350541", "x_m=600.430350541"):
        assert coordinate in out


def test_place_both_schemes(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["place", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "solutions: 4" in out
    assert "scheme=pitch" in out
    assert "-47.75273" in out and "547.75273" in out


def test_place_infeasible_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg", g_m=10_000)
    assert main(["place", "--config", cfg, "--scheme", "azimuth"]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err


def test_missing_key_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg", drop=("x_e_m",))
    assert main(["place", "--config", cfg]) == 1
    assert "x_e_m" in capsys.readouterr().err


def test_unknown_key_reports_line(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    write_config(path)
    path.write_text(path.read_text() + "bogus_key = 3\n")
    assert main(["place", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "bogus_key" in err and "line" in err


@pytest.mark.parametrize(
    "extra_line, drop, argv, env_seed, message",
    [
        pytest.param("m 4", (), ["sweep"], None, "config line 12: expected 'key = value'",
                     id="no-equals"),
        pytest.param("m = 4", (), ["sweep"], None, "config line 12: duplicate key 'm'",
                     id="duplicate-key"),
        # the bandwidth sets nothing in the model, so it is not a key
        pytest.param("bandwidth_hz = 5e6", (), ["sweep"], None,
                     "config line 12: unknown key 'bandwidth_hz'", id="bandwidth-key"),
        pytest.param("", ("theta_a_rad",), ["sweep"], None,
                     "config: missing required key 'theta_a_rad'", id="no-angle"),
        # the environment is not a seed source: a grid error is reported as
        # it is without SPWT_SEED
        pytest.param("", ("seed",), ["sweep", "--grid=0:two:20"], "four",
                     "--grid: cannot parse '0:two:20'", id="env-seed"),
        pytest.param("", (), ["sweep", "--grid=0:two:20"], None,
                     "--grid: cannot parse '0:two:20'", id="grid-unparsable"),
        pytest.param("", (), ["sweep", "--grid=0:0:20"], None,
                     "--grid: need step > 0 and stop >= start", id="grid-zero-step"),
        pytest.param("", (), ["sweep", "--grid=20:2:0"], None,
                     "--grid: need step > 0 and stop >= start", id="grid-reversed"),
        # an empty --grid is a grid to parse, not the default one
        pytest.param("", (), ["sweep", "--grid="], None,
                     "--grid for sweep must have three ':'-separated numbers",
                     id="grid-empty-sweep"),
        pytest.param("", (), ["pattern", "--grid="], None,
                     "--grid for pattern must have three ':'-separated numbers",
                     id="grid-empty-pattern"),
    ],
)
def test_config_and_grid_errors_exit_1_and_write_nothing(
    tmp_path, capsys, monkeypatch, extra_line, drop, argv, env_seed, message
):
    path = tmp_path / "a.cfg"
    write_config(path, drop=drop)
    path.write_text(path.read_text() + extra_line + "\n")
    if env_seed is not None:
        monkeypatch.setenv("SPWT_SEED", env_seed)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a.cfg"]


def test_degrees_alias(tmp_path, capsys):
    cfg_rad = write_config(tmp_path / "rad.cfg")
    main(["place", "--config", cfg_rad, "--scheme", "azimuth"])
    out_rad = capsys.readouterr().out
    cfg_deg = write_config(tmp_path / "deg.cfg", drop=("theta_a_rad",), theta_a_deg=45)
    main(["place", "--config", cfg_deg, "--scheme", "azimuth"])
    assert capsys.readouterr().out == out_rad


def test_both_angle_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg", theta_a_deg=45)
    assert main(["place", "--config", cfg]) == 1
    assert "not both" in capsys.readouterr().err


def test_usage_errors_exit_1(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["place"]) == 1  # missing --config
    assert main(["frobnicate", "--config", cfg]) == 1  # unknown command
    assert main(["place", "--config", cfg, "--bogus"]) == 1
    assert main(["sweep", "--config", cfg, "--kind", "nope"]) == 1


def test_sweep_snr_outputs(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    csv = (out / "sweep_snr.csv").read_text().splitlines()
    assert csv[0] == "snr_db,sr_proposed,sr_theory,sr_rand1,sr_rand2,sr_rand3"
    assert len(csv) == 12  # header + 11 grid points
    first = csv[1].split(",")
    assert first[0] == "0"
    assert first[1] == first[2]  # proposed meets the bound
    svg = (out / "sweep_snr.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep snr"
    assert manifest["config_m"] == 4
    assert manifest["seed"] == 0


def test_every_output_file_is_opened_with_unix_newlines(tmp_path, monkeypatch):
    # newline=None would write each "\n" as os.linesep, "\r\n" on Windows;
    # every file the commands write is opened with newline="\n", so its
    # bytes are the same on every host
    opened = []

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append((os.path.basename(file), kwargs.get("newline")))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(spwt.cli, "open", recording_open, raising=False)
    cfg = write_config(tmp_path / "a.cfg")
    for command in (["sweep", "--kind", "snr"], ["sweep", "--kind", "alpha"],
                    ["pattern", "--grid=-100:100:50"]):
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    names = ["sweep_snr.csv", "sweep_snr.svg", "sweep_alpha.csv", "sweep_alpha.svg",
             "pattern.csv", "pattern.svg"] + ["manifest.json"] * 3
    assert sorted(opened) == sorted((f"{name}.tmp", "\n") for name in names)


def test_one_point_sweep_writes_one_row_and_a_finite_chart(tmp_path):
    # the chart widens the one-point x range to [3, 5] before its ticks
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--grid=4:1:4"]) == 0
    csv = (out / "sweep_snr.csv").read_text().splitlines()
    assert len(csv) == 2 and csv[1].startswith("4,")
    svg = (out / "sweep_snr.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    assert '>4</text>' in svg  # the one x tick


def test_sweep_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep_snr.csv").read_bytes() == (out2 / "sweep_snr.csv").read_bytes()
    assert (out1 / "sweep_snr.svg").read_bytes() == (out2 / "sweep_snr.svg").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2


def test_sweep_alpha_outputs_and_grid_flag(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", cfg, "--kind", "alpha", "--grid", "0:0.25:1",
         "--out", str(out)]
    )
    assert code == 0
    csv = (out / "sweep_alpha.csv").read_text().splitlines()
    assert csv[0] == "alpha,sr_proposed,sr_theory,sr_rand1,sr_rand2,sr_rand3"
    assert len(csv) == 6  # header + 5 alpha values
    assert csv[1].split(",")[0] == "0"
    assert csv[-1].split(",")[0] == "1"


def test_sweep_alpha_out_of_range_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg")
    code = main(
        ["sweep", "--config", cfg, "--kind", "alpha", "--grid", "0:0.5:1.5",
         "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_sweep_custom_snr_grid(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--grid", "0:5:15", "--out", str(out)]) == 0
    rows = (out / "sweep_snr.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "5", "10", "15"]


@pytest.mark.parametrize(
    "command, schemes",
    [("place", ("azimuth", "pitch left", "pitch right")), ("sweep", ("azimuth",))],
)
def test_a_single_element_array_is_infeasible(
    tmp_path, capsys, monkeypatch, command, schemes
):
    # a 1x1 array has no factor with a zero at index 1: each scheme (and
    # extension side) the command solves is reported, and nothing is written
    # to the working directory, sweep's default --out
    cfg = write_config(tmp_path / "a.cfg", m=1, n=1)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", cfg]) == 2
    why = "index 1 is a multiple of both array dimensions (1x1); neither factor has a zero there"
    err = "".join(f"infeasible: {scheme}: {why}\n" for scheme in schemes)
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == [tmp_path / "a.cfg"]


def test_sweep_infeasible_leaves_no_partial_files(tmp_path):
    cfg = write_config(tmp_path / "a.cfg", g_m=10_000)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "sweep_snr.csv").exists()
    assert not (out / "manifest.json").exists()


def test_sweep_rejects_its_grid_before_it_solves(tmp_path, capsys, monkeypatch):
    # rowfails discards four candidates, but a rejected grid prints only its
    # error: the sweep checks the grid before it solves anything
    def unreachable(*args):
        raise AssertionError("solve_all was called")

    monkeypatch.setattr("spwt.cli.solve_all", unreachable)
    monkeypatch.setattr("spwt.experiments.solve_all", unreachable)
    out = tmp_path / "o"
    argv = ["sweep", "--grid", "3090:1:3090", "--config", str(GOLDEN / "rowfails.cfg")]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SNR 3090 dB is out of range") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["snr", "alpha"])
def test_sweep_with_no_placement_warns_before_its_infeasible_line(tmp_path, capsys, kind):
    # rowfails with one column: the bisector's two row candidates fail and
    # the column factor has no zero, so the sweep has no placement
    text = (GOLDEN / "rowfails.cfg").read_text().replace("n = 4", "n = 1")
    (tmp_path / "a.cfg").write_text(text)
    out = tmp_path / "o"
    argv = ["sweep", "--kind", kind, "--config", str(tmp_path / "a.cfg")]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: bisector candidate at (250.0, 176776695296.63687) failed "
        "verification (|rho| = 2.862e-08); discarded",
        "warning: bisector candidate at (250.0, -176776695296.63687) failed "
        "verification (|rho| = 2.862e-08); discarded",
        "infeasible: azimuth: every bisector candidate failed verification",
    ]
    assert not out.exists()


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "a.cfg", seed=5)
    out = tmp_path / "o1"
    main(["sweep", "--config", cfg, "--out", str(out)])
    assert json.loads((out / "manifest.json").read_text())["seed"] == 5

    out = tmp_path / "o2"
    main(["sweep", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3

    # then 0: the environment is not a seed source, so SPWT_SEED, valid or
    # not, leaves every written byte as it is without it (the manifest's
    # timestamp apart)
    cfg_noseed = write_config(tmp_path / "b.cfg", drop=("seed",))
    runs = []
    for env_seed in (None, "9", "four"):
        if env_seed is None:
            monkeypatch.delenv("SPWT_SEED", raising=False)
        else:
            monkeypatch.setenv("SPWT_SEED", env_seed)
        out = tmp_path / f"env-{env_seed}"
        assert main(["sweep", "--config", cfg_noseed, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest.pop("timestamp") and manifest["seed"] == 0
        runs.append(_listing(out) | {"manifest.json": manifest})
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_pattern_outputs(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    code = main(
        ["pattern", "--config", cfg, "--grid=-20:20:5", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "pattern.csv").read_text().splitlines()
    assert rows[0] == "x_m,y_m,residual"
    assert len(rows) == 1 + 9 * 9
    svg = (out / "pattern.svg").read_text()
    # the cells as one image, and one circle per solved placement
    solutions = spwt.solve_all(make_scenario())[0]  # the config's scenario
    assert svg.count("<image") == 1
    assert svg.count("<circle") == len(solutions) > 0


@pytest.mark.parametrize("config", CONFIGS)
def test_default_grid_pattern_svg_is_well_formed_and_small(config, tmp_path):
    # the default 401-point box: the heatmap's cells as one %XX-encoded PNG
    from xml.dom import minidom

    out = tmp_path / "out"
    cfg = str(GOLDEN / f"{config}.cfg")
    assert main(["pattern", "--config", cfg, "--out", str(out)]) == 0
    data = (out / "pattern.svg").read_bytes()
    minidom.parseString(data)
    (payload,) = re.findall(rb'xlink:href="data:image/png,([^"]*)"', data)
    assert re.fullmatch(rb"(%[0-9A-F]{2})+", payload)
    assert len(data) < 50_000
    _, pixels = heatmap_image(data.decode())
    assert pixels.shape == (134, 134)


def test_pattern_rejects_bad_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["pattern", "--config", cfg, "--grid=-20:20:0"]) == 1
    assert main(["pattern", "--config", cfg, "--grid", "20:-20:5"]) == 1
    assert main(["pattern", "--config", cfg, "--grid", "1:2"]) == 1
    capsys.readouterr()


def test_pattern_single_element_flat(tmp_path):
    cfg = write_config(tmp_path / "a.cfg", m=1, n=1)
    out = tmp_path / "out"
    assert main(["pattern", "--config", cfg, "--grid=-10:10:10", "--out", str(out)]) == 0
    rows = (out / "pattern.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "1" for row in rows)


def test_pattern_on_one_grid_point(tmp_path):
    # one grid point: the header and its row come once
    cfg = write_config(tmp_path / "a.cfg", m=1, n=1)
    out = tmp_path / "out"
    assert main(["pattern", "--config", cfg, "--grid=0:1:5", "--out", str(out)]) == 0
    assert (out / "pattern.csv").read_text() == "x_m,y_m,residual\n0,0,1\n"

def test_config_value_parse_error(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    path.write_text("m = four\n")
    assert main(["place", "--config", str(path)]) == 1
    assert "m" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["place", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_config_with_a_utf8_bom_reads_as_without_it(tmp_path, capsys):
    # an editor's byte-order mark is not part of the first key
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "reference.cfg").read_bytes())
    assert main(["place", "--config", str(path)]) == 0
    golden = (GOLDEN / "reference" / "place" / "stdout").read_text()
    assert capsys.readouterr().out == golden


def test_config_that_is_not_utf8_exits_1_naming_the_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"m = 4\xff\n")
    assert main(["place", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_pattern_csv_matches_per_cell_formatting():
    axis = np.arange(-20.0, 20.0 + 2.5, 5.0)
    values = np.random.default_rng(1).random((axis.size, axis.size)) ** 9
    values[0, 0], values[1, 1] = 0.0, 1.0
    rows = (
        (float(x), float(y), float(values[i, j]))
        for i, y in enumerate(axis)
        for j, x in enumerate(axis)
    )
    buf = io.StringIO()
    _write_pattern_csv(buf, axis, [values])
    assert buf.getvalue() == _csv("x_m,y_m,residual", rows)


@pytest.mark.parametrize("config", CONFIGS)
def test_default_grid_pattern_csv_matches_per_cell_formatting(config, tmp_path):
    # a real map, on the default 401-point grid: pattern.csv holds _csv's
    # per-cell bytes over the same map (wide16's has 3,333 cells outside
    # [1e-4, 1), which the writer formats one by one)
    cfg = str(GOLDEN / f"{config}.cfg")
    assert main(["pattern", "--config", cfg, "--out", str(tmp_path)]) == 0
    axis = np.arange(-200, 201) * 5.0
    scenario = _scenario(_resolve_config(parse_config(cfg), None))
    values = spwt.correlation_map(scenario, axis, axis)
    rows = ((x, y, v) for y, row in zip(axis, values) for x, v in zip(axis, row))
    expected = _csv("x_m,y_m,residual", rows)
    assert (tmp_path / "pattern.csv").read_text() == expected


def _decade_edges(e):
    """10^e and the value from which 12 digits round up to it, each with
    its two neighbouring doubles."""
    for edge in (float(f"1e{e}"), float(f"1e{e}") * (1 - 5e-13)):
        yield from (np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf))


# Cells at the edges of the writer's numpy path, [1e-4, 1), and beyond it.
_CELLS = st.one_of(
    # exact 12-digit ties, which round to even
    st.integers(410, 4095).map(lambda j: (2 * j + 1) / 8192),
    # decimal ties, k5 x 10^-(13+j), which a double holds just off the tie
    st.builds(
        lambda k, j: float(f"{k}5e-{13 + j}"),
        st.integers(10**11, 10**12 - 1),
        st.integers(0, 3),
    ),
    st.sampled_from([v for e in range(-5, 1) for v in _decade_edges(e)]),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, -0.5, -1e-3, 1.5, 1e17, math.nan]),
    st.sampled_from([math.inf, -math.inf]),
    st.floats(1e-4, 1.0, exclude_max=True),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _csv_rows(draw):
    """Rows of cells on an n-point axis, as many as n at most, and a row
    from 1 on to split them at."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, n))
    cells = draw(st.lists(_CELLS, min_size=rows * n, max_size=rows * n))
    return np.array(cells).reshape(rows, n), draw(st.integers(1, rows))


@settings(max_examples=300)
@given(grid=_csv_rows(), chunk=st.integers(1, 64))
def test_pattern_csv_writes_every_double_as_python_formats_it(grid, chunk):
    # rows of cells written as one block and as two split at `start`, with
    # buffers of `chunk` cells or one row, must give _csv's per-cell bytes
    values, start = grid
    axis = np.arange(values.shape[1]) * 2.5 - 5.0
    rows = ((x, y, v) for y, row in zip(axis, values) for x, v in zip(axis, row))
    expected = _csv("x_m,y_m,residual", rows)
    with mock.patch.object(placement, "_MAP_CHUNK", chunk):
        whole, blocks = io.StringIO(), io.StringIO()
        _write_pattern_csv(whole, axis, [values])
        _write_pattern_csv(blocks, axis, iter([values[:start], values[start:]]))
    assert whole.getvalue() == expected
    assert blocks.getvalue() == expected


@pytest.mark.parametrize(
    "key,value",
    [("g_m", "nan"), ("x_e_m", "inf"), ("theta_a_deg", "nan"), ("f_c_hz", "nan")],
)
def test_non_finite_config_value_rejected(tmp_path, capsys, key, value):
    drop = ("theta_a_rad",) if key == "theta_a_deg" else ()
    cfg = write_config(tmp_path / "a.cfg", drop=drop, **{key: value})
    assert main(["place", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert key in captured.err and "finite" in captured.err
    assert captured.out == ""


def test_place_has_no_out_option(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "d")]) == 1
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("kind,x_name", [("snr", "snr_db"), ("alpha", "alpha")])
def test_sweep_csv_header_and_columns(tmp_path, kind, x_name):
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--kind", kind, "--out", str(out)]) == 0
    header, *rows = (out / f"sweep_{kind}.csv").read_bytes().split(b"\n")[:-1]
    assert header == f"{x_name},sr_proposed,sr_theory,sr_rand1,sr_rand2,sr_rand3".encode()
    assert len(rows) == 11 and all(row.count(b",") == 5 for row in rows)


def test_pattern_without_placements_still_writes_map(tmp_path):
    # a 1x1 array has no factor with a zero at any index, and 10 km altitude
    # leaves no feasible placement; the map is defined either way
    for name, overrides in (("single", {"m": 1, "n": 1}), ("high", {"g_m": 10_000})):
        cfg = write_config(tmp_path / f"{name}.cfg", **overrides)
        out = tmp_path / name
        assert main(["pattern", "--config", cfg, "--grid=-20:20:10", "--out", str(out)]) == 0
        assert len((out / "pattern.csv").read_text().splitlines()) == 1 + 5 * 5
        assert "circle" not in (out / "pattern.svg").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--grid=nan:2:20"],
        ["sweep", "--grid=0:2:inf"],
        ["sweep", "--kind", "alpha", "--grid=0:nan:1"],
        ["pattern", "--grid=nan:10:5"],
        ["pattern", "--grid=-inf:10:5"],
    ],
)
def test_non_finite_grid_rejected(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error: --grid: numbers must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", ["--grid=0:1000:4000", "--grid=-4000:1:-3999"])
def test_sweep_out_of_range_snr_exits_1(tmp_path, capsys, grid):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["sweep", grid, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SNR ") and "dB is out of range" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kind", "alpha", "--grid=0:1e-300:1"],
        ["sweep", "--grid=0:1e-9:1"],
        ["sweep", "--grid=-1e308:1e-300:1e308"],
        ["pattern", "--grid=-1000:1000:0.5"],
        ["pattern", "--grid=0:1:1e-300"],
        ["pattern", "--grid=-1e308:1e308:1"],
    ],
)
def test_oversized_grid_rejected(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: more than ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_grid_caps_admit_their_limits(tmp_path, capsys, monkeypatch):
    assert len(_sweep_grid("0:1:99999", "snr")) == 100_000
    with pytest.raises(CliError, match="more than 100000 sweep points"):
        _sweep_grid("0:1:100000", "snr")
    # the CLI builds pattern's points, then hands them to the engine: record
    # how many the engine would map, without mapping them
    sizes = []
    monkeypatch.setattr(
        pattern, "_pattern_files", lambda sc, points, _: sizes.append(len(points)) or {}
    )
    argv = ["pattern", "--config", write_config(tmp_path / "a.cfg"), "--out", str(tmp_path)]
    grids = ("-1000:1000:1", "-1000:1000:2", "-1000:1001:1")
    assert [main([*argv, f"--grid={grid}"]) for grid in grids] == [0, 0, 1]
    assert sizes == [2001, 1001]
    assert capsys.readouterr().err == "error: --grid: more than 2001 points per axis\n"


def test_pattern_maps_no_point_past_max(tmp_path):
    # 0:11:4 names 0, 4 and 8 on each axis; 12 lies past max
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["pattern", "--grid=0:11:4", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "pattern.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [
        [x, y] for y in ("0", "4", "8") for x in ("0", "4", "8")
    ]
    svg = (tmp_path / "pattern.svg").read_text()
    # the heatmap's end labels: x from, x to, y from, y to
    ends = re.findall(r'text-anchor="(?:start|end)">([^<]*)</text>', svg)[:4]
    assert ends == ["0", "8", "0", "8"]


def test_pattern_grid_ends_at_its_last_point_on_the_step(tmp_path):
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["pattern", "--grid=-1000:1000:3", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "pattern.csv").read_text().splitlines()
    assert len(lines) == 1 + 667**2
    assert lines[1].startswith("-1000,-1000,") and lines[-1].startswith("998,998,")


@pytest.mark.parametrize(
    "text, kind, count",
    [
        ("0:2:20", "snr", 11),
        ("0:0.1:1", "alpha", 11),
        ("-3:0.7:5", "snr", 12),
        ("4:1:4", "snr", 1),
        ("0:1:99999", "snr", 100_000),
    ],
)
def test_sweep_grid_is_first_plus_i_steps(text, kind, count):
    start, step, _ = map(float, text.split(":"))
    expected = [start + i * step for i in range(count)]
    assert list(map(float.hex, _sweep_grid(text, kind))) == list(map(float.hex, expected))


@pytest.mark.parametrize("scheme", ["azimuth", "pitch"])
@pytest.mark.parametrize("config", CONFIGS)
def test_sweep_default_grid_spelled_out_writes_the_golden_bytes(tmp_path, config, scheme):
    cfg = str(GOLDEN / f"{config}.cfg")
    argv = ["sweep", "--grid=0:2:20", "--scheme", scheme, "--config", cfg]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for name in ("sweep_snr.csv", "sweep_snr.svg"):
        golden = GOLDEN / config / f"sweep-snr-{scheme}" / name
        assert (tmp_path / name).read_bytes() == golden.read_bytes()


def test_grid_points_count_a_span_that_overflows_and_subnormal_ends():
    # last - first overflows, but both points are finite
    assert _grid_points(-1e308, 1.5e308, 1e308, 2001, "points") == [-1e308, 5e307]
    # 0 to 3 steps of the smallest double: halving the ends would count 4
    assert len(_grid_points(0.0, 5e-324, 1.5e-323, 2001, "points")) == 4


@pytest.mark.parametrize(
    "argv", [["pattern", "--grid=-1e308:1e308:1e306"], ["sweep", "--grid=-1e308:1e308:1e308"]]
)
def test_grid_whose_far_points_overflow_rejected(tmp_path, capsys, argv):
    # 201 and 3 points, under the caps, but first + i*step passes the largest double
    cfg = write_config(tmp_path / "a.cfg")
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: --grid: its far points overflow to inf\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("blas", [None, "2"], ids=["unset", "user-set"])
def test_pattern_files_restores_the_blas_pin_when_numpy_fails_to_import(
    monkeypatch, blas
):
    # None in sys.modules makes `import numpy` raise ImportError
    if blas is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        _pattern_files(make_scenario(), [-100.0, 0.0, 100.0], [])
    assert os.environ.get("OPENBLAS_NUM_THREADS") == blas


def _partial_then_fail(fh, *args):
    fh.write("x_m,y_m,residual\n0,0,")
    raise OSError(28, "No space left on device")


def _listing(directory):
    """name -> bytes of each entry, None for a directory."""
    return {
        path.name: None if path.is_dir() else path.read_bytes()
        for path in sorted(directory.iterdir())
    }


def test_failed_pattern_write_keeps_previous_outputs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["pattern", "--config", cfg, "--grid=-20:20:5", "--out", str(out)]) == 0
    before = _listing(out)
    assert sorted(before) == ["manifest.json", "pattern.csv", "pattern.svg"]

    # A second run, on other inputs, whose CSV writer fails partway.
    monkeypatch.setattr(pattern, "_write_pattern_csv", _partial_then_fail)
    cfg = write_config(tmp_path / "b.cfg", m=8)
    capsys.readouterr()
    assert main(["pattern", "--config", cfg, "--grid=-30:30:5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert _listing(out) == before  # byte-identical, and no *.tmp left


@pytest.mark.parametrize(
    "failing, directory",
    [(k, False) for k in range(3)] + [(k, True) for k in range(3)],
    ids=["0", "1", "2", "directory-0", "directory-1", "directory-2"],
)
def test_failed_write_keeps_every_previous_file(tmp_path, failing, directory):
    # a writer fails partway, or a directory stands in one name's place,
    # which os.replace would find only after the names before it had moved
    out = tmp_path / "out"
    names = ("a.csv", "b.svg", "manifest.json")
    _write_outputs(str(out), {name: f"old {name}\n" for name in names})
    files = {name: f"new {name}\n" for name in names}
    if directory:
        (out / names[failing]).unlink()
        (out / names[failing]).mkdir()
        error = pytest.raises(IsADirectoryError)
    else:
        files[names[failing]] = _partial_then_fail
        error = pytest.raises(OSError, match="No space left")
    before = _listing(out)
    with error:
        _write_outputs(str(out), files)
    assert _listing(out) == before


def test_write_outputs_replaces_previous_files(tmp_path):
    out = tmp_path / "out"
    _write_outputs(str(out), {"a.csv": "old\n", "b.svg": "old\n"})
    written = _write_outputs(
        str(out), {"a.csv": "new\n", "b.svg": lambda fh: fh.write("streamed\n")}
    )
    assert written == [str(out / "a.csv"), str(out / "b.svg")]
    assert _listing(out) == {"a.csv": b"new\n", "b.svg": b"streamed\n"}


def test_alpha_sweep_runs_at_the_config_snr(tmp_path):
    # wide16 is a 20 dB config: the bound is log2(1 + P/sigma^2), not the
    # library's 15 dB default
    cfg = str(Path(__file__).parent / "golden" / "wide16.cfg")
    out = tmp_path / "out"
    assert main(["sweep", "--kind", "alpha", "--config", cfg, "--out", str(out)]) == 0
    values = parse_config(cfg)
    want = _fmt(math.log2(1.0 + values["p_w"] / values["sigma2_w"]))
    header, *rows = (out / "sweep_alpha.csv").read_text().splitlines()
    col = header.split(",").index("sr_theory")
    assert [row.split(",")[col] for row in rows] == [want] * 11
    assert want == "6.65821148275"


@pytest.mark.parametrize(
    "p_w,sigma2_w,message",
    [("1e-200", "1e200", "SNR -inf dB is out of range: the linear SNR and the noise "
                         "floor P/SNR must be finite and positive"),
     ("1e200", "1e-200", "the SNR, total power over a noise power, must be finite")],
    ids=["1e-200-1e200", "1e200-1e-200"],
)
def test_alpha_sweep_rejects_an_snr_beyond_float_range(
    tmp_path, capsys, p_w, sigma2_w, message
):
    # P/sigma^2 under- or overflows: exit 1 with one error line, no traceback;
    # PowerConfig rejects the overflow, the sweep's SNR rule the -inf dB of
    # the underflow
    cfg = write_config(tmp_path / "a.cfg", p_w=p_w, sigma2_w=sigma2_w)
    out = tmp_path / "o"
    assert main(["sweep", "--kind", "alpha", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value",
    [("m", 0), ("n", 0), ("f_c_hz", -1), ("p_w", 0), ("sigma2_w", -1),
     ("alpha", 1.5), ("x_e_m", 0), ("g_m", -5), ("g_m", 0), ("x_e_m", "1e-10"),
     pytest.param("m", 10**400, id="m-10**400")],
)
@pytest.mark.parametrize("command", ["place", "sweep", "pattern"])
def test_out_of_range_config_value_exits_1(tmp_path, capsys, key, value, command):
    # the CLI checks the ground segment, the constructors the rest; x_e_m =
    # 1e-10 puts the nodes on one point, which has no axis to align, and m =
    # 10**400 is more elements than a float counts
    cfg = write_config(tmp_path / "a.cfg", **{key: value})
    out = tmp_path / "out"
    argv = [command, "--config", cfg]
    if command != "place":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["place", "sweep"])
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, command):
    # place used to accept it; sweep failed in numpy's words
    cfg = write_config(tmp_path / "a.cfg", seed=-1)
    argv = [command, "--config", cfg]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer\n"


@pytest.mark.parametrize("key,value", [("x_e_m", "1e200"), ("g_m", "1e300")])
@pytest.mark.parametrize("command", ["place", "sweep"])
def test_geometry_beyond_float_squares_is_a_named_outcome(
    tmp_path, capsys, key, value, command
):
    # the bisector's squares used to end these in an OverflowError traceback
    cfg = write_config(tmp_path / "a.cfg", **{key: value})
    argv = [command, "--config", cfg]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    assert code in (0, 2)
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith(("infeasible: ", "warning: ")) for line in err)
    warned = [line for line in err if line.startswith("warning: ")]
    if (key, command) == ("x_e_m", "place"):
        # the warning line gives the far candidate's coordinate in its
        # shortest round-trip form, not all 201 digits
        assert warned == [f"warning: {FAR_WARNING}"]


FAR_WARNING = (
    "extension candidate at (1e+200, 0.0) failed verification (|rho| = 7.233e-02); "
    "discarded"
)
GOLDEN_REFERENCE = Path(__file__).parent / "golden" / "reference.cfg"


def _cli_process(argv, *flags, code=None, timeout=120, env=None, cwd=None):
    """``python <flags> -m spwt.cli <argv>`` in a fresh process, or ``-c
    code`` with ``argv`` as its arguments; ``env`` (this process's
    environment by default) gets the package's PYTHONPATH."""
    env = os.environ if env is None else env
    env = dict(env, PYTHONPATH=str(Path(spwt.__file__).parents[1]))
    run = ["-c", code] if code is not None else ["-m", "spwt.cli"]
    return subprocess.run(
        [sys.executable, *flags, *run, *argv],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_pattern_under_python_m_names_its_error(tmp_path):
    # under -m the CLI runs as __main__; spwt.pattern must import that module,
    # not a second spwt.cli whose CliError main() would not catch
    cfg = write_config(tmp_path / "a.cfg")
    argv = ["pattern", "--config", cfg, "--grid=-1000:1001:1", "--out", str(tmp_path / "o")]
    proc = _cli_process(argv)
    assert proc.returncode == 1
    assert proc.stderr == "error: --grid: more than 2001 points per axis\n"


def test_far_candidates_at_one_point_warn_once(tmp_path):
    # Beyond a 1e200 m segment the right side's row and column candidates
    # round to the same point: one warning, and the side names both factors.
    cfg = write_config(tmp_path / "a.cfg", x_e_m="1e200")
    proc = _cli_process(["place", "--config", cfg], "-W", "always")
    assert proc.returncode == 0
    # the warning is printed as the command's own line, naming no frame
    warned = [line for line in proc.stderr.splitlines() if not line.startswith("infeasible: ")]
    assert warned == [f"warning: {FAR_WARNING}"]
    assert "runpy" not in proc.stderr
    right = [
        line for line in proc.stderr.splitlines() if line.startswith("infeasible: pitch right")
    ]
    assert right == [
        "infeasible: pitch right: extension scheme infeasible on the right side: "
        "row factor candidate failed verification; column factor candidate failed "
        "verification"
    ]


def test_place_on_a_billion_rows_is_a_named_outcome(tmp_path):
    # each axis sum takes ~2*log2(M) products, so m = 10^9 ends at once
    for sizes in ({"m": 10**9}, {"m": 10**9, "n": 10**9}):
        cfg = write_config(tmp_path / "a.cfg", **sizes)
        proc = _cli_process(["place", "--config", cfg], timeout=5)
        assert proc.returncode in (0, 2)
        # A candidate that fails here fails on the rounding of the axis sums
        # (the m = 10^9, n = 4 row nulls read |rho| ~3e-8), which a larger
        # array would make worse.  The m = n = 10^9 extension nulls certify.
        infeasible = [x for x in proc.stderr.splitlines() if x.startswith("infeasible:")]
        assert not any("larger array" in line for line in infeasible)


def test_place_on_a_billion_square_array_certifies_both_pitch_sides(tmp_path):
    # the root search stops relative to the gap's size, so even the row
    # target 2/(M*|cos|) ~ 2.8e-9 is met as closely as certification needs
    cfg = write_config(tmp_path / "a.cfg", m=10**9, n=10**9)
    proc = _cli_process(["place", "--config", cfg], timeout=5)
    assert proc.returncode == 0
    assert proc.stdout.count("scheme=pitch") == 2
    assert "infeasible: pitch" not in proc.stdout + proc.stderr


# Imports spwt, then runs the CLI on the arguments, if any, and prints the
# names of every loaded module.
_MODULES_CHECK = """
import sys
import spwt
if sys.argv[1:]:
    from spwt.cli import main
    main(sys.argv[1:])
print(*sys.modules, file=sys.stderr)
"""
_SUBMODULES = {
    f"spwt.{path.stem}" for path in Path(spwt.__file__).parent.glob("[!_]*.py")
}


@pytest.mark.parametrize(
    "argv, skipped",
    [
        ([], _SUBMODULES | {"numpy"}),
        (
            ["place"],
            {
                "spwt.experiments", "spwt.charts", "spwt.pattern",
                "json", "datetime", "hashlib", "numpy",
            },
        ),
        (["sweep"], {"spwt.pattern", "hashlib", "numpy"}),
        (["pattern", "--grid=-100:100:10"], {"spwt.experiments", "hashlib"}),
    ],
    ids=["import", "place", "sweep", "pattern"],
)
def test_commands_load_only_the_modules_they_run(tmp_path, argv, skipped):
    if argv:
        argv = [*argv, "--config", str(GOLDEN_REFERENCE)]
    if argv[:1] in (["sweep"], ["pattern"]):
        argv += ["--out", str(tmp_path / "out")]
    proc = _cli_process(argv, code=_MODULES_CHECK)
    assert proc.returncode == 0
    assert proc.stderr.count("\n") == 1  # the module names, and no warning
    assert set(proc.stderr.split()) & skipped == set()


def _imported_names(path):
    """Every dotted name an import statement in ``path`` names, a relative
    one read from inside the spwt package, with each name it imports from
    a module: ``from . import cli`` gives "spwt" and "spwt.cli"."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["spwt" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_module_but_the_cli_imports_it():
    # the CLI layer is one way: it imports the engine modules, none of them
    # imports it, so `python -m spwt.cli` loads the CLI once
    package = Path(spwt.__file__).parent
    importers = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "cli.py" and "spwt.cli" in set(_imported_names(path))
    ]
    assert importers == []


def test_input_types_sit_below_the_frame_and_the_kernel():
    # scenario.py holds every type a caller builds and imports no spwt
    # module, nor does the frame, which is pure math over the nodes
    # ScenarioConfig accepts; the kernel needs only the errors
    package = Path(spwt.__file__).parent
    modules = {f"spwt.{path.stem}" for path in package.glob("*.py")}

    def spwt_modules(name):
        return modules & set(_imported_names(package / f"{name}.py"))

    assert spwt_modules("scenario") == set()
    assert spwt_modules("signalmodel") == {"spwt.errors"}
    assert spwt_modules("geometry") == set()


# Every intra-package (importer, imported) pair, as tests/import_edges.py
# counts them: a new edge fails here until it is added on purpose, as a new
# public name is to test_api's list.
IMPORT_EDGES = {
    ("cli", "charts"), ("cli", "errors"), ("cli", "experiments"),
    ("cli", "pattern"), ("cli", "placement"), ("cli", "scenario"),
    ("experiments", "placement"), ("experiments", "signalmodel"),
    ("pattern", "charts"), ("pattern", "placement"),
    ("placement", "errors"), ("placement", "geometry"),
    ("placement", "scenario"), ("placement", "signalmodel"),
    ("signalmodel", "errors"),
}


def test_import_graph_is_pinned():
    package = Path(spwt.__file__).parent
    assert import_edges(sorted(package.glob("*.py"))) == IMPORT_EDGES


# Imports the CLI, then runs it on the arguments, if any, and reports
# whether typing was imported.
_TYPING_CHECK = """
import sys
from spwt.cli import main
if sys.argv[1:]:
    main(sys.argv[1:])
print("typing imported:", "typing" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [[], ["place"]], ids=["import", "place"])
def test_import_and_place_need_no_typing(argv):
    # -S skips site, whose .pth hooks may import typing before spwt does
    if argv:
        argv = [*argv, "--config", str(GOLDEN_REFERENCE)]
    proc = _cli_process(argv, "-S", code=_TYPING_CHECK)
    assert proc.returncode == 0
    assert proc.stderr == "typing imported: False\n"


# Runs ``python -m spwt.cli`` on the arguments, as runpy runs it, recording
# whether the collector was on each time the command parses its arguments,
# and reports that and whether any object was frozen as the last line of
# stderr, from an atexit handler, after the command's own exit.
_COLLECTOR_CHECK = """
import argparse, atexit, gc, runpy, sys

enabled = []
parse_args = argparse.ArgumentParser.parse_args


def recorded_parse_args(self, *args, **kwargs):
    enabled.append(gc.isenabled())
    return parse_args(self, *args, **kwargs)


def report():
    print(f"enabled {enabled}, frozen {gc.get_freeze_count() > 0}", file=sys.stderr)


argparse.ArgumentParser.parse_args = recorded_parse_args
atexit.register(report)
runpy.run_module("spwt.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "overrides, drop, code",
    [({}, (), 0), ({}, ("x_e_m",), 1), ({"g_m": 10_000}, (), 2)],
    ids=["placed", "missing-key", "infeasible"],
)
def test_the_process_entry_runs_without_the_collector_and_exits_frozen(
    tmp_path, overrides, drop, code
):
    cfg = write_config(tmp_path / "a.cfg", drop=drop, **overrides)
    argv = ["place", "--config", cfg, "--scheme", "azimuth"]
    proc = _cli_process(argv, code=_COLLECTOR_CHECK)
    assert proc.returncode == code
    assert proc.stderr.splitlines()[-1] == "enabled [False], frozen True"
    # stdout is still flushed at exit: the same lines as in process
    assert proc.stdout.count("scheme=azimuth") == (2 if code == 0 else 0)


def test_main_leaves_the_callers_collector_as_it_found_it(tmp_path):
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    cfg = write_config(tmp_path / "a.cfg")
    out = ["--out", str(tmp_path / "out")]
    for argv in (["place"], ["sweep", *out], ["pattern", "--grid=-100:100:10", *out]):
        assert main([*argv, "--config", cfg]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen


# Linux carries a process's high-water RSS across exec, so a command started
# straight from the test process would report at least the test process's
# own peak.  This small intermediate starts the command and reports its exit
# code and peak RSS (kB) from os.wait4.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_pattern_at_the_grid_cap_peak_rss(tmp_path):
    # One fresh process at the 2001 x 2001 cap, which maps the grid and
    # formats its CSV a block of rows (about 4,096 cells) at a time into
    # buffers made once, and keeps only the heatmap's drawn cells (182 x 182)
    # beyond the block; so the peak RSS is the interpreter, numpy and about
    # a MB of map, text and drawn cells, not the float64 map's 32 MB.
    cfg = write_config(tmp_path / "a.cfg")
    out = tmp_path / "out"
    argv = ["pattern", "--config", cfg, "--grid=-1000:1000:1", "--out", str(out)]
    proc = _cli_process(
        [sys.executable, "-m", "spwt.cli", *argv], code=_PEAK_RSS, timeout=300
    )
    try:
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        assert (out / "pattern.csv").stat().st_size > 2001 * 2001 * 10
        assert peak_kb <= 150 * 1024
    finally:
        shutil.rmtree(out, ignore_errors=True)  # the CSV alone is 96 MB


# Runs the CLI on its arguments, noting OPENBLAS_NUM_THREADS as numpy starts
# to load; then it prints, as the last line of stdout, that value and the
# one the run leaves, and exits with the CLI's exit code.
_PATTERN_DRIVER = """
import os, sys
from spwt import cli


class NumpyLoad:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            loaded.append(os.environ.get("OPENBLAS_NUM_THREADS"))


loaded = []
sys.meta_path.insert(0, NumpyLoad())
code = cli.main(sys.argv[1:])
blas = os.environ.get("OPENBLAS_NUM_THREADS")
print(f"numpy loaded at OPENBLAS_NUM_THREADS={loaded}, left at {blas}")
sys.exit(code)
"""


def _pattern_run(tmp_path, config, blas=None, grid="--grid=-100:100:10"):
    """One pattern run of _PATTERN_DRIVER on a stored config from
    ``tmp_path``, with OPENBLAS_NUM_THREADS unset or ``blas``; returns its
    outputs as the goldens store them, and its report line."""
    shutil.copy(GOLDEN / f"{config}.cfg", tmp_path / "run.cfg")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas:
        env["OPENBLAS_NUM_THREADS"] = blas
    argv = ["pattern", "--config", "run.cfg", grid, "--out", "out"]
    proc = _cli_process(argv, code=_PATTERN_DRIVER, env=env, cwd=tmp_path)
    stdout, _, report = proc.stdout.rstrip("\n").rpartition("\n")
    outputs = {
        "stdout": stdout + "\n",
        "stderr": proc.stderr,
        "exit_code": f"{proc.returncode}\n",
    }
    for path in sorted((tmp_path / "out").iterdir()):
        outputs[path.name] = _TIMESTAMP.sub(b"", path.read_bytes()).decode()
    return outputs, report


def _golden_pattern(config):
    case = GOLDEN / config / "pattern"
    return {path.name: path.read_text(encoding="utf-8") for path in case.iterdir()}


# ids: "split" is OPENBLAS_NUM_THREADS unset, "serial" a user's own 2 (the
# names are those of a forked writer that pattern no longer has; what the
# two cases vary is only the BLAS thread setting)
@pytest.mark.parametrize("blas", [None, "2"], ids=["split", "serial"])
@pytest.mark.parametrize("config", CONFIGS)
def test_pattern_paths_match_golden(tmp_path, config, blas):
    # Unset, OPENBLAS_NUM_THREADS is 1 while numpy loads and unset again
    # after; a user's own 2 is kept.  Either way the outputs are the goldens.
    outputs, report = _pattern_run(tmp_path, config, blas=blas)
    assert report == (
        f"numpy loaded at OPENBLAS_NUM_THREADS={[blas or '1']}, left at {blas}"
    )
    assert outputs == _golden_pattern(config)
