import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import spwt
from spwt import cli
from spwt.cli import (
    CliError,
    _can_split,
    _csv,
    _fmt,
    _pattern_axis,
    _sweep_grid,
    _write_outputs,
    _write_pattern_csv,
    main,
    parse_config,
)
from test_golden import _TIMESTAMP, GOLDEN


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
    "extra_line, drop, flags, env_seed, message",
    [
        pytest.param("m 4", (), [], None, "config line 12: expected 'key = value'",
                     id="no-equals"),
        pytest.param("m = 4", (), [], None, "config line 12: duplicate key 'm'",
                     id="duplicate-key"),
        # the bandwidth sets nothing in the model, so it is not a key
        pytest.param("bandwidth_hz = 5e6", (), [], None,
                     "config line 12: unknown key 'bandwidth_hz'", id="bandwidth-key"),
        pytest.param("", ("theta_a_rad",), [], None,
                     "config: missing required key 'theta_a_rad'", id="no-angle"),
        # the environment is not a seed source: a grid error is reported as
        # it is without SPWT_SEED
        pytest.param("", ("seed",), ["--grid=0:two:20"], "four",
                     "--grid: cannot parse '0:two:20'", id="env-seed"),
        pytest.param("", (), ["--grid=0:two:20"], None,
                     "--grid: cannot parse '0:two:20'", id="grid-unparsable"),
        pytest.param("", (), ["--grid=0:0:20"], None,
                     "--grid: need step > 0 and stop >= start", id="grid-zero-step"),
        pytest.param("", (), ["--grid=20:2:0"], None,
                     "--grid: need step > 0 and stop >= start", id="grid-reversed"),
    ],
)
def test_config_and_grid_errors_exit_1_and_write_nothing(
    tmp_path, capsys, monkeypatch, extra_line, drop, flags, env_seed, message
):
    path = tmp_path / "a.cfg"
    write_config(path, drop=drop)
    path.write_text(path.read_text() + extra_line + "\n")
    if env_seed is not None:
        monkeypatch.setenv("SPWT_SEED", env_seed)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), *flags]) == 1
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


def test_sweep_infeasible_leaves_no_partial_files(tmp_path):
    cfg = write_config(tmp_path / "a.cfg", g_m=10_000)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "sweep_snr.csv").exists()
    assert not (out / "manifest.json").exists()


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
    assert "<rect" in svg and "circle" in svg  # cells plus solution overlay


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
    # one grid row is never split: the header and the row come once
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
    _write_pattern_csv(buf, axis, values)
    assert buf.getvalue() == _csv("x_m,y_m,residual", rows)
    # the rows before 3 and from 3 on, as pattern splits them between two
    # processes, give the same bytes
    blocks = io.StringIO()
    _write_pattern_csv(blocks, axis, values[:3])
    _write_pattern_csv(blocks, axis, values[3:], 3)
    assert blocks.getvalue() == buf.getvalue()


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
    # a quarter-turn yaw rules out both schemes, and 10 km altitude leaves
    # no feasible placement; the map is defined either way
    for name, overrides in (("yaw", {"theta_a_rad": repr(math.pi / 2.0)}),
                            ("high", {"g_m": 10_000})):
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


def test_grid_caps_admit_their_limits():
    assert len(_sweep_grid("0:1:99999", "snr")) == 100_000
    assert len(_pattern_axis("-1000:1000:1")) == 2001
    assert len(_pattern_axis("-1000:1000:2")) == 1001
    with pytest.raises(CliError, match="more than 100000 sweep points"):
        _sweep_grid("0:1:100000", "snr")
    with pytest.raises(CliError, match="more than 2001 points per axis"):
        _pattern_axis("-1000:1001:1")


def _partial_then_fail(fh, *args):
    fh.write("x_m,y_m,residual\n0,0,")
    raise OSError(28, "No space left on device")


def _listing(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_failed_pattern_write_keeps_previous_outputs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "a.cfg")
    assert main(["pattern", "--config", cfg, "--grid=-20:20:5", "--out", str(out)]) == 0
    before = _listing(out)
    assert sorted(before) == ["manifest.json", "pattern.csv", "pattern.svg"]

    # A second run, on other inputs, whose CSV writer fails partway.
    monkeypatch.setattr(cli, "_write_pattern_csv", _partial_then_fail)
    cfg = write_config(tmp_path / "b.cfg", m=8)
    capsys.readouterr()
    assert main(["pattern", "--config", cfg, "--grid=-30:30:5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert _listing(out) == before  # byte-identical, and no *.tmp left


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_failed_write_keeps_every_previous_file(tmp_path, failing):
    out = tmp_path / "out"
    names = ("a.csv", "b.svg", "manifest.json")
    _write_outputs(str(out), {name: f"old {name}\n" for name in names})
    before = _listing(out)
    files = {name: f"new {name}\n" for name in names}
    files[names[failing]] = _partial_then_fail
    with pytest.raises(OSError, match="No space left"):
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
     ("alpha", 1.5), ("x_e_m", 0), ("g_m", -5), ("g_m", 0), ("x_e_m", "1e-10")],
)
@pytest.mark.parametrize("command", ["place", "sweep", "pattern"])
def test_out_of_range_config_value_exits_1(tmp_path, capsys, key, value, command):
    # the CLI checks the ground segment, the constructors the rest; x_e_m =
    # 1e-10 puts the nodes on one point, which has no axis to align
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
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        code = main(argv)
    assert code in (0, 2)
    err = capsys.readouterr().err.splitlines()
    assert err and all(line.startswith(("infeasible: ", "warning: ")) for line in err)
    warned = [line for line in err if line.startswith("warning: ")]
    if (key, command) == ("x_e_m", "place"):
        # the warning line gives the far candidate's coordinate in six
        # significant digits, not all 201 of them
        assert warned == [f"warning: {FAR_WARNING}"]


FAR_WARNING = (
    "extension candidate x=1e+200 failed verification (|rho| = 7.233e-02); discarded"
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


# Imports spwt, then runs the CLI on the arguments, if any, and reports
# whether numpy was imported.
_NUMPY_CHECK = """
import sys
import spwt
if sys.argv[1:]:
    from spwt.cli import main
    main(sys.argv[1:])
print("numpy imported:", "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [[], ["place"], ["sweep", "--kind", "snr"], ["sweep", "--kind", "alpha"]],
    ids=["import", "place", "sweep-snr", "sweep-alpha"],
)
def test_import_place_and_sweep_need_no_numpy(tmp_path, argv):
    if argv:
        argv = [*argv, "--config", str(GOLDEN_REFERENCE)]
    if argv[:1] == ["sweep"]:
        argv += ["--out", str(tmp_path / "out")]
    proc = _cli_process(argv, code=_NUMPY_CHECK)
    assert proc.returncode == 0
    assert proc.stderr == "numpy imported: False\n"


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
        ([], _SUBMODULES),
        (
            ["place"],
            {"spwt.experiments", "spwt.charts", "json", "datetime", "hashlib", "numpy"},
        ),
        (["sweep"], {"hashlib", "numpy"}),
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
    assert set(proc.stderr.split()) & skipped == set()


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
    # One fresh process at the 2001 x 2001 cap; the output is streamed, so
    # its peak RSS is the interpreter, numpy and the float64 map (32 MB).
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


# Runs the CLI on the arguments after the first, first making the function
# of spwt.cli that the first one names raise in any process but this one
# (the child a split pattern forks); or, for "partial", the CSV writer fail
# partway in every process; or, for "fork" and "tempfile", os.fork or
# tempfile.TemporaryFile fail.  Then it prints, as the last line of stdout,
# how many children the run forked, the exit codes of those it reaped and
# whether a child is left, and exits with the CLI's exit code.
_PATTERN_DRIVER = """
import os, sys, tempfile
from spwt import cli

mode, argv = sys.argv[1], sys.argv[2:]
parent, forked, reaped = os.getpid(), [], []
fork, waitpid = os.fork, os.waitpid


def counted_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid


def recorded_waitpid(pid, options):
    got, status = waitpid(pid, options)
    if got in forked:
        reaped.append(os.waitstatus_to_exitcode(status))
    return got, status


def in_the_child(real):
    def fail(*args):
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return real(*args)
    return fail


def partial_then_fail(fh, *args):
    fh.write("x_m,y_m,residual\\n0,0,")
    raise OSError(28, "No space left on device")


def no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def no_file(*args):
    raise FileNotFoundError(2, "No usable temporary directory found")


os.fork, os.waitpid = counted_fork, recorded_waitpid
if mode == "partial":
    cli._write_pattern_csv = partial_then_fail
elif mode == "fork":
    os.fork = no_fork
elif mode == "tempfile":
    tempfile.TemporaryFile = no_file
elif mode != "none":
    setattr(cli, mode, in_the_child(getattr(cli, mode)))
code = cli.main(argv)
try:
    waitpid(-1, os.WNOHANG)
    left = "a child left"
except ChildProcessError:
    left = "no child left"
blas = os.environ.get("OPENBLAS_NUM_THREADS")
print(f"{len(forked)} forked, reaped {reaped}, {left}, OPENBLAS_NUM_THREADS={blas}")
sys.exit(code)
"""
# pattern splits its rows where this host gives it two CPUs
_SPLITS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _pattern_run(tmp_path, config, mode="none", blas=None, grid="--grid=-100:100:10"):
    """One pattern run of _PATTERN_DRIVER on a stored config from
    ``tmp_path``, with OPENBLAS_NUM_THREADS unset or ``blas``; returns its
    outputs as the goldens store them, and its report line."""
    shutil.copy(GOLDEN / f"{config}.cfg", tmp_path / "run.cfg")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas:
        env["OPENBLAS_NUM_THREADS"] = blas
    argv = [mode, "pattern", "--config", "run.cfg", grid, "--out", "out"]
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


@pytest.mark.parametrize(
    "blas, forked", [(None, int(_SPLITS)), ("2", 0)], ids=["split", "serial"]
)
@pytest.mark.parametrize("config", ["reference", "wide16", "linear"])
def test_pattern_paths_match_golden(tmp_path, config, blas, forked):
    # Unset, OPENBLAS_NUM_THREADS is 1 while numpy loads, so numpy starts no
    # BLAS thread and the rows are split, and unset again after; a user's own
    # 2 is kept, and the BLAS thread it starts keeps pattern on the serial path.
    outputs, report = _pattern_run(tmp_path, config, blas=blas)
    assert report == (
        f"{forked} forked, reaped {[0] * forked}, no child left, "
        f"OPENBLAS_NUM_THREADS={blas}"
    )
    assert outputs == _golden_pattern(config)


@pytest.mark.skipif(not _SPLITS, reason="pattern runs serially on this host")
@pytest.mark.parametrize(
    "failing, children",
    [
        ("correlation_map", "1 forked, reaped [1]"),
        ("_write_pattern_csv", "1 forked, reaped [1]"),
        ("fork", "0 forked, reaped []"),
        ("tempfile", "0 forked, reaped []"),
    ],
    ids=["before-ready", "after-ready", "no-fork", "no-tempfile"],
)
def test_a_failing_child_leaves_the_golden_output(tmp_path, failing, children):
    # the child fails mapping its rows, before it signals them ready, or
    # formatting them, after; or it cannot be forked, or given a file for
    # its rows: the parent does that work itself
    outputs, report = _pattern_run(tmp_path, "reference", failing)
    assert report == f"{children}, no child left, OPENBLAS_NUM_THREADS=None"
    assert outputs == _golden_pattern("reference")


@pytest.mark.skipif(not _SPLITS, reason="pattern runs serially on this host")
def test_failed_split_pattern_write_keeps_previous_outputs(tmp_path):
    _pattern_run(tmp_path, "reference")
    before = _listing(tmp_path / "out")
    # the CSV writer fails partway, in the parent before it waits for the
    # child, which it then kills or finds failed, and reaps
    outputs, report = _pattern_run(tmp_path, "wide16", "partial", grid="--grid=-30:30:5")
    assert report.startswith("1 forked, reaped [")
    assert report.endswith("], no child left, OPENBLAS_NUM_THREADS=None")
    assert outputs["exit_code"] == "1\n"
    assert outputs["stderr"] == "error: [Errno 28] No space left on device\n"
    assert _listing(tmp_path / "out") == before  # byte-identical, and no *.tmp left


def test_pattern_splits_only_many_rows_in_one_thread():
    # one grid row is never split; nor are many while this process runs a
    # second thread, whether or not numpy's BLAS started more
    assert not _can_split(1)
    done = threading.Event()
    worker = threading.Thread(target=done.wait)
    worker.start()
    try:
        assert not _can_split(401)
    finally:
        done.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
