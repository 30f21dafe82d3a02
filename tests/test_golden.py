"""Golden CLI outputs: stdout, stderr, exit code and every written file of
each command, byte for byte against the copies stored under tests/golden/;
and golden library results: the repr of each test_reuse._study record of a
fixed scenario set, stored in tests/golden/studies.txt, so that every float
is pinned to the bit (the CSV files keep 12 digits).

Each case runs ``python -m spwt.cli`` in a fresh process from a scratch
directory holding the case's config, with ``--out out``, so the printed
paths are relative and the bytes do not depend on where the suite runs.
The manifest's timestamp line is the one part of a run that changes between
reruns; it is removed before the comparison (and before storing).

After a deliberate change to the outputs, regenerate the stored files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import spwt
from conftest import make_scenario
from spwt import Position3D
from spwt import experiments
from test_reuse import _study

GOLDEN = Path(__file__).parent / "golden"
STUDIES = GOLDEN / "studies.txt"
# Stored configs: the README reference (4x4) and a 16x16 array.
CONFIGS = ("reference", "wide16")
COMMANDS = {
    "place": ["place"],
    "sweep-snr-azimuth": ["sweep", "--kind", "snr", "--scheme", "azimuth"],
    "sweep-snr-pitch": ["sweep", "--kind", "snr", "--scheme", "pitch"],
    "sweep-alpha-azimuth": ["sweep", "--kind", "alpha", "--scheme", "azimuth"],
    "sweep-alpha-pitch": ["sweep", "--kind", "alpha", "--scheme", "pitch"],
    "pattern": ["pattern", "--grid=-100:100:10"],
}
_TIMESTAMP = re.compile(rb'^  "timestamp": "[^"\n]*",\n', re.M)


def run_case(config: str, command: str, workdir: Path) -> dict[str, bytes]:
    """Run one command on one stored config inside ``workdir``; returns
    name -> bytes for the streams, the exit code and each written file."""
    shutil.copy(GOLDEN / f"{config}.cfg", workdir / "run.cfg")
    argv = COMMANDS[command] + ["--config", "run.cfg"]
    if command != "place":
        argv += ["--out", "out"]
    env = dict(os.environ, PYTHONPATH=str(Path(spwt.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spwt.cli", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        timeout=120,
    )
    outputs = {
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "exit_code": f"{proc.returncode}\n".encode(),
    }
    out_dir = workdir / "out"
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data, count = _TIMESTAMP.subn(b"", data)
                assert count == 1, "manifest has no timestamp line"
            outputs[path.name] = data
    return outputs


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", CONFIGS)
def test_cli_output_matches_golden(config, command, tmp_path):
    outputs = run_case(config, command, tmp_path)
    case_dir = GOLDEN / config / command
    stored = {path.name: path.read_bytes() for path in case_dir.iterdir()}
    assert sorted(outputs) == sorted(stored)
    for name, data in outputs.items():
        assert data == stored[name], f"{config}/{command}/{name} differs"


def study_scenarios() -> list:
    """One geometry per array in {4, 8, 16}^2, the odd ones at an altitude
    where only the bisector scheme places; then one where nothing does;
    then three whose ground pair is shifted off the origin and turned to a
    bearing in the second, third and fourth quadrant, so that the solvers
    and sweeps run through a non-identity frame transform."""
    high = {1: 600.0, 3: 1520.0, 5: 4200.0, 7: 2890.0}
    grid = itertools.product((4, 8, 16), repeat=2)
    turned = (
        # (m, n, ground distance, altitude, yaw, bob's x and y, bearing)
        (4, 4, 430.0, 180.0, 1.1, -250.0, 400.0, 2.2),
        (4, 8, 370.0, 600.0, 0.43, 120.5, -310.0, -2.5),
        (8, 16, 610.0, 260.0, 2.05, 615.0, 75.0, -0.9),
    )
    return [
        make_scenario(
            m=m, n=n, x_e=300.0 + 70.0 * i, g=high.get(i, 120.0 + 25.0 * i),
            yaw=0.3 + 0.13 * i, seed=i,
        )
        for i, (m, n) in enumerate(grid)
    ] + [make_scenario(g=10_000.0)] + [
        replace(
            make_scenario(m=m, n=n, g=g, yaw=yaw, seed=20 + k),
            bob=Position3D(x, y),
            eve=Position3D(x + d * math.cos(bearing), y + d * math.sin(bearing)),
        )
        for k, (m, n, d, g, yaw, x, y, bearing) in enumerate(turned)
    ]


def study_record(scenario) -> list[str]:
    """The scenario's three lines: its repr, the repr of its study record
    and the messages of the warnings the study emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = _study(scenario)
    return [repr(scenario), repr(record), repr([str(w.message) for w in caught])]


def study_records() -> list[str]:
    return [line for scenario in study_scenarios() for line in study_record(scenario)]


def test_study_records_match_golden():
    stored = STUDIES.read_text(encoding="utf-8").splitlines()
    for k, (got, want) in enumerate(zip(study_records(), stored, strict=True)):
        assert got == want, f"studies.txt line {k + 1} differs"


def test_study_records_do_not_depend_on_the_studies_before():
    # the sweeps share each grid's axis across scenarios of one power: the
    # scenarios studied in reverse, each after a study at 2 W, give the
    # stored records
    stored = STUDIES.read_text(encoding="utf-8").splitlines()
    scenarios = study_scenarios()
    assert len(stored) == 3 * len(scenarios)
    experiments._axis.cache_clear()
    for k in reversed(range(len(scenarios))):
        _study(make_scenario(p=2.0, x_e=450.0, seed=k))
        assert study_record(scenarios[k]) == stored[3 * k : 3 * k + 3], k


def _regenerate() -> None:
    STUDIES.write_text("\n".join(study_records()) + "\n", encoding="utf-8")
    for config in CONFIGS:
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                outputs = run_case(config, command, Path(tmp))
            case_dir = GOLDEN / config / command
            shutil.rmtree(case_dir, ignore_errors=True)
            case_dir.mkdir(parents=True)
            for name, data in outputs.items():
                (case_dir / name).write_bytes(data)


if __name__ == "__main__":
    _regenerate()
