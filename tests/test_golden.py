"""Golden CLI outputs: stdout, stderr, exit code and every written file of
each command, byte for byte against the copies stored under tests/golden/.

Each case runs ``python -m spwt.cli`` in a fresh process from a scratch
directory holding the case's config, with ``--out out``, so the printed
paths are relative and the bytes do not depend on where the suite runs.
The manifest's timestamp line is the one part of a run that changes between
reruns; it is removed before the comparison (and before storing).

After a deliberate change to the outputs, regenerate the stored files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import spwt

GOLDEN = Path(__file__).parent / "golden"
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
    env.pop("SPWT_SEED", None)
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


def _regenerate() -> None:
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
