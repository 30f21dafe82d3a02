"""The CLI over its config space: every documented key drawn across the
float range, run in process through ``main()``.  Whatever the values, a
command exits 0, 1 or 2 without an escaping exception; a failed one names
its cause and leaves the previous outputs as they were; a successful one
prints and writes only finite numbers."""

import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from spwt.cli import _FLOAT_KEYS, main

# The README reference scenario, as reference.cfg spells it.
REFERENCE = {
    "m": 4,
    "n": 4,
    "f_c_hz": 3e9,
    "x_e_m": 500.0,
    "g_m": 200.0,
    "theta_a_deg": 45.0,
    "p_w": 1.0,
    "sigma2_w": 0.0316227766,
    "alpha": 1.0,
    "seed": 0,
}
_TINY = sys.float_info.min  # the smallest normal float
_FLOATS = st.one_of(
    # log-uniform over 1e-320..1e308, of either sign
    st.builds(
        lambda exponent, sign: sign * 10.0 ** exponent,
        st.floats(-320.0, 308.0),
        st.sampled_from((1.0, -1.0)),
    ),
    st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, _TINY / 2.0, -_TINY / 2.0,
         sys.float_info.max, -sys.float_info.max)
    ),
)
_VALUES = {
    **dict.fromkeys(_FLOAT_KEYS, _FLOATS),
    "m": st.integers(-1, 10**6),
    "n": st.integers(-1, 1000),
    "seed": st.integers(-1, 2**63),
    # alpha at its ends, and the float range
    "alpha": st.one_of(_FLOATS, st.sampled_from((0.0, 5e-324, 1e-300, 1.0 - 2**-53, 1.0))),
}
_COMMANDS = {
    "place": (["place"], ()),
    "sweep-snr": (["sweep", "--kind", "snr"], ("sweep_snr.csv", "sweep_snr.svg", "manifest.json")),
    "sweep-alpha": (
        ["sweep", "--kind", "alpha"], ("sweep_alpha.csv", "sweep_alpha.svg", "manifest.json")
    ),
    "pattern": (["pattern", "--grid=-2:2:1"], ("pattern.csv", "pattern.svg", "manifest.json")),
}
# A non-finite number as the CLI or JSON would print it.
_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def configs(draw):
    """The reference config with up to three keys redrawn, the yaw given
    in radians or degrees."""
    values = dict(REFERENCE)
    if draw(st.booleans()):
        values["theta_a_rad"] = math.radians(values.pop("theta_a_deg"))
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)):
        values[key] = draw(_VALUES[key])
    return values


@given(
    config=configs(),
    command=st.sampled_from(sorted(_COMMANDS)),
    scheme=st.sampled_from(("azimuth", "pitch")),
)
def test_any_config_exits_cleanly(config, command, scheme):
    argv, names = _COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "run.cfg"), Path(tmp, "out")
        cfg.write_text("".join(f"{k} = {v!r}\n" for k, v in config.items()))
        out.mkdir()
        for name in names:
            (out / name).write_text(f"previous {name}\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        if command != "pattern":
            argv = [*argv, "--scheme", scheme]
        if names:
            argv = [*argv, "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--config", str(cfg)])
        after = {path.name: path.read_bytes() for path in out.iterdir()}

    assert code in (0, 1, 2)
    lines = stderr.getvalue().splitlines()
    if code:
        named = "error: " if code == 1 else "infeasible: "
        assert any(line.startswith(named) for line in lines), lines
        assert after == before  # byte-identical, and no *.tmp left
    else:
        assert not _NON_FINITE.search(stdout.getvalue().replace(str(out), "OUT"))
        assert sorted(after) == sorted(names)
        for name, data in after.items():
            assert not _NON_FINITE.search(data.decode()), name
