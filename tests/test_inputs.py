"""The library's front door: each field of the public value types rejects a
value outside the model at construction, with the documented message, so
no such value reaches a solver or a sweep.  A scenario's one rule across
fields, both ground nodes at z = 0, is checked at construction too: the
correlation kernel and map take every node on the ground.
"""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario
from spwt import (
    ArrayGeometry,
    Position3D,
    PowerConfig,
    ScenarioConfig,
    solve_all,
    solve_azimuth_scheme,
    solve_pitch_scheme,
    sweep_snr,
)
from spwt.scenario import _NOT_FINITE

SCENARIO = make_scenario()
# nan, either infinity, and ints past the float range, which no float holds.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)])
# Zero of either sign and every finite negative value.
NOT_POSITIVE = st.floats(max_value=0.0, allow_infinity=False)
BAD_SEED = st.booleans() | st.floats() | st.integers(max_value=-1)

RULES = [
    *(
        (SCENARIO.eve, axis, NON_FINITE, "position coordinates must be finite")
        for axis in "xyz"
    ),
    (SCENARIO, "uav_height_m", NON_FINITE | NOT_POSITIVE,
     "platform height must be finite and positive"),
    (SCENARIO, "yaw", NON_FINITE, "yaw must be finite"),
    (SCENARIO, "seed", BAD_SEED, "seed must be a non-negative integer"),
    *(
        (SCENARIO.array, count, st.booleans() | st.floats(),
         "array dimensions must be integers")
        for count in ("m_rows", "n_cols")
    ),
    *(
        (SCENARIO.array, count, st.integers(max_value=0),
         "array needs at least one element per axis")
        for count in ("m_rows", "n_cols")
    ),
    (SCENARIO.array, "carrier_hz", NON_FINITE | NOT_POSITIVE,
     "carrier frequency must be finite and positive"),
    (SCENARIO.array, "spacing_m", NON_FINITE | NOT_POSITIVE,
     "element spacing must be finite and positive"),
    *(
        (SCENARIO.power, name, NON_FINITE, _NOT_FINITE)
        for name in ("total_power_w", "alpha", "noise_b_w", "noise_e_w")
    ),
    (SCENARIO.power, "total_power_w", NOT_POSITIVE, "total power must be positive"),
    (SCENARIO.power, "alpha",
     # below -0.0, which passes the range check as 0.0 does
     st.floats(max_value=-math.ulp(0.0), allow_infinity=False)
     | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
     "alpha must lie in [0, 1]"),
    *(
        (SCENARIO.power, name, NOT_POSITIVE, "noise powers must be positive")
        for name in ("noise_b_w", "noise_e_w")
    ),
]


@pytest.mark.parametrize(
    "valid, field, values, message",
    RULES,
    ids=[f"{type(valid).__name__}.{field}-{message}" for valid, field, _, message in RULES],
)
@settings(max_examples=20)
@given(data=st.data())
def test_each_field_rejects_an_out_of_model_value_at_construction(
    valid, field, values, message, data
):
    value = data.draw(values, label=field)
    with pytest.raises(ValueError) as info:
        replace(valid, **{field: value})
    assert str(info.value) == message


# Any finite altitude but zero, of either sign.
OFF_THE_GROUND = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
GROUND_RULE = "the placement schemes need both ground nodes at z = 0"


@pytest.mark.parametrize("node", ["bob", "eve"])
@settings(max_examples=20)
@given(z=OFF_THE_GROUND)
def test_each_solver_rejects_a_ground_node_off_z_0_before_solving(node, z):
    # The rule is checked when the scenario is built, either way it is
    # built, so no solver or sweep is ever handed a lifted node.
    valid = getattr(SCENARIO, node)
    lifted = {node: replace(valid, z=z)}
    builds = [lambda: ScenarioConfig(**{**vars(SCENARIO), **lifted})]
    for solve in (solve_azimuth_scheme, solve_pitch_scheme, solve_all, sweep_snr):
        builds.append(lambda solve=solve: solve(replace(SCENARIO, **lifted)))
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError and str(info.value) == GROUND_RULE
    # -0.0 is on the ground: it builds, and places as 0.0 does
    minus_zero = replace(SCENARIO, **{node: replace(valid, z=-0.0)})
    assert solve_all(minus_zero) == solve_all(SCENARIO)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_float_fields_are_stored_as_python_floats(dtype):
    # a numpy float scalar of any width is stored as the Python float of its
    # value, so a float32 or float16 altitude places exactly as the float64
    # one does, and no numpy scalar reaches a placement
    scenario = make_scenario(g=dtype(200.0), yaw=dtype(0.5), x_e=dtype(500.0))
    got = solve_all(scenario)
    assert got[2] == []
    assert repr(got) == repr(solve_all(make_scenario(yaw=float(dtype(0.5)))))
    values = [
        *astuple(Position3D(dtype(1.0), dtype(2.0), dtype(3.0))),
        *astuple(ArrayGeometry(4, 4, dtype(3000.0), dtype(0.05)))[2:],
        *astuple(PowerConfig(*map(dtype, (1.0, 0.5, 0.01, 0.02)))),
        scenario.uav_height_m,
        scenario.yaw,
    ]
    assert all(type(value) is float for value in values)
