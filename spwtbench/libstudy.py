"""The lib-study operation and the worker process that times it.

One operation is a design study of one scenario through spwt's public API:
both bisector placements, both extension sides, then an SNR sweep and a
power-split sweep for every scheme that has a placement.  Results come back
as plain records for the oracle.

Run as a script, this module is the worker: it reads a plan (JSON list of
operations), runs the first once untimed as warm-up, then times every
operation, with a host-speed probe (hostspeed.py) around each block of
PROBE_EVERY, and writes one JSON line per operation.  The parent reads the
worker's peak memory from its exit status.

    python spwtbench/libstudy.py PLAN.json OUT.jsonl      (PYTHONPATH=src)
"""

import json
import math
import sys
import time
import warnings

# Library calls go through the package attributes (spwt.solve_...), so the
# traced run sees them once it has wrapped those names.
import hostspeed
import spwt
from spwt import (
    ArrayGeometry,
    InfeasibleGeometry,
    Position3D,
    PowerConfig,
    ScenarioConfig,
    SpwtError,
)


# Scenarios between two host-speed probes (about 40 ms of work).
PROBE_EVERY = 4


def make_scenario(cfg: dict) -> ScenarioConfig:
    """The scenario the CLI builds from the same config values."""
    return ScenarioConfig(
        array=ArrayGeometry(cfg["m"], cfg["n"], cfg["f_c_hz"]),
        bob=Position3D(0.0, 0.0, 0.0),
        eve=Position3D(cfg["x_e_m"], 0.0, 0.0),
        uav_height_m=cfg["g_m"],
        yaw=math.radians(cfg["theta_a_deg"]),
        power=PowerConfig(cfg["p_w"], 1.0, cfg["sigma2_w"], cfg["sigma2_w"]),
        seed=cfg["seed"],
    )


def _outcome(exc: SpwtError) -> str:
    return "infeasible" if isinstance(exc, InfeasibleGeometry) else f"error:{type(exc).__name__}"


def _placement(s) -> dict:
    p = s.position
    return {"pos": (p.x, p.y, p.z), "residual": s.null_residual, "sr": s.sr_at_solution}


def study(scenario: ScenarioConfig) -> dict:
    """Solve every scheme, then sweep each scheme that has a placement.

    A named spwt error is an outcome ("infeasible" or "error:<name>"); any
    other exception is recorded under "crash" and fails the operation.
    """
    rec = {"pitch": {}, "sweeps": {}}
    try:
        try:
            rec["azimuth"] = [_placement(s) for s in spwt.solve_azimuth_scheme(scenario)]
        except SpwtError as exc:
            rec["azimuth"] = _outcome(exc)
        for side in ("left", "right"):
            try:
                rec["pitch"][side] = _placement(spwt.solve_pitch_scheme(scenario, side=side))
            except SpwtError as exc:
                rec["pitch"][side] = _outcome(exc)
        feasible = []
        if rec["azimuth"] and not isinstance(rec["azimuth"], str):
            feasible.append("azimuth")
        if any(not isinstance(p, str) for p in rec["pitch"].values()):
            feasible.append("pitch")
        for scheme in feasible:
            for kind, sweep in (("snr", spwt.sweep_snr), ("alpha", spwt.sweep_alpha)):
                try:
                    res = sweep(scenario, scheme=scheme)
                except SpwtError as exc:
                    rec["sweeps"][f"{scheme}/{kind}"] = _outcome(exc)
                    continue
                rec["sweeps"][f"{scheme}/{kind}"] = {
                    "x": res.x_axis,
                    "series": res.series,
                    "placement": res.metadata["placement"],
                    "baselines": res.metadata["baseline_positions"],
                }
    except Exception as exc:  # the oracle reports it as a failed operation
        rec["crash"] = f"{type(exc).__name__}: {exc}"
    return rec


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    scenarios = [make_scenario(op["cfg"]) for op in plan]
    warnings.simplefilter("ignore")  # discarded candidates show up in the oracle's counts
    study(scenarios[0])
    with open(out_path, "w", encoding="utf-8") as out:
        for start in range(0, len(scenarios), PROBE_EVERY):
            before = hostspeed.probe_ms()
            block = []
            for scenario in scenarios[start:start + PROBE_EVERY]:
                t0 = time.perf_counter()
                rec = study(scenario)
                rec["ms"] = (time.perf_counter() - t0) * 1e3
                block.append(rec)
            probes = (before, hostspeed.probe_ms())
            for rec in block:
                rec["probe_ms"] = probes
                out.write(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
