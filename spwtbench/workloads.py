"""Seeded input generator for the three benchmark workloads.

Everything the program under test receives is produced here from the
workload seed alone: config-file text for the CLI workloads and scenario
records for the library study.  Inputs are built from ``random.Random``
draws formatted with ``repr``, so one seed gives byte-identical inputs on
every machine, and :func:`inputs_sha256` fingerprints them.

A run executes whole cycles.  Every cycle holds the same mix (commands and
array sizes in a fixed ratio, geometry drawn afresh), so runs with different
seeds measure the same kind of work and their medians are comparable.  The
number of cycles follows from ``--seconds`` and the nominal cycle time on
the 2-core reference machine; it never depends on how fast a run happens to
go, so operation counts repeat exactly for a fixed seed.
"""

import hashlib
import json
import random

ARRAYS = tuple((m, n) for m in (4, 8, 16) for n in (4, 8, 16))

CARRIER_HZ = 3.0e9
POWER_W = 1.0
SIGMA2_W = 10.0 ** -1.5  # 15 dB SNR at 1 W

# Seconds one cycle takes on the reference machine (2 cores, Python 3.11,
# numpy 2.4, at the commit that introduced the benchmark).
NOMINAL_CYCLE_S = {"cli-short": 4.0, "cli-pattern": 18.0, "lib-study": 1.6}
# At least two cycles, so that the median and tail of the slowest workload
# rest on a repeated mix rather than on a single pass.
MIN_CYCLES = 2

# cli-short: 5 place, 5 sweep --kind snr, 5 sweep --kind alpha and one
# out-of-model place per cycle of 16 calls.
SHORT_MIX = ("place",) * 5 + ("sweep-snr",) * 5 + ("sweep-alpha",) * 5 + ("oom",)
# Out-of-model values the CLI must reject with exit 1, naming the key.
OOM_VALUES = (("g_m", "nan"), ("x_e_m", "inf"), ("theta_a_deg", "nan"), ("f_c_hz", "nan"))
STUDY_PER_ARRAY = 16

PATTERN_POINTS = 401 * 401  # default --grid -1000:1000:5

INPUT_SIZE = {
    "cli-short": "one fresh-process CLI call on an MxN array, M,N in {4,8,16}; "
    "sweeps have 11 grid points",
    "cli-pattern": f"one fresh-process pattern call, {PATTERN_POINTS} grid points "
    "(401x401), MxN array, M,N in {4,8,16}",
    "lib-study": "one scenario: solve_azimuth_scheme, solve_pitch_scheme x2, then "
    "sweep_snr and sweep_alpha (11 points each) per feasible scheme",
}


def cycle_count(workload: str, seconds: int) -> int:
    return max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))


def _shuffle(rng: random.Random, items: list) -> list:
    # Fisher-Yates on rng.random() alone, whose stream is stable across
    # Python versions (random.shuffle's use of randbelow is not promised).
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _geometry(rng: random.Random, m: int, n: int) -> dict:
    return {
        "m": m,
        "n": n,
        "f_c_hz": CARRIER_HZ,
        "x_e_m": 100.0 + 900.0 * rng.random(),
        "g_m": 50.0 + 350.0 * rng.random(),
        "theta_a_deg": 5.0 + 80.0 * rng.random(),
        "p_w": POWER_W,
        "sigma2_w": SIGMA2_W,
        "seed": int(rng.random() * 2**31),
    }


def config_text(cfg: dict, override: tuple | None = None) -> str:
    """The key = value file the CLI reads; ``override`` replaces one value
    with raw text (used for the out-of-model calls)."""
    lines = []
    for key, value in cfg.items():
        text = repr(value)
        if override is not None and key == override[0]:
            text = override[1]
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _cli_short_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for kind in _shuffle(rng, SHORT_MIX):
        m, n = ARRAYS[int(rng.random() * len(ARRAYS))]
        cfg = _geometry(rng, m, n)
        op = {"kind": kind, "cfg": cfg}
        if kind == "oom":
            key, value = OOM_VALUES[int(rng.random() * len(OOM_VALUES))]
            op.update(kind="place", oom_key=key, text=config_text(cfg, (key, value)))
        else:
            op["text"] = config_text(cfg)
        if kind.startswith("sweep"):
            op["scheme"] = "azimuth" if rng.random() < 0.5 else "pitch"
        ops.append(op)
    return ops


def _cli_pattern_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for m, n in _shuffle(rng, ARRAYS):
        cfg = _geometry(rng, m, n)
        ops.append({"kind": "pattern", "cfg": cfg, "text": config_text(cfg)})
    return ops


def _lib_study_cycle(rng: random.Random) -> list[dict]:
    arrays = _shuffle(rng, ARRAYS * STUDY_PER_ARRAY)
    return [{"kind": "study", "cfg": _geometry(rng, m, n)} for m, n in arrays]


_CYCLES = {
    "cli-short": _cli_short_cycle,
    "cli-pattern": _cli_pattern_cycle,
    "lib-study": _lib_study_cycle,
}


def make_plan(workload: str, seed: int, seconds: int) -> list[dict]:
    """All operations of one run, in execution order."""
    rng = random.Random(f"spwtbench/{workload}/{seed}")
    plan = []
    for _ in range(cycle_count(workload, seconds)):
        plan.extend(_CYCLES[workload](rng))
    return plan


def coverage_ops() -> list[dict]:
    """One operation of every kind on the README's reference scenario (4x4,
    nodes 500 m apart, 200 m altitude, 45 degree yaw; both schemes
    feasible), appended to each traced run so that every layer is exercised
    whatever the workload."""
    cfg = {"m": 4, "n": 4, "f_c_hz": CARRIER_HZ, "x_e_m": 500.0, "g_m": 200.0,
           "theta_a_deg": 45.0, "p_w": POWER_W, "sigma2_w": SIGMA2_W, "seed": 0}
    ops = [{"kind": kind, "cfg": cfg, "text": config_text(cfg)}
           for kind in ("place", "sweep-snr", "sweep-alpha", "pattern")]
    ops[1]["scheme"] = ops[2]["scheme"] = "azimuth"
    ops.append({"kind": "study", "cfg": cfg})
    return ops


def inputs_sha256(plan: list[dict]) -> str:
    blob = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()

