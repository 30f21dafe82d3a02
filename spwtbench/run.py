"""spwt benchmark: one command, three workloads, oracle-checked outputs.

    python3 spwtbench/run.py --workload cli-short --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (spwt is used from ``src/`` through
PYTHONPATH; nothing is installed).  Load comes from one closed-loop client:
one operation at a time, each starting when the previous one has finished.

``--trace 0`` measures the end-to-end metrics: CLI calls in fresh
processes, the library study in one worker process, and ``setup_s`` from
fresh interpreters importing spwt.  ``--trace 1`` runs the same operations
in this process with every layer's public functions wrapped (see spans.py),
once traced and once not, and reports per-layer metrics plus the tracing
overhead.  The metric names, units and workload reasons are read from
BENCHMARK.json, so what is printed is what the benchmark declares.

The last line of stdout is the result JSON; the lines before it are the
human-readable report and an environment record.  A full report is written
to spwtbench/_runs/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Pin BLAS to one thread before numpy loads here or in any child.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"
SETUP_SAMPLES = 11  # split before and after the operations, which spans host drift
IMPORTTIME_SAMPLES = 5
TAIL_BEYOND = 10
# A child still running this long after the benchmark started is killed, so
# a hung or runaway program ends the run with an error instead of a hang.
CHILD_DEADLINE_S = 170.0
STARTED = time.monotonic()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SPWT_SEED", None)
    return env


def spawn(argv: list, cwd: Path, env: dict) -> tuple:
    """Run a child to completion; returns (exit code, wall ms, peak RSS kB,
    stdout, stderr).  Output goes to files so the child never blocks on a
    pipe, and os.wait4 gives this child's own peak memory."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_DEADLINE_S - (time.monotonic() - STARTED), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (e.g. SIGTERM): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() - STARTED >= CHILD_DEADLINE_S:
        raise SystemExit(f"{argv[1:4]} still running {CHILD_DEADLINE_S:.0f} s into the run; killed")
    return (proc.returncode, ms, usage.ru_maxrss, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def timed_spawn(argv: list, cwd: Path, env: dict) -> tuple:
    """spawn() between two host-speed probes; returns spawn()'s tuple with
    the wall ms replaced by (scaled ms, raw ms)."""
    before = hostspeed.probe_ms()
    code, ms, peak_kb, stdout, stderr = spawn(argv, cwd, env)
    factor = hostspeed.scale(before, hostspeed.probe_ms())
    return code, (ms * factor, ms), peak_kb, stdout, stderr


def cli_argv(op: dict, cfg_path: Path, out_dir: Path) -> list:
    kind = op["kind"]
    if kind == "place":
        return ["place", "--config", str(cfg_path)]
    if kind == "pattern":
        return ["pattern", "--config", str(cfg_path), "--out", str(out_dir)]
    return ["sweep", "--config", str(cfg_path), "--kind", kind.split("-")[1],
            "--scheme", op["scheme"], "--out", str(out_dir)]


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.ms: list[float] = []  # at reference host speed (hostspeed.py)
        self.raw_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.infeasible = 0
        self.in_model_failures = 0
        self.problems: list[str] = []

    def add(self, op: dict, problems: list, infeasible: int, ms: tuple | None = None):
        """``ms`` is (scaled, raw) for a timed operation."""
        self.attempted += 1
        self.infeasible += infeasible
        if ms is not None:
            self.ms.append(ms[0])
            self.raw_ms.append(ms[1])
        if problems:
            self.failed += 1
            if "oom_key" not in op:
                self.in_model_failures += 1
            self.problems.append(f"op {self.attempted - 1} ({op['kind']}): {problems[0]}")


# -- untraced run -----------------------------------------------------------

def measure_setup(work: Path, env: dict, count: int, warm: bool = False) -> list[tuple]:
    """(scaled, raw) seconds for fresh interpreters to finish ``import spwt``.
    With ``warm``, one untimed import first fills the bytecode cache, as any
    installed user would have it."""
    argv = [sys.executable, "-c", "import spwt"]
    times = []
    for i in range(count + warm):
        code, (ms, raw), _, _, err = timed_spawn(argv, work, env)
        if code != 0:
            raise SystemExit(f"import spwt failed: {err.strip()[-500:]}")
        if i or not warm:
            times.append((ms / 1e3, raw / 1e3))
    return times


def run_cli_plan(plan: list, work: Path, env: dict, tally: Tally) -> list[int]:
    rss = []
    for k, op in enumerate(plan):
        op_dir = work / f"op{k}"
        op_dir.mkdir()
        cfg_path = op_dir / "in.cfg"
        cfg_path.write_text(op["text"], encoding="utf-8")
        out_dir = op_dir / "out"
        argv = [sys.executable, "-m", "spwt.cli", *cli_argv(op, cfg_path, out_dir)]
        code, ms, peak_kb, stdout, stderr = timed_spawn(argv, op_dir, env)
        problems, infeasible = oracle.check_cli(op, code, stdout, stderr, str(out_dir), k)
        tally.add(op, problems, int(infeasible), ms)
        rss.append(peak_kb)
        shutil.rmtree(op_dir)
    return rss


def run_study_plan(plan: list, work: Path, env: dict, tally: Tally) -> list[int]:
    plan_path, out_path = work / "plan.json", work / "results.jsonl"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    argv = [sys.executable, str(BENCH_DIR / "libstudy.py"), str(plan_path), str(out_path)]
    code, _, peak_kb, _, stderr = spawn(argv, work, env)
    records = []
    if out_path.exists():
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
    if code != 0 or len(records) != len(plan):
        raise SystemExit(f"lib-study worker exit {code}: {stderr.strip()[-800:]}")
    for op, rec in zip(plan, records):
        ms = (rec["ms"] * hostspeed.scale(*rec["probe_ms"]), rec["ms"])
        tally.add(op, oracle.check_study(op["cfg"], rec), oracle.infeasible_outcomes(rec), ms)
    return [peak_kb]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that still has TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def untraced(workload: str, plan: list, work: Path, env: dict) -> tuple[dict, dict, Tally]:
    setup = measure_setup(work, env, SETUP_SAMPLES // 2 + 1, warm=True)
    tally = Tally()
    if workload == "lib-study":
        rss = run_study_plan(plan, work, env, tally)
    else:
        rss = run_cli_plan(plan, work, env, tally)
    setup += measure_setup(work, env, SETUP_SAMPLES // 2)
    tail_ms, tail_pct = tail(tally.ms)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "op_ms_p50": statistics.median(tally.ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": len(tally.ms) / (sum(tally.ms) / 1e3),
        "peak_rss_mb": max(rss) / 1024.0,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }
    notes = {
        "setup_samples_s": setup,
        "raw_setup_s": statistics.median(raw for _, raw in setup),
        "raw_op_ms_p50": statistics.median(tally.raw_ms),
        "raw_ops_per_s": len(tally.raw_ms) / (sum(tally.raw_ms) / 1e3),
        "host_speed": statistics.median(r / s for s, r in zip(tally.ms, tally.raw_ms)),
        "op_ms_tail_percentile": tail_pct,
        "op_samples": len(tally.ms),
        "error_rate": tally.failed / tally.attempted,
        "infeasible": tally.infeasible,
    }
    return metrics, notes, tally


# -- traced run -------------------------------------------------------------

def import_times(work: Path, env: dict) -> dict:
    """Median numpy cumulative and spwt own (self) import time, from
    ``python -X importtime``."""
    numpy_ms, own_ms = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        code, _, _, _, err = spawn([sys.executable, "-X", "importtime", "-c", "import spwt"],
                                   work, env)
        if code != 0:
            raise SystemExit(f"import spwt failed: {err.strip()[-500:]}")
        numpy_us, own_us = None, 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "numpy" and numpy_us is None:
                numpy_us = int(cum_us)
            if name == "spwt" or name.startswith("spwt."):
                own_us += int(self_us)
        numpy_ms.append((numpy_us or 0) / 1e3)
        own_ms.append(own_us / 1e3)
    return {"import.numpy_ms": statistics.median(numpy_ms),
            "import.spwt_own_ms": statistics.median(own_ms)}


def traced(plan: list, work: Path, env: dict) -> tuple[dict, dict, Tally]:
    from spans import Tracer  # noqa: PLC0415 -- only the traced run loads spwt here

    metrics = import_times(work, env)
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    tally = Tally()
    bytes_written = 0
    plain_ms, traced_ms = [], []
    ops = plan + workloads.coverage_ops()
    for k, op in enumerate(ops):
        # Alternate which pass goes first so warm caches favour neither.
        passes = (False, True) if k % 2 == 0 else (True, False)
        if k >= len(plan):
            passes = (True,)  # coverage operations: traced only
        for on in passes:
            op_dir = work / f"op{k}-{int(on)}"
            op_dir.mkdir()
            if on:
                tracer.install()
            try:
                ms, problems, infeasible, written = run_in_process(op, k, op_dir, tracer if on else None)
            finally:
                tracer.uninstall()
            tally.add(op, problems, infeasible)
            if k < len(plan):
                (traced_ms if on else plain_ms).append(ms)
            if on:
                bytes_written += written
            shutil.rmtree(op_dir)
    metrics.update(tracer.metrics())
    metrics["cli.bytes_written"] = bytes_written
    metrics["trace.overhead_ms"] = (sum(traced_ms) - sum(plain_ms)) / len(plan)
    metrics["trace.overhead_share"] = sum(traced_ms) / sum(plain_ms) - 1.0
    notes = {
        "absent": tracer.absent,
        "uncounted": sorted(tracer.uncounted),
        "traced_ops": len(ops),
        "coverage_ops": len(ops) - len(plan),
        "untraced_in_process_ms": sum(plain_ms),
        "traced_in_process_ms": sum(traced_ms),
        "infeasible": tally.infeasible,
    }
    return metrics, notes, tally


def run_in_process(op: dict, k: int, op_dir: Path, tracer) -> tuple:
    """One operation in this process; returns (ms, problems, infeasible,
    bytes written)."""
    import libstudy  # noqa: PLC0415
    import spwt.cli  # noqa: PLC0415

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if op["kind"] == "study":
            scenario = libstudy.make_scenario(op["cfg"])
            span = tracer.span("study") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                rec = libstudy.study(scenario)
            ms = (time.perf_counter() - t0) * 1e3
            return ms, oracle.check_study(op["cfg"], rec), oracle.infeasible_outcomes(rec), 0
        cfg_path = op_dir / "in.cfg"
        cfg_path.write_text(op["text"], encoding="utf-8")
        out_dir = op_dir / "out"
        argv = cli_argv(op, cfg_path, out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = spwt.cli.main(argv)
        ms = (time.perf_counter() - t0) * 1e3
    problems, infeasible = oracle.check_cli(
        op, code, stdout.getvalue(), stderr.getvalue(), str(out_dir), k)
    written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    return ms, problems, int(infeasible), written


# -- reporting --------------------------------------------------------------

def environment(workload: str, seed: int, seconds: int, plan: list) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "spwt").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "cycles": workloads.cycle_count(workload, seconds),
        "operations": len(plan),
        "input_size": workloads.INPUT_SIZE[workload],
        "inputs_sha256": workloads.inputs_sha256(plan),
        "load": "closed loop, one client, one operation at a time",
    }


def locked_hash(workload: str, seed: int, seconds: int) -> str | None:
    lock = json.loads((BENCH_DIR / "inputs.lock.json").read_text())
    if lock["seconds"] != seconds:
        return None
    return lock["sha256"].get(workload, {}).get(str(seed))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spwt" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/spwt and BENCHMARK.json ({ROOT})",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    env_record = environment(args.workload, args.seed, args.seconds, plan)
    RUNS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{name}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = child_env()
    try:
        if args.trace:
            values, notes, tally = traced(plan, work, env)
            declared = spec["per_layer"]
        else:
            values, notes, tally = untraced(args.workload, plan, work, env)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics computed {sorted(values)} differ from BENCHMARK.json "
                         f"{sorted(m['name'] for m in declared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    want_hash = locked_hash(args.workload, args.seed, args.seconds)
    hash_ok = want_hash in (None, env_record["inputs_sha256"])
    correct = tally.in_model_failures == 0 and hash_ok and tally.attempted > 0
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    print(f"spwtbench {args.workload} seed={args.seed} trace={args.trace}: {why}")
    print(f"  inputs: {len(plan)} operations in {env_record['cycles']} cycles, "
          f"sha256 {env_record['inputs_sha256'][:16]}"
          + ("" if hash_ok else f" (MISMATCH: inputs.lock.json has {want_hash[:16]})"))
    for m in declared:
        print(f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  attempted {tally.attempted}, failed {tally.failed} "
          f"({tally.in_model_failures} in-model), infeasible outcomes {tally.infeasible}")
    for key, value in notes.items():
        if key != "setup_samples_s":
            print(f"  {key}: {value}")
    for line in tally.problems[:8]:
        print(f"  FAILED {line}", file=sys.stderr)
    report = {"environment": env_record, "metrics": metrics, "notes": notes,
              "op_ms": tally.ms, "raw_op_ms": tally.raw_ms,
              "attempted": tally.attempted, "failed": tally.failed,
              "in_model_failures": tally.in_model_failures, "problems": tally.problems}
    (RUNS / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n")
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
