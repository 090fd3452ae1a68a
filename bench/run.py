"""teleportrix benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload teleport_batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from ./src.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The workload runs in a child interpreter with BLAS threads set to 1 and
TELEPORTRIX_SEED unset; setup_s is the median wall time of fresh
interpreters that import the package and serve one classify request.
--smoke runs every workload at tiny sizes, checks that every metric in
BENCHMARK.json is printed with its unit, and checks that the output
checker rejects corrupted reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("teleport_batch", "sweep_dense", "request_mix")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 11
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import teleportrix, teleportrix.cli\n"
    "raise SystemExit(teleportrix.cli.main(['classify', '--n', '0.5', '--l', '0.5', '--p', '3']))\n"
)

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "requests_per_s": "1/s",
    "items_per_s": "1/s",
    "peak_alloc_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if "_ms" in name:
        return "ms"
    if ".calls_per_" in name:
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TELEPORTRIX_SEED", None)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, env, timeout) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:2]} did not finish within {timeout} s") from None


def setup_seconds(env, repeats: int) -> tuple:
    """Median set-up time, scaled to nominal host speed, and the raw median."""
    speed = calibrate.SpeedLog()
    runs = []
    for _ in range(repeats):
        speed.sample(20)
        t0 = time.perf_counter()
        proc = run_child(["-c", SETUP_CODE], env, 60)
        t1 = time.perf_counter()
        runs.append((t0, t1))
        if proc.returncode != 0 or json.loads(proc.stdout)["regime"] != "Probabilistic(k=1)":
            raise BenchError(f"setup request failed: {proc.stderr.strip()[-300:]}")
    speed.sample(20)
    return (statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in runs),
            statistics.median(t1 - t0 for t0, t1 in runs))


def import_times_ms(env) -> dict:
    """Cumulative import time of teleportrix (numpy included) and of numpy alone."""
    samples = {"import.teleportrix_ms": [], "import.numpy_ms": []}
    for _ in range(IMPORT_REPEATS):
        proc = run_child(["-X", "importtime", "-c", "import teleportrix.cli"], env, 60)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("teleportrix", "numpy"):
                found[parts[2].strip()] = int(parts[1]) / 1e3
        if proc.returncode != 0 or len(found) != 2:
            raise BenchError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        for name, ms in found.items():
            samples[f"import.{name}_ms"].append(ms)
    return {name: statistics.median(values) for name, values in samples.items()}


def environment(worker_env: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=git_env, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": worker_env.get("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    """Run one workload; returns the result object printed on the last line."""
    if not (ROOT / "src" / "teleportrix" / "__init__.py").is_file():
        raise BenchError(f"no src/teleportrix under {ROOT}; run from the root of a checkout")
    env = child_env()
    extra, raw_setup = {}, {}
    if trace:
        extra = import_times_ms(env)
    else:
        extra["setup_s"], raw_setup["raw_setup_s"] = setup_seconds(env, 1 if smoke else SETUP_REPEATS)
    argv = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = run_child(argv, env, CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    child = json.loads(proc.stdout.splitlines()[-1])
    metrics = {**child["metrics"], **extra}
    unit = END_TO_END_UNITS.get if not trace else layer_unit
    if not trace:
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    print("env " + json.dumps(environment(child["env"])))
    print("details " + json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                   **child["details"], **raw_setup, "problems": child["problems"],
                                   "error_rate": child["failed"] / max(child["attempted"], 1)}))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit(name)}")
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny sizes, both modes, plus the checker self-test."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, 1, 0.5, trace, smoke=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted[trace]))}"
                              f" or units differ from BENCHMARK.json")
            if not result["correct"]:
                errors.append(f"{workload} trace={trace}: outputs failed the checks")
    proc = run_child([str(BENCH / "selftest.py")], child_env(), CHILD_TIMEOUT_S)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        errors.append(f"checker self-test failed: {proc.stderr.strip()[-500:]}")
    for error in errors:
        print(f"smoke: {error}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="fast self-check of the benchmark")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
