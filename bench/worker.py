"""Serve one workload in this process, one closed-loop client, and print
its measurements as one JSON object.

run.py starts this in a child interpreter with single-threaded BLAS, the
checkout's src/ on PYTHONPATH and TELEPORTRIX_SEED unset. Untraced
(--trace 0): one warm-up request, then the timed closed loop for
--seconds, then a tracemalloc pass over the workload's largest request.
Request latencies are scaled to a nominal host speed (calibrate.py).
Traced (--trace 1): a fixed request list served once untraced and once
with spans, so counts and ratios repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy
import teleportrix
from teleportrix import cli, swap, teleport

import calibrate
import checks
import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"

# Work items counted by items_per_s.
ITEMS = {
    "teleport_batch": lambda req: req.shots,
    "sweep_dense": lambda req: req.grid_points,
    "request_mix": lambda req: 1,
}
# Fixed tail percentile per workload, so the level does not move with the
# number of requests a run completes. request_mix completes thousands of
# requests per run; p95 keeps hundreds of samples beyond it, while p99
# varied by 19% between runs on the shared 2-vCPU host. The ~1 s requests
# of the other two give 25-60 per run; p75 keeps 6-15 samples beyond it
# (reported alongside), where p90 varied by 10% between runs.
TAIL_PERCENTILE = {"teleport_batch": 75, "sweep_dense": 75, "request_mix": 95}
# Reference-loop samples taken before each timed request (see calibrate.py):
# several around each ~1 s request, one before each short one.
REF_SAMPLES = {"teleport_batch": 30, "sweep_dense": 30, "request_mix": 1}
# Requests in the traced pass; request_mix takes whole decks of the mix.
TRACE_REQUESTS = {"teleport_batch": 3, "sweep_dense": 4, "request_mix": 20 * sum(workloads.MIX_DECK.values())}


def execute(req):
    """Call the program once; the return value is what the checker reads."""
    s = req.spec
    if req.is_cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(req.argv)
        return rc, out.getvalue(), err.getvalue()
    if req.kind == "lib.swap":
        params = swap.SwapParams(s["m"], s["n"], s["l"], s["p"], s["l_prime"], s["p_prime"])
        return swap.swap_run(params), swap.classify_swap(params)
    params = teleport.ProtocolParams(s["n"], s["l"], s["p"])
    if req.kind == "lib.classify":
        return teleport.classify(params)
    return teleport.run(s["input"], params, shots=req.shots, seed=s["seed"])


def render(req, out) -> str:
    """Canonical text of an output, for the byte-identity check and digest."""
    if req.is_cli:
        return f"{out[0]}\n{out[1]}"
    if req.kind == "lib.swap":
        outcomes, regime = out
        rows = [(o.label, repr(o.probability), o.reliable, o.target, repr(o.b2_entropy))
                for o in outcomes]
        return json.dumps([rows, repr(regime)])
    if req.kind == "lib.classify":
        return repr(out)
    rows = [(r.label, repr(r.probability), r.faithful, repr(r.fidelity)) for r in out.records]
    return json.dumps([rows, repr(out.report), out.shots, out.seed, list(out.shot_labels)])


def serve(req, tracer=None, request_id=None):
    """(latency_ns, problems, rendered output) for one request."""
    if tracer is not None:
        tracer.request = request_id
    t0 = time.perf_counter_ns()
    try:
        out = execute(req)
    except Exception as exc:  # a request that raises is a failed request
        return time.perf_counter_ns() - t0, [f"raised {type(exc).__name__}: {exc}"], None
    finally:
        if tracer is not None:
            tracer.request = None
    elapsed = time.perf_counter_ns() - t0
    return elapsed, checks.check(req, out), render(req, out)


class Tally:
    """Attempted and failed requests, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, req, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append({"kind": req.kind, "argv": req.argv, "problems": problems[:3]})


def tail(latencies_ms, percentile):
    """Latency at the percentile, and the number of samples beyond it."""
    if len(latencies_ms) < 2:
        return latencies_ms[0], 0
    cut = statistics.quantiles(latencies_ms, n=100, method="inclusive")[percentile - 1]
    return cut, sum(1 for x in latencies_ms if x > cut)


def untraced(workload, seed, seconds, sizes, tally):
    make_stream, make_largest = workloads.STREAMS[workload]
    stream = make_stream(seed, sizes)
    first = next(stream)
    _, problems, warm_bytes = serve(first)
    tally.add(first, problems)

    speed = calibrate.SpeedLog()
    ref_samples = REF_SAMPLES[workload]
    speed.sample(20)
    timed, items = [], 0
    req = first
    gc.collect()
    start = time.perf_counter()
    while True:
        speed.sample(ref_samples)
        begin = time.perf_counter()
        elapsed, problems, rendered = serve(req)
        if req is first and rendered != warm_bytes:
            problems = problems + ["same argv and seed gave different bytes"]
        tally.add(req, problems)
        timed.append((begin, begin + elapsed / 1e9, elapsed / 1e6))
        items += ITEMS[workload](req)
        if time.perf_counter() - start >= seconds:
            break
        req = next(stream)
    wall_s = time.perf_counter() - start
    speed.sample(max(ref_samples, 20))
    raw = [ms for _, _, ms in timed]
    latencies = [ms * speed.scale(a, b) for a, b, ms in timed]

    peak = 0
    for req in make_largest(seed, sizes):
        tracemalloc.start()
        try:
            _, problems, _ = serve(req)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        tally.add(req, problems)

    busy_s = sum(latencies) / 1e3
    level = TAIL_PERCENTILE[workload]
    tail_ms, beyond = tail(latencies, level)
    return {
        "metrics": {
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms,
            "requests_per_s": len(latencies) / busy_s,
            "items_per_s": items / busy_s,
            "peak_alloc_mb": peak / 1e6,
        },
        "details": {
            "requests": len(latencies),
            "tail_percentile": level,
            "tail_samples_beyond": beyond,
            "wall_s": wall_s,
            "raw_busy_s": sum(raw) / 1e3,
            "raw_latency_p50_ms": statistics.median(raw),
            "raw_latency_tail_ms": tail(raw, level)[0],
            "first_request_sha256": hashlib.sha256(warm_bytes.encode()).hexdigest()
            if warm_bytes is not None else None,
        },
    }


def traced(workload, seed, sizes, tally):
    make_stream, _ = workloads.STREAMS[workload]
    stream = make_stream(seed, sizes)
    reqs = [next(stream) for _ in range(TRACE_REQUESTS[workload])]
    _, problems, _ = serve(reqs[0])
    tally.add(reqs[0], problems)

    # Each request is served once without and once with spans, in
    # alternating order, so warm-up and drift cancel in the overhead;
    # the overhead compares host-speed scaled times (calibrate.py).
    digest = hashlib.sha256()
    timed = {False: [], True: []}
    speed = calibrate.SpeedLog()
    speed.sample(20)
    tracer = tracing.Tracer()
    for i, req in enumerate(reqs):
        rendered = {}
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            speed.sample(REF_SAMPLES[workload])
            if with_spans:
                tracer.install()
            begin = time.perf_counter()
            try:
                elapsed, problems, rendered[with_spans] = serve(req, tracer if with_spans else None, i)
            finally:
                tracer.uninstall()
            if len(rendered) == 2 and rendered[True] != rendered[False]:
                problems = problems + ["same argv and seed gave different bytes"]
            timed[with_spans].append((begin, begin + elapsed / 1e9, elapsed))
            tally.add(req, problems)
        digest.update((rendered[False] or "").encode())
    speed.sample(20)
    untraced_ns, traced_ns = (sum(ns for _, _, ns in timed[flag]) for flag in (False, True))
    overhead_ns = sum(ns * speed.scale(a, b) for a, b, ns in timed[True]) - \
        sum(ns * speed.scale(a, b) for a, b, ns in timed[False])

    layers = tracing.layer_table(tracer.spans, dict(enumerate(reqs)), traced_ns)
    layers["trace.overhead_ms"] = overhead_ns / 1e6
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload}.spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.request]) + "\n")
    with open(OUT_DIR / f"{workload}.layers.json", "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    return {
        "metrics": {name: layers[name] for name in tracing.REPORTED},
        "details": {
            "requests": len(reqs),
            "spans": len(tracer.spans),
            "untraced_ms": untraced_ns / 1e6,
            "traced_ms": traced_ns / 1e6,
            "outputs_sha256": digest.hexdigest(),
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny request sizes")
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(teleportrix.__file__).resolve().parents:
        print(f"teleportrix imported from {teleportrix.__file__}, not {src}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
    tally = Tally()
    if args.trace:
        result = traced(args.workload, args.seed, sizes, tally)
    else:
        result = untraced(args.workload, args.seed, args.seconds, sizes, tally)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  env={"python": sys.version.split()[0], "numpy": numpy.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
