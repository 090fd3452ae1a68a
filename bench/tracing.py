"""Spans around the package's layer functions, installed from outside src/.

Each traced function is wrapped once and the wrapper replaces the
original in every teleportrix module namespace that binds it, so calls
through `module.func`, `from module import func` and the package root
all pass through it. PureState.__post_init__ is wrapped the same way to
count state constructions. Spans are kept in memory while active.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Span names are <module>.<function>, the module being the teleportrix
# submodule that defines the function.
TRACED = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "_sample_outcomes"),
    ("complexfmt", "parse_complex"),
    ("complexfmt", "finite_complex"),
    ("teleport", "run"),
    ("teleport", "classify"),
    ("teleport", "transfer_matrices"),
    ("teleport", "is_faithful"),
    ("teleport", "branch_probability"),
    ("teleport", "correction_unitary"),
    ("qcore", "_svd2"),
    ("qcore", "fidelity"),
    ("qcore", "reduced_density"),
    ("qcore", "entropy"),
    ("measure", "project_all"),
    ("swap", "swap_run"),
    ("swap", "classify_swap"),
    ("ebasis", "general_basis"),
)
STATE_SPAN = "qcore.PureState.__post_init__"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int          # index of the parent span, -1 for a request's root
    request: int


class Tracer:
    """Records spans while `request` is not None; otherwise passes calls through."""

    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()

        return wrapper

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "teleportrix" or key.startswith("teleportrix."))]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"teleportrix.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        state_cls = sys.modules["teleportrix.qcore"].PureState
        original = state_cls.__post_init__
        self._restore.append((state_cls, "__post_init__", original))
        state_cls.__post_init__ = self._wrap(STATE_SPAN, original)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def self_times_ns(spans) -> list:
    """Span duration minus the time its direct children cover."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


# Per-layer metrics printed with --trace 1. Self time is given as a share
# of traced request time: a layer a workload never enters then reads 0 %
# rather than a constant 0 ms, and the share does not move with host
# speed. Absolute times for every traced function are in the full table.
REPORTED = (
    "teleport.run.calls_per_input",
    "teleport.transfer_matrices.calls_per_input",
    "teleport.is_faithful.calls_per_branch",
    "teleport.transfer_matrices.calls_per_grid_point",
    "swap.swap_run.calls_per_swap_request",
    "cli.self_pct",
    "cli.self_ms_per_request",
    "cli._sample_outcomes.self_pct",
    "cli._sample_outcomes.total_pct",
    "teleport.run.self_pct",
    "teleport.classify.self_pct",
    "teleport.correction_unitary.self_pct",
    "teleport.transfer_matrices.self_pct",
    "teleport.is_faithful.self_pct",
    "teleport.branch_probability.self_pct",
    "qcore._svd2.self_pct",
    "swap.swap_run.self_pct",
    "swap.classify_swap.self_pct",
    "measure.project_all.self_pct",
    "qcore.reduced_density.self_pct",
    "qcore.entropy.self_pct",
    "qcore.PureState.constructed",
    "teleport.run.calls",
    "teleport.transfer_matrices.calls",
    "teleport.is_faithful.calls",
    "teleport.branch_probability.calls",
    "qcore._svd2.calls",
    "qcore.fidelity.calls",
    "measure.project_all.calls",
    "qcore.reduced_density.calls",
    "qcore.entropy.calls",
    "ebasis.general_basis.calls",
    "cli.build_parser.calls",
    "complexfmt.parse_complex.calls",
    "complexfmt.finite_complex.calls",
    "swap.swap_run.calls",
    "trace.overhead_ms",
)


def layer_table(spans, requests, traced_ns: int) -> dict:
    """Every per-layer figure of a traced pass.

    requests maps request id -> Request; traced_ns is the summed latency
    of the traced requests. Ratios use denominators from the requests
    themselves, so they repeat exactly for the same request list.
    """
    own = self_times_ns(spans)
    calls, self_ns, total_ns, module_ns = {}, {}, {}, {}
    in_teleport, in_sweep, in_swap = {}, {}, {}
    for span, t in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_ns[span.name] = self_ns.get(span.name, 0) + t
        total_ns[span.name] = total_ns.get(span.name, 0) + span.end_ns - span.start_ns
        module = span.name.split(".", 1)[0]
        module_ns[module] = module_ns.get(module, 0) + t
        req = requests[span.request]
        for flag, bucket in ((req.inputs, in_teleport), (req.grid_points, in_sweep),
                             (req.swap_requests, in_swap)):
            if flag:
                bucket[span.name] = bucket.get(span.name, 0) + 1
    reqs = list(requests.values())
    inputs = sum(r.inputs for r in reqs)
    cli_requests = sum(1 for r in reqs if r.is_cli)
    cli_shots = sum(r.shots for r in reqs if r.is_cli)

    def ratio(a, b):
        return a / b if b else 0.0

    table = {
        "teleport.run.calls_per_input": ratio(in_teleport.get("teleport.run", 0), inputs),
        "teleport.transfer_matrices.calls_per_input":
            ratio(in_teleport.get("teleport.transfer_matrices", 0), inputs),
        "teleport.is_faithful.calls_per_branch":
            ratio(in_teleport.get("teleport.is_faithful", 0), 4 * in_teleport.get("teleport.run", 0)),
        "teleport.transfer_matrices.calls_per_grid_point":
            ratio(in_sweep.get("teleport.transfer_matrices", 0), sum(r.grid_points for r in reqs)),
        "swap.swap_run.calls_per_swap_request":
            ratio(in_swap.get("swap.swap_run", 0), sum(r.swap_requests for r in reqs)),
        "cli.self_ms_per_request": ratio(module_ns.get("cli", 0) / 1e6, cli_requests),
        "cli.sample.ns_per_shot": ratio(total_ns.get("cli._sample_outcomes", 0), cli_shots),
        "cli._sample_outcomes.total_pct": 100.0 * ratio(total_ns.get("cli._sample_outcomes", 0), traced_ns),
        "qcore.PureState.constructed": calls.get(STATE_SPAN, 0),
    }
    for module, t in module_ns.items():
        table[f"{module}.self_ms"] = t / 1e6
        table[f"{module}.self_pct"] = 100.0 * ratio(t, traced_ns)
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr}"
        table[f"{name}.calls"] = calls.get(name, 0)
        table[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
        table[f"{name}.self_pct"] = 100.0 * ratio(self_ns.get(name, 0), traced_ns)
    table["cli.self_pct"] = 100.0 * ratio(module_ns.get("cli", 0), traced_ns)
    return table
