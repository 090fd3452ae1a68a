"""Seeded request streams for the benchmark workloads.

Every request is built from the workload seed alone. Parameters are
computed here from the paper's conditions, not with the package's own
choice helpers, so the expected regime of each request is known
independently of the code under test.

Request sizes (inputs, shots, grid points) follow a fixed Halton
schedule that does not depend on the seed: every prefix of a stream
covers the size range evenly, so a run that completes ten requests sees
the same sizes whatever the seed, while parameters, phases, inputs and
the order of cases are drawn from the seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

LABELS = ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus")

# Size ranges per workload; SMOKE_SIZES shrinks them for the smoke mode.
SIZES = {
    "inputs": (50, 500),
    "shots": (50_000, 200_000),
    "grid_points": (2_000, 10_000),
    "lib_shots": (800, 1_200),
}
SMOKE_SIZES = {
    "inputs": (3, 6),
    "shots": (500, 1_000),
    "grid_points": (20, 40),
    "lib_shots": (800, 1_200),
}

# request_mix deck: counts per kind, shuffled per deck. The counts put the
# median request inside the cli.classify latency cluster rather than on a
# boundary between clusters, so the median does not jump between kinds.
MIX_DECK = {
    "lib.classify": 2,
    "lib.run": 2,
    "lib.swap": 1,
    "cli.classify": 3,
    "cli.teleport": 2,
    "cli.swap": 2,
}

TELEPORT_CASES = (
    [("two", i) for i in range(4)] + [("one", i) for i in range(4)] + [("bell", 0), ("generic", 0)]
)
SWAP_CASES = ("two_outcome", "equal_moduli", "reciprocal_moduli", "phase_matched", "generic")


@dataclass
class Request:
    """One call into the program plus what its output must satisfy."""

    kind: str
    argv: list | None = None          # for cli.* kinds
    spec: dict = field(default_factory=dict)
    inputs: int = 0                   # input states teleported
    shots: int = 0                    # shots drawn
    grid_points: int = 0              # sweep rows requested
    swap_requests: int = 0            # 1 for swap requests

    @property
    def is_cli(self) -> bool:
        return self.kind.startswith("cli.")


def fmt(z) -> str:
    """Complex literal with full double precision, in the CLI's text format."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _complex_args(spec: dict, *keys) -> list:
    # --flag=value, because a value with a leading minus sign would
    # otherwise be read as an option.
    return [f"--{key.replace('_', '-')}={fmt(spec[key])}" for key in keys]


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _halton(index: int, base: int) -> float:
    return _radical_inverse(index + 1, base)


def _in_range(lo_hi, u: float) -> int:
    lo, hi = lo_hi
    return int(round(lo + u * (hi - lo)))


def _phase(rng) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _far(a: float, b: float, factor: float) -> bool:
    return abs(math.log(a) - math.log(b)) > math.log(factor)


def faithful_probability(n: complex) -> float:
    """|n|^2 / (1 + |n|^2)^2: the probability of each faithful branch."""
    n2 = abs(n) ** 2
    return n2 / (1.0 + n2) ** 2


def expected_regime(k: int, none: str = "NoFaithful") -> str:
    if k == 4:
        return "Deterministic"
    if k == 0:
        return none
    return f"Probabilistic(k={k})"


def teleport_params(rng, case, mag_range=(0.1, 10.0)) -> dict:
    """(n, l, p) for one teleport case and the outcomes it makes faithful.

    Faithfulness conditions: PhiPlus |l| = 1/|n|, PhiMinus |l| = |n|,
    PsiPlus |p| = |n|, PsiMinus |p| = 1/|n|. |n| is kept away from 1 so
    no unintended condition holds.
    """
    kind, index = case
    if kind == "bell":
        return {"n": 1 + 0j, "l": 1 + 0j, "p": 1 + 0j, "faithful": LABELS}
    while True:
        n = _log_uniform(rng, *mag_range) * _phase(rng)
        if _far(abs(n), 1.0, 1.05):
            break
    if kind == "two":
        l, p = (
            (n, n.conjugate()),
            (n, 1 / n),
            (1 / n.conjugate(), 1 / n),
            (1 / n.conjugate(), n.conjugate()),
        )[index]
        faithful = (
            ("PhiMinus", "PsiPlus"),
            ("PhiMinus", "PsiMinus"),
            ("PhiPlus", "PsiMinus"),
            ("PhiPlus", "PsiPlus"),
        )[index]
    elif kind == "one":
        generic = complex(max(abs(n), 1.0 / abs(n)) + 1.0)
        l, p = (
            (1 / n.conjugate(), generic),
            (n, generic),
            (generic, n.conjugate()),
            (generic, 1 / n),
        )[index]
        faithful = (LABELS[index],)
    else:
        def unrelated():
            while True:
                c = _log_uniform(rng, *mag_range) * _phase(rng)
                if _far(abs(c), abs(n), 1.5) and _far(abs(c), 1.0 / abs(n), 1.5):
                    return c
        l, p = unrelated(), unrelated()
        faithful = ()
    return {"n": n, "l": l, "p": p, "faithful": faithful}


def haar_input(rng) -> tuple:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec = vec / np.linalg.norm(vec)
    return complex(vec[0]), complex(vec[1])


def swap_params(rng, case) -> dict:
    """(m, n, l, p, l', p') for one swap case and its reliable outcomes.

    two_outcome is the basis choice l = 1/n*, p = 1/m*, l' = 1/n, p' = m;
    with |m| = |n| PsiMinus joins, with |m| = 1/|n| PhiMinus joins.
    phase_matched takes pure-phase m, n and p' = m n l*, l' = m p*/n, so
    all four outcomes are reliable. generic has no relation at all.
    """
    def mag():
        while True:
            r = _log_uniform(rng, 0.2, 5.0)
            if _far(r, 1.0, 1.3):
                return r

    if case == "phase_matched":
        m, n = _phase(rng), _phase(rng)
        l, p = mag() * _phase(rng), mag() * _phase(rng)
        return {"m": m, "n": n, "l": l, "p": p, "l_prime": m * p.conjugate() / n,
                "p_prime": m * n * l.conjugate(), "reliable": LABELS, "closed_form": 1.0}
    if case == "generic":
        values = [mag() * _phase(rng) for _ in range(6)]
        return dict(zip(("m", "n", "l", "p", "l_prime", "p_prime"), values),
                    reliable=None, closed_form=None)
    n = mag() * _phase(rng)
    if case == "equal_moduli":
        m = abs(n) * _phase(rng)
        reliable = ("PhiPlus", "PsiPlus", "PsiMinus")
    elif case == "reciprocal_moduli":
        m = _phase(rng) / abs(n)
        reliable = ("PhiPlus", "PhiMinus", "PsiPlus")
    else:
        while True:
            m = mag() * _phase(rng)
            if _far(abs(m), abs(n), 1.3) and _far(abs(m) * abs(n), 1.0, 1.3):
                break
        reliable = ("PhiPlus", "PsiPlus")
    if len(reliable) == 3:
        closed = 3.0 * faithful_probability(n)
    else:
        closed = faithful_probability(n) + faithful_probability(m)
    return {"m": m, "n": n, "l": 1 / n.conjugate(), "p": 1 / m.conjugate(),
            "l_prime": 1 / n, "p_prime": m, "reliable": reliable, "closed_form": closed}


def _seed_arg(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


class _Deck:
    """Draws items in shuffled rounds so every prefix keeps the proportions."""

    def __init__(self, rng, counts: dict):
        self._rng = rng
        self._items = [item for item, count in counts.items() for _ in range(count)]
        self._queue = []

    def draw(self):
        if not self._queue:
            self._queue = list(self._rng.permutation(len(self._items)))
        return self._items[self._queue.pop()]


def teleport_batch(seed: int, sizes=SIZES):
    """CLI sampled teleports over K Haar inputs with S shots per request."""
    rng = np.random.default_rng([seed, 1])
    cases = _Deck(rng, {case: 1 for case in TELEPORT_CASES})
    index = 0
    while True:
        k = _in_range(sizes["inputs"], _halton(index, 2))
        s = _in_range(sizes["shots"], _halton(index, 3))
        yield _cli_sampled(rng, cases.draw(), k, s)
        index += 1


def largest_teleport_batch(seed: int, sizes=SIZES) -> list:
    rng = np.random.default_rng([seed, 2])
    return [_cli_sampled(rng, ("two", 0), sizes["inputs"][1], sizes["shots"][1])]


def _cli_sampled(rng, case, count: int, shots: int) -> Request:
    spec = teleport_params(rng, case)
    argv = ["teleport", *_complex_args(spec, "n", "l", "p"), "--random-input", str(count),
            "--mode", "sampled", "--shots", str(shots), "--seed", str(_seed_arg(rng))]
    return Request("cli.teleport", argv, spec, inputs=count, shots=shots)


def sweep_dense(seed: int, sizes=SIZES):
    """CLI sweeps alternating scheme and output format."""
    rng = np.random.default_rng([seed, 3])
    index = 0
    while True:
        # Base 3, so the size schedule does not lock onto the period-4
        # cycle of scheme and output format.
        points = _in_range(sizes["grid_points"], _halton(index, 3))
        yield _sweep(rng, points, ("probabilistic2", "probabilistic1")[index % 2],
                     ("json", "csv")[(index // 2) % 2])
        index += 1


def largest_sweep_dense(seed: int, sizes=SIZES) -> list:
    rng = np.random.default_rng([seed, 4])
    return [_sweep(rng, sizes["grid_points"][1], "probabilistic2", "json")]


def _sweep(rng, points: int, regime: str, output: str) -> Request:
    start = rng.uniform(0.05, 0.5)
    step = rng.uniform(1e-4, 5e-4)
    stop = start + (points - 1) * step
    spec = {"start": start, "step": step, "points": points, "output": output,
            "k": 2 if regime == "probabilistic2" else 1}
    argv = ["sweep", "--n-grid", f"{start!r}:{stop!r}:{step!r}", "--regime", regime,
            "--output", output]
    return Request("cli.sweep", argv, spec, grid_points=points)


def request_mix(seed: int, sizes=SIZES):
    """Short CLI and library requests, every one with fresh parameters."""
    rng = np.random.default_rng([seed, 5])
    kinds = _Deck(rng, MIX_DECK)
    teleport_cases = _Deck(rng, {case: 1 for case in TELEPORT_CASES})
    swap_cases = _Deck(rng, {case: 1 for case in SWAP_CASES})
    while True:
        kind = kinds.draw()
        if kind in ("cli.swap", "lib.swap"):
            yield _swap(rng, kind, swap_cases.draw())
        else:
            yield _short_teleport(rng, kind, teleport_cases.draw(), sizes)


def largest_request_mix(seed: int, sizes=SIZES) -> list:
    """One request of each kind; the largest peak among them is reported."""
    rng = np.random.default_rng([seed, 6])
    case = ("two", 0)
    return [
        _swap(rng, "cli.swap", "two_outcome"),
        _swap(rng, "lib.swap", "two_outcome"),
        _short_teleport(rng, "cli.teleport", case, sizes),
        _short_teleport(rng, "cli.classify", case, sizes),
        _short_teleport(rng, "lib.run", case, dict(sizes, lib_shots=(sizes["lib_shots"][1],) * 2)),
        _short_teleport(rng, "lib.classify", case, sizes),
    ]


def _swap(rng, kind: str, case: str) -> Request:
    spec = swap_params(rng, case)
    argv = None
    if kind == "cli.swap":
        argv = ["swap", *_complex_args(spec, "m", "n", "l", "p", "l_prime", "p_prime")]
    return Request(kind, argv, spec, swap_requests=1)


def _short_teleport(rng, kind: str, case, sizes) -> Request:
    # |n| in [0.3, 3] keeps every faithful frequency of a ~1e3-shot run far
    # enough from 0 that the 5-sigma binomial check is sound.
    spec = teleport_params(rng, case, mag_range=(0.3, 3.0))
    if kind == "cli.classify":
        argv = ["classify", *_complex_args(spec, "n", "l", "p")]
        return Request(kind, argv, spec)
    spec["input"] = haar_input(rng)
    if kind == "cli.teleport":
        spec["alpha"], spec["beta"] = spec["input"]
        argv = ["teleport", *_complex_args(spec, "n", "l", "p", "alpha", "beta"), "--mode", "exhaustive"]
        return Request(kind, argv, spec, inputs=1)
    if kind == "lib.run":
        shots = int(rng.integers(sizes["lib_shots"][0], sizes["lib_shots"][1] + 1))
        spec["seed"] = _seed_arg(rng)
        return Request(kind, None, spec, inputs=1, shots=shots)
    return Request(kind, None, spec)


# workload -> (request stream, requests whose tracemalloc peak is reported)
STREAMS = {
    "teleport_batch": (teleport_batch, largest_teleport_batch),
    "sweep_dense": (sweep_dense, largest_sweep_dense),
    "request_mix": (request_mix, largest_request_mix),
}
