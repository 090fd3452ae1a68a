"""Command-line front end: run protocols and sweeps, emit JSON or CSV.

Exit codes: 0 success, 1 usage error (bad flags), 2 numeric/validation
error (malformed or non-finite parameters, bad grids, bad invariants).
Output is deterministic for a given argv and seed; the environment
variable TELEPORTRIX_SEED supplies a default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import swap as swap_mod
from . import teleport
from .complexfmt import finite_complex, format_complex, parse_complex
from .ebasis import BASIS_LABELS
from .errors import TeleportrixError, ParseError

SEED_ENV = "TELEPORTRIX_SEED"
_PROBABILISTIC_REGIMES = ("probabilistic2", "probabilistic1")

# Request size limits. Sampling memory is fixed by teleport.SAMPLE_CHUNK,
# so MAX_SHOTS bounds run time only (10^9 shots take about 25 s on one
# core of a 2-vCPU x86 VM); the input batch and the sweep report grow
# with their counts, so those two bound memory.
MAX_SHOTS = 10**9
MAX_INPUTS = 10**5
MAX_GRID_POINTS = 10**5


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teleportrix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("teleport", help="run the teleportation protocol")
    t.add_argument("--n", required=True, help="resource parameter (complex)")
    t.add_argument("--l", required=True, help="basis parameter for the Phi pair")
    t.add_argument("--p", required=True, help="basis parameter for the Psi pair")
    t.add_argument("--alpha", help="input amplitude on |0>")
    t.add_argument("--beta", help="input amplitude on |1>")
    t.add_argument("--random-input", type=int, metavar="COUNT",
                   help="use COUNT Haar-random inputs instead of --alpha/--beta")
    t.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    t.add_argument("--shots", type=int, default=10000)
    _add_common(t)

    s = sub.add_parser("swap", help="run entanglement swapping")
    s.add_argument("--m", required=True)
    s.add_argument("--n", required=True)
    s.add_argument("--l", required=True)
    s.add_argument("--p", required=True)
    s.add_argument("--l-prime", required=True)
    s.add_argument("--p-prime", required=True)
    _add_common(s)

    c = sub.add_parser("classify", help="classify a teleportation parameter tuple")
    c.add_argument("--n", required=True)
    c.add_argument("--l", required=True)
    c.add_argument("--p", required=True)
    _add_common(c)

    w = sub.add_parser("sweep", help="sweep the resource parameter over a grid")
    w.add_argument("--n-grid", required=True, metavar="START:STOP:STEP")
    w.add_argument("--regime", choices=_PROBABILISTIC_REGIMES, default="probabilistic2")
    _add_common(w)
    return parser


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--output", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None, help="write the report to this path")
    sp.add_argument("--precision", type=int, default=12, help="decimal digits, 6..17")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        report, csv_text = _dispatch(args)
    except TeleportrixError as exc:
        print(f"teleportrix: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"teleportrix: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"teleportrix: a parameter is too large, numeric overflow: {exc}", file=sys.stderr)
        return 2
    text = csv_text if args.output == "csv" else json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _dispatch(args):
    if not 6 <= args.precision <= 17:
        raise ParseError(f"precision must be in [6, 17], got {args.precision}")
    if args.command == "teleport":
        return _cmd_teleport(args)
    if args.command == "swap":
        return _cmd_swap(args)
    if args.command == "classify":
        return _cmd_classify(args)
    return _cmd_sweep(args)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _rounded(value, digits):
    if isinstance(value, dict):
        return {k: _rounded(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v, digits) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinite"
        return round(value, digits)
    return value


def _csv(lines) -> str:
    return "\n".join(lines) + "\n"


def _fmt(value, digits) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinite"
        return str(round(value, digits))
    return str(value)


def _analytic_block(n: complex) -> dict:
    reps = teleport.repetition_counts(n)
    by_formula = reps["by_formula"]
    return {
        "faithful_branch_probability": teleport.success_probability_analytic(n, k=1),
        "two_outcome_success_probability": teleport.success_probability_analytic(n, k=2),
        "repetitions_formula": by_formula,
        "repetitions_inverse_success": reps["by_inverse_success"],
        "classical_bits_per_attempt": 2,
        "classical_bits_expected_total": 2.0 * by_formula,
    }


def _cmd_teleport(args):
    params = teleport.ProtocolParams(parse_complex(args.n), parse_complex(args.l), parse_complex(args.p))
    sampled = args.mode == "sampled"
    random_count = args.random_input
    if random_count is not None and not 1 <= random_count <= MAX_INPUTS:
        raise ParseError(f"--random-input must be in [1, {MAX_INPUTS}], got {random_count}")
    if random_count is None and (args.alpha is None or args.beta is None):
        raise ParseError("provide --alpha and --beta, or --random-input COUNT")
    if sampled and not 1 <= args.shots <= MAX_SHOTS:
        raise ParseError(f"--shots must be in [1, {MAX_SHOTS}], got {args.shots}")

    needs_rng = sampled or random_count is not None
    seed = _resolve_seed(args) if needs_rng else None
    rng = np.random.default_rng(seed) if needs_rng else None

    if random_count is None:
        inputs = [(finite_complex(args.alpha, "alpha"), finite_complex(args.beta, "beta"))]
        input_desc = {"kind": "fixed", "alpha": args.alpha, "beta": args.beta}
    else:
        inputs = teleport.haar_inputs(random_count, rng)
        input_desc = {"kind": "haar", "count": random_count}

    branches = teleport.protocol_branches(params)
    batch = teleport.evaluate_inputs(branches, inputs)
    outcome_rows = []
    for idx, label in enumerate(BASIS_LABELS):
        fids = batch.fidelities[:, idx]
        fids = fids[~np.isnan(fids)]
        outcome_rows.append({
            "label": label,
            "probability": float(np.mean(batch.probabilities[:, idx])),
            "faithful": branches.faithful[idx],
            "fidelity": float(np.mean(fids)) if fids.size else None,
        })

    empirical = None
    if sampled:
        empirical = _sample_outcomes(batch.probabilities, args.shots, rng, branches.report)

    report = {
        "command": "teleport",
        "params": _param_block(args, ("n", "l", "p")),
        "input": input_desc,
        "mode": args.mode,
        "seed": seed,
        "regime": branches.report.regime,
        "outcomes": outcome_rows,
        "analytic": _analytic_block(params.n),
        "empirical": empirical,
    }
    report = _rounded(report, args.precision)

    lines = ["label,probability,faithful,fidelity,empirical_frequency"]
    for row in outcome_rows:
        freq = empirical["frequencies"][row["label"]] if empirical else None
        lines.append(",".join([
            row["label"],
            _fmt(row["probability"], args.precision),
            _fmt(row["faithful"], args.precision),
            _fmt(row["fidelity"], args.precision),
            _fmt(freq, args.precision),
        ]))
    return report, _csv(lines)


def _sample_outcomes(probabilities, shots, rng, report):
    # shot i uses input i mod len(probabilities); faithful-branch
    # probability is input independent, so the faithful frequency
    # estimates the same number whatever the inputs.
    totals = np.zeros(len(BASIS_LABELS), dtype=np.int64)
    for indices in teleport.sample_outcomes(probabilities, shots, rng):
        totals += np.bincount(indices, minlength=len(BASIS_LABELS))
    counts = {label: int(c) for label, c in zip(BASIS_LABELS, totals)}
    freqs = {label: counts[label] / shots for label in BASIS_LABELS}
    faithful_freq = sum(freqs[label] for label in report.faithful_outcomes)
    return {
        "shots": shots,
        "counts": counts,
        "frequencies": freqs,
        "faithful_frequency": faithful_freq,
    }


def _param_block(args, names) -> dict:
    out = {}
    for name in names:
        attr = name.replace("-", "_")
        out[name] = format_complex(parse_complex(getattr(args, attr)), args.precision)
    return out


def _cmd_swap(args):
    params = swap_mod.SwapParams(
        parse_complex(args.m), parse_complex(args.n),
        parse_complex(args.l), parse_complex(args.p),
        parse_complex(args.l_prime), parse_complex(args.p_prime),
    )
    outcomes = swap_mod.swap_run(params)
    regime = swap_mod.classify_swap_outcomes(params, outcomes)
    rows = [{
        "label": o.label,
        "probability": o.probability,
        "reliable": o.reliable,
        "entropy": o.b2_entropy,
        "target": o.target,
    } for o in outcomes]
    report = {
        "command": "swap",
        "params": _param_block(args, ("m", "n", "l", "p", "l-prime", "p-prime")),
        "seed": None,
        "regime": regime.regime,
        "outcomes": rows,
        "analytic": {
            "success_probability": regime.success_probability,
            "two_outcome_probability": swap_mod.two_outcome_swap_probability(params.m, params.n),
            "three_outcome_probability": swap_mod.three_outcome_swap_probability(params.n),
            "phi_branch_conditions": regime.phi_branch_conditions,
            "psi_branch_conditions": regime.psi_branch_conditions,
        },
        "empirical": None,
    }
    report = _rounded(report, args.precision)
    lines = ["label,probability,reliable,entropy,target"]
    for row in rows:
        lines.append(",".join([
            row["label"],
            _fmt(row["probability"], args.precision),
            _fmt(row["reliable"], args.precision),
            _fmt(row["entropy"], args.precision),
            row["target"] or "",
        ]))
    return report, _csv(lines)


def _cmd_classify(args):
    params = teleport.ProtocolParams(parse_complex(args.n), parse_complex(args.l), parse_complex(args.p))
    regime = teleport.classify(params)
    report = {
        "command": "classify",
        "params": _param_block(args, ("n", "l", "p")),
        "seed": None,
        "regime": regime.regime,
        "faithful_outcomes": list(regime.faithful_outcomes),
        "success_probability": regime.success_probability,
        "expected_repetitions": regime.expected_repetitions,
        "analytic": _analytic_block(params.n),
    }
    report = _rounded(report, args.precision)
    lines = ["regime,faithful_outcomes,success_probability,expected_repetitions"]
    lines.append(",".join([
        regime.regime,
        ";".join(regime.faithful_outcomes),
        _fmt(regime.success_probability, args.precision),
        _fmt(regime.expected_repetitions, args.precision),
    ]))
    return report, _csv(lines)


def _parse_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"grid must be numeric, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ParseError(f"grid values must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ParseError(f"grid needs step > 0 and stop >= start, got {text!r}")
    span = (stop - start) / step + 0.5
    if not span < MAX_GRID_POINTS:
        raise ParseError(f"grid has more than {MAX_GRID_POINTS} points, got {text!r}")
    count = int(math.floor(span)) + 1
    return [start + i * step for i in range(count)]


def _cmd_sweep(args):
    grid = _parse_grid(args.n_grid)
    rows = []
    for n in grid:
        # Success is the brute-force probability of the outcomes the
        # chosen scheme designates, so a maximally entangled grid point
        # still reports the scheme's own 0.5 even though every outcome
        # is faithful there.
        if args.regime == "probabilistic2":
            params = teleport.two_faithful_choice(complex(n), 0)
            designated = teleport.two_faithful_labels(0)
        else:
            params = teleport.one_faithful_choice(complex(n), 1)
            designated = (teleport.one_faithful_labels(1),)
        succ = sum(
            teleport.branch_probability(tm)
            for tm in teleport.transfer_matrices(params)
            if tm.label in designated
        )
        rows.append({
            "n": n,
            "success_probability": succ,
            "repetitions": teleport.expected_repetitions(complex(n)),
            "inverse_success": 1.0 / succ if succ > 0.0 else math.inf,
        })
    report = {
        "command": "sweep",
        "params": {"n_grid": args.n_grid, "regime": args.regime},
        "seed": None,
        "rows": rows,
    }
    report = _rounded(report, args.precision)
    lines = ["n,success_probability,repetitions,inverse_success"]
    for row in rows:
        lines.append(",".join([
            _fmt(float(row["n"]), args.precision),
            _fmt(row["success_probability"], args.precision),
            _fmt(row["repetitions"], args.precision),
            _fmt(row["inverse_success"], args.precision),
        ]))
    return report, _csv(lines)


if __name__ == "__main__":
    sys.exit(main())
