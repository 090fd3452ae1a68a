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
from .complexfmt import finite_complex, format_complex, parse_complex, squared_moduli, squared_modulus
from .ebasis import BASIS_LABELS
from .errors import ParseError, TeleportrixError

SEED_ENV = "TELEPORTRIX_SEED"
_PROBABILISTIC_REGIMES = ("probabilistic2", "probabilistic1")

# Request size limits. Sampling memory is O(teleport.SAMPLE_CHUNK + K)
# for K inputs whatever the shot count, so MAX_SHOTS bounds run time
# only (10^9 shots take 5-8 s on one core of a 2-vCPU x86 VM); the
# input batch and the sweep report grow with their counts, so
# MAX_INPUTS and MAX_GRID_POINTS bound memory.
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


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use; parse_args leaves it unchanged."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        text = _dispatch(args)
    except (TeleportrixError, ValueError, ZeroDivisionError) as exc:
        print(f"teleportrix: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"teleportrix: a parameter is too large, numeric overflow: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"teleportrix: cannot write the report to {args.out!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def _dispatch(args) -> str:
    """The report of a command, in the requested output format."""
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
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"{SEED_ENV} must be an integer, got {env!r}") from None


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
    """One CSV cell; a list is one cell of ';'-joined items."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinite"
        return str(round(value, digits))
    if isinstance(value, list):
        return ";".join(value)
    return str(value)


def _emit(args, report: dict, table: list) -> str:
    """A small report as indented JSON, or its table as CSV.

    table holds the CSV rows, each a tuple of (column name, value) pairs
    in column order; the header is the names of the first row. The
    commands build the JSON rows of the report from the same tuples.
    """
    digits = args.precision
    if args.output == "json":
        return json.dumps(_rounded(report, digits), indent=2) + "\n"
    lines = [",".join([name for name, _ in table[0]])]
    lines.extend(",".join([_fmt(value, digits) for _, value in row]) for row in table)
    return _csv(lines)


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
    values = _parse_params(args, ("n", "l", "p"))
    params = teleport.ProtocolParams(*values.values())
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

    stack = teleport.protocol_branches(params)
    batch = teleport.evaluate_inputs(stack, inputs)
    regime = stack.report(0)
    outcomes = []
    for idx, label in enumerate(BASIS_LABELS):
        fids = batch.fidelities[:, idx]
        fids = fids[~np.isnan(fids)]
        outcomes.append((
            ("label", label),
            ("probability", float(np.mean(batch.probabilities[:, idx]))),
            ("faithful", label in regime.faithful_outcomes),
            ("fidelity", float(np.mean(fids)) if fids.size else None),
        ))

    empirical = None
    if sampled:
        empirical = _sample_outcomes(batch.probabilities, args.shots, rng, regime)
    frequencies = empirical["frequencies"] if empirical else {}

    report = {
        "command": "teleport",
        "params": _param_block(values, args.precision),
        "input": input_desc,
        "mode": args.mode,
        "seed": seed,
        "regime": regime.regime,
        "outcomes": [dict(row) for row in outcomes],
        "analytic": _analytic_block(params.n),
        "empirical": empirical,
    }
    table = [row + (("empirical_frequency", frequencies.get(label)),)
             for row, label in zip(outcomes, BASIS_LABELS)]
    return _emit(args, report, table)


def _sample_outcomes(probabilities, shots, rng, report):
    # shot i uses input i mod len(probabilities); faithful-branch
    # probability is input independent, so the faithful frequency
    # estimates the same number whatever the inputs.
    totals = teleport.count_outcomes(probabilities, shots, rng)
    counts = {label: int(c) for label, c in zip(BASIS_LABELS, totals)}
    freqs = {label: counts[label] / shots for label in BASIS_LABELS}
    faithful_freq = sum(freqs[label] for label in report.faithful_outcomes)
    return {
        "shots": shots,
        "counts": counts,
        "frequencies": freqs,
        "faithful_frequency": faithful_freq,
    }


def _parse_params(args, names) -> dict:
    """The complex parameters of a command by name, each parsed once, in order."""
    return {name: parse_complex(getattr(args, name.replace("-", "_"))) for name in names}


def _param_block(values: dict, digits: int) -> dict:
    return {name: format_complex(z, digits) for name, z in values.items()}


def _cmd_swap(args):
    values = _parse_params(args, ("m", "n", "l", "p", "l-prime", "p-prime"))
    params = swap_mod.SwapParams(*values.values())
    outcomes = swap_mod.swap_run(params)
    regime = swap_mod.classify_swap_outcomes(params, outcomes)
    table = [(
        ("label", o.label),
        ("probability", o.probability),
        ("reliable", o.reliable),
        ("entropy", o.b2_entropy),
        ("target", o.target),
    ) for o in outcomes]
    report = {
        "command": "swap",
        "params": _param_block(values, args.precision),
        "seed": None,
        "regime": regime.regime,
        "outcomes": [dict(row) for row in table],
        "analytic": {
            "success_probability": regime.success_probability,
            "two_outcome_probability": swap_mod.two_outcome_swap_probability(params.m, params.n),
            "three_outcome_probability": swap_mod.three_outcome_swap_probability(params.n),
            "phi_branch_conditions": regime.phi_branch_conditions,
            "psi_branch_conditions": regime.psi_branch_conditions,
        },
        "empirical": None,
    }
    return _emit(args, report, table)


def _cmd_classify(args):
    values = _parse_params(args, ("n", "l", "p"))
    params = teleport.ProtocolParams(*values.values())
    regime = teleport.classify(params)
    row = (
        ("regime", regime.regime),
        ("faithful_outcomes", list(regime.faithful_outcomes)),
        ("success_probability", regime.success_probability),
        ("expected_repetitions", regime.expected_repetitions),
    )
    report = {
        "command": "classify",
        "params": _param_block(values, args.precision),
        "seed": None,
        **dict(row),
        "analytic": _analytic_block(params.n),
    }
    return _emit(args, report, [row])


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


_SWEEP_COLUMNS = ("n", "success_probability", "repetitions", "inverse_success")
# One element of the sweep's "rows" list as json.dumps(report, indent=2) lays it out.
_SWEEP_ROW = "    {{\n" + ",\n".join(f"      {json.dumps(name)}: {{}}" for name in _SWEEP_COLUMNS) + "\n    }}"


def _cmd_sweep(args):
    grid = _parse_grid(args.n_grid)
    # Success is the brute-force probability of the outcomes the chosen
    # scheme designates, so a maximally entangled grid point still
    # reports the scheme's own 0.5 even though every outcome is faithful
    # there. The whole grid is one branch_stack.
    if args.regime == "probabilistic2":
        stack = teleport.two_faithful_stack(grid, 0)
        designated = teleport.two_faithful_labels(0)
    else:
        stack = teleport.one_faithful_stack(grid, 1)
        designated = (teleport.one_faithful_labels(1),)
    success = stack.success(designated).tolist()
    columns = (grid, success, _repetitions(grid), [1.0 / s if s > 0.0 else math.inf for s in success])
    # Every value is a float, so a cell is the text json.dumps and _fmt
    # give a rounded float: its repr, or "Infinite" for inf.
    digits = args.precision
    if args.output == "csv":
        cells = [_float_cells(column, digits, "Infinite") for column in columns]
        return _csv([",".join(_SWEEP_COLUMNS), *map(",".join, zip(*cells))])
    cells = [_float_cells(column, digits, '"Infinite"') for column in columns]
    head = json.dumps({
        "command": "sweep",
        "params": {"n_grid": args.n_grid, "regime": args.regime},
        "seed": None,
    }, indent=2)
    # the grid is never empty, so "rows" always opens a list of objects
    rows = ",\n".join(map(_SWEEP_ROW.format, *cells))
    return f'{head[:-2]},\n  "rows": [\n{rows}\n  ]\n}}\n'


def _float_cells(values, digits, infinite) -> list:
    return [infinite if math.isinf(v) else repr(round(v, digits)) for v in values]


def _repetitions(grid) -> list:
    """teleport.expected_repetitions of every grid point, same bits."""
    mod2 = squared_moduli(np.array([grid], dtype=complex), ("n",))[0].tolist()
    try:
        return [(1.0 + m) ** 2 / m if m else math.inf for m in mod2]
    except OverflowError:
        for n in grid:
            squared_modulus(complex(n), "n", power=2)
        raise


if __name__ == "__main__":
    sys.exit(main())
