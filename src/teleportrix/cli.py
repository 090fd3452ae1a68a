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
from itertools import chain

import numpy as np

from . import swap as swap_mod
from . import teleport
from .complexfmt import finite_complex, format_complex, parse_complex, squared_moduli
from .ebasis import BASIS_LABELS
from .errors import ParseError, TeleportrixError

SEED_ENV = "TELEPORTRIX_SEED"
_PROBABILISTIC_REGIMES = ("probabilistic2", "probabilistic1")
_SWAP_PARAMS = ("m", "n", "l", "p", "l-prime", "p-prime")

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
    for name in _SWAP_PARAMS:
        s.add_argument(f"--{name}", required=True)
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
    commands = {"teleport": _cmd_teleport, "swap": _cmd_swap, "classify": _cmd_classify, "sweep": _cmd_sweep}
    return commands[args.command](args)


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


def _cells(values, digits, csv: bool) -> list:
    """Report values as text: a finite float is its rounded repr, the rest as _text."""
    return [repr(round(v, digits)) if isinstance(v, float) and not math.isinf(v) else _text(v, csv)
            for v in values]


def _column(values: np.ndarray, digits, csv: bool) -> np.ndarray:
    """_cells of a float64 array as a (values, characters) uint8 matrix, 0
    where a value has no character: _fixed_point's text, and _cells for
    the values outside its range, NUL-padded, the matrix widened to fit."""
    text, outside = _fixed_point(values, digits)
    if outside.any():
        cells = np.array(_cells(values[outside].tolist(), digits, csv), dtype="S")
        width = max(cells.itemsize, text.shape[1])
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
        text[outside] = cells.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return text


def _halves(x):
    """Veltkamp's split of x into two halves of at most 26 bits, x = high + low."""
    scaled = 134217729.0 * x  # 2^27 + 1
    high = scaled - (scaled - x)
    return high, x - high


def _fixed_point(values: np.ndarray, d: int) -> tuple:
    """repr(round(v, d)) of each v as a row of characters, 0 where there
    is none, from the digits of D = round(v 10^d); and the mask of the
    values outside the range where that is exact, whose rows mean nothing:
    |v| >= 10^(15-d) (nan and inf too), 0 < |D| < 10^(d-4), or every value
    unless repr writes the shortest round-tripping decimal ("short").

    product + error is v 10^d exactly (Dekker's two-product), so D is
    rint(product), which rounds half-integers to even, except at a
    half-integer product that v 10^d is not: the sign of error picks the
    side. D has at most 15 significant digits, so (DBL_DIG) it is the
    shortest decimal of float(D / 10^d), which repr writes positionally in
    [1e-4, 1e16). README "Emission" gives the argument in full.
    """
    # the first test also keeps |D| <= 10^15
    outside = ~(np.abs(values) < 10.0 ** (15 - d)) | (sys.float_repr_style != "short")
    values = np.where(outside, 0.0, values)  # no inf or nan reaches the int64 cast
    scale = 10.0 ** d
    product = values * scale
    (high, low), (scale_high, scale_low) = _halves(values), _halves(scale)
    error = ((high * scale_high - product) + high * scale_low + low * scale_high) + low * scale_low
    rounded = np.rint(product)
    half = product - rounded
    rounded += (half == 0.5) & (error > 0)
    rounded -= (half == -0.5) & (error < 0)
    rounded = np.abs(rounded)
    outside |= (rounded > 0) & (rounded < 10.0 ** (d - 4))  # repr gives these an exponent
    # One column of characters per value: the sign, max(16 - d, 1) integer
    # digits, the point and d fraction digits. A character left out is 0.
    point = max(17 - d, 2)
    text = np.empty((point + d + 1, len(values)), np.uint8)
    magnitude = rounded.astype(np.int64)
    for row in range(point + d, 0, -1):
        if row != point:
            quotient = magnitude // 10
            text[row] = magnitude - quotient * 10
            magnitude = quotient
    text += ord("0")
    # leading zeros are left out, the units digit is kept
    text[1:point - 1] *= rounded >= 10.0 ** np.arange(d + point - 2, d, -1)[:, None]
    # trailing zeros are left out, the first fraction digit is kept
    kept = np.zeros(len(values), bool)
    for row in range(point + d, point + 1, -1):
        kept |= text[row] != ord("0")
        text[row] *= kept
    text[0] = np.signbit(values) * ord("-")
    text[point] = ord(".")
    return text.T, outside


def _text(value, csv: bool) -> str:
    """inf as Infinite; in CSV None as empty, a list ';'-joined and a string
    as itself; any other value as its JSON text (so a bool is true/false)."""
    if isinstance(value, float):
        value = "Infinite"
    if csv and isinstance(value, str):
        return value
    if csv and isinstance(value, list):
        return ";".join(value)
    return "" if csv and value is None else json.dumps(value)


def _emit(args, report: dict, table: dict, key=None) -> str:
    """The report as JSON, or as CSV its table: column name -> one value per row."""
    digits = args.precision
    if args.output == "csv":
        pieces = ["", *[","] * (len(table) - 1), "\n"]
        return ",".join(table) + "\n" + _rows(list(table.values()), pieces, "", digits, True)
    return "".join(_json([], report, digits, "\n", key) + ["\n"])


def _rows(columns: list, pieces: list, sep: str, digits, csv: bool) -> str:
    """The table's rows joined by sep, each pieces[0] cell pieces[1] ... cell pieces[-1].

    Float64 arrays of more than four rows (a sweep's columns) are laid out
    as one character matrix, a row of it per table row, 0 where there is
    no character: each piece is written once as a broadcast slice, each
    column's _column text into its own slot, and one compress drops the
    zeros. Any other table (teleport, swap and classify have at most four
    rows) is one %-format of a row template per row, which is faster at
    that size: _column costs about 0.1 ms a column whatever its length.
    """
    if not (isinstance(columns[0], np.ndarray) and len(columns[0]) > 4):
        template = "%s".join(piece.replace("%", "%%") for piece in pieces)
        cells = [_cells(column.tolist() if isinstance(column, np.ndarray) else column, digits, csv)
                 for column in columns]
        return sep.join([template] * len(cells[0])) % tuple(chain.from_iterable(zip(*cells)))
    count = len(columns[0])
    blocks = [np.frombuffer(piece.encode(), np.uint8) for piece in [*pieces[:-1], pieces[-1] + sep]]
    slots = [_column(column, digits, csv) for column in columns]
    parts = [blocks[0], *chain.from_iterable(zip(slots, blocks[1:]))]
    # row-major, which concatenate would not choose: the slots are transposed views
    matrix = np.empty((count, sum(part.shape[-1] for part in parts)), np.uint8)
    np.concatenate([np.broadcast_to(part, (count, part.shape[-1])) for part in parts], axis=1, out=matrix)
    matrix[-1, matrix.shape[1] - len(sep):] = 0  # no sep after the last row
    flat = matrix.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _json(chunks: list, value, digits, pad, key=None) -> list:
    """Append value to chunks as json.dumps(value, indent=2) lays it out
    from indent pad, and return chunks: scalars and empty lists or dicts by
    _cells, the columns at value[key] as the list of their rows by _rows.
    One final join copies the text once (a sweep is megabytes)."""
    inner = pad + "  "
    if isinstance(value, list) and value:
        for i, item in enumerate(value):
            chunks.append(("," if i else "[") + inner)
            _json(chunks, item, digits, inner)
        chunks.append(pad + "]")
    elif isinstance(value, dict) and value:
        for i, (name, item) in enumerate(value.items()):
            chunks.append(("," if i else "{") + inner + json.dumps(name) + ": ")
            if name != key:
                _json(chunks, item, digits, inner)
                continue
            heads = [f"{inner}    {json.dumps(column)}: " for column in item]
            pieces = ["{" + heads[0], *["," + head for head in heads[1:]], inner + "  }"]
            rows = _rows(list(item.values()), pieces, "," + inner + "  ", digits, False)
            chunks += ["[", inner + "  ", rows, inner + "]"]
        chunks.append(pad + "}")
    else:
        chunks += _cells([value], digits, False)
    return chunks


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
    # one np.mean per column: a mean over axis 0 sums in another order
    fidelities = [fids[~np.isnan(fids)] for fids in batch.fidelities.T]
    outcomes = {
        "label": list(BASIS_LABELS),
        "probability": [float(np.mean(column)) for column in batch.probabilities.T],
        "faithful": [label in regime.faithful_outcomes for label in BASIS_LABELS],
        "fidelity": [float(np.mean(fids)) if fids.size else None for fids in fidelities],
    }

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
        "outcomes": outcomes,
        "analytic": _analytic_block(params.n),
        "empirical": empirical,
    }
    table = {**outcomes, "empirical_frequency": [frequencies.get(label) for label in BASIS_LABELS]}
    return _emit(args, report, table, "outcomes")


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
    values = _parse_params(args, _SWAP_PARAMS)
    params = swap_mod.SwapParams(*values.values())
    outcomes = swap_mod.swap_run(params)
    regime = swap_mod.classify_swap_outcomes(params, outcomes)
    table = {
        "label": [o.label for o in outcomes],
        "probability": [o.probability for o in outcomes],
        "reliable": [o.reliable for o in outcomes],
        "entropy": [o.b2_entropy for o in outcomes],
        "target": [o.target for o in outcomes],
    }
    report = {
        "command": "swap",
        "params": _param_block(values, args.precision),
        "seed": None,
        "regime": regime.regime,
        "outcomes": table,
        "analytic": {
            "success_probability": regime.success_probability,
            "two_outcome_probability": swap_mod.two_outcome_swap_probability(params.m, params.n),
            "three_outcome_probability": swap_mod.three_outcome_swap_probability(params.n),
            "phi_branch_conditions": regime.phi_branch_conditions,
            "psi_branch_conditions": regime.psi_branch_conditions,
        },
        "empirical": None,
    }
    return _emit(args, report, table, "outcomes")


def _cmd_classify(args):
    values = _parse_params(args, ("n", "l", "p"))
    params = teleport.ProtocolParams(*values.values())
    regime = teleport.classify(params)
    row = {
        "regime": regime.regime,
        "faithful_outcomes": list(regime.faithful_outcomes),
        "success_probability": regime.success_probability,
        "expected_repetitions": regime.expected_repetitions,
    }
    report = {
        "command": "classify",
        "params": _param_block(values, args.precision),
        "seed": None,
        **row,
        "analytic": _analytic_block(params.n),
    }
    return _emit(args, report, {name: [value] for name, value in row.items()})


def _parse_grid(text: str) -> np.ndarray:
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
    return start + np.arange(count) * step  # start + i * step, two IEEE operations


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
    success = stack.success(designated)
    with np.errstate(over="ignore"):  # 1 / s is inf below s = 1 / DBL_MAX, as in Python
        inverse = np.divide(1.0, success, out=np.full_like(success, math.inf), where=success > 0.0)
    columns = {"n": grid, "success_probability": success, "repetitions": _repetitions(grid),
               "inverse_success": inverse}
    report = {
        "command": "sweep",
        "params": {"n_grid": args.n_grid, "regime": args.regime},
        "seed": None,
        "rows": columns,
    }
    return _emit(args, report, columns, "rows")


def _repetitions(grid: np.ndarray) -> np.ndarray:
    """teleport.expected_repetitions of every grid point, same bits."""
    mod2 = squared_moduli(grid.astype(complex)[None], ("n",), power=2)[0]
    with np.errstate(divide="ignore", over="ignore"):  # inf at n = 0 and below |n|^2 = 1 / DBL_MAX, as in Python
        return np.float_power(1.0 + mod2, 2.0) / mod2


if __name__ == "__main__":
    sys.exit(main())
