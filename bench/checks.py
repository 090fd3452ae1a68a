"""Output checks. Each checker returns a list of problems; empty means correct.

A request fails when the program exits nonzero, raises, or its output
breaks any of these:
  - outcome probabilities sum to 1 within TOL_NORM;
  - faithful outcomes are exactly the expected set, each with
    probability |n|^2/(1+|n|^2)^2 and fidelity 1;
  - a sampled faithful frequency lies within 5 sigma (binomial) of the
    brute-force value;
  - each sweep row equals k|n|^2/(1+|n|^2)^2 on the requested grid;
  - swap reliable sums equal the closed forms where the conditions hold;
  - fixed-input probabilities equal teleport.measured_probabilities.
Reports are rounded to 12 decimals, so value comparisons allow 1e-9.
"""

from __future__ import annotations

import json
import math

from teleportrix import teleport
from teleportrix.tolerances import TOL_NORM

from workloads import LABELS, expected_regime, faithful_probability

TOL = 1e-9


def close(a, b, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _binomial_ok(hits: int, shots: int, p: float) -> bool:
    if p <= 0.0 or p >= 1.0:
        return hits == round(p * shots)
    sigma = math.sqrt(shots * p * (1.0 - p))
    return abs(hits - shots * p) <= 5.0 * sigma


def _outcome_problems(rows, spec) -> list:
    """Rows are dicts with label, probability, faithful and fidelity."""
    problems = []
    if [r["label"] for r in rows] != list(LABELS):
        return [f"outcome labels {[r['label'] for r in rows]}"]
    total = sum(r["probability"] for r in rows)
    if abs(total - 1.0) > TOL_NORM:
        problems.append(f"probabilities sum to {total!r}")
    faithful = tuple(r["label"] for r in rows if r["faithful"])
    if set(faithful) != set(spec["faithful"]):
        problems.append(f"faithful {faithful} != expected {spec['faithful']}")
    q = faithful_probability(spec["n"])
    for r in rows:
        if r["label"] in spec["faithful"]:
            if not close(r["probability"], q):
                problems.append(f"{r['label']} probability {r['probability']!r} != {q!r}")
            if r["fidelity"] is None or not close(r["fidelity"], 1.0):
                problems.append(f"{r['label']} fidelity {r['fidelity']!r} != 1")
    return problems


def _regime_problems(regime, spec) -> list:
    want = expected_regime(len(spec["faithful"]))
    return [] if regime == want else [f"regime {regime!r} != {want!r}"]


def _measured_problems(probabilities: dict, spec) -> list:
    params = teleport.ProtocolParams(spec["n"], spec["l"], spec["p"])
    reference = teleport.measured_probabilities(spec["input"], params)
    return [f"{label} probability {probabilities[label]!r} != measured {reference[label]!r}"
            for label in LABELS if abs(probabilities[label] - reference[label]) > TOL_NORM]


def _load_json(out) -> dict:
    rc, stdout, stderr = out
    if rc != 0:
        raise ValueError(f"exit code {rc}: {stderr.strip()[-200:]}")
    return json.loads(stdout)


def check_cli_teleport(req, out) -> list:
    report = _load_json(out)
    spec = req.spec
    problems = _regime_problems(report["regime"], spec)
    problems += _outcome_problems(report["outcomes"], spec)
    q = faithful_probability(spec["n"])
    if not close(report["analytic"]["faithful_branch_probability"], q):
        problems.append("analytic faithful_branch_probability")
    if req.shots:
        emp = report["empirical"]
        counts = emp["counts"]
        if emp["shots"] != req.shots or sum(counts.values()) != req.shots:
            problems.append(f"shot counts {counts} for {req.shots} shots")
        hits = sum(counts[label] for label in spec["faithful"])
        if not close(emp["faithful_frequency"], hits / req.shots):
            problems.append("faithful_frequency disagrees with counts")
        if not _binomial_ok(hits, req.shots, len(spec["faithful"]) * q):
            problems.append(f"faithful count {hits}/{req.shots} beyond 5 sigma")
    else:
        if report["empirical"] is not None:
            problems.append("exhaustive run has an empirical block")
        probs = {r["label"]: r["probability"] for r in report["outcomes"]}
        problems += _measured_problems(probs, spec)
    return problems


def check_cli_classify(req, out) -> list:
    report = _load_json(out)
    return _classify_problems(report["regime"], report["faithful_outcomes"],
                              report["success_probability"], req.spec)


def _classify_problems(regime, faithful, success, spec) -> list:
    problems = _regime_problems(regime, spec)
    if set(faithful) != set(spec["faithful"]):
        problems.append(f"faithful {faithful} != expected {spec['faithful']}")
    want = len(spec["faithful"]) * faithful_probability(spec["n"])
    if not close(success, want):
        problems.append(f"success probability {success!r} != {want!r}")
    return problems


def check_cli_sweep(req, out) -> list:
    rc, stdout, stderr = out
    spec = req.spec
    if rc != 0:
        raise ValueError(f"exit code {rc}: {stderr.strip()[-200:]}")
    if spec["output"] == "json":
        rows = [(r["n"], r["success_probability"], r["repetitions"], r["inverse_success"])
                for r in json.loads(stdout)["rows"]]
    else:
        lines = stdout.splitlines()
        if lines[0] != "n,success_probability,repetitions,inverse_success":
            return [f"csv header {lines[0]!r}"]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    if len(rows) != spec["points"]:
        return [f"{len(rows)} rows for {spec['points']} grid points"]
    problems = []
    for i, (n, succ, reps, inv) in enumerate(rows):
        grid_n = spec["start"] + i * spec["step"]
        q = faithful_probability(grid_n)
        if not (close(n, grid_n) and close(succ, spec["k"] * q)
                and close(reps, 1.0 / q) and close(inv, 1.0 / (spec["k"] * q))):
            problems.append(f"row {i} {(n, succ, reps, inv)} off the closed form at n={grid_n!r}")
            break
    return problems


def _swap_problems(rows, success, regime, spec) -> list:
    """Rows are (label, probability, reliable) tuples."""
    problems = []
    total = sum(r[1] for r in rows)
    if abs(total - 1.0) > TOL_NORM:
        problems.append(f"probabilities sum to {total!r}")
    reliable = tuple(r[0] for r in rows if r[2])
    reliable_sum = sum(r[1] for r in rows if r[2])
    if not close(success, reliable_sum):
        problems.append(f"success probability {success!r} != reliable sum {reliable_sum!r}")
    if spec["reliable"] is not None:
        if set(reliable) != set(spec["reliable"]):
            problems.append(f"reliable {reliable} != expected {spec['reliable']}")
        if not close(reliable_sum, spec["closed_form"]):
            problems.append(f"reliable sum {reliable_sum!r} != closed form {spec['closed_form']!r}")
        want = expected_regime(len(spec["reliable"]), "NoReliable")
        if regime != want:
            problems.append(f"regime {regime!r} != {want!r}")
    return problems


def check_cli_swap(req, out) -> list:
    report = _load_json(out)
    rows = [(r["label"], r["probability"], r["reliable"]) for r in report["outcomes"]]
    problems = _swap_problems(rows, report["analytic"]["success_probability"], report["regime"], req.spec)
    spec = req.spec
    two = faithful_probability(spec["n"]) + faithful_probability(spec["m"])
    if not close(report["analytic"]["two_outcome_probability"], two):
        problems.append("analytic two_outcome_probability")
    if not close(report["analytic"]["three_outcome_probability"], 3 * faithful_probability(spec["n"])):
        problems.append("analytic three_outcome_probability")
    return problems


def check_lib_swap(req, out) -> list:
    outcomes, regime = out
    rows = [(o.label, o.probability, o.reliable) for o in outcomes]
    problems = _swap_problems(rows, regime.success_probability, regime.regime, req.spec)
    if tuple(o.label for o in outcomes if o.reliable) != tuple(regime.reliable_outcomes):
        problems.append("swap_run and classify_swap disagree on reliable outcomes")
    return problems


def check_lib_classify(req, out) -> list:
    return _classify_problems(out.regime, out.faithful_outcomes, out.success_probability, req.spec)


def check_lib_run(req, out) -> list:
    spec = req.spec
    rows = [{"label": r.label, "probability": r.probability, "faithful": r.faithful,
             "fidelity": r.fidelity} for r in out.records]
    problems = _regime_problems(out.report.regime, spec) + _outcome_problems(rows, spec)
    problems += _measured_problems({r["label"]: r["probability"] for r in rows}, spec)
    if out.shots != req.shots or len(out.shot_labels) != req.shots:
        problems.append(f"{out.shots} shots and {len(out.shot_labels)} labels for {req.shots} shots")
    hits = sum(1 for label in out.shot_labels if label in spec["faithful"])
    if not _binomial_ok(hits, req.shots, len(spec["faithful"]) * faithful_probability(spec["n"])):
        problems.append(f"faithful count {hits}/{req.shots} beyond 5 sigma")
    return problems


CHECKERS = {
    "cli.teleport": check_cli_teleport,
    "cli.classify": check_cli_classify,
    "cli.sweep": check_cli_sweep,
    "cli.swap": check_cli_swap,
    "lib.swap": check_lib_swap,
    "lib.classify": check_lib_classify,
    "lib.run": check_lib_run,
}


def check(req, out) -> list:
    """Problems with one request's output; a malformed report is a problem too."""
    try:
        return CHECKERS[req.kind](req, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
