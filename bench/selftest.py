"""Show that the output checker catches wrong reports.

Serves one small request of each kind, confirms the checker accepts the
real output, then corrupts it (shifted probability, flipped faithful or
reliable flag, skewed shot counts, wrong sweep row, wrong regime,
nonzero exit) and confirms each corruption is rejected. Exits 1 if the
checker accepts a corrupted report or rejects a correct one.

Run by `python3 bench/run.py --smoke`, in the same child environment as
the workloads.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import checks
import workloads
from worker import execute


def _edit_json(out, edit):
    rc, stdout, stderr = out
    report = json.loads(stdout)
    edit(report)
    return rc, json.dumps(report), stderr


def _shift_probability(report):
    report["outcomes"][0]["probability"] += 1e-3


def _flip_faithful(report):
    report["outcomes"][0]["faithful"] = not report["outcomes"][0]["faithful"]


def _skew_counts(report):
    emp = report["empirical"]
    emp["counts"] = {label: 0 for label in emp["counts"]}
    emp["counts"]["PsiMinus"] = emp["shots"]


def _bump_sweep_row(report):
    report["rows"][len(report["rows"]) // 2]["success_probability"] += 1e-6


def _flip_reliable(report):
    report["outcomes"][0]["reliable"] = not report["outcomes"][0]["reliable"]


def _wrong_regime(report):
    report["regime"] = "Deterministic" if report["regime"] != "Deterministic" else "NoFaithful"


def _csv_row(out):
    rc, stdout, stderr = out
    lines = stdout.splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * 1.001)
    lines[1] = ",".join(fields)
    return rc, "\n".join(lines) + "\n", stderr


def _first(stream, kind, **spec):
    return next(r for r in stream if r.kind == kind
                and all(r.spec.get(k) == v for k, v in spec.items()))


def cases():
    """(name, request, corruption) triples; corruption maps output -> bad output."""
    sizes = workloads.SMOKE_SIZES
    batch = next(r for r in workloads.teleport_batch(7, sizes) if 0 < len(r.spec["faithful"]) < 4)
    sweeps = workloads.sweep_dense(7, sizes)
    sweep_json = _first(sweeps, "cli.sweep", output="json")
    sweep_csv = _first(sweeps, "cli.sweep", output="csv")
    mix = workloads.request_mix(7, sizes)
    exhaustive = _first(mix, "cli.teleport")
    cli_swap = next(r for r in mix if r.kind == "cli.swap" and r.spec["reliable"] is not None)
    cli_classify = _first(mix, "cli.classify")
    lib_classify = _first(mix, "lib.classify")
    lib_run = next(r for r in mix if r.kind == "lib.run" and 0 < len(r.spec["faithful"]) < 4)
    lib_swap = next(r for r in mix if r.kind == "lib.swap" and r.spec["reliable"] is not None)

    def json_edit(edit):
        return lambda out: _edit_json(out, edit)

    def fewer_shots(out):
        return dataclasses.replace(out, shot_labels=out.shot_labels[1:])

    def unreliable_swap(out):
        outcomes, regime = out
        return (dataclasses.replace(outcomes[0], reliable=not outcomes[0].reliable),) + outcomes[1:], regime

    return [
        ("sampled: shifted probability", batch, json_edit(_shift_probability)),
        ("sampled: flipped faithful flag", batch, json_edit(_flip_faithful)),
        ("sampled: skewed shot counts", batch, json_edit(_skew_counts)),
        ("sampled: nonzero exit", batch, lambda out: (2, out[1], "boom")),
        ("exhaustive: shifted probability", exhaustive, json_edit(_shift_probability)),
        ("exhaustive: flipped faithful flag", exhaustive, json_edit(_flip_faithful)),
        ("sweep json: wrong row", sweep_json, json_edit(_bump_sweep_row)),
        ("sweep csv: wrong row", sweep_csv, _csv_row),
        ("swap: flipped reliable flag", cli_swap, json_edit(_flip_reliable)),
        ("classify: wrong regime", cli_classify, json_edit(_wrong_regime)),
        ("lib classify: wrong regime", lib_classify,
         lambda out: dataclasses.replace(out, regime="Deterministic")),
        ("lib run: missing shot", lib_run, fewer_shots),
        ("lib swap: flipped reliable flag", lib_swap, unreliable_swap),
    ]


def main() -> int:
    failures = 0
    for name, req, corrupt in cases():
        out = execute(req)
        accepted = checks.check(req, out)
        rejected = checks.check(req, corrupt(out))
        ok = not accepted and bool(rejected)
        failures += not ok
        verdict = "ok" if ok else "FAIL"
        print(f"selftest {verdict:<4} {name}: real output {accepted or 'accepted'}, "
              f"corrupted {rejected[:1] or 'accepted'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
