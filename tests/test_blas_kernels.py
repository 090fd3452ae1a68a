"""The arrays behind every number the CLI reports give the same bits under
every BLAS kernel and SIMD dispatch, and so does the stdout of every golden
argv: branch_stack, the polar corrections, the Grams, swap_stack, the
sweep's column text, the Haar inputs and evaluate_inputs.

numpy's bundled OpenBLAS picks its kernel from the CPU at run time
(OPENBLAS_CORETYPE overrides the pick), and numpy's own loops dispatch on
the CPU's SIMD features (NPY_DISABLE_CPU_FEATURES turns some off). One
child interpreter per setting prints one hash per part: the probabilities
and faithful flags of branch_stack over complex log-uniform tuples, the
corrections of their matrices, qcore.gram of those matrices and of
Gaussian and rank-one matrices at log-uniform scales, every field of
swap_stack over log-uniform tuples and two-outcome choices, cli._column
of float64 columns at 6, 12 and 17 digits (exact decimal
ties, their neighbours and negative values among them), haar_inputs, the
probabilities and fidelities that evaluate_inputs gives for Haar inputs at
every tuple, and the stdout of every teleport, swap, classify and sweep
argv of the golden digests. Every setting must print the same lines. The
column text comes from exactly rounded elementwise operations only, so no
dispatch may change it.
The kernels and features named are x86-64 ones. Library results that no
command reports (qcore.fidelity, entropy, schmidt and measure.project_all)
use numpy's BLAS and LAPACK routines, and their bits may differ by kernel.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import GOLDEN, SWEEP_GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"

# The tuples come from math and cmath one element at a time: np.exp
# itself changes bits with the SIMD dispatch.
_CHILD = """
import cmath, contextlib, hashlib, io, json, math, random, sys
import numpy as np
from teleportrix import cli, qcore, swap, teleport
def line(name, digest):
    print(name, digest.hexdigest())
rnd = random.Random(61)
def decoded(matrix):
    # the text of each row of a character matrix: its bytes less the zeros
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]
def draw():
    return cmath.rect(10.0 ** rnd.uniform(-3.0, 3.0), rnd.uniform(0.0, 2.0 * math.pi))
tuples = [(draw(), draw(), draw()) for _ in range(2000)]
# every other tuple has l = n, so PhiMinus is faithful there
tuples = [(n, n if i % 2 else l, p) for i, (n, l, p) in enumerate(tuples)]
stack = teleport.branch_stack(*zip(*tuples))
digest = hashlib.sha256(np.ascontiguousarray(stack.probabilities).tobytes())
digest.update(np.ascontiguousarray(stack.faithful).tobytes())
digest.update(teleport._corrections(stack.matrices).tobytes())
line("branch_stack", digest)
# Gaussian and rank-one matrices at log-uniform scales, products formed by Python
def gauss():
    return complex(rnd.gauss(0.0, 1.0), rnd.gauss(0.0, 1.0))
mats = []
for i in range(1000):
    x, y, z, w = gauss(), gauss(), gauss(), gauss()
    scale = 10.0 ** rnd.uniform(-150.0, 150.0)
    mats.append([[x * z * scale, x * w * scale], [y * z * scale, y * w * scale]] if i % 4 == 0 else
                [[x * scale, y * scale], [z * scale, w * scale]])
mats = np.concatenate([np.array(mats), stack.matrices.reshape(-1, 2, 2)])
diagonal, off = qcore.gram(mats)
line("gram", hashlib.sha256(np.ascontiguousarray(diagonal).tobytes() + off.tobytes()))
# six log-uniform parameters, or a two-outcome choice for every other tuple
swaps = [[draw() for _ in range(6)] for _ in range(2000)]
swaps = [list(vars(swap.two_outcome_choice(m, n)).values()) if i % 2 else [m, n, *rest]
         for i, (m, n, *rest) in enumerate(swaps)]
result = swap.swap_stack(*zip(*swaps))
line("swap_stack", hashlib.sha256(b"".join(np.ascontiguousarray(getattr(result, f)).tobytes()
                                          for f in ("probabilities", "states", "reliable", "targets", "entropies"))))
digest = hashlib.sha256()
for digits in (6, 12, 17):
    column = [10.0 ** rnd.uniform(-3.0, 15 - digits - 0.01) for _ in range(2000)]
    # multiples of 2^-(digits + 1): exact ties at `digits` places where odd
    ties = [math.ldexp(math.trunc(math.ldexp(x, digits + 1)), -(digits + 1)) for x in column[:500]]
    column += ties + [math.nextafter(t, 0.0) for t in ties] + [math.nextafter(t, math.inf) for t in ties]
    column = np.array([v if i % 3 else -v for i, v in enumerate(column)])
    cells = decoded(cli._column(column, digits, False))
    # the fixed-point kernel gave them, and they are repr(round(v, digits))
    text, outside = cli._fixed_point(column, digits)
    assert not outside.any()
    assert decoded(text) == cells == [repr(round(v, digits)) for v in column.tolist()]
    digest.update(",".join(cells).encode())
line("columns", digest)
inputs = teleport.haar_inputs(1000, np.random.default_rng(62))
line("haar_inputs", hashlib.sha256(inputs.tobytes()))
digest = hashlib.sha256()
for n, l, p in tuples:
    batch = teleport.evaluate_inputs(teleport.protocol_branches(teleport.ProtocolParams(n, l, p)), inputs[:16])
    digest.update(batch.probabilities.tobytes())
    digest.update(batch.fidelities.tobytes())
line("evaluate_inputs", digest)
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    line(" ".join(argv), hashlib.sha256(out.getvalue().encode()))
"""


def _has_avx512() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


def _settings() -> list:
    cores = ["Prescott", "Sandybridge", "Haswell"] + (["SkylakeX"] if _has_avx512() else [])
    settings = [{"OPENBLAS_CORETYPE": core} for core in cores]
    return settings + [{"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types and the disabled SIMD features name x86-64 kernels")
def test_branch_stack_bits_do_not_depend_on_the_kernel():
    unset = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "TELEPORTRIX_SEED")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    argvs = json.dumps([argv for argv, _ in GOLDEN + SWEEP_GOLDEN])
    outputs = {}
    for setting in _settings():
        proc = subprocess.run([sys.executable, "-c", _CHILD, argvs], env=dict(base, PYTHONPATH=str(SRC), **setting),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for part, digest in (line.rsplit(" ", 1) for line in proc.stdout.splitlines()):
            outputs.setdefault(part, {})[str(setting)] = digest
    # one hash per part, so a failure names the parts that differ and where
    differing = {part: digests for part, digests in outputs.items() if len(set(digests.values())) > 1}
    assert not differing, differing
