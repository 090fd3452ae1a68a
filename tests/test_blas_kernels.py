"""branch_stack, the polar corrections and the sweep's column text give the
same bits under every BLAS kernel and SIMD dispatch.

numpy's bundled OpenBLAS picks its kernel from the CPU at run time
(OPENBLAS_CORETYPE overrides the pick), and numpy's own loops dispatch on
the CPU's SIMD features (NPY_DISABLE_CPU_FEATURES turns some off). One
child interpreter per setting hashes the probabilities and faithful flags
of branch_stack over complex log-uniform tuples, the corrections of their
matrices, and cli._column of float64 columns at 6, 12 and 17 digits
(exact decimal ties, their neighbours and negative values among them);
every hash must be equal. The column text comes from exactly rounded
elementwise operations only, so no dispatch may change it.
The kernels and features named are x86-64 ones.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The tuples come from math and cmath one element at a time: np.exp
# itself changes bits with the SIMD dispatch.
_CHILD = """
import cmath, hashlib, math, random
import numpy as np
from teleportrix import cli, teleport
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
print(digest.hexdigest())
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
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    hashes = {}
    for setting in _settings():
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=dict(base, PYTHONPATH=str(SRC), **setting),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes[str(setting)] = proc.stdout.strip()
    assert len(set(hashes.values())) == 1, hashes
