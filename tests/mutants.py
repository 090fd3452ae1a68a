"""Mutation table: each row breaks src/ on purpose, and the tests it names must then fail.

    python tests/mutants.py

For each row the script copies src/ to a temporary directory, replaces
the row's old text with its new text, runs the row's tests against the
copy with pytest, and prints one Markdown table row: killed when a named
test fails, survived when they all pass, error when pytest could not run
them, with the run time in seconds. It exits 1 unless every row is
killed. It needs the standard library and pytest only.

tests/test_mutants.py checks in tier-1 that each row's old text occurs
exactly once in src/, so a change that moves the code updates the table.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teleportrix"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/teleportrix
    old: str  # exact text, once in src/
    new: str
    why: str
    tests: tuple  # pytest node IDs, relative to the repository root


_DOCUMENTED = ("tests/test_stack.py::test_each_choice_has_the_documented_l_and_p",)
_ENTRY = "tests/test_entry_errors.py::test_wrong_kind_of_data_raises_the_named_error_without_a_warning"

MUTANTS = (
    Mutant("PhiPlus phase", "teleport.py",
           '"PhiPlus": (0, lambda n: 1 / n.conjugate(), True)', '"PhiPlus": (0, lambda n: 1 / n, True)',
           "l = 1/n keeps |l| = 1/|n|, so only the phase of l shows", _DOCUMENTED),
    Mutant("PhiMinus phase", "teleport.py",
           '"PhiMinus": (0, lambda n: n, False)', '"PhiMinus": (0, lambda n: n.conjugate(), False)',
           "l = n* keeps |l| = |n|, so only the phase of l shows", _DOCUMENTED),
    Mutant("PsiPlus phase", "teleport.py",
           '"PsiPlus": (1, lambda n: n.conjugate(), False)', '"PsiPlus": (1, lambda n: n, False)',
           "p = n keeps |p| = |n|, so only the phase of p shows", _DOCUMENTED),
    Mutant("PsiMinus phase", "teleport.py",
           '"PsiMinus": (1, lambda n: 1 / n, True)', '"PsiMinus": (1, lambda n: 1 / n.conjugate(), True)',
           "p = 1/n* keeps |p| = 1/|n|, so only the phase of p shows", _DOCUMENTED),
    Mutant("PsiMinus does not divide", "teleport.py",
           '"PsiMinus": (1, lambda n: 1 / n, True)', '"PsiMinus": (1, lambda n: 1 / n, False)',
           "a dividing rule treated as non-dividing loses the zero-n check",
           (f"{_ENTRY}[two_faithful_stack n = 0]",)),
    Mutant("1/n refused first", "teleport.py",
           '(values[0], "the generic value 2 max(|n|, 1/|n|) + 1") if free else (inverse, "1/n")',
           '(inverse, "1/n") if divides else (values[0], "the generic value 2 max(|n|, 1/|n|) + 1")',
           "a one-faithful choice that divides by n must name its generic value, the larger of the two",
           ("tests/test_stack.py::TestOverflowHelper::test_one_faithful_message_names_the_generic_value",
            "tests/test_stack.py::TestOverflowHelper::test_choices_refuse_where_1_over_n_reaches_the_bound")),
    Mutant("faithfulness flipped", "teleport.py",
           "return positive & (deviation <= TOL_EQ)", "return positive & (deviation > TOL_EQ)",
           "every faithful branch of a positive Gram reads unfaithful, and every unfaithful one faithful",
           ("tests/test_teleport.py::TestClassify::test_all_two_faithful_choices",)),
    Mutant("reliability flipped", "swap.py",
           "(np.minimum(plus, minus) <= TOL_EQ * best)", "(np.minimum(plus, minus) > TOL_EQ * best)",
           "every reliable swap outcome reads unreliable, and every unreliable one reliable",
           ("tests/test_swap.py::TestSwapRun::test_tutorial_choice_two_reliable",)),
    Mutant("completeness flipped", "teleport.py",
           "if not deviation < TOL_NORM:", "if deviation < TOL_NORM:",
           "complete branch stacks raise CompletenessError and incomplete ones pass",
           ("tests/test_stack.py::TestBranchStack::test_completeness_is_checked_per_tuple",)),
)


def run(mutant: Mutant) -> tuple:
    """("killed" | "survived" | "error", seconds) of the row's tests against a mutated copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "teleportrix" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "error", 0.0
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import teleportrix; print(teleportrix.__file__)"],
                               env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(src)):  # an installed copy would shadow the mutant
            return "error", 0.0
        start = time.perf_counter()
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=ROOT, env=env, capture_output=True).returncode
        seconds = time.perf_counter() - start
    return {0: "survived", 1: "killed"}.get(code, "error"), seconds


def main() -> int:
    print("| mutant | file | result | seconds |\n|---|---|---|---:|")
    results = []
    for mutant in MUTANTS:
        result, seconds = run(mutant)
        results.append(result)
        print(f"| {mutant.name} | {mutant.file} | {result} | {seconds:.1f} |", flush=True)
    return 0 if all(result == "killed" for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
