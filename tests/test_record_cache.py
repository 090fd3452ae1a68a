"""A SwapParams record builds swap_stack's batch of one once, on first read, for swap_run to
return and classify_swap to count. The tests count the swap_stack calls, compare every read with
a direct swap_stack call bit for bit, check that the shared amplitudes are read-only, and check
that an analysis that raises is not kept."""

import cmath
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportrix import cli, swap
from teleportrix.errors import NonFinite
from teleportrix.swap import SwapParams, classify_swap, phase_matched_choice, swap_run, two_outcome_choice

SWAP_ARGV = ["swap", "--m", "0.5", "--n", "1.6", "--l", "0.625", "--p", "2", "--l-prime", "0.625", "--p-prime", "0.5"]


def _counted(monkeypatch):
    calls, original = [], swap.swap_stack
    monkeypatch.setattr(swap, "swap_stack", lambda *args: calls.append(1) or original(*args))
    return calls


# --- one analysis per record -------------------------------------------------

def test_swap_run_and_classify_swap_share_one_swap_stack(monkeypatch):
    calls = _counted(monkeypatch)
    q = two_outcome_choice(0.5, 1.6)
    first = swap_run(q)
    report = classify_swap(q)
    assert swap_run(q) is first and len(calls) == 1
    assert report.reliable_outcomes == tuple(o.label for o in first if o.reliable)


def test_classify_swap_first_builds_what_swap_run_returns(monkeypatch):
    calls = _counted(monkeypatch)
    q = two_outcome_choice(0.5, 1.6)
    assert classify_swap(q) == classify_swap(q) and len(calls) == 1
    assert swap_run(q) is swap_run(q) and len(calls) == 1


def test_cli_swap_builds_one_swap_stack(monkeypatch, capsys):
    calls = _counted(monkeypatch)
    assert cli.main(SWAP_ARGV) == 0
    assert '"command": "swap"' in capsys.readouterr().out and len(calls) == 1


def test_equal_records_each_build_their_own_analysis(monkeypatch):
    calls = _counted(monkeypatch)
    s1, s2 = SwapParams(1, 1, 1, 1, 1, 1), SwapParams(1, 1, 1, 1, 1, 1)
    assert s1 == s2 and hash(s1) == hash(s2)
    assert classify_swap(s1) == classify_swap(s2) and swap_run(s1) is not swap_run(s2)
    assert len(calls) == 2


# --- the same bits as a direct swap_stack call ---------------------------------

def _swap_bits(outcomes):
    return [(o.label, o.probability.hex(), None if o.b2_amps is None else o.b2_amps.tobytes(), o.reliable,
             o.target, None if o.b2_entropy is None else o.b2_entropy.hex()) for o in outcomes]


def assert_outcomes_are_a_direct_stack(q):
    first = _swap_bits(swap_run(q))
    report = classify_swap(q)
    direct = swap.swap_stack([q.m], [q.n], [q.ell], [q.p], [q.ell_prime], [q.p_prime]).outcomes(0)
    assert first == _swap_bits(swap_run(q)) == _swap_bits(direct)
    reliable = [o for o in direct if o.reliable]
    assert report.reliable_outcomes == tuple(o.label for o in reliable)
    assert report.success_probability.hex() == float(sum(o.probability for o in reliable)).hex()
    assert repr(classify_swap(q)) == repr(report)


def _log_uniform(bound):
    return st.builds(lambda e, phase: cmath.rect(10.0 ** e, phase),
                     st.floats(-bound, bound), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(*[_log_uniform(150.0)] * 6), min_size=1, max_size=5))
def test_swap_outcomes_have_the_bits_of_a_direct_stack(draws):
    for values in draws:
        assert_outcomes_are_a_direct_stack(SwapParams(*values))


@pytest.mark.parametrize("q", [
    SwapParams(1, 1, 1, 1, 1, 1), SwapParams(0.5, 2, 0, 0, 0, 0), SwapParams(0, 2, 0, 0, 1, 1),
    two_outcome_choice(1e6, 1e6), two_outcome_choice(1e20, 2e20), two_outcome_choice(1e-7, 1e7),
    phase_matched_choice(1j, cmath.exp(0.3j), 0.3, 2), SwapParams(1e150, 1e-150, 1e150j, 1, 1e-150, 1e150),
], ids=repr)
def test_boundary_swap_outcomes_have_the_bits_of_a_direct_stack(q):
    assert_outcomes_are_a_direct_stack(q)


# --- read-only ----------------------------------------------------------------

def test_shared_amplitudes_are_read_only():
    # every later swap_run and classify_swap of the record reads the same outcomes: an amplitude
    # written through one caller's outcome would change what all of them return
    q = two_outcome_choice(0.5, 1.6)
    arrays = [o.b2_amps for o in swap_run(q) if o.b2_amps is not None]
    assert len(arrays) == 4
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
        assert not array.flags.writeable


# --- an analysis that raises is not kept ---------------------------------------

def _raised(read):
    with pytest.raises(Exception) as info:
        read()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("q, read", [
    (SwapParams(0.5, 1e200, 1, 1, 1, 1), swap_run),
    (SwapParams(0.5, 2, 1e200, 1, 1, 1), classify_swap),
], ids=["swap_run", "classify_swap"])
def test_an_analysis_that_raises_raises_again(q, read):
    first = _raised(lambda: read(q))
    assert first[0] is NonFinite and _raised(lambda: read(q)) == first
    assert _raised(lambda: swap_run(q)) == first and "_outcomes" not in vars(q)


# --- first reads from several threads ------------------------------------------

def test_first_reads_from_threads_give_the_bits_of_one_analysis():
    # functools.cached_property takes no lock from Python 3.12 on: threads that read a record first
    # at the same time may each build its analysis, and every build must give the same bits
    s = two_outcome_choice(0.5, 1.6)

    def read(s):
        return _swap_bits(swap_run(s)), repr(classify_swap(s))

    want, results = read(two_outcome_choice(0.5, 1.6)), []
    threads = [threading.Thread(target=lambda: results.append(read(s))) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [want] * len(threads)
