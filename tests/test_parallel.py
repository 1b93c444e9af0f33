"""The O(n) passes that run on two threads from `_PARALLEL_MIN` elements up:
the same bits as one pass on either side of the split, no warning from the
worker, safe under concurrent callers and after a fork."""

import multiprocessing
import sys
import threading
import warnings

import numpy as np
import pytest
from reference import apply_two_pass

from optamp import (
    SignChoice,
    StateFormatError,
    StateVector,
    apply,
    c_functional,
    eta_functional,
    grover_iterate,
    make_spec,
    optimal_theta,
    theta_sweep,
)
from optamp.state import _PARALLEL_MIN, _by_halves, _cpus

# One sign pattern for each of the four (s0, eps2) operator classes.
CLASSES = [SignChoice(e1, e2, 1, 1, 1) for e1 in (1, -1) for e2 in (1, -1)]

# Both sides of the split edge, and a prime above 2**21.
EDGE_SIZES = (_PARALLEL_MIN - 1, _PARALLEL_MIN, _PARALLEL_MIN + 1, _PARALLEL_MIN + 7, 2097169)

JOIN_TIMEOUT_S = 60


def random_vector(n: int) -> StateVector:
    raw = np.random.default_rng(n).standard_normal(n)
    return StateVector(n, raw / np.linalg.norm(raw))


def test_split_rule():
    calls = []

    def record(lo, hi):
        calls.append((lo, hi))
        return hi - lo

    assert _by_halves(_PARALLEL_MIN - 1, record) == (_PARALLEL_MIN - 1,)
    assert calls == [(0, _PARALLEL_MIN - 1)]
    calls.clear()
    m = _PARALLEL_MIN + 21
    parts = _by_halves(m, record)
    if _cpus() < 2:
        assert parts == (m,)
        return
    h = m // 2 - (m // 2) % 8
    assert parts == (h, m - h)
    assert sorted(calls) == [(0, h), (h, m)]


def test_worker_exception_reaches_the_caller():
    def fail_in_second_half(lo, hi):
        if lo > 0:
            raise ZeroDivisionError(lo)
        return hi

    if _cpus() < 2:
        pytest.skip("the process may run on one CPU only, so nothing splits")
    with pytest.raises(ZeroDivisionError):
        _by_halves(_PARALLEL_MIN, fail_in_second_half)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_split_passes_are_bit_identical(n):
    vec = random_vector(n)
    assert vec._reduced[1] == float(np.sum(vec.amplitudes[1:]))
    for signs in CLASSES:
        spec = make_spec(n, 0.7, signs)
        assert apply(spec, vec).amplitudes.tobytes() == apply_two_pass(spec, vec.amplitudes).tobytes()


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_signed_zero_in_the_second_half(n):
    # Slots j and k cancel, so sum(a[1:]) = 0 exactly and c = gamma0 * a[0];
    # a[k] = -c then makes a[k] + c a zero, which eps2 = -1 turns into -0.0.
    j, k = 1, n - 2
    for signs in CLASSES:
        spec = make_spec(n, 0.7, signs)
        c = spec.gamma0 * 0.6
        raw = np.zeros(n)
        raw[0], raw[j], raw[k] = 0.6, c, -c
        vec = StateVector.unnormalized(n, raw)
        assert vec._reduced == (0.6, 0.0)
        out = apply(spec, vec).amplitudes
        assert out.tobytes() == apply_two_pass(spec, vec.amplitudes).tobytes()
        assert out[k] == 0.0 and np.signbit(out[k]) == (signs.eps2 == -1)


def overflowing_vectors(n: int):
    """Finite vectors whose sum(a[1:]) overflows: the whole tail, only the
    worker's half (slots past the middle), and two halves that are each
    finite but overflow when added."""
    full = np.full(n, 1e303 if n > 3 else 1e308)
    tail_end = np.zeros(n)
    tail_end[-2:] = 1e308
    both_ends = np.zeros(n)
    both_ends[1] = both_ends[-1] = 1e308
    return [StateVector.unnormalized(n, arr) for arr in (full, tail_end, both_ends)]


REFUSERS = {
    "apply": lambda v: apply(make_spec(v.n, 0.5, SignChoice.all_plus()), v),
    "eta_functional": lambda v: eta_functional(make_spec(v.n, 0.5, SignChoice.all_plus()), v),
    "c_functional": lambda v: c_functional(make_spec(v.n, 0.5, SignChoice.all_plus()), v),
    "optimal_theta": optimal_theta,
    "theta_sweep": theta_sweep,
    "grover_iterate": lambda v: grover_iterate(v, 3),
}


@pytest.mark.parametrize("name", REFUSERS)
@pytest.mark.parametrize("n", (3, _PARALLEL_MIN + 3))
def test_overflowing_tail_sum_is_refused_without_warnings(name, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vec in overflowing_vectors(n):
            with pytest.raises(StateFormatError):
                REFUSERS[name](vec)


@pytest.mark.parametrize("n", (3, _PARALLEL_MIN + 3))
def test_overflowing_output_is_refused_without_warnings(n):
    # sum(a[1:]) is finite, but a[n-1] + c(a) is not: the last slot, on the
    # worker's half once the pass splits.
    raw = np.zeros(n)
    raw[0], raw[-1] = 1.7e308, 1.797e308
    vec = StateVector.unnormalized(n, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for signs in CLASSES:
            with pytest.raises(StateFormatError):
                apply(make_spec(n, np.pi / 2, signs), vec)


def test_concurrent_callers_get_identical_bytes():
    n = _PARALLEL_MIN + 3
    vec = random_vector(n)
    spec = make_spec(n, 0.7, SignChoice.grover())
    want = apply_two_pass(spec, vec.amplitudes).tobytes()
    results = []

    def call():
        for _ in range(3):
            results.append(apply(spec, vec).amplitudes.tobytes())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 12 and all(r == want for r in results)


def _apply_in_child(spec, vec, want, queue):
    queue.put(apply(spec, vec).amplitudes.tobytes() == want)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_forked_child_finishes_after_a_split_pass():
    n = _PARALLEL_MIN + 3
    vec = random_vector(n)
    spec = make_spec(n, 0.7, SignChoice.grover())
    want = apply(spec, vec).amplitudes.tobytes()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_apply_in_child, args=(spec, random_vector(n), want, queue))
    child.start()
    try:
        same = queue.get(timeout=JOIN_TIMEOUT_S)
        child.join(JOIN_TIMEOUT_S)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert same and child.exitcode == 0
