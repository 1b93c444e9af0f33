"""The O(n) passes that run on two threads from `_PARALLEL_MIN` elements up:
the same bits as one pass on either side of the split, no warning from the
worker, safe under concurrent callers and after a fork.  The text writer's
first call, from four threads at once, writes what one thread writes."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from reference import apply_two_pass, random_unit, src_env

from optamp import (
    SignChoice,
    StateFormatError,
    StateVector,
    amplify_optimal,
    apply,
    c_functional,
    eta_functional,
    grover_iterate,
    make_spec,
    optimal_theta,
    theta_sweep,
)
from optamp.state import _LEAF, _PARALLEL_MIN, _sum_by_halves, _sum_of_squares, _tree

# One sign pattern for each of the four (s0, eps2) operator classes.
CLASSES = [SignChoice(e1, e2, 1, 1, 1) for e1 in (1, -1) for e2 in (1, -1)]

# Both sides of the split edge, and a prime above 2**21.
EDGE_SIZES = (_PARALLEL_MIN - 1, _PARALLEL_MIN, _PARALLEL_MIN + 1, _PARALLEL_MIN + 7, 2097169)

JOIN_TIMEOUT_S = 60


def test_split_rule():
    calls = []
    here = threading.get_ident()

    def record(lo, hi):
        calls.append((lo, hi, threading.get_ident()))
        return hi - lo

    assert _sum_by_halves(_PARALLEL_MIN - 1, record) == _PARALLEL_MIN - 1
    assert calls == [(0, _PARALLEL_MIN - 1, here)]
    calls.clear()
    m = _PARALLEL_MIN + 21
    assert _sum_by_halves(m, record) == m
    h = m // 2 - (m // 2) % 8
    first, second = sorted(calls)
    assert first == (0, h, here)
    assert second[:2] == (h, m) and second[2] != here


def test_worker_exception_reaches_the_caller():
    def fail_in_second_half(lo, hi):
        if lo > 0:
            raise ZeroDivisionError(lo)
        return hi

    with pytest.raises(ZeroDivisionError):
        _sum_by_halves(_PARALLEL_MIN, fail_in_second_half)


def test_first_half_exception_leaves_after_the_worker():
    # The worker is still busy when the first half raises; joining it first
    # leaves no thread behind.
    def fail_in_first_half(lo, hi):
        if lo == 0:
            raise ZeroDivisionError(hi)
        time.sleep(0.2)
        return hi

    before = set(threading.enumerate())
    with pytest.raises(ZeroDivisionError):
        _sum_by_halves(_PARALLEL_MIN, fail_in_first_half)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_split_passes_are_bit_identical(n):
    vec = random_unit(np.random.default_rng(n), n)
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
    vec = random_unit(np.random.default_rng(n), n)
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
    vec = random_unit(np.random.default_rng(n), n)
    spec = make_spec(n, 0.7, SignChoice.grover())
    want = apply(spec, vec).amplitudes.tobytes()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(
        target=_apply_in_child, args=(spec, random_unit(np.random.default_rng(n), n), want, queue)
    )
    child.start()
    try:
        same = queue.get(timeout=JOIN_TIMEOUT_S)
        child.join(JOIN_TIMEOUT_S)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert same and child.exitcode == 0


TREE_SIZES = (1, 7, 8, 9, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 8, *EDGE_SIZES, 3 * 2**20 + 5)


@pytest.mark.parametrize("m", TREE_SIZES)
def test_tree_sum_is_np_sum(m):
    raw = np.random.default_rng(m).standard_normal(m + 1)
    for x in (raw[:m], raw[1:], np.full(m, -0.0)):
        want = np.sum(x).tobytes()
        assert np.float64(_tree(0, m, lambda lo, hi: np.sum(x[lo:hi]))).tobytes() == want
        got = _sum_by_halves(m, lambda lo, hi: _tree(lo, hi, lambda a, b: np.sum(x[a:b])))
        assert np.float64(got).tobytes() == want
        assert np.float64(_sum_of_squares(x)).tobytes() == np.sum(x * x).tobytes()
    assert _sum_of_squares(np.full(m, 1e200)) == np.inf  # no warning either


@pytest.mark.parametrize("n", (2, 3, 64, *EDGE_SIZES))
def test_apply_output_carries_its_reduced_pair(n):
    vec = random_unit(np.random.default_rng(n), n)
    for signs in CLASSES:
        out = apply(make_spec(n, 0.7, signs), vec)
        assert "_reduced" in out.__dict__
        want = StateVector.unnormalized(n, out.amplitudes.copy())._reduced
        assert np.array(out._reduced).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", (64, _PARALLEL_MIN + 3))
def test_apply_to_an_amplified_vector_matches_two_passes(n):
    # The amplified vector's pair comes from apply, not from a sum of it.
    amplified = amplify_optimal(random_unit(np.random.default_rng(n), n))[0]
    member = make_spec(n, 1.1, SignChoice.grover())
    fresh = StateVector.unnormalized(n, amplified.amplitudes.copy())
    want = apply_two_pass(member, fresh.amplitudes).tobytes()
    assert apply(member, amplified).amplitudes.tobytes() == want


def test_finite_output_with_overflowing_tail_sum_is_refused_lazily():
    # Every entry of the output is finite, but its tail sum 4 * 5e307 is not:
    # the output is built and checked by its sum of squares, and its pair is
    # refused when read.
    vec = StateVector.unnormalized(5, [1e308, 0, 0, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply(make_spec(5, np.pi / 2, SignChoice.all_plus()), vec)
        assert "_reduced" not in out.__dict__
        assert np.isfinite(out.amplitudes).all()
        with pytest.raises(StateFormatError):
            out._reduced


@pytest.mark.parametrize("n", (9, _PARALLEL_MIN + 3))
def test_tail_sum_of_opposite_overflows_is_refused_without_warnings(n):
    # The pairwise sum reaches +inf on one side and -inf on the other, and
    # adds them to NaN.
    raw = np.zeros(n)
    raw[1] = raw[2] = 1e308
    raw[-1] = raw[-2] = -1e308
    vec = StateVector.unnormalized(n, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateFormatError):
            vec._reduced


# Prints verify's JSON for a few seeds and isometry residuals at a
# two-thread size, pinned to one CPU when argv[1] is "one".  The pin comes
# before numpy is imported, since OpenBLAS fixes its thread count at load.
_CPU_PROBE = """
import json, os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from optamp import SignChoice, isometry_residual, make_spec
from optamp.verify import random_unit_vector, run_verification
for seed in range(4):
    print(json.dumps(run_verification(seed, 2**17)))
n = 2**20 + 3
vec = random_unit_vector(np.random.default_rng(n), n)
for signs in SignChoice.enumerate()[:4]:
    print(repr(isometry_residual(make_spec(n, 1.0, signs), vec)))
"""


def pinned_and_unpinned(probe: str) -> tuple[str, str]:
    """The stdout of ``probe`` run in a child pinned to one CPU, and in one
    on every CPU this process may use."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("the process cannot be pinned to one CPU")
    one, every = (
        subprocess.run(
            [sys.executable, "-c", probe, side],
            capture_output=True,
            text=True,
            env=src_env(),
            check=True,
        ).stdout
        for side in ("one", "every")
    )
    return one, every


def on_one_and_every_cpu(probe: str) -> tuple[str, str]:
    """:func:`pinned_and_unpinned`, where the process may run on two CPUs."""
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the process may run on one CPU only")
    return pinned_and_unpinned(probe)


# Prints the CPUs the child may run on, the threads a split pass ran on, and
# a digest of an `apply` output at a two-thread size, pinned to one CPU when
# argv[1] is "one".
_SPLIT_PROBE = """
import hashlib, os, sys, threading
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from optamp import SignChoice, apply, make_spec
from optamp.state import _PARALLEL_MIN, _sum_by_halves
from optamp.verify import random_unit_vector
idents = set()
def record(lo, hi):
    idents.add(threading.get_ident())
    return hi - lo
_sum_by_halves(_PARALLEL_MIN + 21, record)
n = _PARALLEL_MIN + 3
vec = random_unit_vector(np.random.default_rng(n), n)
out = apply(make_spec(n, 0.7, SignChoice.grover()), vec).amplitudes
print(len(os.sched_getaffinity(0)), len(idents), hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_one_cpu_splits_as_every_cpu_does():
    one, every = pinned_and_unpinned(_SPLIT_PROBE)
    cpus, threads, digest = one.split()
    assert (cpus, threads) == ("1", "2")
    assert digest == every.split()[2]


def test_verify_bytes_do_not_depend_on_the_cpu_count():
    # np.linalg.norm and a @ a are OpenBLAS dot products, which a long
    # vector splits by the thread count; either one in verify changes bytes.
    one, every = on_one_and_every_cpu(_CPU_PROBE)
    assert one.count("\n") == 8
    assert one == every


# Prints StateVector.norm of seeded vectors, pinned to one CPU when argv[1]
# is "one", at sizes where an OpenBLAS dot product differed by CPU count.
_NORM_PROBE = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from optamp import StateVector
for n in (20000, 100003, 2000000):
    for seed in range(20):
        raw = np.random.default_rng([n, seed]).standard_normal(n)
        print(repr(StateVector.unnormalized(n, raw).norm()))
"""


def test_norm_does_not_depend_on_the_cpu_count():
    one, every = on_one_and_every_cpu(_NORM_PROBE)
    assert one.count("\n") == 60
    assert one == every


@pytest.mark.parametrize("n", (7, _LEAF + 1, _PARALLEL_MIN + 3, 3 * 2**20 + 5))
def test_norm_is_the_root_of_np_sum_of_squares(n):
    raw = np.random.default_rng(n).standard_normal(n)
    want = np.float64(np.sqrt(np.sum(raw * raw)))
    assert np.float64(StateVector.unnormalized(n, raw).norm()).tobytes() == want.tobytes()


# Prints the sha256 digest of four documents: a 2**18 state, a sweep, a
# 726-row trace and a 4096-row table spanning 1e-279..1e279 with a NaN, an
# infinity and other special values, which is written value by value.  They
# are the process's first text writes, and so its first use of orjson, from
# four threads at once, switching every microsecond, when argv[1] is
# "threads", else one after another.
_WRITE_PROBE = """
import hashlib, math, sys, threading
import numpy as np
from optamp import StateVector, dumps_state_vector, dumps_sweep_csv, dumps_trace_csv
from optamp import grover_iterate, theta_sweep
from optamp.verify import random_unit_vector
rng = np.random.default_rng(28)
state = random_unit_vector(rng, 2**18)
sweep = theta_sweep(state)
trace = grover_iterate(StateVector.uniform(2**17))
wide = rng.uniform(1.0, 10.0, 3 * 4096) * 10.0 ** rng.integers(-279, 280, 3 * 4096)
wide *= rng.choice([-1.0, 1.0], len(wide))
special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, -1e300]
special += [1 + 2**-17, 2.0**-25, 1e100, 123.25]
wide[::64] = np.resize(special, len(wide[::64]))
writes = {
    "state": lambda: dumps_state_vector(state),
    "sweep": lambda: dumps_sweep_csv(sweep),
    "trace": lambda: dumps_trace_csv(trace),
    "wide": lambda: dumps_trace_csv(wide.reshape(-1, 3)),
}
assert len(trace) == 726 and "orjson" not in sys.modules
texts = {}
if sys.argv[1] == "threads":
    sys.setswitchinterval(1e-6)
    start = threading.Barrier(len(writes))
    def write(name):
        start.wait()
        texts[name] = writes[name]()
    threads = [threading.Thread(target=write, args=(name,)) for name in writes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
else:
    texts = {name: write() for name, write in writes.items()}
for name in writes:
    print(name, hashlib.sha256(texts[name].encode()).hexdigest())
"""


def test_first_text_writes_from_four_threads_match_one_thread():
    threads, one = (
        subprocess.run(
            [sys.executable, "-c", _WRITE_PROBE, side],
            capture_output=True,
            text=True,
            env=src_env(),
            check=True,
            timeout=2 * JOIN_TIMEOUT_S,
        ).stdout
        for side in ("threads", "one")
    )
    assert one.count("\n") == 4
    assert threads == one
