"""Operator outputs from `_PARALLEL_MIN` elements up reuse the arrays of
dropped outputs: the same bits as a new allocation, and never memory that a
live object can still reach."""

import multiprocessing
import sys
import threading
import weakref

import numpy as np
import pytest
from reference import apply_two_pass
from test_fast_paths import traced_peak_bytes

from optamp import (
    SearchProblem,
    SignChoice,
    StateFormatError,
    StateVector,
    amplify_optimal,
    apply,
    diffusion_apply,
    flip_operator_apply,
    grover_apply,
    make_spec,
    relabel_apply,
)
from optamp import state
from optamp.state import _PARALLEL_MIN, _RING_SIZE

N = _PARALLEL_MIN + 3

JOIN_TIMEOUT_S = 60

OPERATORS = {
    "apply": lambda v: apply(make_spec(v.n, 0.7, SignChoice.grover()), v),
    "grover_apply": grover_apply,
    "flip_operator_apply": flip_operator_apply,
    "diffusion_apply": diffusion_apply,
    "relabel_apply": lambda v: relabel_apply(SearchProblem(v.n, v.n // 3), v),
}


@pytest.fixture(autouse=True)
def empty_ring():
    state._new_ring()
    yield
    state._new_ring()


def random_vector(n: int, seed: int = 0) -> StateVector:
    raw = np.random.default_rng(seed).standard_normal(n)
    return StateVector(n, raw / np.linalg.norm(raw))


def ring_ids() -> list[int]:
    return [id(arr) for arr in state._ring]


def fill_ring(n: int) -> list[int]:
    """Two dropped outputs of length ``n`` left in the ring, holding values
    unlike any output the tests compare; returns their ids."""
    junk = StateVector.unnormalized(n, np.full(n, 7.0))
    first = flip_operator_apply(junk)
    second = flip_operator_apply(junk)
    del first, second
    return ring_ids()


def test_dropped_outputs_are_reused_by_the_next_two():
    ids = fill_ring(N)
    assert len(ids) == 2
    vec = random_vector(N)
    spec = make_spec(N, 0.7, SignChoice.grover())
    amplified = amplify_optimal(vec)[0]
    image = apply(spec, amplified)
    assert sorted([id(amplified.amplitudes), id(image.amplitudes)]) == sorted(ids)
    assert not np.shares_memory(amplified.amplitudes, image.amplitudes)


HOLDERS = {
    "StateVector": lambda out: out,
    "amplitudes": lambda out: out.amplitudes,
    "slice view": lambda out: out.amplitudes[1:],
    "memoryview": lambda out: memoryview(out.amplitudes),
}


@pytest.mark.parametrize("holder", HOLDERS)
def test_held_outputs_are_not_reused(holder):
    vec = random_vector(N)
    spec = make_spec(N, 0.7, SignChoice.all_plus())
    out = apply(spec, vec)
    held = HOLDERS[holder](out)
    saved = out.amplitudes.tobytes()
    del out
    later = [apply(spec, vec) for _ in range(2 * _RING_SIZE)]
    arr = held.amplitudes if isinstance(held, StateVector) else np.asarray(held)
    for other in later:
        assert not np.shares_memory(other.amplitudes, arr)
    whole = arr if holder != "slice view" else arr.base
    assert whole.tobytes() == saved


def test_weakly_referenced_outputs_are_not_reused():
    vec = random_vector(N)
    spec = make_spec(N, 0.7, SignChoice.all_plus())
    out = apply(spec, vec)
    ref = weakref.ref(out.amplitudes)
    saved = out.amplitudes.tobytes()
    del out
    # One newer output: two would push the weakly held array out of the ring.
    later = apply(spec, vec)
    assert later.amplitudes is not ref()
    assert ref().tobytes() == saved


def test_nothing_is_recycled_below_the_threshold():
    n = _PARALLEL_MIN - 1
    vec = random_vector(n)
    for name, op in OPERATORS.items():
        op(vec)
        assert state._ring == [], name
    assert state._fresh(n) is not state._fresh(n)
    assert state._ring == []


def test_ring_holds_at_most_two_arrays():
    vec = random_vector(N)
    kept = [grover_apply(vec) for _ in range(5)]
    assert len(state._ring) == _RING_SIZE == 2
    assert ring_ids() == [id(out.amplitudes) for out in kept[-2:]]
    kept.clear()
    assert len(state._ring) == 2


def inputs_with_signed_zeros(n: int) -> list[StateVector]:
    """A random vector with a -0.0 slot, and one on which the Grover-sign
    member writes -0.0: sum(a[1:]) = 0 and a[k] = -c(a), so eps2 = -1 negates
    a zero."""
    raw = random_vector(n).amplitudes.copy()
    raw[n // 2] = -0.0
    c = make_spec(n, 0.7, SignChoice.grover()).gamma0 * 0.6
    cancel = np.zeros(n)
    cancel[0], cancel[1], cancel[n - 2] = 0.6, c, -c
    return [StateVector.unnormalized(n, raw), StateVector.unnormalized(n, cancel)]


@pytest.mark.parametrize("name", OPERATORS)
def test_reused_and_fresh_outputs_have_the_same_bytes(name):
    op = OPERATORS[name]
    for vec in inputs_with_signed_zeros(N):
        state._new_ring()
        fresh = op(vec).amplitudes.tobytes()
        ids = fill_ring(N)
        out = op(vec)
        assert id(out.amplitudes) in ids
        assert out.amplitudes.tobytes() == fresh
    zero_slot = np.frombuffer(fresh, dtype=np.float64)[N - 2]
    if name == "apply":
        assert zero_slot == 0.0 and np.signbit(zero_slot)


def test_ring_serves_correct_outputs_after_a_refused_output():
    # The last slot of the image overflows, so apply refuses it after writing
    # it; the second refusal writes over the first one's array.
    raw = np.zeros(N)
    raw[0], raw[-1] = 1.7e308, 1.797e308
    overflowing = StateVector.unnormalized(N, raw)
    refused = []
    for _ in range(_RING_SIZE):
        try:
            apply(make_spec(N, np.pi / 2, SignChoice.all_plus()), overflowing)
        except StateFormatError:
            refused += ring_ids()
        else:
            pytest.fail("apply returned an output with an infinite entry")
    vec = random_vector(N)
    for signs in (SignChoice.all_plus(), SignChoice.grover()):
        spec = make_spec(N, 0.7, signs)
        out = apply(spec, vec)
        assert id(out.amplitudes) in refused
        assert out.amplitudes.tobytes() == apply_two_pass(spec, vec.amplitudes).tobytes()
        assert np.array(out._reduced).tobytes() == np.array(
            StateVector.unnormalized(N, out.amplitudes.copy())._reduced
        ).tobytes()
        del out


def test_concurrent_callers_get_identical_bytes():
    spec = make_spec(N, 0.7, SignChoice.grover())
    member = make_spec(N, 1.1, SignChoice.all_plus())
    vecs = [random_vector(N, seed) for seed in range(4)]
    wants = []
    for vec in vecs:
        image = StateVector.unnormalized(N, apply_two_pass(spec, vec.amplitudes))
        wants.append(
            (image.amplitudes.tobytes(), apply_two_pass(member, image.amplitudes).tobytes())
        )
    results: list[list[bool]] = [[] for _ in vecs]

    def call(k: int) -> None:
        for _ in range(3):
            first = apply(spec, vecs[k])
            second = apply(member, first)
            results[k].append(
                (first.amplitudes.tobytes(), second.amplitudes.tobytes()) == wants[k]
            )

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(vecs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[True] * 3 for _ in vecs]
    assert len(state._ring) <= _RING_SIZE


def test_chained_apply_after_a_drop_allocates_almost_nothing():
    n = _PARALLEL_MIN
    vec = random_vector(n)
    spec = make_spec(n, 0.7, SignChoice.grover())
    apply(spec, amplify_optimal(vec)[0])
    peak = traced_peak_bytes(lambda: apply(spec, amplify_optimal(vec)[0]))
    assert peak < 0.01 * vec.amplitudes.nbytes, peak / vec.amplitudes.nbytes


def test_free_threaded_build_always_allocates(monkeypatch):
    monkeypatch.setattr(sys, "_is_gil_enabled", lambda: False, raising=False)
    vec = random_vector(N)
    for op in OPERATORS.values():
        op(vec)
        op(vec)
    assert state._ring == []


def _apply_in_child(spec, vec, want, queue):
    emptied = state._ring == []
    queue.put((emptied, apply(spec, vec).amplitudes.tobytes() == want))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
@pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
def test_forked_child_gets_a_new_lock_and_an_empty_ring():
    # The parent holds the ring's lock while it forks, as a thread inside
    # _fresh would; the child can allocate only with a lock of its own.
    vec = random_vector(N)
    spec = make_spec(N, 0.7, SignChoice.grover())
    kept = [apply(spec, vec) for _ in range(_RING_SIZE)]
    assert len(state._ring) == _RING_SIZE
    want = kept[0].amplitudes.tobytes()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_apply_in_child, args=(spec, vec, want, queue))
    with state._ring_lock:
        child.start()
    try:
        emptied, same = queue.get(timeout=JOIN_TIMEOUT_S)
        child.join(JOIN_TIMEOUT_S)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert emptied and same and child.exitcode == 0
