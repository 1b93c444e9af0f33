"""The chunked text writers and the state loader, held to the per-value
oracles in ``reference``; the CLI on arbitrary state documents."""

import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    format_float,
    reference_dumps_state_vector,
    reference_dumps_sweep_csv,
    reference_dumps_trace_csv,
    reference_loads_state_vector,
)

from optamp import (
    StateFormatError,
    StateVector,
    dumps_state_vector,
    grover_iterate,
    loads_state_vector,
    theta_sweep,
)
from optamp import state as state_module
from optamp.cli import main
from optamp.grover import dumps_trace_csv
from optamp.optimal import dumps_sweep_csv
from optamp.state import _CHUNK, _join_records

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1 / 3, 0.1, 1e17]

# Around the writers' 4096-row chunk: one short chunk, exactly one, one plus a row.
SIZES = [2, 3, 4095, 4096, 4097, 3 * 4096 + 1]


def edge_values(n: int) -> np.ndarray:
    """``SPECIAL`` (cut to n) followed by seeded standard-normal values."""
    values = np.random.default_rng(n).standard_normal(n)
    k = min(n, len(SPECIAL))
    values[:k] = SPECIAL[:k]
    return values


@pytest.mark.parametrize("n", SIZES)
def test_state_writer_matches_per_value_oracle(n):
    vec = StateVector.unnormalized(n, edge_values(n))
    assert dumps_state_vector(vec) == reference_dumps_state_vector(vec)
    unit = StateVector.uniform(n)
    assert dumps_state_vector(unit) == reference_dumps_state_vector(unit)


@pytest.mark.parametrize("n", SIZES)
def test_sweep_writer_matches_per_value_oracle(n):
    values = edge_values(n).tolist()
    rows = list(zip(values, reversed(values)))
    assert dumps_sweep_csv(rows) == reference_dumps_sweep_csv(rows)
    swept = theta_sweep(StateVector.uniform(max(n, 3)), points=n)
    assert dumps_sweep_csv(swept) == reference_dumps_sweep_csv(swept)


@pytest.mark.parametrize("n", SIZES)
def test_trace_writer_matches_per_value_oracle(n):
    values = edge_values(n).tolist()
    rows = [(step, x, y) for step, x, y in zip(range(n), values, reversed(values))]
    assert dumps_trace_csv(rows) == reference_dumps_trace_csv(rows)
    trace = grover_iterate(StateVector.uniform(1000), n - 1)
    assert dumps_trace_csv(trace) == reference_dumps_trace_csv(trace)


def test_csv_writers_on_no_rows_write_the_header():
    assert dumps_sweep_csv([]) == reference_dumps_sweep_csv([])
    assert dumps_trace_csv([]) == reference_dumps_trace_csv([])


def test_state_writer_peak_memory_is_near_its_output():
    # Counts allocations, not time.  Per-value formatting peaks at about 4.4x
    # the text; the chunked writer holds the chunks and their join, about 2x.
    n = 2**18
    raw = np.random.default_rng(0).standard_normal(n)
    vec = StateVector(n, raw / np.linalg.norm(raw))
    tracemalloc.start()
    try:
        text = dumps_state_vector(vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


amplitude_values = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.floats(allow_nan=False), max_size=2),
)


@st.composite
def state_documents(draw):
    """State JSON text, valid and not: any amplitudes, any "n", extra or missing keys."""
    amps = draw(
        st.one_of(
            st.lists(amplitude_values, max_size=6),
            st.sampled_from([[0.6, 0.8], [1, 0], [0.5, -0.5, 0.5, 0.5], [0.0, 1.0], [True, 0]]),
            amplitude_values,
        )
    )
    length = len(amps) if isinstance(amps, list) else 2
    n = draw(st.one_of(st.just(length), st.integers(-1, 8), st.booleans(), st.floats(), st.none()))
    doc = {"n": n, "amplitudes": amps}
    doc.update(draw(st.dictionaries(st.sampled_from(["extra", "n", "N"]), st.integers(), max_size=1)))
    if draw(st.booleans()) and draw(st.booleans()):
        del doc[draw(st.sampled_from(["n", "amplitudes"]))]
    text = json.dumps(doc)
    return draw(st.one_of(st.just(text), st.just(text[: len(text) // 2]), st.just(json.dumps([doc]))))


def outcome(loads, text):
    try:
        return loads(text), None
    except Exception as exc:  # the class is compared; any exception counts
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(state_documents())
def test_loader_accepts_and_rejects_as_the_per_element_scan(text):
    got, got_error = outcome(loads_state_vector, text)
    want, want_error = outcome(reference_loads_state_vector, text)
    assert got_error is want_error
    if want is not None:
        assert got.n == want.n
        assert np.array_equal(got.amplitudes, want.amplitudes)


# Each loader below parses a document of these numbers into a StateVector.
# Their squared norm is far from 1, so the norm check is switched off.
@pytest.fixture
def any_norm(monkeypatch):
    monkeypatch.setattr(state_module, "NORM_TOL", math.inf)


def assert_loads_the_same_bits(numbers):
    """The loader, fed the UTF-8 bytes or the text of a state document
    holding ``numbers`` (JSON number literals), gives the reference's bits."""
    text = f'{{"n": {len(numbers)}, "amplitudes": [{", ".join(numbers)}]}}'
    want = reference_loads_state_vector(text).amplitudes.view(np.uint64)
    for doc in (text.encode("ascii"), text):
        got = loads_state_vector(doc)
        assert got.n == len(numbers)
        assert np.array_equal(got.amplitudes.view(np.uint64), want)


def decimal_literal(value: Decimal, extra: str = "") -> str:
    """``value`` as a JSON number ``<digits>e<exponent>``, exactly, with
    ``extra`` appended to its digits (one unit in a further place)."""
    sign, digits, exponent = value.as_tuple()
    return "-" * sign + "".join(map(str, digits)) + extra + f"e{exponent - len(extra)}"


def test_loader_reads_the_writers_text_of_random_bit_patterns(any_norm):
    bits = np.random.default_rng(20261019).integers(0, 2**64, size=200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    text = dumps_state_vector(StateVector.unnormalized(len(values), values))
    for doc in (text.encode("ascii"), text):
        got = loads_state_vector(doc)
        assert np.array_equal(got.amplitudes.view(np.uint64), values.view(np.uint64))
    assert_loads_the_same_bits(text[text.index("[") + 1 : text.index("]")].split(", "))


def test_loader_reads_random_decimals_as_the_reference(any_norm):
    rng = np.random.default_rng(17)
    numbers = []
    for _ in range(20_000):
        width = int(rng.integers(1, 41))
        digits = "".join(map(str, rng.integers(0, 10, size=width)))
        digits = str(rng.integers(1, 10)) + digits[1:]
        sign = "-" if rng.integers(2) else ""
        point = f"{digits[0]}.{digits[1:]}" if width > 1 else digits
        numbers.append(f"{sign}{point}e{int(rng.integers(-345, 308))}")
    assert_loads_the_same_bits(numbers)


def test_loader_rounds_midpoints_between_doubles_as_the_reference(any_norm):
    bits = np.random.default_rng(18).integers(0, 2**63, size=3000, dtype=np.uint64)
    values = [x for x in bits.view(np.float64).tolist() if x < np.finfo(np.float64).max]
    values += [5e-324, 2.2250738585072014e-308, 1.0, 2.0**53, 0.1]
    numbers = []
    with localcontext() as ctx:
        ctx.prec = 1200  # exact: a midpoint has under 800 significant digits
        for x in values:
            mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
            for literal in (decimal_literal(mid), decimal_literal(mid, "0" * 30 + "1")):
                numbers += [literal, "-" + literal]
    assert_loads_the_same_bits(numbers)


def test_loader_reads_integers_past_two_to_the_64_as_the_reference(any_norm):
    rng = np.random.default_rng(19)
    numbers = [str(2**64), str(2**64 + 1), str(2**64 + 2**11), str(2**64 + 3 * 2**11)]
    # orjson reads integers below -2**63 as doubles and up to 2**64 - 1 as ints.
    numbers += [str(2**63), str(2**64 - 1), str(-(2**63) - 1), str(-(2**64) + 1)]
    for _ in range(5000):
        width = int(rng.integers(65, 1024))
        value = int(rng.integers(2**62, 2**63)) << (width - 63) | int(rng.integers(2**62))
        # An odd 54-bit head over zeros: exactly halfway between two doubles.
        tie = (int(rng.integers(2**52, 2**53)) * 2 + 1) << (width - 54)
        numbers += [str(value), str(-value), str(tie), str(-tie)]
    assert_loads_the_same_bits(numbers)


def run_amplify(path):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(["amplify", "--input", path])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(state_documents())
def test_amplify_on_any_state_document_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, err = run_amplify(path)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_bool_amplitude_exits_2(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"n": 2, "amplitudes": [true, 0]}', encoding="utf-8")
    with pytest.raises(StateFormatError):
        loads_state_vector(path.read_text(encoding="utf-8"))
    code, err = run_amplify(str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def written(values) -> str:
    return _join_records("\n", np.array(values, dtype=np.float64))


def wanted(values) -> str:
    return "\n".join(map(format_float, values))


def exact_tie(k: int, pick: int) -> float:
    """A double ``x`` with ``x * 10**(16 - k)`` in ``[10**16, 10**17)`` and
    ending in exactly ``.5``, so its 17-digit rounding is a tie:
    ``o * 2**(k - 17)`` with ``o`` odd, ``o < 2**53`` and ``5**(16 - k) * o``
    in ``[2 * 10**16, 2 * 10**17)``, for -8 <= k <= 15; ``pick`` chooses ``o``."""
    five = 5 ** (16 - k)
    low = -(-2 * 10**16 // five) | 1
    high = min(2 * 10**17 // five, 2**53)
    return math.ldexp(low + 2 * (pick % ((high - low) // 2)), k - 17)


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)

# One strategy for each class of values the vectorized pass sends to `%`.
fallback_values = st.one_of(
    st.builds(exact_tie, st.integers(-8, 15), st.integers(0, 2**60)),
    st.floats(min_value=-1e-280, max_value=1e-280),  # +-0, subnormals and tiny normals
    st.floats(min_value=1e280, allow_infinity=False),
    st.floats(max_value=-1e280, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(-300, 300).map(lambda j: float(f"1e{j}")),  # digits 10**16, or log10 off by one
    st.floats(min_value=10.0, max_value=1e17),  # fixed notation, '.' inside the digits
    st.floats(min_value=-1e17, max_value=-10.0),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(finite_doubles, min_size=1, max_size=40))
def test_text_of_any_finite_doubles_is_format_17g(values):
    assert written(values) == wanted(values)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(fallback_values, finite_doubles), min_size=1, max_size=40))
def test_text_of_every_fallback_class_is_format_17g(values):
    assert written(values) == wanted(values)


def test_exact_ties_round_half_to_even():
    # 1 + 2**-17 = 1.00000762939453125: the 17th digit 2 stays even.
    assert exact_tie(0, 0) == 1 + 2**-17
    assert written([1 + 2**-17]) == "1.0000076293945312"
    values = [exact_tie(k, pick) for k in range(-8, 16) for pick in range(0, 4000, 7)]
    for x in values[::97]:
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert scaled.denominator == 2 and 10**16 < scaled < 10**17
    values += [-x for x in values] + [math.nextafter(x, math.inf) for x in values]
    assert written(values) == wanted(values)


def test_powers_of_ten_and_their_neighbours():
    values = [float(f"1e{j}") for j in range(-323, 309)] + [10.0**j for j in range(-300, 300)]
    values += [math.nextafter(x, to) for x in values for to in (0.0, math.inf)]
    values += [float(j) for j in range(-1000, 1000)] + [2.0**j for j in range(-1074, 1024)]
    assert written(values) == wanted(values)


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert written(values) == wanted(values.tolist())


# Around the writers' chunk: _CHUNK values of the state, _CHUNK // 3 rows of a CSV.
CSV_CHUNK = _CHUNK // 3


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_state_writer_at_the_chunk_edge(n):
    vec = StateVector.unnormalized(n, edge_values(n))
    assert dumps_state_vector(vec) == reference_dumps_state_vector(vec)


@pytest.mark.parametrize("n", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1])
def test_csv_writers_at_the_chunk_edge(n):
    values = edge_values(n).tolist()
    rows = list(zip(values, reversed(values)))
    assert dumps_sweep_csv(rows) == reference_dumps_sweep_csv(rows)
    steps = [(step, x, y) for step, (x, y) in enumerate(rows)]
    assert dumps_trace_csv(steps) == reference_dumps_trace_csv(steps)


def test_writers_warn_about_nothing():
    values = [*edge_values(64).tolist(), 1e300, -1e-300, 1e280, 123.0, 12.5]
    rows = list(zip(values, reversed(values))) + [(math.nan, math.inf), (-math.inf, 1e200)]
    steps = [(step, x, y) for step, (x, y) in enumerate(rows)]
    vec = StateVector.unnormalized(len(values), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dumps_state_vector(vec) == reference_dumps_state_vector(vec)
        assert dumps_sweep_csv(rows) == reference_dumps_sweep_csv(rows)
        assert dumps_trace_csv(steps) == reference_dumps_trace_csv(steps)
