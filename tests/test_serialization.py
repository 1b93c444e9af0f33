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
    assert_same_text,
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
from optamp._text import _K_MAX, _K_MIN, _tables
from optamp.cli import main
from optamp.grover import dumps_trace_csv
from optamp.optimal import dumps_sweep_csv
from optamp.state import _CHUNK, _join_records

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1 / 3, 0.1, 1e17]

# Short and mid-sized inputs.  The writers cut their text every `_CHUNK` = 2**14
# values, and the chunk-edge tests below cover those boundaries.
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
    assert_same_text(dumps_state_vector(vec), reference_dumps_state_vector(vec))
    unit = StateVector.uniform(n)
    assert_same_text(dumps_state_vector(unit), reference_dumps_state_vector(unit))


@pytest.mark.parametrize("n", SIZES)
def test_sweep_writer_matches_per_value_oracle(n):
    values = edge_values(n).tolist()
    rows = list(zip(values, reversed(values)))
    assert_same_text(dumps_sweep_csv(rows), reference_dumps_sweep_csv(rows))
    swept = theta_sweep(StateVector.uniform(max(n, 3)), points=n)
    assert_same_text(dumps_sweep_csv(swept), reference_dumps_sweep_csv(swept))


@pytest.mark.parametrize("n", SIZES)
def test_trace_writer_matches_per_value_oracle(n):
    values = edge_values(n).tolist()
    rows = [(step, x, y) for step, x, y in zip(range(n), values, reversed(values))]
    assert_same_text(dumps_trace_csv(rows), reference_dumps_trace_csv(rows))
    trace = grover_iterate(StateVector.uniform(1000), n - 1)
    assert np.array_equal(trace[:, 0], np.arange(n))
    steps = [(int(step), amp, prob) for step, amp, prob in trace.tolist()]
    assert_same_text(dumps_trace_csv(trace), reference_dumps_trace_csv(steps))


def test_csv_writers_on_no_rows_write_the_header():
    assert_same_text(dumps_sweep_csv([]), reference_dumps_sweep_csv([]))
    assert_same_text(dumps_trace_csv([]), reference_dumps_trace_csv([]))


@settings(max_examples=300, deadline=None)
@given(st.text("ab\n\r\x0b"), st.text("ab\n\r\x0b"))
def test_same_text_check_is_exactly_as_strict_as_equality(got, want):
    try:
        assert_same_text(got, want)
    except AssertionError:
        assert got != want
    else:
        assert got == want


def test_same_text_check_names_the_first_differing_line():
    with pytest.raises(AssertionError, match=r"line 3, column 1:\n  got:  'x\\n'\n  want: ''"):
        assert_same_text("a\nb\nx\n", "a\nb\n")
    with pytest.raises(AssertionError, match=r"line 2, column 1:\n  got:  '2\\n'\n  want: '3\\n'"):
        assert_same_text("1\n2\n" * 5000, "1\n3\n" * 5000)


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
    """State JSON text, valid and not: any amplitudes, any "n", extra or missing
    keys, in either key order, compact or indented."""
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
    layout = {"sort_keys": draw(st.booleans()), "indent": draw(st.sampled_from([None, 2]))}
    text, nested = json.dumps(doc, **layout), json.dumps([doc], **layout)
    return draw(st.one_of(st.just(text), st.just(text[: len(text) // 2]), st.just(nested)))


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


def outcome_bits(text):
    """The loaded vector's dimension and bits, or the error's class and message."""
    try:
        vec = loads_state_vector(text)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return vec.n, vec.amplitudes.view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(state_documents())
def test_str_and_its_utf8_bytes_load_alike(text):
    assert outcome_bits(text) == outcome_bits(text.encode())


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": 2, "amplitudes": [1, 0], "\ud800": 1}',
        '{"n\ud800": 2, "amplitudes": [1, 0]}',
        '\ufeff{"n": 2, "amplitudes": [1, 0]}',
        '\ufeff{"n": 2, "amplitudes": [1, 0]}'.encode(),
        '{"n": 2, "amplitudes": [1, 0], "\xe9": 1}'.encode("latin-1"),
        '{"\xe9": 2, "amplitudes": [1, 0]}'.encode("latin-1"),
    ],
    ids=["str-surrogate", "str-surrogate-key", "str-bom", "bytes-bom", "latin-1", "latin-1-key"],
)
def test_documents_that_are_not_utf8_json_are_refused(doc):
    with pytest.raises(StateFormatError):
        loads_state_vector(doc)


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize(
    "number", ("NaN", "-Infinity", "1e400", pytest.param("9" * 400, id="400-nines"))
)
def test_numbers_orjson_refuses_are_refused_as_the_per_element_scan(n, number):
    # orjson reads none of these, and the grammar admits none at any n.
    text = f'{{"n": {n}, "amplitudes": [{", ".join([number] * n)}]}}'
    want = outcome(reference_loads_state_vector, text)[1]
    assert want is not None
    for doc in (text, text.encode()):
        assert outcome(loads_state_vector, doc)[1] is want


@pytest.mark.parametrize("literal", ("true", "false", "null"))
@pytest.mark.parametrize("where", ("first", "middle", "last"))
def test_non_number_literal_anywhere_in_a_large_list_is_refused(literal, where):
    n = 2**18
    numbers = ["0.001953125"] * n  # 2**-9, so the document is a unit vector
    numbers[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = literal
    text = f'{{"n": {n}, "amplitudes": [{", ".join(numbers)}]}}'
    for doc in (text, text.encode("ascii")):
        with pytest.raises(StateFormatError) as info:
            loads_state_vector(doc)
        assert str(info.value) == '"amplitudes" must be a list of numbers'


@pytest.mark.parametrize(
    "text",
    (
        '{"amplitudes": [0.6, 0.8], "\\u006e": 2}',
        '{"\\u006e": 2, "amplitudes": [0.6, 0.8]}',
        '{"n": 2, "amp\\u006citudes": [0.6, 0.8]}',
    ),
)
def test_escaped_key_letters_outside_the_list_load(text):
    for doc in (text, text.encode("ascii")):
        got = loads_state_vector(doc)
        assert got.n == 2 and got.amplitudes.tolist() == [0.6, 0.8]


OUT_OF_GRAMMAR = ("NaN", "-Infinity", "1e400", "9" * 400)
OUT_OF_GRAMMAR_IDS = ("NaN", "-Infinity", "1e400", "400-nines")


@pytest.mark.parametrize("number", OUT_OF_GRAMMAR, ids=OUT_OF_GRAMMAR_IDS)
def test_numbers_orjson_refuses_are_not_valid_json(number, tmp_path):
    # The format's numbers are finite float64 values (RFC 8259 has no NaN
    # or Infinity, and lets a parser limit the range of numbers).
    text = f'{{"n": 2, "amplitudes": [{number}, {number}]}}'
    for doc in (text, text.encode("ascii")):
        with pytest.raises(StateFormatError) as info:
            loads_state_vector(doc)
        assert str(info.value).startswith("not valid JSON: ")
    path = tmp_path / "state.json"
    path.write_text(text, encoding="ascii")
    code, err = run_amplify(str(path))
    assert code == 2
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1


def test_a_state_document_is_parsed_once(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    got = loads_state_vector('{"n": 2, "amplitudes": [0.6, 0.8]}')
    assert got.amplitudes.tolist() == [0.6, 0.8]
    for number in OUT_OF_GRAMMAR:
        text = f'{{"n": 2, "amplitudes": [{number}, {number}]}}'
        for doc in (text, text.encode("ascii")):
            with pytest.raises(StateFormatError, match="^not valid JSON: "):
                loads_state_vector(doc)


def test_power_table_holds_each_power_of_ten_correctly_rounded():
    powers = _tables()[0]
    assert powers.shape == (4, _K_MAX - _K_MIN + 1) == (4, 562)
    for k, (hi, head, tail, lo) in zip(range(_K_MIN, _K_MAX + 1), powers.T.tolist()):
        exact = Fraction(10) ** (16 - k)
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))
        assert head + tail == hi
        for half in (head, tail):  # 26 significant bits at most
            assert (math.frexp(half)[0] * 2**26).is_integer()


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
    assert_same_text(written(values), wanted(values))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(fallback_values, finite_doubles), min_size=1, max_size=40))
def test_text_of_every_fallback_class_is_format_17g(values):
    assert_same_text(written(values), wanted(values))


def test_exact_ties_round_half_to_even():
    # 1 + 2**-17 = 1.00000762939453125: the 17th digit 2 stays even.
    assert exact_tie(0, 0) == 1 + 2**-17
    assert written([1 + 2**-17]) == "1.0000076293945312"
    values = [exact_tie(k, pick) for k in range(-8, 16) for pick in range(0, 4000, 7)]
    for x in values[::97]:
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert scaled.denominator == 2 and 10**16 < scaled < 10**17
    values += [-x for x in values] + [math.nextafter(x, math.inf) for x in values]
    assert_same_text(written(values), wanted(values))


def spread(values: range, count: int) -> list[int]:
    """At most ``count`` members of ``values``, evenly spread, both ends included."""
    if len(values) <= count:
        return list(values)
    return [values[i * (len(values) - 1) // (count - 1)] for i in range(count)]


def decade_ties(k: int) -> list[float]:
    """Exact ties ``odd * 2**(k - 17)`` in ``[10**k, 10**(k + 1))`` with ``odd < 2**53``,
    both ends of each decade included: ``x * 10**(16 - k)`` is ``odd * 5**(16 - k) / 2``.
    Below k = -8 there are none, since ``5**25 > 2 * 10**17``."""
    five = 5 ** (16 - k)
    odds = range(-(-2 * 10**16 // five) | 1, min(-(-2 * 10**17 // five), 2**53), 2)
    return [math.ldexp(o, k - 17) for o in spread(odds, 25)]


def near_ties(k: int) -> list[float]:
    """Doubles ``m * 2**e`` in ``[10**k, 10**(k + 1))``, ``m`` in ``[2**52, 2**53)``,
    whose ``x * 10**(16 - k)`` lies ``1 / (2 * 5**d)`` from a half-integer, d = k - 16:
    ``m * 2**(e - d)`` is ``(5**d +- 1) / 2`` modulo ``5**d``.  From k = 30 to 38
    that distance is inside the writer's ``2**-32`` window around a tie."""
    d = k - 16
    five = 5**d
    values = []
    for e in range((10**k).bit_length() - 54, (10 ** (k + 1)).bit_length() - 51):
        lo = max(2**52, -(-(10**k) >> e))
        hi = min(2**53, -(-(10 ** (k + 1)) >> e))
        for target in ((five - 1) // 2, (five + 1) // 2):
            residue = target * pow(2, d - e, five) % five
            mantissas = range(lo + (residue - lo) % five, hi, five)
            values += [math.ldexp(m, e) for m in spread(mantissas, 12)]
    return values


def test_exact_ties_in_every_decade_print_as_format_17g():
    values = []
    for k in range(-8, 16):
        ties = decade_ties(k)
        assert ties
        for x in ties:
            scaled = Fraction(x) * Fraction(10) ** (16 - k)
            assert scaled.denominator == 2 and 10**16 < scaled < 10**17
        values += ties
    values += [-x for x in values]
    assert_same_text(written(values), wanted(values))


def test_near_ties_inside_the_guard_window_print_as_format_17g():
    values = []
    for k in range(30, 39):
        ties = near_ties(k)
        assert ties
        for x in ties:
            assert 10**k <= Fraction(x) < 10 ** (k + 1)
            scaled = Fraction(x) / Fraction(10) ** (k - 16)
            gap = abs(scaled - math.floor(scaled) - Fraction(1, 2))
            assert gap == Fraction(1, 2 * 5 ** (k - 16)) < Fraction(2**-32)
        values += ties
    values += [-x for x in values]
    assert_same_text(written(values), wanted(values))


def test_powers_of_ten_and_their_neighbours():
    values = [float(f"1e{j}") for j in range(-323, 309)] + [10.0**j for j in range(-300, 300)]
    values += [math.nextafter(x, to) for x in values for to in (0.0, math.inf)]
    values += [float(j) for j in range(-1000, 1000)] + [2.0**j for j in range(-1074, 1024)]
    assert_same_text(written(values), wanted(values))


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_same_text(written(values), wanted(values.tolist()))


# Around the writers' chunk: _CHUNK values of the state, _CHUNK // 3 rows of a CSV.
CSV_CHUNK = _CHUNK // 3


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_state_writer_at_the_chunk_edge(n):
    vec = StateVector.unnormalized(n, edge_values(n))
    assert_same_text(dumps_state_vector(vec), reference_dumps_state_vector(vec))


@pytest.mark.parametrize("n", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1])
def test_csv_writers_at_the_chunk_edge(n):
    values = edge_values(n).tolist()
    rows = list(zip(values, reversed(values)))
    assert_same_text(dumps_sweep_csv(rows), reference_dumps_sweep_csv(rows))
    steps = [(step, x, y) for step, (x, y) in enumerate(rows)]
    assert_same_text(dumps_trace_csv(steps), reference_dumps_trace_csv(steps))


def test_writers_warn_about_nothing():
    values = [*edge_values(64).tolist(), 1e300, -1e-300, 1e280, 123.0, 12.5]
    rows = list(zip(values, reversed(values))) + [(math.nan, math.inf), (-math.inf, 1e200)]
    steps = [(step, x, y) for step, (x, y) in enumerate(rows)]
    vec = StateVector.unnormalized(len(values), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_text(dumps_state_vector(vec), reference_dumps_state_vector(vec))
        assert_same_text(dumps_sweep_csv(rows), reference_dumps_sweep_csv(rows))
        assert_same_text(dumps_trace_csv(steps), reference_dumps_trace_csv(steps))
