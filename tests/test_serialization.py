"""The text writers and the state loader, held to the per-value oracles in
``reference``; the CLI on arbitrary state documents."""

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
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    assert_same_numbers,
    assert_same_text,
    decimal_digits,
    format_17g,
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
from optamp.grover import TRACE_HEADER, dumps_trace_csv
from optamp.optimal import SWEEP_HEADER, dumps_sweep_csv

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, 1 / 3, 0.1, 1e17]

# Short and mid-sized inputs.
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
    assert_same_numbers(dumps_state_vector(vec), reference_dumps_state_vector(vec))
    unit = StateVector.uniform(n)
    assert_same_numbers(dumps_state_vector(unit), reference_dumps_state_vector(unit))


@pytest.mark.parametrize("n", SIZES)
def test_sweep_writer_matches_per_value_oracle(n):
    values = edge_values(n).tolist()
    rows = list(zip(values, reversed(values)))
    assert_same_numbers(dumps_sweep_csv(rows), reference_dumps_sweep_csv(rows))
    swept = theta_sweep(StateVector.uniform(max(n, 3)), points=n)
    assert_same_numbers(dumps_sweep_csv(swept), reference_dumps_sweep_csv(swept))


@pytest.mark.parametrize("n", SIZES)
def test_trace_writer_matches_per_value_oracle(n):
    values = edge_values(n).tolist()
    rows = [(step, x, y) for step, x, y in zip(range(n), values, reversed(values))]
    assert_same_numbers(dumps_trace_csv(rows), reference_dumps_trace_csv(rows))
    trace = grover_iterate(StateVector.uniform(1000), n - 1)
    assert np.array_equal(trace[:, 0], np.arange(n))
    assert_same_numbers(dumps_trace_csv(trace), reference_dumps_trace_csv(trace.tolist()))


def test_csv_writers_on_no_rows_write_the_header():
    assert_same_text(dumps_sweep_csv([]), reference_dumps_sweep_csv([]))
    assert_same_text(dumps_trace_csv([]), reference_dumps_trace_csv([]))


def random_patterns(seed: int, count: int = 200_000) -> np.ndarray:
    """``SPECIAL``, then the finite ones of ``count`` seeded random bit patterns."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    values = bits.view(np.float64)
    return np.concatenate([SPECIAL, values[np.isfinite(values)]])


def assert_tokens_are_the_values(tokens: list, values: np.ndarray) -> None:
    """Each token reads back to the bits of its value, and spells the digits
    and exponent of its value's ``repr``."""
    assert len(tokens) == values.size
    back = np.array([float(token) for token in tokens])
    assert np.array_equal(back.view(np.uint64), values.ravel().view(np.uint64))
    spelled = zip(tokens, map(repr, values.ravel().tolist()))
    differ = [
        (t, r) for t, r in spelled if t != r and decimal_digits(t) != decimal_digits(r)
    ]
    assert not differ, differ[:5]


def csv_tokens(text: str, header: str) -> list:
    """The value tokens of a CSV document, row by row, after checking its
    header, its three values per row and its final newline."""
    lines = text.split("\n")
    assert lines[0] == header and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert all(len(row) == 3 for row in rows)
    return [token for row in rows for token in row]


def test_writers_give_back_the_bits_and_digits_of_random_patterns():
    values = random_patterns(20261021)
    vec = StateVector.unnormalized(len(values), values)
    text = dumps_state_vector(vec)
    head = f'{{"n": {len(values)}, "amplitudes": ['
    assert text.startswith(head) and text.endswith("]}\n")
    assert_tokens_are_the_values(text[len(head) : -len("]}\n")].split(","), values)

    # Amplitudes below 2 in magnitude (the top exponent bit cleared), so each
    # squares to a finite probability.
    amp = (values.view(np.uint64) & np.uint64(~(1 << 62) & (2**64 - 1))).view(np.float64)
    table = np.column_stack([values, amp, amp * amp])
    sweep = dumps_sweep_csv(np.column_stack([values, amp]))
    assert_tokens_are_the_values(csv_tokens(sweep, SWEEP_HEADER), table)

    table = np.column_stack([values, values[::-1], amp])
    assert_tokens_are_the_values(csv_tokens(dumps_trace_csv(table), TRACE_HEADER), table)


def test_non_finite_csv_values_are_spelled_as_repr_spells_them():
    text = dumps_sweep_csv([(1e16, math.nan), (1e-5, -math.inf)])
    assert text == f"{SWEEP_HEADER}\n1e16,nan,nan\n0.00001,-inf,inf\n"
    text = dumps_trace_csv([(0, math.inf, 1.0), (1, 0.5, 0.25)])
    assert text == f"{TRACE_HEADER}\n0.0,inf,1.0\n1.0,0.5,0.25\n"


def test_state_files_in_the_17_digit_format_still_load(any_norm, tmp_path):
    values = random_patterns(20261022)
    vec = StateVector.unnormalized(len(values), values)
    old = reference_dumps_state_vector(vec, format_17g, ", ")
    # %.17g spells -0.0 as -0, a JSON integer, which reads as 0; "+ 0.0" turns
    # -0.0 into 0.0 and leaves every other value as it is.
    want = (values + 0.0).view(np.uint64)
    for doc in (old, old.encode("ascii")):
        assert np.array_equal(loads_state_vector(doc).amplitudes.view(np.uint64), want)
    unit = StateVector.uniform(3)
    path = tmp_path / "old.state.json"
    path.write_text(reference_dumps_state_vector(unit, format_17g, ", "), encoding="ascii")
    assert "0.57735026918962584, " in path.read_text(encoding="ascii")
    assert run_amplify(str(path)) == (0, "")


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
    # Counts allocations, not time.  A per-value join peaks at about 4.4x the
    # text.  The writer holds orjson's output buffer, then its bytes and their
    # text, then that text and the document: about 2.4x at peak.
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
    assert_loads_the_same_bits(text[text.index("[") + 1 : text.index("]")].split(","))


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


def assert_spelled_as_repr(values) -> None:
    """The state writer spells each of ``values``, at least two finite
    doubles, with the digits and exponent of its ``repr``."""
    vec = StateVector.unnormalized(len(values), values)
    assert_same_numbers(dumps_state_vector(vec), reference_dumps_state_vector(vec))


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

# Values where a spelling changes: both write exponent notation from 1e16 up,
# orjson as 1e16 and repr as 1e+16; below 1e-4 repr does too (1e-05), and
# orjson only below 1e-5 (0.00001, 1e-6).  Then exact ties, zeros,
# subnormals and the ends of the range.
notation_boundaries = st.one_of(
    st.builds(exact_tie, st.integers(-8, 15), st.integers(0, 2**60)),
    st.floats(min_value=-1e-280, max_value=1e-280),  # +-0, subnormals and tiny normals
    st.floats(min_value=1e280, allow_infinity=False),
    st.floats(max_value=-1e280, allow_infinity=False),
    st.integers(-323, 308).map(lambda j: float(f"1e{j}")),
    st.floats(min_value=1e15, max_value=1e17),
    st.floats(min_value=1e-6, max_value=1e-3),
    st.floats(min_value=-1e17, max_value=-10.0),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(finite_doubles, min_size=2, max_size=40))
def test_text_of_any_finite_doubles_has_the_digits_of_repr(values):
    assert_spelled_as_repr(values)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(notation_boundaries, finite_doubles), min_size=2, max_size=40))
def test_text_at_every_notation_boundary_has_the_digits_of_repr(values):
    assert_spelled_as_repr(values)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def tables_with_non_finite_cells(draw):
    """A ``(rows, 3)`` table of finite doubles with NaN, inf or -inf at random
    cells, one of them in the first two columns of the first row and one in
    those of the last row, so the sweep writer's two columns hold both."""
    rows = draw(st.integers(1, 12))
    finite = draw(st.lists(finite_doubles, min_size=3 * rows, max_size=3 * rows))
    table = np.array(finite).reshape(rows, 3)
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, 2), NON_FINITE)
    ends = [(row, draw(st.integers(0, 1)), draw(NON_FINITE)) for row in (0, rows - 1)]
    for row, col, x in ends + draw(st.lists(cell, max_size=3 * rows)):
        table[row, col] = x
    return table


def assert_csv_spelling(text: str, header: str, table: np.ndarray) -> None:
    """Each token of a CSV reads back to the bits of its value in ``table``,
    a finite value spelled as ``orjson.dumps`` spells it, NaN and the
    infinities as ``repr`` does."""
    tokens = csv_tokens(text, header)
    back = np.array([float(token) for token in tokens])
    assert np.array_equal(back.view(np.uint64), table.ravel().view(np.uint64))
    for token, x in zip(tokens, table.ravel().tolist()):
        assert token == (str(orjson.dumps(x), "ascii") if math.isfinite(x) else repr(x))


@settings(max_examples=300, deadline=None)
@given(tables_with_non_finite_cells())
def test_non_finite_tables_keep_orjson_spelling_for_finite_values(table):
    theta, amp = table[:, 0], table[:, 1]
    with np.errstate(over="ignore"):
        swept = np.column_stack([theta, amp, amp * amp])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = dumps_sweep_csv(table[:, :2])
        trace = dumps_trace_csv(table)
    assert_csv_spelling(sweep, SWEEP_HEADER, swept)
    assert_csv_spelling(trace, TRACE_HEADER, table)


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


def test_exact_ties_round_half_to_even():
    # 1 + 2**-17 = 1.00000762939453125 needs 17 digits; the 17th, 2, stays even.
    assert exact_tie(0, 0) == 1 + 2**-17
    assert dumps_state_vector(StateVector.unnormalized(2, [1 + 2**-17, 0.0])) == (
        '{"n": 2, "amplitudes": [1.0000076293945312,0.0]}\n'
    )
    values = [exact_tie(k, pick) for k in range(-8, 16) for pick in range(0, 4000, 7)]
    for x in values[::97]:
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert scaled.denominator == 2 and 10**16 < scaled < 10**17
    values += [-x for x in values] + [math.nextafter(x, math.inf) for x in values]
    assert_spelled_as_repr(values)


def test_exact_ties_in_every_decade_have_the_digits_of_repr():
    values = []
    for k in range(-8, 16):
        ties = decade_ties(k)
        assert ties
        for x in ties:
            scaled = Fraction(x) * Fraction(10) ** (16 - k)
            assert scaled.denominator == 2 and 10**16 < scaled < 10**17
        values += ties
    values += [-x for x in values]
    assert_spelled_as_repr(values)


def test_powers_of_ten_and_their_neighbours():
    values = [float(f"1e{j}") for j in range(-323, 309)] + [10.0**j for j in range(-300, 300)]
    values += [math.nextafter(x, to) for x in values for to in (0.0, math.inf)]
    values += [float(j) for j in range(-1000, 1000)] + [2.0**j for j in range(-1074, 1024)]
    assert_spelled_as_repr(values)


def test_a_million_random_bit_patterns():
    values = random_patterns(20261018, 10**6)
    text = dumps_state_vector(StateVector.unnormalized(len(values), values))
    assert_tokens_are_the_values(text[text.index("[") + 1 : text.index("]")].split(","), values)


# Sizes at the edge of the 16 Ki-value chunks that the writers once cut their
# text into: CHUNK values of a state, CHUNK // 3 rows of a CSV.  A writer that
# works in chunks again, such as one that streams, must pass at its edges.
CHUNK = 2**14
CSV_CHUNK = CHUNK // 3


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_state_writer_at_the_chunk_edge(n):
    vec = StateVector.unnormalized(n, edge_values(n))
    assert_same_numbers(dumps_state_vector(vec), reference_dumps_state_vector(vec))


@pytest.mark.parametrize("n", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1])
def test_csv_writers_at_the_chunk_edge(n):
    values = edge_values(n).tolist()
    rows = list(zip(values, reversed(values)))
    assert_same_numbers(dumps_sweep_csv(rows), reference_dumps_sweep_csv(rows))
    steps = [(step, x, y) for step, (x, y) in enumerate(rows)]
    assert_same_numbers(dumps_trace_csv(steps), reference_dumps_trace_csv(steps))


def test_writers_warn_about_nothing():
    values = [*edge_values(64).tolist(), 1e300, -1e-300, 1e280, 123.0, 12.5]
    rows = list(zip(values, reversed(values))) + [(math.nan, math.inf), (-math.inf, 1e200)]
    steps = [(step, x, y) for step, (x, y) in enumerate(rows)]
    vec = StateVector.unnormalized(len(values), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_numbers(dumps_state_vector(vec), reference_dumps_state_vector(vec))
        assert_same_numbers(dumps_sweep_csv(rows), reference_dumps_sweep_csv(rows))
        assert_same_numbers(dumps_trace_csv(steps), reference_dumps_trace_csv(steps))
