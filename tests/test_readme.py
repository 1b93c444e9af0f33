"""README's module table names the public API: every name in `optamp.__all__`,
and none of the names kept only as test oracles."""

import re
from pathlib import Path

import optamp

README = Path(__file__).resolve().parent.parent / "README.md"

# Deleted, or moved to tests/reference.py because only tests called them.
NOT_PUBLIC = (
    "flip_operator_apply",
    "diffusion_apply",
    "is_absolute_optimal",
    "write_trace_csv",
    "write_sweep_csv",
    "flip_matrix",
    "projector",
    "predicate",
    "from_predicate",
    "basis",
    "to_string",
    "from_arrays",
    "GroverOperator",
)


def table_names():
    """Every identifier inside a code span of the `| module | contents |` table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| module | contents |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append(line)
    spans = re.findall(r"`([^`]*)`", "\n".join(rows))
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_is_in_the_module_table():
    assert sorted(set(optamp.__all__) - table_names()) == []


def test_no_test_oracle_is_listed_as_public():
    names = table_names()
    assert [name for name in NOT_PUBLIC if name in names] == []
    owners = (
        optamp,
        optamp.AmplifyReport,
        optamp.SearchProblem,
        optamp.StateVector,
        optamp.SignChoice,
    )
    assert [name for name in NOT_PUBLIC for owner in owners if hasattr(owner, name)] == []
