"""README's module table names the public API: each module's row lists every
name in that module's `__all__`, and no row lists a name kept only as a test
oracle."""

import re
from pathlib import Path

from reference import PUBLIC_MODULES

import optamp

README = Path(__file__).resolve().parent.parent / "README.md"

# Deleted, or moved to tests/reference.py because only tests called them.
NOT_PUBLIC = (
    "ConditionViolated",
    "SumZero",
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


def table_rows():
    """Each row of the `| module | contents |` table: its module, such as
    `optamp.state`, and every identifier inside a code span of its contents."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| module | contents |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        module, contents = line.strip("|").split("|", 1)
        spans = re.findall(r"`([^`]*)`", contents)
        rows[module.strip().strip("`")] = {
            name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)
        }
    return rows


def test_every_public_name_is_in_the_module_table():
    rows = table_rows()
    missing = {
        module.__name__: sorted(set(module.__all__) - rows.get(module.__name__, set()))
        for module in PUBLIC_MODULES
    }
    assert {module: names for module, names in missing.items() if names} == {}


def test_no_test_oracle_is_listed_as_public():
    names = set().union(*table_rows().values())
    assert [name for name in NOT_PUBLIC if name in names] == []
    owners = (
        optamp,
        optamp.AmplifyReport,
        optamp.SearchProblem,
        optamp.StateVector,
        optamp.SignChoice,
    )
    assert [name for name in NOT_PUBLIC for owner in owners if hasattr(owner, name)] == []
