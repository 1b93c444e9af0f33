"""Outside-in span tracing of optamp's public callables.

Only the traced run calls :func:`install`.  Each wrapper replaces one
callable in every ``optamp.*`` module that binds it (``cli``, ``search`` and
``verify`` all import ``amplify_optimal``, for example); a class is traced
through its ``__init__`` and a method on its class.  A span is
``(id, parent, name, start, end)`` plus the op it belongs to and a computed
byte count; spans stay in memory and are saved when the run ends.

A span name that no longer resolves raises, so a rename inside ``optamp``
fails the traced run instead of silently dropping a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Every traced span, as ``<module>.<callable>``.  A class name means its
# construction; ``Class.method`` means that method.
SPANS = (
    "state.load_state_vector",
    "state.loads_state_vector",
    "state.StateVector",
    "state.dumps_state_vector",
    "family.make_spec",
    "family.apply",
    "family.isometry_residual",
    "family.dense_matrix",
    "family.reflection_form",
    "optimal.optimal_theta",
    "optimal.amplify_optimal",
    "optimal.AmplifyReport.to_json",
    "optimal.theta_sweep",
    "optimal.dumps_sweep_csv",
    "grover.grover_iterate",
    "grover.grover_apply",
    "grover.dumps_trace_csv",
    "grover.corollary_equivalence_check",
    "search.compare_with_grover",
    "search.one_step_search",
    "search.relabel_apply",
    "verify.run_verification",
    "cli.main",
)

# The workloads, each with the spans that must fire on its traced run (the
# layer map in README.md).  Others may fire too; these may not go missing.
EXPECTED = {
    "cli-amplify-file": (
        "state.load_state_vector",
        "state.loads_state_vector",
        "state.StateVector",
        "state.dumps_state_vector",
        "family.make_spec",
        "optimal.optimal_theta",
        "optimal.amplify_optimal",
        "optimal.AmplifyReport.to_json",
        "cli.main",
    ),
    "cli-session": (
        "state.load_state_vector",
        "state.loads_state_vector",
        "state.StateVector",
        "family.make_spec",
        "family.isometry_residual",
        "family.dense_matrix",
        "family.reflection_form",
        "optimal.optimal_theta",
        "optimal.amplify_optimal",
        "optimal.theta_sweep",
        "optimal.dumps_sweep_csv",
        "grover.grover_iterate",
        "grover.grover_apply",
        "grover.dumps_trace_csv",
        "grover.corollary_equivalence_check",
        "search.compare_with_grover",
        "search.one_step_search",
        "search.relabel_apply",
        "verify.run_verification",
        "cli.main",
    ),
    "lib-large": (
        "state.StateVector",
        "family.make_spec",
        "family.apply",
        "optimal.optimal_theta",
        "optimal.amplify_optimal",
    ),
}

MARK = "__perfbench_span__"

F64 = 8


def _n_of_state(args):
    return args[0].n


def _n_of_second(args):
    return args[1].n


def _state_vector_bytes(args, kw, res):
    # np.array copy (read + write), isfinite (read + bool write), all (bool
    # read), and the norm check (read) unless check_norm is False.
    check_norm = args[3] if len(args) > 3 else kw.get("check_norm", True)
    return args[1] * (3 * F64 + 2 + (F64 if check_norm else 0))


# Computed bytes per call: one 8n read or write per full-length float64
# pass the span's own code makes (child spans count their own).  These are
# derived from array sizes, not measured memory traffic.  The two text
# spans count the JSON characters they parse or produce instead.
BYTE_MODEL = {
    "state.StateVector": _state_vector_bytes,
    "state.loads_state_vector": lambda args, kw, res: len(args[0]),
    "state.dumps_state_vector": lambda args, kw, res: len(res),
    # sum(a[1:]); a + c (read + write); eps2 * (...) (read + write).
    "family.apply": lambda args, kw, res: 5 * F64 * _n_of_second(args),
    "family.isometry_residual": lambda args, kw, res: 7 * F64 * _n_of_second(args),
    "optimal.optimal_theta": lambda args, kw, res: F64 * _n_of_state(args),
    "optimal.amplify_optimal": lambda args, kw, res: 5 * F64 * _n_of_state(args),
    "optimal.theta_sweep": lambda args, kw, res: 5 * F64 * _n_of_state(args) * len(res),
    # flip copy (read + write), mean (read), 2*mean - a (read + write).
    "grover.grover_apply": lambda args, kw, res: 5 * F64 * _n_of_state(args),
    "search.relabel_apply": lambda args, kw, res: 2 * F64 * _n_of_second(args),
}


class Recorder:
    """Span store for one process; spans are appended in call order."""

    def __init__(self) -> None:
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        index = SPANS.index(name)
        model = BYTE_MODEL.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(rec.start)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.name.append(index)
            rec.op.append(rec.current_op)
            rec.start.append(perf_counter())
            rec.end.append(0.0)
            rec.nbytes.append(0.0)
            rec.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[sid] = perf_counter()
                rec.stack.pop()
            if model is not None:
                rec.nbytes[sid] = model(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every span in :data:`SPANS`; raises if one cannot be found."""
        for name in SPANS:
            module_name, _, path = name.partition(".")
            module = importlib.import_module("optamp." + module_name)
            head, _, method = path.partition(".")
            try:
                obj = getattr(module, head)
                if method:
                    self._patch(obj, method, self.wrap(name, getattr(obj, method)))
                elif isinstance(obj, type):
                    self._patch(obj, "__init__", self.wrap(name, obj.__init__))
                else:
                    wrapper = self.wrap(name, obj)
                    for mod in _optamp_modules():
                        for attr, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, attr, wrapper)
            except AttributeError as exc:
                self.uninstall()
                raise RuntimeError(f"traced span {name!r} no longer exists in optamp: {exc}") from exc

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(SPANS), **self.arrays())

    def merge(self, path, op: int) -> None:
        """Append the spans another process saved, as part of ``op``."""
        with np.load(path) as data:
            if tuple(data["names"]) != SPANS:
                raise RuntimeError(f"span table in {path} does not match")
            offset = len(self.start)
            parent = data["parent"]
            self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
            self.name.extend(data["name"].tolist())
            self.op.extend([op] * len(parent))
            self.start.extend(data["start"].tolist())
            self.end.extend(data["end"].tolist())
            self.nbytes.extend(data["nbytes"].tolist())


def _optamp_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "optamp" or key.startswith("optamp."))
    ]


def wrapped_callables() -> list[str]:
    """Every traced wrapper currently bound anywhere in ``optamp``."""
    found = []
    for mod in _optamp_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("optamp"):
                for member, inner in vars(value).items():
                    if hasattr(inner, MARK):
                        found.append(f"{mod.__name__}.{attr}.{member}")
    return sorted(set(found))


def summarize(spans: dict[str, np.ndarray], op_walls: list[float]) -> dict[str, dict]:
    """Per-span calls per op, median self time per op, share and bytes per op.

    Self time is a span's duration minus the time its direct children
    cover; spans in one process nest and never overlap, so the children's
    durations add up to that coverage.
    """
    nops = len(op_walls)
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], duration[has_parent])
    self_time = duration - child
    in_op = spans["op"] >= 0
    name, op = spans["name"][in_op], spans["op"][in_op]
    per_op = np.zeros((len(SPANS), nops))
    np.add.at(per_op, (name, op), self_time[in_op])
    calls = np.bincount(name, minlength=len(SPANS))
    nbytes = np.bincount(name, weights=spans["nbytes"][in_op], minlength=len(SPANS))
    wall = float(sum(op_walls))
    out = {}
    for i, span in enumerate(SPANS):
        out[span] = {
            "calls": calls[i] / nops,
            "self_s": float(np.median(per_op[i])),
            "self_total_s": float(per_op[i].sum()),
            "bytes": nbytes[i] / nops,
            "share": float(per_op[i].sum()) / wall,
        }
    return out
