"""Marked-item search: a relabeling involution plus one optimal amplification."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, ParameterOutOfRange
from .grover import grover_iterate
from .optimal import amplify_optimal
from .state import StateVector, _dumps_json, _fresh_copy, _require_dimension


@dataclass(frozen=True)
class SearchProblem:
    """Dimension plus the single marked basis index."""

    n: int
    marked: int

    def __post_init__(self) -> None:
        _require_dimension(self.n)
        if not 0 <= self.marked < self.n:
            raise ParameterOutOfRange(f"marked index {self.marked} outside [0, {self.n})")

    def predicate(self, index: int) -> bool:
        """The membership test: true exactly on the marked index."""
        return index == self.marked

    @classmethod
    def from_predicate(cls, n: int, predicate: Callable[[int], bool]) -> SearchProblem:
        """Locate the marked index by evaluating the predicate on every basis index."""
        hits = [i for i in range(n) if predicate(i)]
        if len(hits) != 1:
            raise ParameterOutOfRange(
                f"predicate must mark exactly one index in [0, {n}), marked {len(hits)}"
            )
        return cls(n, hits[0])


def relabel_apply(p: SearchProblem, a: StateVector) -> StateVector:
    """Swap components 0 and marked; an exact involution, identity when marked == 0."""
    if a.n != p.n:
        raise DimensionError(f"state has dimension {a.n}, problem expects {p.n}")
    out = _fresh_copy(a.amplitudes)
    out[0], out[p.marked] = out[p.marked], out[0]
    return StateVector._adopt(a.n, out)


def one_step_search(p: SearchProblem) -> tuple[int, float]:
    """Run the single-application search from the uniform start.

    Conjugates the optimal amplifier for the uniform vector by the
    relabeling involution and returns (argmax index of squared amplitude,
    its magnitude).  For a valid problem the index is the marked one and
    the magnitude is 1 up to roundoff.
    """
    start = StateVector.uniform(p.n)
    relabeled = relabel_apply(p, start)
    amplified, _ = amplify_optimal(relabeled)
    out = relabel_apply(p, amplified)
    found = int(np.argmax(out.amplitudes**2))
    return found, abs(float(out.amplitudes[found]))


@dataclass(frozen=True)
class ComparisonReport:
    """One-application search versus the iterated classic operator.

    ``grover_peak_step`` is the first local maximum of the probability
    trace, the step at which an iterated run would stop; the trace keeps
    oscillating afterwards and can climb higher on later swings.
    ``grover_first_step_above_half`` is None when no step within the cap
    exceeds probability 1/2.
    """

    n: int
    marked: int
    one_step_probability: float
    grover_peak_step: int
    grover_peak_probability: float
    grover_first_step_above_half: Optional[int]

    def to_json(self) -> str:
        return _dumps_json(asdict(self))


def _first_local_max(probs: list[float]) -> int:
    for step in range(len(probs) - 1):
        if probs[step + 1] <= probs[step]:
            return step
    return len(probs) - 1


def compare_with_grover(p: SearchProblem, max_steps: int) -> ComparisonReport:
    """Contrast the one-application search with up to ``max_steps`` classic iterations.

    Costs O(n + max_steps): the classic trace comes from :func:`grover_iterate`.
    """
    if max_steps < 1:
        raise ParameterOutOfRange(f"max_steps must be at least 1, got {max_steps}")
    _, amplitude = one_step_search(p)
    trace = grover_iterate(StateVector.uniform(p.n), max_steps)
    probs = [row[2] for row in trace]
    peak = _first_local_max(probs)
    first_above = next((step for step, prob in enumerate(probs) if prob > 0.5), None)
    return ComparisonReport(
        n=p.n,
        marked=p.marked,
        one_step_probability=amplitude**2,
        grover_peak_step=peak,
        grover_peak_probability=probs[peak],
        grover_first_step_above_half=first_above,
    )
