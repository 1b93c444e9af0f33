"""Marked-item search: a relabeling involution plus one optimal amplification."""

from __future__ import annotations

__all__ = [
    "ComparisonReport",
    "SearchProblem",
    "compare_with_grover",
    "one_step_search",
    "relabel_apply",
]

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ParameterOutOfRange
from .grover import grover_iterate
from .optimal import amplify_optimal
from .state import (
    StateVector,
    _dumps_json,
    _fresh_copy,
    _integer,
    _require_dimension,
    _require_same_dimension,
)


@dataclass(frozen=True)
class SearchProblem:
    """Dimension plus the single marked basis index, both stored as ``int``;
    a bool or a non-integer raises ParameterOutOfRange."""

    n: int
    marked: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _require_dimension(self.n))
        object.__setattr__(self, "marked", _integer("marked", self.marked))
        if not 0 <= self.marked < self.n:
            raise ParameterOutOfRange(f"marked index {self.marked} outside [0, {self.n})")


def relabel_apply(p: SearchProblem, a: StateVector) -> StateVector:
    """Swap components 0 and marked; an exact involution, identity when marked == 0."""
    _require_same_dimension(a, p.n, "problem")
    out = _fresh_copy(a.amplitudes)
    out[0], out[p.marked] = out[p.marked], out[0]
    return StateVector._adopt(a.n, out)


def one_step_search(p: SearchProblem) -> tuple[int, float]:
    """Run the single-application search from the uniform start.

    Amplifies component 0 of the uniform vector optimally, then moves it
    to the marked slot with the relabeling involution, and returns (argmax
    index of squared amplitude, its magnitude).  The uniform vector is
    fixed by the relabeling, so this is the amplifier conjugated by it.
    For a valid problem the index is the marked one and the magnitude is 1
    up to roundoff.
    """
    amplified, _ = amplify_optimal(StateVector.uniform(p.n))
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


def compare_with_grover(p: SearchProblem, max_steps: Optional[int] = None) -> ComparisonReport:
    """Contrast the one-application search with up to ``max_steps`` classic
    iterations, by default :func:`grover_iterate`'s ceil(2*sqrt(n)).

    Costs O(n + max_steps): the classic trace comes from :func:`grover_iterate`.
    """
    if max_steps is not None and (max_steps := _integer("max_steps", max_steps)) < 1:
        raise ParameterOutOfRange(f"max_steps must be at least 1, got {max_steps}")
    _, amplitude = one_step_search(p)
    probs = grover_iterate(StateVector.uniform(p.n), max_steps)[:, 2]
    falls, above = probs[1:] <= probs[:-1], probs > 0.5
    peak = int(np.argmax(falls)) if falls.any() else len(probs) - 1
    return ComparisonReport(
        n=p.n,
        marked=p.marked,
        one_step_probability=amplitude * amplitude,
        grover_peak_step=peak,
        grover_peak_probability=float(probs[peak]),
        grover_first_step_above_half=int(np.argmax(above)) if above.any() else None,
    )
