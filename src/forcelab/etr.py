"""A finite staged-recursion engine.

An instance fixes a recursion length, a domain of HF sets, and a step rule
deciding membership of each domain element in the current slice from the
strictly earlier slices.  The engine produces the unique solution; a
separate checker re-verifies the defining equation slice by slice.

The forcing relation, truth predicates and game labelings are all computed
elsewhere by direct recursions; builders here re-express them as instances
so the two computations can be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BudgetError, ForcelabError
from .hfset import HFSet

STEP_BUDGET = 10_000_000


class PartialSolution:
    """Read-only view of the slices strictly below the current stage."""

    __slots__ = ("_slices", "_stage")

    def __init__(self, slices: list[frozenset[HFSet]], stage: int):
        self._slices = slices
        self._stage = stage

    def __call__(self, alpha: int, x: HFSet) -> bool:
        if alpha >= self._stage:
            raise ForcelabError(
                f"step rule read slice {alpha} at stage {self._stage}; "
                "only strictly earlier slices are visible")
        return x in self._slices[alpha]

    def slice(self, alpha: int) -> frozenset[HFSet]:
        if alpha >= self._stage:
            raise ForcelabError(
                f"step rule read slice {alpha} at stage {self._stage}")
        return self._slices[alpha]


StepRule = Callable[[HFSet, int, PartialSolution, object], bool]


@dataclass(frozen=True)
class RecursionInstance:
    length: int
    domain: tuple[HFSet, ...]
    step: StepRule
    parameter: object = None
    label: str = "anonymous"


@dataclass(frozen=True)
class Solution:
    instance: RecursionInstance
    slices: tuple[frozenset[HFSet], ...]


def etr_solve(inst: RecursionInstance) -> Solution:
    """Run the recursion through all stages; deterministic and unique."""
    if inst.length * len(inst.domain) > STEP_BUDGET:
        raise BudgetError(
            f"{inst.length} stages x {len(inst.domain)} elements exceeds budget {STEP_BUDGET}")
    slices: list[frozenset[HFSet]] = []
    for alpha in range(inst.length):
        view = PartialSolution(slices, alpha)
        slices.append(frozenset(
            x for x in inst.domain if inst.step(x, alpha, view, inst.parameter)))
    return Solution(inst, tuple(slices))


def verify_solution(inst: RecursionInstance, sol: Solution
                    ) -> tuple[bool, tuple[int, HFSet] | None]:
    """Check the recursion equation at every slice; report the first failure."""
    if len(sol.slices) != inst.length:
        raise ForcelabError("solution has the wrong number of slices")
    slices = list(sol.slices)
    for alpha in range(inst.length):
        view = PartialSolution(slices, alpha)
        for x in inst.domain:
            if inst.step(x, alpha, view, inst.parameter) != (x in sol.slices[alpha]):
                return False, (alpha, x)
    return True, None


def perturb(sol: Solution, alpha: int, x: HFSet) -> Solution:
    """Flip one membership; used by uniqueness tests."""
    slices = list(sol.slices)
    s = set(slices[alpha])
    if x in s:
        s.remove(x)
    else:
        s.add(x)
    slices[alpha] = frozenset(s)
    return Solution(sol.instance, tuple(slices))
