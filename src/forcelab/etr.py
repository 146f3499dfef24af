"""A finite staged-recursion engine.

An instance fixes a recursion length, a domain of HF sets, and a step rule
deciding membership of each domain element in the current slice from the
strictly earlier slices, only at the elements its *support* gives that stage
(all others are absent from the slice).  The engine produces the unique
solution; a separate checker re-verifies the defining equation slice by slice.

A step rule is a function of (x, α, view) that reads earlier slices only
through its view, one point at a time (`view(β, y)`: is y in slice β?), and
closes over anything else.  What it derives from those reads it may keep in
`view.memo`, never elsewhere: solve and verify build a fresh view, with an
empty memo, for every stage, so a perturbed solution is judged from its own
slices, not from values kept from the solve.

The forcing relation, truth predicates and game labelings are all computed
elsewhere by direct recursions; builders here re-express them as instances
so the two computations can be compared bit for bit.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BudgetError, ForcelabError
from .hfset import HFSet

STEP_BUDGET = 10_000_000


class PartialSolution:
    """Read-only view of the slices strictly below the current stage, read
    one point at a time, with a `memo` for what a step derives from them."""

    __slots__ = ("_slices", "_stage", "memo")

    def __init__(self, slices: Sequence[frozenset[HFSet]], stage: int):
        self._slices = slices
        self._stage = stage
        self.memo: dict = {}

    def __call__(self, alpha: int, x: HFSet) -> bool:
        if alpha >= self._stage:
            raise ForcelabError(
                f"step rule read slice {alpha} at stage {self._stage}; "
                "only strictly earlier slices are visible")
        return x in self._slices[alpha]


StepRule = Callable[[HFSet, int, PartialSolution], bool]


class _InstanceFields(NamedTuple):
    length: int
    domain: tuple[HFSet, ...]
    step: StepRule
    support: tuple[tuple[HFSet, ...], ...]
    label: str = "anonymous"


class RecursionInstance(_InstanceFields):
    """``support[α]`` lists the elements whose membership in slice α the step
    rule decides; every other element is absent from slice α, and the checker
    rejects it there.  Build one with `staged_instance`.  The support is
    checked on every construction, `_replace` included."""

    __slots__ = ()

    def __new__(cls, length: int, domain: tuple[HFSet, ...], step: StepRule,
                support: tuple[tuple[HFSet, ...], ...], label: str = "anonymous"):
        if (len(support) != length
                or not set(domain).issuperset(itertools.chain.from_iterable(support))):
            raise ForcelabError(f"{label}: support needs {length} tuples of domain elements")
        return super().__new__(cls, length, domain, step, support, label)

    @classmethod
    def _make(cls, iterable) -> "RecursionInstance":
        return cls(*iterable)


class Solution(NamedTuple):
    instance: RecursionInstance
    slices: tuple[frozenset[HFSet], ...]


def staged_instance(elements: Iterable[HFSet], length: int,
                    stages: Callable[[HFSet], Iterable[int]], step: StepRule, label: str
                    ) -> RecursionInstance:
    """The instance over the elements in the order given; x is in the support
    of stages(x).  Pass an ordered collection: a set of HF sets iterates in
    an order that follows memory addresses."""
    domain = tuple(elements)
    support: list[list[HFSet]] = [[] for _ in range(length)]
    for x in domain:
        for alpha in stages(x):
            support[alpha].append(x)
    return RecursionInstance(length, domain, step, tuple(map(tuple, support)), label=label)


def _check_budget(inst: RecursionInstance) -> None:
    """Refuse a solve or verify that would make more than STEP_BUDGET step calls."""
    steps = sum(map(len, inst.support))
    if steps > STEP_BUDGET:
        raise BudgetError(f"{inst.label}: {steps} step calls exceed budget {STEP_BUDGET}")


def etr_solve(inst: RecursionInstance) -> Solution:
    """Run the recursion through all stages; deterministic and unique."""
    _check_budget(inst)
    slices: list[frozenset[HFSet]] = []
    for alpha in range(inst.length):
        view = PartialSolution(slices, alpha)
        slices.append(frozenset(x for x in inst.support[alpha] if inst.step(x, alpha, view)))
    return Solution(inst, tuple(slices))


def verify_solution(inst: RecursionInstance, sol: Solution
                    ) -> tuple[bool, tuple[int, HFSet] | None]:
    """Check the recursion equation at every slice; report the first failure,
    in domain order, with members outside the domain after it in key order."""
    _check_budget(inst)
    if len(sol.slices) != inst.length:
        raise ForcelabError("solution has the wrong number of slices")
    for alpha, slice_ in enumerate(sol.slices):
        view = PartialSolution(sol.slices, alpha)
        decided = inst.support[alpha]
        for x in decided:
            if inst.step(x, alpha, view) != (x in slice_):
                return False, (alpha, x)
        undecided = slice_.difference(decided)
        if undecided:
            first = next((x for x in inst.domain if x in undecided), None)
            if first is None:  # only members outside the domain
                first = min(undecided, key=lambda e: e.key)
            return False, (alpha, first)
    return True, None


def perturb(sol: Solution, alpha: int, x: HFSet) -> Solution:
    """Flip one membership; used by uniqueness tests."""
    slices = list(sol.slices)
    slices[alpha] = slices[alpha] ^ {x}
    return Solution(sol.instance, tuple(slices))
