"""Fault injection into the bitmask forcing kernel.

Each test corrupts one bit of one stored forcing value and asserts that the
check built on it reports failure.  The checks compare the kernel's masks
with sides computed without them (the staged recursion instance, Boolean
values over the frozenset algebra, direct evaluation in the generic
extension) or with the forcing laws, so a wrong mask cannot pass them.
"""

import contextlib
import itertools

import pytest

from forcelab import (EMPTY, And, Exists, Forall, Not, Or, atomic_forcing,
                      atomic_recursion_instance, audit_forcing_relation,
                      boolean_completion, boolean_values, compare_atomic_table,
                      etr_solve, forcing_truth, generic_filters,
                      invariance_check, name_universe, truth_lemma_check)
from forcelab import corpus
from forcelab.truth import FiniteStructure, instances

KINDS = ("in", "sub", "eq")
COMPOSITE = (Not, And, Or, Forall, Exists)


@pytest.fixture(scope="module")
def fork_kernel():
    P = corpus.fork()
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    inst, codec, _ = atomic_recursion_instance(P, N)
    return FR, etr_solve(inst), codec, boolean_values(boolean_completion(P))


def _values_agree(FR, bv) -> bool:
    """Criterion 3's comparison: Boolean values against the kernel's decisions."""
    P, N = FR.notion, FR.universe
    return all(bv.derived_forces(p, kind, s, t) == FR.decide(kind, p, s, t)
               for kind in KINDS for s in N for t in N for p in P.conditions())


def _single_flips(FR, kinds):
    for kind, s, t in itertools.product(kinds, FR.universe, FR.universe):
        for p in FR.notion.conditions():
            yield kind, s, t, p


@contextlib.contextmanager
def _flipped(FR, kind, s, t, p):
    """The mask of (kind, s, t) with bit p flipped, restored on exit; formula
    values memoized meanwhile are dropped both times."""
    FR._atomic[(kind, s, t)] ^= 1 << p
    FR._values.clear()
    try:
        yield
    finally:
        FR._atomic[(kind, s, t)] ^= 1 << p
        FR._values.clear()


def test_every_single_flip_fails_the_staged_comparison(fork_kernel):
    FR, sol, codec, _ = fork_kernel
    assert compare_atomic_table(FR, sol, codec)
    caught = 0
    for kind, s, t, p in _single_flips(FR, ("in", "eq")):
        with _flipped(FR, kind, s, t, p):
            caught += not compare_atomic_table(FR, sol, codec)
    assert caught == 2 * len(FR.universe) ** 2 * len(FR.notion)
    assert compare_atomic_table(FR, sol, codec)


def test_every_single_flip_fails_the_boolean_value_comparison(fork_kernel):
    FR, _, _, bv = fork_kernel
    assert _values_agree(FR, bv)
    caught = 0
    for kind, s, t, p in _single_flips(FR, KINDS):
        with _flipped(FR, kind, s, t, p):
            caught += not _values_agree(FR, bv)
    assert caught == 3 * len(FR.universe) ** 2 * len(FR.notion)


def test_every_single_equality_flip_fails_the_law_audit(fork_kernel):
    FR = fork_kernel[0]
    assert audit_forcing_relation(FR).ok
    caught = 0
    for kind, s, t, p in _single_flips(FR, ("eq",)):
        with _flipped(FR, kind, s, t, p):
            report = audit_forcing_relation(FR)
            caught += not report.ok
            if s is not t:
                assert "eq-symmetric" in report.failures()
    assert caught == len(FR.universe) ** 2 * len(FR.notion)


@pytest.mark.parametrize("set_bit", [True, False], ids=["set", "clear"])
def test_composite_flip_at_a_filter_member_fails_the_truth_lemma(fork, set_bit):
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    pool = corpus.oracle_pool(fork, N)
    assert truth_lemma_check(FR, pool)[0]
    # The filter's least member m lies below every member, so a downward-closed
    # value meets the filter iff it holds m.  Setting m where no member forces
    # the formula, or clearing it where m alone does, flips the verdict at G.
    for G in generic_filters(fork):
        m = next(q for q in G.members if all(fork.le(q, r) for r in G.members))
        g = sum(1 << q for q in G.members)
        for phi in (f for f in pool if isinstance(f, COMPOSITE)):
            V = FR.value(phi)
            if (V & g == 0) if set_bit else (V & g == 1 << m):
                FR._values[phi] = V ^ (1 << m)
                assert truth_lemma_check(FR, phi) == (False, (G, phi))
                return
    pytest.fail("no composite formula with the wanted value at a generic filter")


def test_top_bit_flip_fails_invariance_on_stage_2_collapse():
    pool = corpus.first_order_pool()
    ft = forcing_truth(2, [EMPTY], pool)
    assert invariance_check(2, [EMPTY], pool, ft) == (True, None)
    phi = next(f for f in ft.pool if isinstance(f, COMPOSITE))
    v = next(iter(instances(FiniteStructure(ft.fa.targets), phi)))
    FR = ft.relation
    FR._values[ft.instance(phi, v)] ^= 1 << ft.fa.one
    ok, cx = invariance_check(2, [EMPTY], pool, ft)
    assert not ok
    assert cx[1] is phi and cx[2] == tuple(sorted(v.items()))
