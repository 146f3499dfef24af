"""Fault injection outside the forcing kernel's masks.

Each test corrupts one input of a checker (a generic filter, a game
label, a strategy, a recursion solution, an entry of the truth-predicate
name) and asserts that the checker reports failure.
"""

import random
import re

import pytest

from forcelab import (ClassName, ForcelabError, Solution, atomic_forcing,
                      build_collapse, etr_solve, extension, generic_filters,
                      label_fixpoint_violation, name_universe,
                      random_game_tree, truth_name, verify_solution, verify_strategy,
                      zermelo_recursion_instance, zermelo_solve)
from forcelab import corpus, forcing, poset


def test_adding_or_removing_one_filter_member_fails_extension(corpus_notion):
    P = corpus_notion
    FR = atomic_forcing(P, name_universe(P, 1))
    for g in generic_filters(P):
        extension(FR, g)
        for q in P.conditions():
            with pytest.raises(ForcelabError):
                extension(FR, g ^ 1 << q)


# generic_filters reads the filters off the minimal classes, then checks them
# against the definition: every returned filter meets every dense set, and
# (up to 12 conditions) no omitted maximal filter does.

def test_a_dropped_minimal_class_fails_the_generic_filter_check(monkeypatch):
    classes = poset.minimal_classes
    monkeypatch.setattr(poset, "minimal_classes", lambda P: classes(P)[1:])
    with pytest.raises(ForcelabError, match=r"omitted filter \[0, 1\] meets every dense set"):
        generic_filters(corpus.fork())


@pytest.mark.parametrize("P, p", [(corpus.fork(), 0), (build_collapse(3, []), 1)],
                         ids=["fork", "collapse-3"])
def test_a_non_minimal_class_fails_the_generic_filter_check(monkeypatch, P, p):
    # p lies strictly above other conditions, so its up-set is a filter that
    # misses a dense set; above 12 conditions only sampled dense sets catch it
    assert P.down(p) & ~P.up(p)
    classes = poset.minimal_classes
    monkeypatch.setattr(poset, "minimal_classes", lambda Q: [1 << p] + classes(Q))
    claimed = f"claimed generic filter {list(poset.bits(P.up(p)))} misses dense set"
    with pytest.raises(ForcelabError, match=re.escape(claimed)):
        generic_filters(P)


def _staged_labels_agree(T, labels) -> bool:
    """The comparison of the labels with the staged recursion instance."""
    inst, codec = zermelo_recursion_instance(T)
    sol = etr_solve(inst)
    return all(any(enc in sl for sl in sol.slices) == (labels[nid] == "I")
               for enc, nid in codec.items())


def test_flipping_one_zermelo_label_fails_both_label_checks():
    rng = random.Random(7)
    for _ in range(10):
        T = random_game_tree(rng, 60)
        labels = zermelo_solve(T).labels
        assert label_fixpoint_violation(T, labels) is None
        assert _staged_labels_agree(T, labels)
        for nid in T._reachable:
            flipped = {**labels, nid: "II" if labels[nid] == "I" else "I"}
            assert label_fixpoint_violation(T, flipped) is not None
            assert not _staged_labels_agree(T, flipped)


def test_a_strategy_missing_one_move_fails_verification():
    # the winner's strategy without its move at the root, where she moves
    rng = random.Random(7)
    checked = 0
    for _ in range(10):
        T = random_game_tree(rng, 60)
        result = zermelo_solve(T)
        winner = result.labels[T.root]
        strategy = result.strategy(winner)
        assert verify_strategy(T, strategy, winner) == (True, None)
        if T.root in strategy:
            del strategy[T.root]
            assert verify_strategy(T, strategy, winner) == (False, [T.root])
            checked += 1
    assert checked


def test_a_solution_with_a_slice_too_few_is_refused():
    inst = corpus.builtin_instances()[0][1]
    sol = etr_solve(inst)
    with pytest.raises(ForcelabError, match="wrong number of slices"):
        verify_solution(inst, Solution(inst, sol.slices[:-1]))


def test_dropping_one_truth_name_entry_is_reported(monkeypatch):
    P = corpus.fork()
    N = corpus.oracle_universe(P)
    pool = corpus.truth_name_pool(P, N)
    # The verdicts are read into locals: on failure pytest would print the
    # TruthName, and the class name's coded-formula entries print as trees
    # too large to build.
    ok = truth_name(atomic_forcing(P, N), pool).ok
    assert ok
    FR = atomic_forcing(P, N)
    # a formula forced by exactly one condition p: its entry at p is the
    # only one naming it, so without it the derived value misses p
    phi, p = next((phi, p) for phi in pool for p in P.conditions()
                  if FR.value(phi) == 1 << p)
    dropped = (forcing._pool_entry_name(phi), p)
    make = ClassName.make
    monkeypatch.setattr(ClassName, "make", staticmethod(
        lambda ident, entries: make(ident, (e for e in entries if e != dropped))))
    tn = truth_name(FR, pool)
    ok, failures = tn.ok, tn.failures
    assert not ok
    assert ("derived-vs-forcing", p, phi) in failures
