"""Acceptance gate: the nine exit criteria, each at its stated scale with a
zero-failure tolerance.  Each criterion also asserts that it compared as
many points as its inputs give, so one that compares nothing fails.  Run
with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line, with
its count, per criterion."""

import random
import time

import pytest

from forcelab import (EMPTY, And, AtomTr, DerivedIteratedTruth, FiniteStructure, Forall, Not,
                      Or, atom_in, atom_tr, atomic_forcing, atomic_recursion_instance,
                      audit_boolean_algebra, audit_forcing_relation, boolean_completion,
                      boolean_values, compare_atomic_table, etr_solve, forcing_truth,
                      invariance_check, is_separative, iterated_truth, name_universe, not_,
                      random_game_tree, stage_comparison_structure, subformula_closure,
                      tarski_truth, truth_lemma_check, truth_name, v_stage, var,
                      verify_solution)
from forcelab import corpus, criteria
from forcelab.truth import CODED_VALUATION_CAP, instances


def _one(ok):
    """A check that is one library call, counted as one point."""
    return criteria.Verdict(0 if ok else 1, None, 1)


def _report(criterion, description, started, verdicts, expected):
    failures = sum(v.failures for v in verdicts)
    checked = sum(v.checked for v in verdicts)
    status = "PASS" if failures == 0 else f"FAIL ({failures} failures)"
    print(f"[criterion {criterion}] {description}: {status}, {checked} checked "
          f"({time.monotonic() - started:.1f}s)")
    assert failures == 0
    assert checked == expected


def _sizes(domain, pool):
    """The number of instances of each formula over the domain."""
    return {phi: len(domain) ** len(phi.free) for phi in pool}


def test_criterion_1_truth_lemma_oracle():
    started = time.monotonic()
    notions = corpus.corpus_notions()
    assert len(notions) >= 10
    assert "fork" in dict(notions) and "diamond" in dict(notions)
    # up to four conditions the sweep is literally exhaustive: every
    # separative notion with a top, not just the corpus members
    small = [P for size in (1, 2, 3, 4) for P in corpus.all_topped_preorders(size)
             if is_separative(P)[0]]
    verdicts = []
    for name, P in notions:
        assert len(P) <= 5
        assert is_separative(P)[0]
        universe = corpus.oracle_universe(P)
        pool = corpus.oracle_pool(P, universe)
        assert len(pool) >= 40, (name, len(pool))
        kinds = {type(phi).__name__ for phi in pool}
        assert {"AtomEq", "AtomIn", "Not", "And", "Forall", "AtomInG"} <= kinds
        verdicts.append(_one(truth_lemma_check(atomic_forcing(P, universe), pool)[0]))
    for P in small:
        universe = corpus.oracle_universe(P)
        FR = atomic_forcing(P, universe)
        verdicts.append(_one(truth_lemma_check(FR, corpus.oracle_pool(P, universe))[0]))
    _report(1, "forced iff true over all generic filters: full corpus plus "
               "every separative notion with at most four conditions",
            started, verdicts, len(notions) + len(small))


def test_criterion_2_star_translation_soundness():
    started = time.monotonic()
    verdicts, expected = [], 0
    for name, P in corpus.corpus_notions():
        universe = name_universe(P, 1)
        names = corpus.sample_names(P, universe)
        rng = random.Random(20240 + len(P))
        sentences = [corpus.random_qf_sentence(rng, P, names) for _ in range(200)]
        verdicts.append(criteria.star_translation(atomic_forcing(P, universe), sentences))
        expected += 200 * len(P)
    _report(2, "200 random quantifier-free sentences per notion reduce "
               "to equivalent atomic equalities", started, verdicts, expected)


def test_criterion_3_boolean_completion_coherence():
    started = time.monotonic()
    verdicts, expected = [], 0
    for name, P in corpus.corpus_notions():
        completion = boolean_completion(P)
        universe = name_universe(P, 1)
        verdicts += [_one(audit_boolean_algebra(completion.algebra).ok),
                     criteria.dense_embedding(P, completion),
                     criteria.value_coherence(atomic_forcing(P, universe),
                                              boolean_values(completion))]
        # the laws, order and compatibility per pair, density per nonzero
        # element, and the values at every kind, name pair and condition
        expected += (1 + 2 * len(P) ** 2 + len(completion.algebra.elements) - 1
                     + 3 * len(universe) ** 2 * len(P))
    _report(3, "regular-open completions: algebra laws, dense embedding, "
               "value coherence", started, verdicts, expected)


@pytest.mark.parametrize("stage", [2, 3])
def test_criterion_4_forcing_derived_truth(stage):
    started = time.monotonic()
    pool = corpus.first_order_pool()
    assert len(pool) >= 25
    base = v_stage(stage)
    verdicts = []
    for mask in range(1 << len(base)):
        A = [base[i] for i in range(len(base)) if mask >> i & 1]
        derived = forcing_truth(stage, A, pool)
        direct = tarski_truth(FiniteStructure(base, {"A": A}), pool)
        verdicts += [criteria.collapse_truth(derived, direct),
                     _one(invariance_check(stage, A, pool, derived)[0])]
    expected = (1 << len(base)) * (sum(_sizes(base, pool).values()) + 1)
    _report(4, f"collapse-derived truth equals direct truth and is "
               f"condition-invariant, stage {stage}, all parameter sets",
            started, verdicts, expected)


def test_criterion_5_truth_predicate_name():
    started = time.monotonic()
    notions = corpus.corpus_notions()
    verdicts = []
    for name, P in notions:
        universe = corpus.oracle_universe(P)
        FR = atomic_forcing(P, universe)
        verdicts.append(_one(truth_name(FR, corpus.truth_name_pool(P, universe)).ok))
    _report(5, "the named class is a pool truth predicate in every "
               "extension, and its derived relation equals forcing",
            started, verdicts, len(notions))


def test_criterion_6_iterated_truth():
    started = time.monotonic()
    beta_max = 5  # stages 0..4
    stage = v_stage(3)
    base = FiniteStructure(stage, {"d": [EMPTY, stage[2]]})
    pool = corpus.iterated_pool()
    predicate = iterated_truth(base, beta_max, pool)
    # the stage translation's derived predicate coincides on the shared pool
    comparison = stage_comparison_structure(base, pool, beta_max)
    verdicts = [criteria.iterated_atoms(predicate), criteria.self_coherence(predicate),
                criteria.iterated_logic(predicate),
                criteria.dual_path(DerivedIteratedTruth(comparison, pool, beta_max),
                                   iterated_truth(comparison, beta_max, pool),
                                   criteria.instance_points(base, pool, beta_max)
                                   + criteria.encoding_points(base, pool, beta_max))]
    size = _sizes(stage, pool)
    instances = sum(size.values())
    atoms = sum(size[phi] for phi in pool if phi.rank == 0 and not isinstance(phi, AtomTr))
    logic = sum(size[phi] for phi in pool if isinstance(phi, (Not, And, Or, Forall)))
    coded = sum(size[phi] for phi in pool if len(phi.free) <= CODED_VALUATION_CAP)
    # clauses (a), (c)-(d) and the dual path's base instances per stage;
    # self-coherence and the dual path's encoding points per pair of stages
    expected = beta_max * (atoms + logic + instances) + beta_max ** 2 * (instances + coded)
    _report(6, "iterated truth satisfies its four clauses pool-wide and "
               "coincides with the stage-translation path", started, verdicts, expected)


def test_criterion_7_recursion_engine():
    started = time.monotonic()
    builtin = corpus.builtin_instances()
    verdicts = [_one(verify_solution(inst, etr_solve(inst))[0]) for _, inst in builtin]
    expected = len(builtin)
    for name, P in corpus.corpus_notions()[:6]:
        universe = name_universe(P, 1)
        inst, codec, _ = atomic_recursion_instance(P, universe)
        sol = etr_solve(inst)
        verdicts += [_one(verify_solution(inst, sol)[0]),
                     _one(compare_atomic_table(atomic_forcing(P, universe), sol, codec))]
        expected += 2
    M = FiniteStructure(v_stage(2), {"d": [EMPTY]})
    small_pool = list(subformula_closure(
        [atom_in(var("a"), var("b")), not_(atom_in(var("a"), var("b"))),
         atom_tr(var("a"), var("b"), var("c"))]))
    # over V₂ no truth atom decodes; the coded domain has some that hold
    inputs = [(M, small_pool), corpus.coded_truth_input()]
    verdicts.append(criteria.staged_iterated(inputs, 3))
    expected += sum(1 + sum(_sizes(M.domain, pool).values()) for M, pool in inputs)
    coded, coded_pool = inputs[1]
    assert any(iterated_truth(coded, 3, coded_pool).holds(beta, phi, v)
               for phi in coded_pool if isinstance(phi, AtomTr)
               for v in instances(coded, phi) for beta in range(3))
    _report(7, f"{len(builtin)} built-in instances verify; staged "
               "recomputations are bit-identical", started, verdicts, expected)


def test_criterion_8_clopen_determinacy():
    started = time.monotonic()
    rng = random.Random(88)
    M = FiniteStructure(v_stage(2))
    pool = corpus.atomic_game_pool()
    clocks = (1, 2, 3)
    verdicts = [criteria.zermelo_games(random_game_tree(rng, 200) for _ in range(1000)),
                criteria.truth_telling(M, pool, clocks)]
    # labels and playout per tree; winner, playout and the verdicts of
    # rank below the clock per game
    size = _sizes(M.domain, pool)
    expected = 2 * 1000 + sum(2 + sum(size[phi] for phi in pool if phi.rank < clock)
                              for clock in clocks)
    _report(8, "1000 random trees label-fixpoint + strategy playout; "
               "truth-telling games never favor the interrogator", started, verdicts, expected)


def test_criterion_9_forcing_relation_laws():
    started = time.monotonic()
    notions = corpus.corpus_notions()
    verdicts = [_one(audit_forcing_relation(atomic_forcing(P, name_universe(P, 1))).ok)
                for name, P in notions]
    _report(9, "law audit (closure, density, modus ponens, equality, "
               "decidedness) on every corpus relation", started, verdicts, len(notions))
