"""Acceptance gate: the nine exit criteria, each at its stated scale with a
zero-failure tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to
see one pass/fail line per criterion."""

import itertools
import random
import time

import pytest

from forcelab import (EMPTY, AtomTr, DerivedIteratedTruth, FiniteStructure,
                      atomic_forcing, atomic_recursion_instance,
                      audit_boolean_algebra, audit_forcing_relation,
                      boolean_completion, boolean_values, compare_atomic_table,
                      encode_formula, encode_valuation, etr_solve, eval_formula,
                      extract_verdicts, forces, forcing_truth, invariance_check, is_separative,
                      iterated_truth, iterated_truth_instance, name_universe,
                      nat_encode, random_game_tree, stage_comparison_structure,
                      star_translate, subformula_closure, tarski_truth,
                      truth_lemma_check, truth_name, truth_telling_game,
                      v_stage, verify_solution, verify_strategy, zermelo_solve)
from forcelab import corpus
from forcelab.formulas import atom_eq, atom_in, not_, var
from forcelab.truth import instances, valuation_key


def _report(criterion, description, started, failures):
    status = "PASS" if failures == 0 else f"FAIL ({failures} failures)"
    print(f"[criterion {criterion}] {description}: {status} "
          f"({time.monotonic() - started:.1f}s)")
    assert failures == 0


def test_criterion_1_truth_lemma_oracle():
    started = time.monotonic()
    notions = corpus.corpus_notions()
    assert len(notions) >= 10
    assert "fork" in dict(notions) and "diamond" in dict(notions)
    failures = 0
    for name, P in notions:
        assert len(P) <= 5
        assert is_separative(P)[0]
        universe = corpus.oracle_universe(P)
        FR = atomic_forcing(P, universe)
        pool = corpus.oracle_pool(P, universe)
        assert len(pool) >= 40, (name, len(pool))
        kinds = {type(phi).__name__ for phi in pool}
        assert {"AtomEq", "AtomIn", "Not", "And", "Forall", "AtomInG"} <= kinds
        ok, failure = truth_lemma_check(FR, pool)
        if not ok:
            failures += 1
    # up to four conditions the sweep is literally exhaustive: every
    # separative notion with a top, not just the corpus members
    for size in (1, 2, 3, 4):
        for P in corpus.all_topped_preorders(size):
            if not is_separative(P)[0]:
                continue
            universe = corpus.oracle_universe(P)
            FR = atomic_forcing(P, universe)
            ok, _ = truth_lemma_check(FR, corpus.oracle_pool(P, universe))
            if not ok:
                failures += 1
    _report(1, "forced iff true over all generic filters: full corpus plus "
               "every separative notion with at most four conditions",
            started, failures)


def test_criterion_2_star_translation_soundness():
    started = time.monotonic()
    failures = 0
    for name, P in corpus.corpus_notions():
        universe = name_universe(P, 1)
        FR = atomic_forcing(P, universe)
        names = corpus._sample_names(P, universe)
        rng = random.Random(20240 + len(P))
        for _ in range(200):
            sentence = corpus.random_qf_sentence(rng, P, names)
            left, right = star_translate(sentence, P)
            for p in P.conditions():
                if forces(FR, p, sentence, check_universe=False) != \
                        FR.decide("eq", p, left, right):
                    failures += 1
                    break
    _report(2, "200 random quantifier-free sentences per notion reduce "
               "to equivalent atomic equalities", started, failures)


def test_criterion_3_boolean_completion_coherence():
    started = time.monotonic()
    failures = 0
    for name, P in corpus.corpus_notions():
        completion = boolean_completion(P)
        B = completion.algebra
        if not audit_boolean_algebra(B).ok:
            failures += 1
        for p in P.conditions():
            for q in P.conditions():
                if B.le(completion.embed(p), completion.embed(q)) != P.le(p, q):
                    failures += 1
                if P.compatible(p, q) == \
                        (B.meet(completion.embed(p), completion.embed(q)) == B.zero):
                    failures += 1
        if any(u != B.zero and not any(B.le(completion.embed(p), u)
                                       for p in P.conditions())
               for u in B.elements):
            failures += 1
        universe = name_universe(P, 1)
        FR = atomic_forcing(P, universe)
        bv = boolean_values(completion)
        for kind in ("in", "sub", "eq"):
            for s in universe:
                for t in universe:
                    for p in P.conditions():
                        if bv.derived_forces(p, kind, s, t) != FR.decide(kind, p, s, t):
                            failures += 1
    _report(3, "regular-open completions: algebra laws, dense embedding, "
               "value coherence", started, failures)


@pytest.mark.parametrize("stage", [2, 3])
def test_criterion_4_forcing_derived_truth(stage):
    started = time.monotonic()
    pool = corpus.first_order_pool()
    assert len(pool) >= 25
    base = v_stage(stage)
    failures = 0
    for mask in range(1 << len(base)):
        A = [base[i] for i in range(len(base)) if mask >> i & 1]
        structure = FiniteStructure(base, {"A": A})
        direct = tarski_truth(structure, pool)
        derived = forcing_truth(stage, A, pool)
        for phi in derived.pool:
            for v in instances(structure, phi):
                if derived.holds(phi, v) != direct.holds(phi, v):
                    failures += 1
        ok, _ = invariance_check(stage, A, pool, derived)
        if not ok:
            failures += 1
    _report(4, f"collapse-derived truth equals direct truth and is "
               f"condition-invariant, stage {stage}, all parameter sets",
            started, failures)


def test_criterion_5_truth_predicate_name():
    started = time.monotonic()
    failures = 0
    for name, P in corpus.corpus_notions():
        universe = corpus.oracle_universe(P)
        FR = atomic_forcing(P, universe)
        result = truth_name(FR, corpus.truth_name_pool(P, universe))
        if not result.ok:
            failures += len(result.failures)
    _report(5, "the named class is a pool truth predicate in every "
               "extension, and its derived relation equals forcing",
            started, failures)


def test_criterion_6_iterated_truth():
    started = time.monotonic()
    beta_max = 5  # stages 0..4
    stage = v_stage(3)
    A = [EMPTY, stage[2]]
    base = FiniteStructure(stage, {"d": A})
    pool = corpus.iterated_pool()
    predicate = iterated_truth(base, beta_max, pool)
    atom = next(f for f in pool if isinstance(f, AtomTr))
    xv, yv, zv = atom.free_sorted
    failures = 0

    # clause (a): atoms judged correctly
    for beta in range(beta_max):
        for phi in pool:
            if phi.rank == 0 and not isinstance(phi, AtomTr):
                for v in instances(base, phi):
                    if predicate.holds(beta, phi, v) != eval_formula(base, phi, v):
                        failures += 1
    # clause (b): self-coherence at every encoding point
    for beta in range(beta_max):
        for alpha in range(beta_max):
            for psi in pool:
                for av in instances(base, psi):
                    v = {xv: nat_encode(alpha), yv: encode_formula(psi),
                         zv: encode_valuation(av)}
                    want = alpha < beta and predicate._query(alpha, psi, av)
                    if predicate._query(beta, atom, v) != want:
                        failures += 1
    # clauses (c), (d): Boolean and quantifier logic
    from forcelab import And, Forall, Not, Or
    for beta in range(beta_max):
        for phi in pool:
            for v in instances(base, phi):
                if isinstance(phi, Not):
                    if predicate.holds(beta, phi, v) == predicate._query(
                            beta, phi.sub, {k: v[k] for k in phi.sub.free}):
                        failures += 1
                elif isinstance(phi, (And, Or)):
                    votes = [predicate._query(beta, s, {k: v[k] for k in s.free})
                             for s in phi.subs]
                    want = all(votes) if isinstance(phi, And) else any(votes)
                    if predicate.holds(beta, phi, v) != want:
                        failures += 1
                elif isinstance(phi, Forall):
                    want = all(
                        predicate._query(beta, phi.body,
                                         {**{k: v[k] for k in phi.body.free
                                             if k not in phi.vars},
                                          **dict(zip(phi.vars, values))})
                        for values in itertools.product(base.domain,
                                                        repeat=len(phi.vars)))
                    if predicate.holds(beta, phi, v) != want:
                        failures += 1

    # the stage translation's derived predicate coincides on the shared pool
    comparison = stage_comparison_structure(base, pool, beta_max)
    derived = DerivedIteratedTruth(comparison, pool, beta_max)
    direct = iterated_truth(comparison, beta_max, pool)
    for beta in range(beta_max):
        for phi in pool:
            for v in instances(base, phi):
                if derived.holds(beta, phi, v) != direct.holds(beta, phi, v):
                    failures += 1
    for beta in (1, 4):
        for alpha in range(beta_max):
            for psi in pool:
                if len(psi.free) > 1:
                    continue
                for av in instances(base, psi):
                    v = {xv: nat_encode(alpha), yv: encode_formula(psi),
                         zv: encode_valuation(av)}
                    if derived.holds(beta, atom, v) != direct.holds(beta, atom, v):
                        failures += 1
    _report(6, "iterated truth satisfies its four clauses pool-wide and "
               "coincides with the stage-translation path", started, failures)


def test_criterion_7_recursion_engine():
    started = time.monotonic()
    failures = 0
    instances = []

    for label, inst in corpus.builtin_instances():
        solution = etr_solve(inst)
        ok, _ = verify_solution(inst, solution)
        if not ok:
            failures += 1
        instances.append(label)

    for name, P in corpus.corpus_notions()[:6]:
        universe = name_universe(P, 1)
        FR = atomic_forcing(P, universe)
        inst, codec, _ = atomic_recursion_instance(P, universe)
        solution = etr_solve(inst)
        if not verify_solution(inst, solution)[0]:
            failures += 1
        if not compare_atomic_table(FR, solution, codec):
            failures += 1

    from forcelab import atom_tr
    M = FiniteStructure(v_stage(2), {"d": [EMPTY]})
    small_pool = list(subformula_closure(
        [atom_in(var("a"), var("b")), not_(atom_in(var("a"), var("b"))),
         atom_tr(var("a"), var("b"), var("c"))]))
    inst, codec, _ = iterated_truth_instance(M, 3, small_pool)
    solution = etr_solve(inst)
    if not verify_solution(inst, solution)[0]:
        failures += 1
    span = max(f.rank for f in small_pool) + 1
    direct = iterated_truth(M, 3, small_pool)
    for enc, (phi, v) in codec.items():
        staged = sorted(i // span for i, sl in enumerate(solution.slices) if enc in sl)
        if staged != [b for b in range(3) if direct.holds(b, phi, v)]:
            failures += 1
    _report(7, f"{len(instances)} built-in instances verify; staged "
               "recomputations are bit-identical", started, failures)


def test_criterion_8_clopen_determinacy():
    started = time.monotonic()
    failures = 0
    rng = random.Random(88)
    for i in range(1000):
        T = random_game_tree(rng, 200)
        result = zermelo_solve(T)
        for nid in T._reachable:
            node = T.nodes[nid]
            if node.children:
                mine = [c for c in node.children if result.labels[c] == node.mover]
                want = node.mover if mine else ("II" if node.mover == "I" else "I")
                if result.labels[nid] != want:
                    failures += 1
        winner = result.labels[T.root]
        ok, _ = verify_strategy(T, result.strategy(winner), winner)
        if not ok:
            failures += 1

    M = FiniteStructure(v_stage(2))
    x, y = var("x"), var("y")
    pool = [atom_in(x, y), not_(atom_in(x, y)), atom_eq(x, y), not_(atom_eq(x, y))]
    pool_instances = [(phi, v) for phi in pool for v in instances(M, phi)]
    for clock in (1, 2, 3):
        T = truth_telling_game(M, pool, clock)
        result = zermelo_solve(T)
        if result.labels[T.root] != "II":
            failures += 1
        ok, _ = verify_strategy(T, result.strategy_II, "II")
        if not ok:
            failures += 1
        verdicts = extract_verdicts(T, result.strategy_II, pool_instances)
        for phi, v in pool_instances:
            if phi.rank <= clock - 1 and \
                    verdicts[(phi, valuation_key(phi, v))] != eval_formula(M, phi, v):
                failures += 1
    _report(8, "1000 random trees label-fixpoint + strategy playout; "
               "truth-telling games never favor the interrogator", started, failures)


def test_criterion_9_forcing_relation_laws():
    started = time.monotonic()
    failures = 0
    for name, P in corpus.corpus_notions():
        FR = atomic_forcing(P, name_universe(P, 1))
        report = audit_forcing_relation(FR)
        if not report.ok:
            failures += len(report.failures())
    _report(9, "law audit (closure, density, modus ponens, equality, "
               "decidedness) on every corpus relation", started, failures)
