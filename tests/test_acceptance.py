"""Acceptance gate: the nine exit criteria, each at its stated scale with a
zero-failure tolerance.  The gate builds no side: it runs the CLI suites over
each criterion's inputs, so which comparisons evidence a criterion is wired
once, in `forcelab.cli`.  Every row must pass, and the `checked` counts of a
criterion's rows must sum to the count its inputs give, so one that compares
nothing fails.  Run with `pytest tests/test_acceptance.py -v -s` to see one
pass/fail line, with its count, per criterion."""

import functools
import re
import time

import pytest

from forcelab import (EMPTY, And, AtomTr, Forall, Not, Or, cli, corpus, minimal_classes,
                      name_universe, v_stage)
from forcelab.truth import CODED_VALUATION_CAP

NOTIONS = corpus.corpus_notions()


def _separative(P) -> bool:
    """Separativity from its definition: whenever p ≰ q, some r ≤ p has no
    extension in common with q."""
    C = P.conditions()
    return all(P.le(p, q) or any(P.le(r, p) and not any(P.le(s, r) and P.le(s, q) for s in C)
                                 for r in C)
               for p in C for q in C)


# up to four conditions the sweep is literally exhaustive: every separative
# notion with a top, not just the corpus members, chosen by the definition
# above and not by the `is_separative` that each one's separative row runs
SMALL = [(f"preorder-{i}", P) for i, P in enumerate(
    P for size in range(1, 5) for P in corpus.all_topped_preorders(size) if _separative(P))]
FORCING_LAWS = ("dense-decided", "density", "downward-closure", "eq-congruence",
                "eq-reflexive", "eq-symmetric", "eq-transitive", "modus-ponens")
ALGEBRA_LAWS = 6  # complete's law rows per notion: regular, complement, ..., enumeration-complete


def _suite(suite, runs=(), **settings):
    """The rows of one suite, each of which must pass: by `cli.run_suite` at
    these settings, or, for (label, notion, settings) runs, by its suite
    function once per run."""
    if runs:
        rep = cli.Reporter(timings=False)
        defaults = {key: cli.SETTINGS[key].default for key in cli.SUITE_SETTINGS[suite]}
        for label, P, own in runs:
            cli.SUITES[suite]({**defaults, **settings, **own}, rep, label, P)
        rows = rep.rows
    else:
        rows = cli.run_suite(suite, settings)["rows"]
    assert all(row["status"] == "pass" for row in rows), [
        row for row in rows if row["status"] != "pass"][:3]
    return rows


# each suite runs once per module; criteria read the rows they need
@functools.cache
def _oracle():
    return _suite("oracle") + _suite("oracle", [(label, P, {}) for label, P in SMALL])


@functools.cache
def _force():
    return _suite("force")


@functools.cache
def _iterated():
    return _suite("iterated", clock=5, A=[EMPTY, v_stage(3)[2]])


def _rows(rows, *claims):
    return [row for row in rows if row["claim"].rsplit("/", 1)[1] in claims]


def _report(criterion, description, started, rows, expected):
    checked = sum(row["checked"] for row in rows)
    status = "PASS" if checked == expected else f"FAIL (expected {expected})"
    print(f"[criterion {criterion}] {description}: {status}, {checked} checked "
          f"({time.monotonic() - started:.1f}s)")
    assert checked == expected


def _sizes(domain, pool):
    """The number of instances of each formula over the domain."""
    return {phi: len(domain) ** len(phi.free) for phi in pool}


def test_the_inputs_are_at_their_declared_scale():
    assert len(NOTIONS) >= 10 and {"fork", "diamond"} <= dict(NOTIONS).keys()
    assert len(SMALL) == 12
    assert all(len(P) <= cli.SETTINGS["max_poset"].default for _, P in NOTIONS)
    for P in [P for _, P in NOTIONS + SMALL]:
        pool = corpus.oracle_pool(P, corpus.oracle_universe(P))
        assert len(pool) >= 40, (P, len(pool))
        assert {"AtomEq", "AtomIn", "Not", "And", "Forall", "AtomInG"} <= {
            type(phi).__name__ for phi in pool}
    assert len(corpus.first_order_pool()) >= 25


def test_criterion_1_truth_lemma_oracle():
    started = time.monotonic()
    _report(1, "separative, and forced iff true over all generic filters: full corpus "
               "plus every separative notion with at most four conditions",
            started, _rows(_oracle(), "separative", "forced-iff-true"),
            2 * (len(NOTIONS) + len(SMALL)))


def test_criterion_1_fails_when_the_separativity_check_refuses_a_chosen_preorder(monkeypatch):
    label, chosen = SMALL[-1]
    real = cli.is_separative
    monkeypatch.setattr(cli, "is_separative",
                        lambda P: (False, (1, 0)) if P is chosen else real(P))
    only_row = {"checked": 1, "claim": f"oracle/{label}/separative",
                "counterexample": "(1, 0)", "status": "fail"}
    with pytest.raises(AssertionError, match=re.escape(f"{[only_row]}\n")):
        _suite("oracle", [(label, P, {}) for label, P in SMALL])


def test_criterion_2_star_translation_soundness():
    started = time.monotonic()
    runs = [(name, P, {"seed": 20240 + len(P), "count": 200}) for name, P in NOTIONS]
    _report(2, "200 random quantifier-free sentences per notion reduce "
               "to equivalent atomic equalities", started, _suite("translate", runs),
            200 * sum(len(P) for _, P in NOTIONS))


def test_criterion_3_boolean_completion_coherence():
    started = time.monotonic()
    # one point per law row; order and compatibility per pair, density per
    # nonzero element (a finite notion's regular opens are the sets of its
    # minimal classes), and the values at every kind, name pair and condition
    expected = sum(ALGEBRA_LAWS + 2 * len(P) ** 2 + 2 ** len(minimal_classes(P)) - 1
                   + 3 * len(name_universe(P, 1)) ** 2 * len(P) for _, P in NOTIONS)
    _report(3, "regular-open completions: algebra laws, dense embedding, "
               "value coherence", started, _suite("complete"), expected)


@pytest.mark.parametrize("stage", [2, 3])
def test_criterion_4_forcing_derived_truth(stage):
    started = time.monotonic()
    base = v_stage(stage)
    rows = [row for mask in range(1 << len(base))
            for row in _suite("truth", stage=stage,
                              A=[base[i] for i in range(len(base)) if mask >> i & 1])]
    expected = (1 << len(base)) * (sum(_sizes(base, corpus.first_order_pool()).values()) + 1)
    _report(4, f"collapse-derived truth equals direct truth and is "
               f"condition-invariant, stage {stage}, all parameter sets",
            started, rows, expected)


def test_criterion_5_truth_predicate_name():
    started = time.monotonic()
    _report(5, "the named class is a pool truth predicate in every extension, and its "
               "derived relation equals forcing: full corpus plus every separative notion "
               "with at most four conditions", started,
            _rows(_oracle(), "truth-predicate-name"), len(NOTIONS) + len(SMALL))


def test_criterion_6_iterated_truth():
    started = time.monotonic()
    beta_max = 5  # stages 0..4, the suite's clock
    pool = corpus.iterated_pool()
    size = _sizes(v_stage(3), pool)
    instances = sum(size.values())
    atoms = sum(size[phi] for phi in pool if phi.rank == 0 and not isinstance(phi, AtomTr))
    logic = sum(size[phi] for phi in pool if isinstance(phi, (Not, And, Or, Forall)))
    coded = sum(size[phi] for phi in pool if len(phi.free) <= CODED_VALUATION_CAP)
    # clauses (a), (c)-(d) and the dual path's base instances per stage;
    # self-coherence and the dual path's encoding points per pair of stages
    expected = beta_max * (atoms + logic + instances) + beta_max ** 2 * (instances + coded)
    rows = _rows(_iterated(), "atom-clause", "self-coherence", "connective-clauses",
                 "translation-dual-path")
    _report(6, "iterated truth satisfies its four clauses pool-wide and "
               "coincides with the stage-translation path", started, rows, expected)


def test_criterion_7_recursion_engine():
    started = time.monotonic()
    builtin = len(corpus.builtin_instances())
    rows = (_rows(_iterated(), "builtin-instances-verify", "staged-recursion-identical")
            + _rows(_force(), "staged-recursion-identical"))
    # each instance's solve, one point per corpus notion's atomic table,
    # and per staged input its verification and one point per instance
    expected = builtin + len(NOTIONS) + sum(1 + sum(_sizes(M.domain, pool).values())
                                            for M, pool in corpus.staged_truth_inputs())
    _report(7, f"{builtin} built-in instances verify; staged "
               "recomputations are bit-identical", started, rows, expected)


def test_criterion_8_clopen_determinacy():
    started = time.monotonic()
    clock, domain, pool = 3, v_stage(2), corpus.atomic_game_pool()
    # labels and playout per tree; winner, playout and the verdicts of
    # rank below the clock per game
    size = _sizes(domain, pool)
    expected = 2 * 1000 + sum(2 + sum(size[phi] for phi in pool if phi.rank < c)
                              for c in range(1, clock + 1))
    _report(8, "1000 random trees label-fixpoint + strategy playout; "
               "truth-telling games never favor the interrogator", started,
            _suite("game", count=1000, seed=88, clock=clock), expected)


def test_criterion_9_forcing_relation_laws():
    started = time.monotonic()
    _report(9, "law audit (closure, density, modus ponens, equality, "
               "decidedness) on every corpus relation", started,
            _rows(_force(), *FORCING_LAWS), len(FORCING_LAWS) * len(NOTIONS))
