import pytest

from forcelab import (EMPTY_NAME, ForcelabError, SeparativityError, atom_eq,
                      atomic_forcing, audit_boolean_algebra, boolean_completion,
                      boolean_values, name_const, name_make, name_universe)
from forcelab import corpus, criteria


def test_fork_completion_is_the_four_element_algebra(fork):
    bc = boolean_completion(fork)
    B = bc.algebra
    assert len(B) == 4
    a, b = fork.index("a"), fork.index("b")
    assert bc.embed(a) == 1 << a
    assert bc.embed(b) == 1 << b
    assert bc.embed(0) == B.one


def test_trivial_completion_is_two_element():
    trivial = corpus.corpus_notions()[0][1]
    assert len(boolean_completion(trivial).algebra) == 2


def test_nonseparative_is_refused():
    with pytest.raises(SeparativityError):
        boolean_completion(corpus.chain2())


def test_boolean_values_refuse_a_condition_outside_the_notion(fork):
    values = boolean_values(boolean_completion(fork))
    with pytest.raises(ForcelabError, match="condition outside the notion"):
        values.value("in", EMPTY_NAME, name_make([(EMPTY_NAME, 9)]))


def test_algebra_laws(corpus_notion):
    report = audit_boolean_algebra(boolean_completion(corpus_notion).algebra)
    assert report.ok, report.failures()


# Fault injection into the algebra audit: each law must be able to fail.
# On the fork (top 0 above a = 1 and b = 2) the elements are 0, {a}, {b}
# and the whole set.

def _with_elements(B, elements):
    B.elements = list(elements)
    B._element_set = frozenset(B.elements)


def test_an_element_fixed_by_regularize_but_not_downward_closed_fails_regular(
        fork, monkeypatch):
    """Every fixed point of the true regularize is downward-closed, so only a
    regularize that keeps {top} shows the downward-closure test can fail."""
    B = boolean_completion(fork).algebra
    top = 1 << fork.one
    real = B.regularize
    monkeypatch.setattr(B, "regularize", lambda U: U if U == top else real(U))
    _with_elements(B, B.elements + [top])
    assert B.regularize(top) == top
    assert audit_boolean_algebra(B).failures()["regular"] == [fork.one]


def test_an_enumeration_missing_a_regular_open_set_fails_enumeration_complete(fork):
    B = boolean_completion(fork).algebra
    a = 1 << fork.index("a")
    _with_elements(B, [u for u in B.elements if u != a])
    assert audit_boolean_algebra(B).failures()["enumeration-complete"] == [fork.index("a")]


def test_a_negation_leaving_the_algebra_fails_closure(fork, monkeypatch):
    B = boolean_completion(fork).algebra
    a = 1 << fork.index("a")
    real = B.neg
    monkeypatch.setattr(B, "neg", lambda u: real(u) | 1 << fork.one if u == a else real(u))
    assert not B.is_element(B.neg(a))
    failures = audit_boolean_algebra(B).failures()
    assert "closure" in failures and failures["closure"][0] == [fork.index("a")]


def test_embedding_identifies_exactly_equivalents(corpus_notion):
    P = corpus_notion
    bc = boolean_completion(P)
    for p in P.conditions():
        for q in P.conditions():
            assert (bc.embed(p) == bc.embed(q)) == P.equivalent(p, q)


def test_embedding_is_dense_and_order_true(corpus_notion):
    P = corpus_notion
    bc = boolean_completion(P)
    B = bc.algebra
    for p in P.conditions():
        for q in P.conditions():
            assert B.le(bc.embed(p), bc.embed(q)) == P.le(p, q)
            assert P.compatible(p, q) == (B.meet(bc.embed(p), bc.embed(q)) != B.zero)
    for u in B.elements:
        if u != B.zero:
            assert any(B.le(bc.embed(p), u) for p in P.conditions())


def test_boolean_values_reflexivity(fork):
    bc = boolean_completion(fork)
    bv = boolean_values(bc)
    for sigma in name_universe(fork, 1):
        assert bv.value("eq", sigma, sigma) == bc.algebra.one


def test_boolean_value_hand_unfolded(fork):
    # ⟦∅-name = {(∅̌,a)}⟧ is the complement of the embedded a
    a = fork.index("a")
    sigma = name_make([(EMPTY_NAME, a)])
    bc = boolean_completion(fork)
    bv = boolean_values(bc)
    assert bv.value("eq", EMPTY_NAME, sigma) == bc.algebra.neg(bc.embed(a))


def test_values_cohere_with_the_table(corpus_notion):
    P = corpus_notion
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    bv = boolean_values(boolean_completion(P))
    for kind in ("in", "sub", "eq"):
        for s in N:
            for t in N:
                assert bv.value(kind, s, t) == FR.atomic_value(kind, s, t)
    assert criteria.value_coherence(FR, bv) == (0, None, 3 * len(N) ** 2 * len(P))


def test_lindenbaum_values_are_regular_open(corpus_notion):
    P = corpus_notion
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    B = boolean_completion(P).algebra
    for s in N[:6]:
        for t in N[:6]:
            assert B.is_element(FR.value(atom_eq(name_const(s), name_const(t))))
