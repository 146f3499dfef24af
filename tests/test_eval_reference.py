"""`eval_formula` evaluates along one variable at a time, with int masks over
the domain.  A copy of the pointwise evaluator it replaced is kept here as
the reference, as test_dag.py keeps the recursive comparators, and the two
must agree on the corpus pools, on stage translations, on hypothesis
formulas and on valuations that leave the domain."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from forcelab import (EMPTY, And, AtomEq, AtomIn, AtomInClass, AtomTr,
                      ForcelabError, Forall, Exists, FiniteStructure, GroundConst,
                      Not, Or, StageTranslator, Var, corpus, encode_formula,
                      encode_valuation, eval_formula, nat_encode,
                      stage_comparison_structure, subformulas,
                      transitive_closure, v_stage)
from forcelab.formulas import terms
from forcelab.truth import instances
from test_grammar import ground_formulas, hf_sets


# Reference: one memoized bool per (node, valuation of its free variables).

class RefEval:
    def __init__(self, M: FiniteStructure):
        self.M = M
        self.memo = {}

    def __call__(self, phi, v) -> bool:
        if phi.rank == 0:
            return self.atom(phi, v)
        key = (phi, tuple(v[x] for x in phi.free_sorted))
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self.raw(phi, v)
        return got

    def term(self, t, v):
        if isinstance(t, Var):
            return v[t.name]
        if isinstance(t, GroundConst):
            if t.value not in self.M:
                raise ForcelabError("constant outside the domain")
            return t.value
        raise ForcelabError("forcing-language term")

    def atom(self, phi, v) -> bool:
        if isinstance(phi, AtomIn):
            return self.term(phi.left, v) in self.term(phi.right, v)
        if isinstance(phi, AtomEq):
            return self.term(phi.left, v) is self.term(phi.right, v)
        if isinstance(phi, AtomInClass):
            if phi.ident not in self.M.predicates:
                raise ForcelabError("no such predicate")
            return self.term(phi.term, v) in self.M.predicates[phi.ident]
        raise ForcelabError("not a truth-language atom")

    def raw(self, phi, v) -> bool:
        if isinstance(phi, Not):
            return not self(phi.sub, v)
        if isinstance(phi, And):
            return all(self(s, v) for s in phi.subs)
        if isinstance(phi, Or):
            return any(self(s, v) for s in phi.subs)
        want_all = isinstance(phi, Forall)
        assert want_all or isinstance(phi, Exists)
        ext = dict(v)
        for values in itertools.product(self.M.domain, repeat=len(phi.vars)):
            ext.update(zip(phi.vars, values))
            if self(phi.body, ext) != want_all:
                return not want_all
        return want_all


def _has_tr(phi) -> bool:
    return any(isinstance(s, AtomTr) for s in subformulas(phi))


def _agree(M, ref, phi, v):
    assert eval_formula(M, phi, v) == ref(phi, v), (phi, v)


def _pool():
    return list(dict.fromkeys(corpus.first_order_pool() + corpus.iterated_pool()))


@pytest.mark.parametrize("d_bits", range(16))
def test_corpus_pools_at_every_valuation_over_stage_3(d_bits):
    stage = v_stage(3)
    d = [x for i, x in enumerate(stage) if d_bits >> i & 1]
    M = FiniteStructure(stage, {"d": d, "A": d[:1]})
    ref = RefEval(M)
    for phi in _pool():
        for v in instances(M, phi):
            if _has_tr(phi):
                with pytest.raises(ForcelabError):
                    eval_formula(M, phi, v)
            else:
                _agree(M, ref, phi, v)


def test_stage_translations_on_sampled_comparison_valuations():
    stage = v_stage(3)
    base = FiniteStructure(stage, {"d": [EMPTY, stage[2]]})
    pool = corpus.iterated_pool()
    D = stage_comparison_structure(base, pool, 2)
    translator, ref, rng = StageTranslator(pool, 2), RefEval(D), random.Random(0)
    atom = next(f for f in pool if isinstance(f, AtomTr))
    xv, yv, zv = atom.free_sorted
    for beta in range(3):
        for phi in pool:
            translated = translator.translate(beta, phi)
            for _ in range(3):
                _agree(D, ref, translated,
                       {x: rng.choice(D.domain) for x in phi.free_sorted})
        for psi in pool:
            if len(psi.free) <= 1:
                av = {x: rng.choice(stage) for x in psi.free}
                for alpha in range(3):
                    _agree(D, ref, translator.translate(beta, atom),
                           {xv: nat_encode(alpha), yv: encode_formula(psi),
                            zv: encode_valuation(av)})


def _structure_for(phi, sets=()):
    """v_stage(2) with the constants of phi, their members and `sets`."""
    consts = [t.value for t in terms(phi) if isinstance(t, GroundConst)]
    domain = transitive_closure([*v_stage(2), *consts, *sets])
    return FiniteStructure(domain, {"A": domain[:1], "G": domain[1:2]})


@settings(max_examples=300)
@given(ground_formulas, st.lists(hf_sets, min_size=3, max_size=3))
def test_hypothesis_formulas_at_valuations_in_and_outside_the_domain(phi, values):
    assume(not _has_tr(phi))
    v = dict(zip("xyz", values))
    for M in (_structure_for(phi), _structure_for(phi, values)):
        _agree(M, RefEval(M), phi, v)


def test_valuations_outside_the_domain():
    M = FiniteStructure(v_stage(2), {"A": [EMPTY]})
    ref = RefEval(M)
    outside = FiniteStructure(v_stage(4))
    for phi in corpus.first_order_pool():
        for v in instances(outside, phi):
            _agree(M, ref, phi, v)
