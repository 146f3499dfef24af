"""`eval_formula` evaluates each node along zero, one or two variables at a
time, as a bit, an int mask over the domain or a grid over its square.  A
copy of the pointwise evaluator it replaced is kept here as the reference,
as test_dag.py keeps the recursive comparators, and the two must agree on
the corpus pools, on stage translations, on hypothesis formulas, on
formulas that take the two-axis path and on valuations that leave the
domain."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from forcelab import (EMPTY, And, AtomEq, AtomIn, AtomInClass, AtomTr,
                      ForcelabError, Forall, Exists, FiniteStructure, GroundConst,
                      Not, Or, StageTranslator, Var, and_, atom_eq, atom_in,
                      atom_in_class, const, corpus, encode_formula,
                      encode_valuation, eval_formula, exists, forall, hf_make,
                      iff, nat_encode, not_, or_, stage_comparison_structure,
                      subformulas, transitive_closure, v_stage, var)
from forcelab import truth as truth_mod
from forcelab.formulas import terms, variables
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
            if len(psi.free) <= truth_mod.CODED_VALUATION_CAP:
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


# Two axes.  A quantifier whose own value is a mask along an axis takes its
# body as a grid over that axis and the variable it binds.  These formulas
# put ∈ and = between the two axes in both orders, next to atoms on one
# axis, class atoms, ground constants and a free c, and nest quantifiers,
# blocks and re-bindings under both axes.

def _two_axis_bodies(block):
    a, b, c, x = var("a"), var("b"), var("c"), var("x")
    k = const(nat_encode(2))
    both = [atom_in(a, b), atom_in(b, a), atom_eq(a, b), atom_eq(b, a)]
    beside = [atom_in(a, a), atom_in(b, b), atom_eq(a, a), atom_eq(b, b),
              atom_in_class(a, "A"), atom_in_class(b, "A"), atom_in_class(c, "A"),
              atom_in(a, k), atom_in(k, b), atom_eq(b, k), atom_in(c, a), atom_in(b, c),
              atom_eq(a, c)]
    for p in both:
        for q in beside:
            yield iff(p, q)
            yield and_([p, not_(q)])
    for q in ("d", "x"):  # x is also bound outside, and may be in the valuation
        d = var(q)
        yield exists((q,), and_([atom_in(d, a), atom_in(d, b)]))
        yield forall((q,), or_([atom_in(d, a), atom_in(b, d), atom_eq(d, c)]))
        yield iff(atom_eq(a, b), forall((q,), iff(atom_in(d, a), atom_in(d, b))))
    yield exists(block, and_([atom_in(var("x"), a), atom_in(var(block[-2]), b),
                              or_([atom_eq(var("z"), c), atom_in(a, var("z"))])]))
    yield forall(("x",), or_([atom_in(x, a), atom_eq(b, a),
                              exists(("x",), and_([atom_in(x, b), atom_in(x, c)]))]))


def _two_axis_formulas(block=("x", "y", "z")):
    quantifiers = (forall, exists)
    for body in _two_axis_bodies(block):
        for outer, inner in itertools.product(quantifiers, quantifiers):
            yield outer(("a",), inner(("b",), body))
    # a block ∀x y z, its inner axis z under x and y; and x bound again inside
    x, y, z = var("x"), var("y"), var("z")
    yield forall(("x", "y", "z"), or_([not_(atom_in(x, y)), atom_in(y, z),
                                       exists(("w",), and_([atom_in(var("w"), z),
                                                            atom_eq(var("w"), x)]))]))
    yield and_([atom_in(x, var("c")),
                forall(("a",), exists(("x",), iff(atom_in(x, var("a")),
                                                  forall(("x",), atom_in(x, var("a"))))))])


def _outside_values(n):
    """Four sets of rank n or n + 1, so outside V_n."""
    stage = v_stage(n)
    return [nat_encode(n), nat_encode(n + 1), hf_make(stage), hf_make([hf_make(stage)])]


# the reference takes |domain|^5 steps on a block of three under two axes
@pytest.mark.parametrize("n, block", [(3, ("x", "y", "z")), (4, ("x", "z"))])
def test_two_axes_against_the_reference(monkeypatch, n, block):
    stage = v_stage(n)
    M = FiniteStructure(stage, {"A": stage[::3]})
    ref, grids = RefEval(M), []
    real_value = truth_mod._value

    def spy(M, phi, axes, v):  # records the nodes taken along two axes
        if len(axes) == 2:
            grids.append(phi)
        return real_value(M, phi, axes, v)

    monkeypatch.setattr(truth_mod, "_value", spy)
    formulas, outside = list(_two_axis_formulas(block)), _outside_values(n)
    assert not any(value in M for value in outside)
    for phi in formulas:
        for value in (*stage, *outside):
            _agree(M, ref, phi, {"b": value, "c": value, "x": value})
    # every formula took its two-axis path, and each kind of grid was read
    reached = set(grids)
    assert all(any(s in reached for s in subformulas(phi)) for phi in formulas)
    assert {("grid", kind) for kind in ("in", "ni", "eq")} <= set(M._cache)


def test_a_stale_value_of_a_bound_variable_enters_no_memo_key():
    stage = v_stage(3)
    M = FiniteStructure(stage, {"A": [EMPTY]})
    stale = hf_make([hf_make(stage)])
    for phi in _two_axis_formulas():
        v = {x: stale for x in variables(phi) - phi.free} | {x: EMPTY for x in phi.free}
        assert eval_formula(M, phi, v) == RefEval(M)(phi, v)
    assert not any(stale in key for key in M._cache)


def test_block_reduction_matches_a_loop_over_blocks():
    rng = random.Random(0)
    for size in range(1, 20):
        M = FiniteStructure(transitive_closure([nat_encode(size - 1)]))
        n, full = len(M.domain), M._full
        assert n == size
        for _ in range(30):
            # blocks that are 0, full, one bit off either, or random
            blocks = [rng.choice([0, full, 1 << rng.randrange(n), full ^ 1 << rng.randrange(n),
                                  rng.getrandbits(n)]) for _ in range(n)]
            grid = sum(block << i * n for i, block in enumerate(blocks))
            for fill in (0, full):
                want = sum(1 << i for i, block in enumerate(blocks) if block == fill)
                assert truth_mod._blocks(M, grid, fill) == want
