"""`ForcingRelation.value` forces a formula under a valuation of its free
variables by names.  A copy of the clause recursion it replaced is kept
here as the reference, as test_eval_reference.py keeps the pointwise
evaluator: it forces closed formulas only, builds each quantifier instance
with `substitute` and memoizes every instance by formula.  Both read the
atoms off the same atomic table, so the comparison covers the composite
clauses, the valuation and the memo keys."""

import functools
import itertools
import operator

import pytest

from forcelab import (EMPTY, EMPTY_NAME, And, AtomEq, AtomIn, AtomInClass, AtomInG, AtomTr,
                      BudgetError, Exists, Forall, ForcelabError, NameConst, Not,
                      Or, and_, atom_eq, atom_in, atomic_forcing, check_name,
                      corpus, exists, forall, forcing_truth, forces, hf_make,
                      name_const, name_make, not_, substitute, v_stage, var)
from forcelab.forcing import QUANTIFIER_BUDGET
from forcelab.truth import FiniteStructure, instances


def _reference_value(FR, phi, memo) -> int:
    got = memo.get(phi)
    if got is None:
        got = memo[phi] = _reference_clause(FR, phi, memo)
    return got


def _name(t):
    if not isinstance(t, NameConst):
        raise ForcelabError("the reference forces closed formulas only")
    return t.name


def _reference_clause(FR, phi, memo) -> int:
    def value(f):
        return _reference_value(FR, f, memo)

    if isinstance(phi, AtomEq):
        return FR.atomic_value("eq", _name(phi.left), _name(phi.right))
    if isinstance(phi, AtomIn):
        return FR.atomic_value("in", _name(phi.left), _name(phi.right))
    if isinstance(phi, (AtomInClass, AtomInG)):
        ident = phi.ident if isinstance(phi, AtomInClass) else "G"
        cls = (FR.classes if ident == "G" else FR._classes).get(ident)
        if cls is None:
            raise ForcelabError(f"no class name registered as {ident!r}")
        return FR._witnessed(_name(phi.term), cls.entries)
    if isinstance(phi, AtomTr):
        raise ForcelabError("iterated-truth atoms are not part of the forcing language")
    if isinstance(phi, Not):
        return FR.neg(value(phi.sub))
    if isinstance(phi, (And, Or)):
        subs = phi.subs
    else:
        assert isinstance(phi, (Forall, Exists))
        k = len(phi.vars)
        if len(FR.universe) ** k > QUANTIFIER_BUDGET:
            raise BudgetError(f"quantifier block over {len(FR.universe)}^{k} names")
        subs = (substitute(phi.body, dict(zip(phi.vars, map(name_const, values))))
                for values in itertools.product(FR.universe, repeat=k))
    if isinstance(phi, (And, Forall)):
        return functools.reduce(operator.and_, map(value, subs), FR.full)
    return FR.regularize(functools.reduce(operator.or_, map(value, subs), 0))


@pytest.mark.parametrize("name", [n for n, _ in corpus.corpus_notions()])
def test_corpus_pools_agree_with_the_substitution_recursion(name):
    P = dict(corpus.corpus_notions())[name]
    N = corpus.oracle_universe(P)
    FR = atomic_forcing(P, N)
    memo = {}
    pool = corpus.oracle_pool(P, N) + corpus.truth_name_pool(P, N)
    mismatches = [phi for phi in pool if FR.value(phi) != _reference_value(FR, phi, memo)]
    assert mismatches == []


@pytest.mark.parametrize("n, A", [
    (2, []), (2, [EMPTY]), (2, v_stage(2)),
    (3, []), (3, [EMPTY]), (3, v_stage(3)[1:3]), (3, v_stage(3)[::2]),
], ids=["2-none", "2-empty", "2-all", "3-none", "3-empty", "3-two", "3-even"])
def test_star_translations_agree_under_every_slot_binding(n, A):
    ft = forcing_truth(n, A, corpus.first_order_pool())
    FR = ft.relation
    memo = {}
    compared = 0
    for phi in ft.pool:
        star = ft._stars[phi]
        for v in instances(FiniteStructure(ft.fa.targets), phi):
            binding = {x: ft.slot_names[v[x]] for x in phi.free}
            closed = substitute(star, {x: name_const(s) for x, s in binding.items()})
            assert FR.value(star, binding) == _reference_value(FR, closed, memo), (phi, v)
            compared += 1
    assert compared == sum(len(ft.fa.targets) ** len(phi.free) for phi in ft.pool)


def test_a_nested_block_over_the_budget_is_refused_on_both_sides():
    P = dict(corpus.corpus_notions())["four-fork"]
    FR = atomic_forcing(P, corpus.oracle_universe(P))
    n = len(FR.universe)
    assert n ** 3 <= QUANTIFIER_BUDGET < n ** 4
    x, ys = var("x"), [var(f"y{i}") for i in range(4)]
    phi = forall(("x",), exists(tuple(y.name for y in ys),
                                and_([atom_in(x, y) for y in ys])))
    with pytest.raises(BudgetError) as ours:
        FR.value(phi)
    with pytest.raises(BudgetError) as theirs:
        _reference_value(FR, phi, {})
    assert str(ours.value) == str(theirs.value) == f"quantifier block over {n}^4 names"


def test_a_forall_exists_sentence_keeps_one_mask_per_node_and_valuation():
    """∀x ∃y (x ∈ y ∧ ¬ x = y) stores the sentence once, ∃ once per x, and ∧
    and ¬ once per (x, y); the atoms stay in the atomic table."""
    P = dict(corpus.corpus_notions())["four-fork"]
    FR = atomic_forcing(P, corpus.oracle_universe(P))
    x, y = var("x"), var("y")
    phi = forall(("x",), exists(("y",), and_([atom_in(x, y), not_(atom_eq(x, y))])))
    assert FR.value(phi) == _reference_value(FR, phi, {})
    n = len(FR.universe)
    assert len(FR._values) == 2 * n * n + n + 1


def test_forces_reads_the_valuation_as_bound():
    P = corpus.fork()
    N = corpus.oracle_universe(P)
    FR = atomic_forcing(P, N)
    x, y = var("x"), var("y")
    phi = exists(("y",), atom_in(x, y))
    for sigma in N:
        closed = substitute(phi, {"x": name_const(sigma)})
        for p in P.conditions():
            assert forces(FR, p, phi, env={"x": sigma}) == forces(FR, p, closed)
    with pytest.raises(ForcelabError, match="only closed formulas"):
        forces(FR, 0, phi, env={"y": N[0]})
    outside = check_name(hf_make([hf_make([EMPTY])]))
    assert outside not in N
    with pytest.raises(ForcelabError, match="outside the universe"):
        forces(FR, 0, phi, env={"x": outside})
    closed = substitute(phi, {"x": name_const(outside)})
    assert (forces(FR, 0, phi, check_universe=False, env={"x": outside})
            == forces(FR, 0, closed, check_universe=False))
    with pytest.raises(ForcelabError, match="not covered by the valuation"):
        FR.value(phi, {})


def test_an_inner_binder_shadows_the_outer_one(fork):
    """The substitution recursion refused ∀x ∃x φ (substitute will not
    replace a variable bound below); under a valuation the inner binder wins."""
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    x, below_a = var("x"), name_const(name_make([(EMPTY_NAME, fork.index("a"))]))
    inner = exists(("x",), atom_in(x, below_a))
    assert FR.value(inner) not in (0, FR.full)
    assert FR.value(forall(("x",), inner)) == FR.value(inner)
    with pytest.raises(ForcelabError, match="bound variable"):
        _reference_value(FR, forall(("x",), inner), {})
