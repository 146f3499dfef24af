"""`ForcingRelation.value` forces a formula under a valuation of its free
variables by names.  A copy of the clause recursion it replaced is kept
here as the reference, as test_eval_reference.py keeps the pointwise
evaluator: it forces closed formulas only, builds each quantifier instance
with `substitute` and memoizes every instance by formula.  Both read the
atoms off the same atomic table, so the comparison covers the composite
clauses, the valuation and the memo keys.

The formula rewrites are folds of `dag`; copies of the recursions they
replaced (map_formula, the free-variable replacement of substitute and
rename_free, check_name and the θ-formulas) are kept here too, and the
folds must build the very objects the copies build.
star_translate is held to the reference translation of
test_star_translate.py, and its budget charge to a count of the rule its
docstring states, made by tree recursions."""

import functools
import itertools
import operator
import random

import pytest

from forcelab import (EMPTY, EMPTY_NAME, And, AtomEq, AtomIn, AtomInClass, AtomInG, AtomTr,
                      BudgetError, Exists, FiniteStructure, Forall, ForcelabError, NameConst,
                      Not, Or, PairTerm, StageTranslator, Var, and_, atom_eq, atom_in,
                      atom_in_class, atom_in_g, atom_tr, atomic_forcing, check_name, corpus,
                      exists, extension, forall, forcing_truth, forces, generic_filters,
                      ground_formula, hf_make, iff, instances, name_const, name_make, nodes,
                      not_, or_, star8_translate, star_translate, substitute, theta_formula,
                      v_stage, var)
from forcelab import forcing as forcing_mod
from forcelab import formulas as formulas_mod
from forcelab import names as names_mod
from forcelab import truth as truth_mod
from test_star_translate import ref_condition_names, ref_star_translate


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
        cls = FR.classes.get(ident)
        if cls is None:
            raise ForcelabError(f"no class name registered as {ident!r}")
        # below which it is dense that an entry (τ, r) has a condition under
        # r forcing the term's name = τ
        witnesses = 0
        for tau, r in cls.entries:
            witnesses |= FR.atomic_value("eq", _name(phi.term), tau) & FR.notion.down(r)
        return FR.regularize(witnesses)
    if isinstance(phi, AtomTr):
        raise ForcelabError("iterated-truth atoms are not part of the forcing language")
    if isinstance(phi, Not):
        return FR.neg(value(phi.sub))
    if isinstance(phi, (And, Or)):
        subs = phi.subs
    else:
        assert isinstance(phi, (Forall, Exists))
        # A block is charged for its own variables and its free ones.  The
        # instances below phi are closed, so the charges are read off phi.
        for block in nodes(phi):
            if isinstance(block, (Forall, Exists)):
                scope = len(block.vars) + len(block.free)
                if len(FR.universe) ** scope > forcing_mod.QUANTIFIER_BUDGET:
                    raise BudgetError(f"quantifier block over {len(FR.universe)}^{scope} names")
        subs = (substitute(phi.body, dict(zip(phi.vars, map(name_const, values))))
                for values in itertools.product(FR.universe, repeat=len(phi.vars)))
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
        star = star8_translate(phi, ft.fa)
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
    assert n ** 3 <= forcing_mod.QUANTIFIER_BUDGET < n ** 4
    x, ys = var("x"), [var(f"y{i}") for i in range(4)]
    phi = forall(("x",), exists(tuple(y.name for y in ys),
                                and_([atom_in(x, y) for y in ys])))
    with pytest.raises(BudgetError) as ours:
        FR.value(phi)
    with pytest.raises(BudgetError) as theirs:
        _reference_value(FR, phi, {})
    # the inner block sees x too
    assert str(ours.value) == str(theirs.value) == f"quantifier block over {n}^5 names"


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
    """In ∀x ∃x φ the inner binder wins, both under a valuation and in the
    substitution recursion (substitute leaves a variable bound below alone)."""
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    x, below_a = var("x"), name_const(name_make([(EMPTY_NAME, fork.index("a"))]))
    inner = exists(("x",), atom_in(x, below_a))
    assert FR.value(inner) not in (0, FR.full)
    assert FR.value(forall(("x",), inner)) == FR.value(inner)
    assert _reference_value(FR, forall(("x",), inner), {}) == FR.value(forall(("x",), inner))


# --- the recursive rewrites the folds replaced ---------------------------------

def ref_rebuild(f, kids):
    """A connective or quantifier node over new subformulas."""
    if isinstance(f, Not):
        return not_(kids[0])
    if isinstance(f, (And, Or)):
        return (and_ if isinstance(f, And) else or_)(kids)
    return (forall if isinstance(f, Forall) else exists)(f.vars, kids[0])


def ref_subst_term(t, bindings):
    if isinstance(t, Var):
        return bindings.get(t.name, t)
    if isinstance(t, PairTerm):
        return formulas_mod.pair_term(ref_subst_term(t.left, bindings),
                                      ref_subst_term(t.right, bindings))
    return t


def ref_map_atom(atom, term_fn):
    """The atom with term_fn applied to each argument term."""
    if isinstance(atom, (AtomEq, AtomIn)):
        return (atom_eq if isinstance(atom, AtomEq) else atom_in)(term_fn(atom.left),
                                                                  term_fn(atom.right))
    if isinstance(atom, AtomTr):
        return atom_tr(term_fn(atom.stage), term_fn(atom.code), term_fn(atom.valuation))
    if isinstance(atom, AtomInClass):
        return atom_in_class(term_fn(atom.term), atom.ident)
    return atom_in_g(term_fn(atom.term))


def ref_map_formula(phi, atom_fn, memo=None):
    memo = {} if memo is None else memo

    def walk(f):
        got = memo.get(f)
        if got is None:
            got = memo[f] = ref_rebuild(f, list(map(walk, f.children()))) if f.rank else atom_fn(f)
        return got

    return walk(phi)


def ref_replace_free(phi, bindings):
    memo = {}

    def walk(f, live):
        if f.free.isdisjoint(live):
            return f
        key = (f, live)
        got = memo.get(key)
        if got is None:
            if f.rank == 0:
                targets = {k: bindings[k] for k in live}
                got = ref_map_atom(f, lambda t: ref_subst_term(t, targets))
            elif isinstance(f, (Forall, Exists)):
                got = ref_rebuild(f, [walk(f.body, live.difference(f.vars))])
            else:
                got = ref_rebuild(f, [walk(c, live) for c in f.children()])
            memo[key] = got
        return got

    return walk(phi, frozenset(bindings))


def ref_rename_free(phi, mapping):
    return ref_replace_free(phi, {k: var(v) for k, v in mapping.items()})


def ref_charge(phi, P):
    """What star_translate charges for phi under its stated rule: each
    distinct (subformula, sign) pair its own ticks, and each distinct
    negated = or ∈ atom its rewrite's steps, counted with repeats, plus the
    ticks each distinct step adds."""
    conditions, seen = ref_condition_names(P), set()

    def steps(kind, sigma, tau, distinct):
        distinct.add((kind, sigma, tau))
        if kind == "eq":
            kids = [("sub", sigma, tau), ("sub", tau, sigma)]
        elif kind == "sub":
            kids = [("in", rho, tau) for rho, _ in sigma.entries]
        else:
            kids = [("eq", sigma, rho) for rho, _ in tau.entries]
        return 1 + sum(steps(*kid, distinct) for kid in kids)

    def added(kind, sigma, tau):
        # ¬= is a disjunction of two; σ ⊄ τ a disjunction over σ's entries
        # of conjunctions G(ř) ∧ ρ ∉ τ; σ ∉ τ a conjunction over τ's entries
        # of disjunctions ¬G(ř) ∨ σ ≠ ρ
        if kind == "eq":
            return 2 * 2 + 3
        k = len((sigma if kind == "sub" else tau).entries)
        return 2 * k + 3 + k * (3 + 1) if kind == "sub" else 1 + k + k * (7 + 1)

    def walk(f, sign):
        if (f, sign) in seen:
            return 0
        seen.add((f, sign))
        if isinstance(f, Not):
            return walk(f.sub, not sign)
        if isinstance(f, (And, Or)):
            k = len(f.subs)
            own = 1 + k if isinstance(f, And) == sign else 2 * k + 3
            return own + sum(walk(g, sign) for g in f.subs)
        if isinstance(f, AtomInG) and f.term.name not in conditions:
            return walk(or_(and_([atom_in_g(name_const(c)), atom_eq(f.term, name_const(c))])
                            for c in conditions), sign)
        if sign or isinstance(f, AtomInG):
            return 1
        distinct = set()
        build = steps("eq" if isinstance(f, AtomEq) else "in", f.left.name, f.right.name,
                      distinct)
        return build + sum(added(*step) for step in distinct)

    return walk(phi, True)


def ref_check_name(x, memo):
    got = memo.get(x)
    if got is None:
        got = memo[x] = name_make((ref_check_name(y, memo), 0) for y in x)
    return got


def ref_theta(a, v, depth, memo):
    key = (a, v, depth)
    got = memo.get(key)
    if got is None:
        z = f"z{depth}"
        disj = or_(ref_theta(u, z, depth + 1, memo) for u in a.children)
        got = memo[key] = forall((z,), iff(atom_in(var(z), var(v)), disj))
    return got


def _all_same(ours, theirs) -> int:
    assert len(ours) == len(theirs)
    assert all(a is b for a, b in zip(ours, theirs))
    return len(ours)


@pytest.mark.parametrize("name", [n for n, _ in corpus.corpus_notions()])
def test_grounding_and_substitution_build_what_the_recursion_built(name, monkeypatch):
    P = dict(corpus.corpus_notions())[name]
    N = corpus.oracle_universe(P)
    FR = atomic_forcing(P, N)
    pool = corpus.oracle_pool(P, N)
    exts = [extension(FR, G) for G in generic_filters(P)]
    blocks = {f for phi in pool for f in nodes(phi) if isinstance(f, (Forall, Exists))}

    def rewrites():
        return ([ground_formula(phi, ext) for ext in exts for phi in pool]
                + [substitute(f.body, dict.fromkeys(f.vars, name_const(sigma)))
                   for f in blocks for sigma in N])

    ours = rewrites()
    monkeypatch.setattr(formulas_mod, "_replace_free", ref_replace_free)
    monkeypatch.setattr(forcing_mod, "map_formula", ref_map_formula)
    assert _all_same(ours, rewrites()) == len(exts) * len(pool) + len(blocks) * len(N)


@pytest.mark.parametrize("name", [n for n, _ in corpus.corpus_notions()])
def test_the_polarity_pass_builds_what_the_recursion_built(name, monkeypatch):
    # the one fold over (subformula, sign) pairs against the reference
    # translation, object for object, and its charge against the rule's count
    P = dict(corpus.corpus_notions())[name]
    names = corpus.sample_names(P, corpus.oracle_universe(P))
    rng = random.Random(27)
    sentences = [corpus.random_qf_sentence(rng, P, names) for _ in range(200)]
    guards = []

    class Recorded(forcing_mod._SizeGuard):
        def __init__(self, budget):
            super().__init__(budget)
            guards.append(self)

    monkeypatch.setattr(forcing_mod, "_SizeGuard", Recorded)
    ours = []
    for phi in sentences:
        ours += star_translate(phi, P)
        assert guards[-1].count == ref_charge(phi, P), phi
    monkeypatch.undo()
    theirs = [n for phi in sentences for n in ref_star_translate(phi, P)]
    assert _all_same(ours, theirs) == 400


def test_stage_translations_build_what_the_recursions_built(monkeypatch):
    pool = corpus.iterated_pool()

    def translations():
        tr = StageTranslator(pool, 4)
        return [tr.translate(beta, phi) for beta in range(5) for phi in pool]

    ours = translations()
    theta_memo = {}
    monkeypatch.setattr(truth_mod, "map_formula", ref_map_formula)
    monkeypatch.setattr(truth_mod, "rename_free", ref_rename_free)
    monkeypatch.setattr(truth_mod, "theta_formula",
                        lambda a, v="x": ref_theta(a, v, 0, theta_memo))
    assert _all_same(ours, translations()) == 5 * len(pool)
    assert theta_memo


def test_check_names_and_theta_formulas_build_what_the_recursions_built(monkeypatch):
    monkeypatch.setattr(names_mod, "_check_cache", {})
    monkeypatch.setattr(formulas_mod, "_theta_cache", {})
    check_memo, theta_memo = {}, {}
    assert _all_same([check_name(x) for x in v_stage(4)],
                     [ref_check_name(x, check_memo) for x in v_stage(4)]) == 16
    assert _all_same([theta_formula(a, v) for a in v_stage(3) for v in "xt"],
                     [ref_theta(a, v, 0, theta_memo) for a in v_stage(3) for v in "xt"]) == 8
