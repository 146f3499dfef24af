import random
import time

import pytest

from forcelab import (EMPTY, EMPTY_NAME, And, AtomEq, AtomIn, AtomInG,
                      BudgetError, ForcelabError, Not, Or, and_, atom_eq,
                      atom_in, atom_in_g, atomic_forcing, check_name, forall,
                      forces, map_formula, name_const, name_make, name_universe,
                      nat_encode, nodes, not_, op_name, or_, star_translate, var)
from forcelab import corpus
from forcelab import forcing


def test_filter_atom_reduction(fork):
    a = fork.index("a")
    phi = atom_in_g(name_const(check_name(nat_encode(a))))
    left, right = star_translate(phi, fork)
    assert left is name_make([(EMPTY_NAME, a)])
    assert right is name_make([(EMPTY_NAME, 0)])


def test_negated_filter_atom_reduction(fork):
    a = fork.index("a")
    left, right = star_translate(not_(atom_in_g(name_const(check_name(nat_encode(a))))), fork)
    assert left is name_make([(EMPTY_NAME, a)])
    assert right is EMPTY_NAME


def test_membership_reduction(fork):
    sigma = EMPTY_NAME
    tau = name_make([(check_name(nat_encode(1)), fork.index("b"))])
    left, right = star_translate(atom_in(name_const(sigma), name_const(tau)), fork)
    assert left is tau
    assert right is name_make(tau.entries + ((sigma, 0),))


def test_empty_connectives(fork):
    FR = atomic_forcing(fork, name_universe(fork, 1))
    a_t, b_t = star_translate(and_([]), fork)
    assert all(FR.decide("eq", p, a_t, b_t) for p in fork.conditions())
    a_f, b_f = star_translate(or_([]), fork)
    assert not any(FR.decide("eq", p, a_f, b_f) for p in fork.conditions())


@pytest.mark.parametrize("name", [n for n, _ in corpus.corpus_notions()])
def test_soundness_on_random_sentences(name):
    P = dict(corpus.corpus_notions())[name]
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    names = corpus._sample_names(P, N)
    rng = random.Random(101)
    for _ in range(60):
        sentence = corpus.random_qf_sentence(rng, P, names)
        left, right = star_translate(sentence, P)
        for p in P.conditions():
            assert forces(FR, p, sentence, check_universe=False) == \
                FR.decide("eq", p, left, right), (name, p)


def test_rejects_quantifiers_and_open_formulas(fork):
    with pytest.raises(ForcelabError):
        star_translate(forall(("x",), atom_eq(var("x"), var("x"))), fork)
    with pytest.raises(ForcelabError):
        star_translate(atom_eq(var("x"), var("x")), fork)


def _agrees_with_forcing(P, phi, left, right):
    FR = atomic_forcing(P, name_universe(P, 1))
    return all(forces(FR, p, phi, check_universe=False) == FR.decide("eq", p, left, right)
               for p in P.conditions())


def test_budget_aborts_blowup(fork):
    # 60 distinct atoms under one disjunction: 60 ticks for the atoms and
    # 123 for the disjunction's names
    wide = or_([atom_eq(name_const(check_name(nat_encode(i))), name_const(EMPTY_NAME))
                for i in range(60)])
    with pytest.raises(BudgetError):
        star_translate(wide, fork, budget=100)


def test_the_budget_counts_distinct_nodes(fork):
    # eight nested triple disjunctions of one formula: 3^8 paths but 9
    # distinct nodes, 1 + 8 * 9 = 73 ticks
    sigma = name_const(EMPTY_NAME)
    phi = atom_eq(sigma, sigma)
    for _ in range(8):
        phi = or_([phi, phi, phi])
    left, right = star_translate(phi, fork, budget=100)
    assert _agrees_with_forcing(fork, phi, left, right)
    with pytest.raises(BudgetError):
        star_translate(phi, fork, budget=72)


# Reference copies of the negation passes before they were memoized: tree
# recursions, exponential on shared subformulas.

def ref_nnf(phi, positive):
    if isinstance(phi, Not):
        return ref_nnf(phi.sub, not positive)
    if isinstance(phi, (And, Or)):
        subs = (ref_nnf(s, positive) for s in phi.subs)
        return and_(subs) if isinstance(phi, And) == positive else or_(subs)
    return phi if positive else not_(phi)


def ref_positive(phi, guard):
    if isinstance(phi, (And, Or)):
        subs = (ref_positive(s, guard) for s in phi.subs)
        return and_(subs) if isinstance(phi, And) else or_(subs)
    if isinstance(phi, Not):
        sub, pname = phi.sub, forcing._term_pname
        if isinstance(sub, AtomEq):
            return forcing._not_eq(pname(sub.left), pname(sub.right), guard)
        if isinstance(sub, AtomIn):
            return forcing._not_in(pname(sub.left), pname(sub.right), guard)
        assert isinstance(sub, AtomInG)
    return phi


# Reference copy of the reduce pass before it was memoized: a tree recursion
# that ticks the guard once per visit.

def ref_reduce(phi, conditions, guard):
    guard.tick()
    pname, make, check = forcing._term_pname, name_make, check_name
    if isinstance(phi, AtomEq):
        return pname(phi.left), pname(phi.right)
    if isinstance(phi, AtomIn):
        sigma, tau = pname(phi.left), pname(phi.right)
        return tau, make(tau.entries + ((sigma, 0),))
    if isinstance(phi, AtomInG):
        return make([(EMPTY_NAME, conditions[phi.term.name])]), make([(EMPTY_NAME, 0)])
    if isinstance(phi, Not) and isinstance(phi.sub, AtomInG):
        return make([(EMPTY_NAME, conditions[phi.sub.term.name])]), EMPTY_NAME
    parts = [ref_reduce(s, conditions, guard) for s in phi.subs]
    a_entries = [(op_name(check(nat_encode(i)), a), 0) for i, (a, _) in enumerate(parts)]
    b_entries = [(op_name(check(nat_encode(i)), b), 0) for i, (_, b) in enumerate(parts)]
    if isinstance(phi, And):
        guard.tick(len(parts))
        return make(a_entries), make(b_entries)
    assert isinstance(phi, Or)
    guard.tick(2 * len(parts) + 2)
    u = make(a_entries + b_entries)
    u_j = [make(a_entries + [e for k, e in enumerate(b_entries) if k != j])
           for j in range(len(parts))]
    return make((uj, 0) for uj in u_j), make([(uj, 0) for uj in u_j] + [(u, 0)])


# Reference filter-atom expansion, a map_formula pass kept apart from
# star_translate's polarity walk.

def ref_condition_names(P):
    """The check name of each condition ordinal, mapped to the ordinal."""
    return {check_name(nat_encode(i)): i for i in P.conditions()}


def ref_eliminate_g(phi, P):
    """Each filter atom G(σ) at a name σ other than a condition's check name
    expanded into ⋁ᵢ (G(ǐ) ∧ σ = ǐ)."""
    conditions = ref_condition_names(P)

    def expand(atom, _bound):
        if not isinstance(atom, AtomInG) or atom.term.name in conditions:
            return atom
        return or_(and_([atom_in_g(name_const(c)), atom_eq(atom.term, name_const(c))])
                   for c in conditions)

    return map_formula(phi, expand)


def ref_star_translate(phi, P):
    guard = forcing._SizeGuard(forcing.TRANSLATION_BUDGET)
    step2 = ref_nnf(ref_eliminate_g(phi, P), True)
    return ref_reduce(ref_positive(step2, guard), ref_condition_names(P), guard)


@pytest.mark.parametrize("name", [n for n, _ in corpus.corpus_notions()])
def test_random_sentences_translate_as_before(name):
    P = dict(corpus.corpus_notions())[name]
    names = corpus._sample_names(P, name_universe(P, 1))
    conditions = ref_condition_names(P)
    rng = random.Random(202)
    expanded_under_negation = 0
    for _ in range(60):
        sentence = corpus.random_qf_sentence(rng, P, names)
        left, right = star_translate(sentence, P)
        ref_left, ref_right = ref_star_translate(sentence, P)
        assert left is ref_left and right is ref_right, sentence
        expanded_under_negation += any(
            isinstance(f, Not) and isinstance(f.sub, AtomInG)
            and f.sub.term.name not in conditions for f in nodes(ref_nnf(sentence, True)))
    # the sample reaches filter atoms at non-check names under negation
    assert expanded_under_negation, name


def _chain(depth):
    """f_{k+1} = f_k ∧ ¬f_k over name constants: 2^k paths, k + 1 nodes."""
    f = atom_in(name_const(check_name(EMPTY)), name_const(name_make([(EMPTY_NAME, 1)])))
    for _ in range(depth):
        f = and_([f, not_(f)])
    return f


def test_shared_chains_translate_as_before(fork):
    for depth in range(13):
        left, right = star_translate(_chain(depth), fork)
        ref_left, ref_right = ref_star_translate(_chain(depth), fork)
        assert left is ref_left and right is ref_right, depth


def test_a_deep_shared_chain_translates_quickly(fork):
    for depth in (22, 40):
        phi = _chain(depth)
        start = time.perf_counter()
        left, right = star_translate(phi, fork)
        assert time.perf_counter() - start < 1.0, depth
        assert _agrees_with_forcing(fork, phi, left, right), depth


# --- nesting depth --------------------------------------------------------------
#
# forces and star_translate recurse a few frames per nesting level, so both
# refuse a sentence nested deeper than NESTING_CAP with a BudgetError rather
# than overflow Python's stack.  Alternating junctions recurse deepest in forces.

def _negations(depth):
    phi = atom_eq(name_const(EMPTY_NAME), name_const(EMPTY_NAME))
    for _ in range(depth):
        phi = not_(phi)
    return phi


def _alternations(depth):
    phi = atom_eq(name_const(EMPTY_NAME), name_const(EMPTY_NAME))
    top = atom_in_g(name_const(EMPTY_NAME))
    for i in range(depth):
        phi = (and_ if i % 2 else or_)([phi, top])
    return phi


@pytest.mark.parametrize("shape", [_negations, _alternations])
@pytest.mark.parametrize("depth", [forcing.NESTING_CAP + 1, 1000])
def test_nesting_above_the_cap_is_refused(fork, shape, depth):
    phi = shape(depth)
    assert phi.rank == depth
    FR = atomic_forcing(fork, name_universe(fork, 1))
    with pytest.raises(BudgetError, match="nested"):
        forces(FR, 0, phi)
    with pytest.raises(BudgetError, match="nested"):
        star_translate(phi, fork)


@pytest.mark.parametrize("shape", [_negations, _alternations])
def test_nesting_at_the_cap_is_accepted(fork, shape):
    phi = shape(forcing.NESTING_CAP)
    FR = atomic_forcing(fork, name_universe(fork, 1))
    # an even number of ¬, or junctions each with the forced G(0̌)
    assert all(forces(FR, p, phi) for p in fork.conditions())
    left, right = star_translate(phi, fork)
    if shape is _negations:
        assert _agrees_with_forcing(fork, phi, left, right)
