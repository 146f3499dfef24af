import contextlib
import random
import time
from collections import Counter

import pytest

from forcelab import (EMPTY, EMPTY_NAME, And, AtomEq, AtomIn, AtomInG,
                      BudgetError, ForcelabError, Not, Or, and_, atom_eq,
                      atom_in, atom_in_g, atomic_forcing, boolean_completion,
                      boolean_values, check_name, forall,
                      forces, map_formula, name_const, name_make, name_universe,
                      nat_encode, nodes, not_, op_name, or_, star_translate, var)
from forcelab import corpus, criteria
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
    names = corpus.sample_names(P, N)
    rng = random.Random(101)
    sentences = [corpus.random_qf_sentence(rng, P, names) for _ in range(60)]
    assert criteria.star_translation(FR, sentences) == (0, None, 60 * len(P))


def test_rejects_quantifiers_and_open_formulas(fork):
    with pytest.raises(ForcelabError):
        star_translate(forall(("x",), atom_eq(var("x"), var("x"))), fork)
    with pytest.raises(ForcelabError):
        star_translate(atom_eq(var("x"), var("x")), fork)


def _agrees_with_forcing(P, phi):
    """Criterion 2 on one sentence: its translation agrees with forcing at
    every condition."""
    return criteria.star_translation(atomic_forcing(P, name_universe(P, 1)), [phi]).failures == 0


def _cold():
    """Drop what earlier translations left in the translation tables."""
    forcing._rewrites.clear()
    forcing._charges.clear()
    forcing._junctions.clear()


def _translates(phi, P, budget, warm):
    """Whether star_translate keeps phi within the budget, from a cleared
    cache or from one that a default-budget translation of phi filled."""
    _cold()
    if warm:
        star_translate(phi, P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forcing, "TRANSLATION_BUDGET", budget)
        try:
            star_translate(phi, P)
        except BudgetError:
            return False
    return True


def _wide():
    # 60 distinct atoms under one disjunction: 60 ticks for the atoms and
    # 123 for the disjunction's names
    return or_([atom_eq(name_const(check_name(nat_encode(i))), name_const(EMPTY_NAME))
                for i in range(60)])


def test_budget_aborts_blowup(fork, monkeypatch):
    _cold()
    monkeypatch.setattr(forcing, "TRANSLATION_BUDGET", 100)
    with pytest.raises(BudgetError):
        star_translate(_wide(), fork)


def _nested_triples():
    # eight nested triple disjunctions of one formula: 3^8 paths but 9
    # distinct nodes, 1 + 8 * 9 = 73 ticks
    sigma = name_const(EMPTY_NAME)
    phi = atom_eq(sigma, sigma)
    for _ in range(8):
        phi = or_([phi, phi, phi])
    return phi


def test_the_budget_counts_distinct_nodes(fork, monkeypatch):
    _cold()
    phi = _nested_triples()
    monkeypatch.setattr(forcing, "TRANSLATION_BUDGET", 100)
    star_translate(phi, fork)
    assert _agrees_with_forcing(fork, phi)
    monkeypatch.setattr(forcing, "TRANSLATION_BUDGET", 72)
    with pytest.raises(BudgetError):
        star_translate(phi, fork)


def _singleton_chain(rank, condition):
    n = EMPTY_NAME
    for _ in range(rank):
        n = name_make([(n, condition)])
    return n


def test_negated_atom_rewrites_build_each_distinct_rewrite_once(monkeypatch):
    # ¬(σ = τ) for singleton chains of rank r over conditions 1 and 2: the
    # rewrite's tree expansion has 2^(r+3) - 5 steps, its build ticks, and
    # each distinct rewrite key below it is built once
    runs = Counter()

    def counted(kind, sigma, tau, body=forcing._rewrite_entry):
        runs[kind, sigma, tau] += 1
        return body(kind, sigma, tau)

    monkeypatch.setattr(forcing, "_rewrite_entry", counted)
    for r, ticks in [(4, 123), (8, 2_043), (12, 32_763), (14, 131_067)]:
        _cold()
        runs.clear()
        key = ("eq", _singleton_chain(r, 1), _singleton_chain(r, 2))
        guard = forcing._SizeGuard(10 ** 6)
        forcing._negated(key, guard)
        assert forcing._rewrites[key][1] == ticks, r
        assert ticks < guard.count == forcing._charges[key] < ticks + 10 * 7 * r, r
        assert set(runs.values()) == {1} and len(runs) <= 7 * r, (r, runs)
    _cold()


def test_the_budget_refuses_the_same_negated_chain_cold_or_warm(fork, monkeypatch):
    # 65,531 rewrite ticks at rank 13 and 131,067 at rank 14, against 100,000
    def sentence(r):
        return not_(atom_eq(name_const(_singleton_chain(r, 1)),
                            name_const(_singleton_chain(r, 2))))
    budget = forcing.TRANSLATION_BUDGET
    assert budget == 100_000
    assert _translates(sentence(13), fork, budget, warm=False)
    assert _translates(sentence(13), fork, budget, warm=True)
    for fill in (None, 10 ** 6):  # a cold cache, then one a larger budget filled
        _cold()
        if fill:
            monkeypatch.setattr(forcing, "TRANSLATION_BUDGET", fill)
            star_translate(sentence(14), fork)
            monkeypatch.setattr(forcing, "TRANSLATION_BUDGET", budget)
        with pytest.raises(BudgetError):
            star_translate(sentence(14), fork)
    _cold()


def test_a_deep_negated_chain_is_refused_before_its_rewrite_is_built(fork):
    # the walk over rewrite keys recurses in no Python frame, and refuses as
    # soon as one step's build ticks leave no room: only the steps of the
    # lowest levels are built
    _cold()
    r = 2_000
    sentence = not_(atom_eq(name_const(_singleton_chain(r, 1)),
                            name_const(_singleton_chain(r, 2))))
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        star_translate(sentence, fork)
    assert time.perf_counter() - start < 1.0
    assert 0 < len(forcing._rewrites) < 7 * 20 and not forcing._charges
    _cold()


# The translation tables keep each rewrite and each junction's pair across
# calls, and each negated atom's charge; a warm table must refuse exactly
# what a cold one refuses.

@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_budget_aborts_blowup_on_a_warm_cache(fork, warm):
    assert not _translates(_wide(), fork, 100, warm)
    assert _translates(_wide(), fork, 183, warm)
    assert not _translates(_wide(), fork, 182, warm)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_the_budget_counts_distinct_nodes_on_a_warm_cache(fork, warm):
    phi = _nested_triples()
    assert _translates(phi, fork, 100, warm)
    assert _translates(phi, fork, 73, warm)
    assert not _translates(phi, fork, 72, warm)


def test_rewrite_ticks_are_charged_on_a_warm_cache(fork):
    # a negated equality between two rank-1 names: its rewrite and the
    # reduction of the rewrite together cost exactly `edge` ticks
    N = name_universe(fork, 1)
    phi = not_(atom_eq(name_const(N[-1]), name_const(N[-2])))
    edge = next(b for b in range(1, 1000) if _translates(phi, fork, b, False))
    assert edge > 10
    assert _translates(phi, fork, edge, True)
    assert not _translates(phi, fork, edge - 1, True)


def test_a_cache_warmed_under_three_conditions_serves_four(fork):
    P4 = dict(corpus.corpus_notions())["three-fork"]
    assert (len(fork), len(P4)) == (3, 4)
    # 3̌ is a condition's check name under P4 only; {(∅, 1)} is none
    three = name_const(check_name(nat_encode(3)))
    other = name_const(name_make([(EMPTY_NAME, 1)]))
    phi = or_([atom_in_g(three), not_(atom_in_g(other)),
               and_([atom_in_g(other), not_(atom_in_g(three))])])
    _cold()
    small = star_translate(phi, fork)
    assert small == ref_star_translate(phi, fork)
    large = star_translate(phi, P4)
    assert large == ref_star_translate(phi, P4)
    assert large != small


@contextlib.contextmanager
def _poisoned(table, key, value):
    """The table entry at key replaced by value; on exit the tables are
    dropped, with every pair built from the entry."""
    table[key] = value
    try:
        yield
    finally:
        _cold()


def test_a_poisoned_translation_cache_entry_fails_criterion_2(fork):
    N = name_universe(fork, 1)
    FR = atomic_forcing(fork, N)
    # a membership forced at some conditions and not at others
    sigma, tau = next((s, t) for s in N for t in N if 0 < FR.atomic_value("in", s, t) < FR.full)
    atom = atom_in(name_const(sigma), name_const(tau))
    top, bottom = atom_in_g(name_const(check_name(nat_encode(0)))), or_([])
    negated, positive = and_([not_(atom), top]), or_([atom, bottom])
    _cold()
    assert _agrees_with_forcing(fork, negated)
    # the rewrite of ¬(σ ∈ τ) read back as the pair of σ ∈ τ, keeping its ticks
    key = ("in", sigma, tau)
    with _poisoned(forcing._rewrites, key,
                   (star_translate(atom, fork), *forcing._rewrites[key][1:])):
        assert not _agrees_with_forcing(fork, negated)
    assert _agrees_with_forcing(fork, atom)
    # the junction of σ ∈ τ's pair and the false pair read back as the false
    # pair ∅ = {∅̌}: positive atoms keep no pair across calls, so the entry
    # that holds σ ∈ τ's contribution to the disjunction is the junction's
    false_pair = (EMPTY_NAME, name_make([(EMPTY_NAME, 0)]))
    parts = (star_translate(atom, fork), star_translate(bottom, fork))
    with _poisoned(forcing._junctions, (parts, False), false_pair):
        assert not _agrees_with_forcing(fork, positive)
    for phi in (negated, positive):
        assert _agrees_with_forcing(fork, phi)


@pytest.mark.parametrize("outside", [
    lambda sigma: not_(atom_eq(sigma, name_const(EMPTY_NAME))),
    lambda sigma: not_(atom_in_g(sigma)),
    lambda sigma: atom_eq(sigma, sigma),
], ids=["negated-equality", "negated-filter-atom", "reflexive-equality"])
def test_a_name_outside_the_notion_is_refused_before_any_walk(fork, outside):
    # {(∅, 9)} names a condition fork lacks; the refusal is the kernel's
    _cold()
    phi = outside(name_const(name_make([(EMPTY_NAME, 9)])))
    with pytest.raises(ForcelabError, match=forcing._OUTSIDE):
        star_translate(phi, fork)
    assert not (forcing._rewrites or forcing._charges or forcing._junctions)


def test_a_rewrite_cycle_is_refused(fork, monkeypatch):
    # a measure that never drops stands for a cycle among rewrite keys
    _cold()
    monkeypatch.setattr(forcing, "_measure", lambda kind, sigma, tau: (0, 0))
    N = name_universe(fork, 1)
    with pytest.raises(ForcelabError, match="measure failed to decrease"):
        star_translate(not_(atom_eq(name_const(N[-1]), name_const(N[-2]))), fork)
    _cold()


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
            return ref_not_eq(pname(sub.left), pname(sub.right), guard)
        if isinstance(sub, AtomIn):
            return ref_not_in(pname(sub.left), pname(sub.right), guard)
        assert isinstance(sub, AtomInG)
    return phi


# Reference rewrites of negated atoms into positive formulas: tree
# recursions, exponential in the names' rank, that share no code with the
# translation.

def ref_g(r):
    return atom_in_g(name_const(check_name(nat_encode(r))))


def ref_not_eq(sigma, tau, guard):
    guard.tick()
    return or_([ref_not_sub(sigma, tau, guard), ref_not_sub(tau, sigma, guard)])


def ref_not_sub(sigma, tau, guard):
    guard.tick()
    return or_(and_([ref_g(r), ref_not_in(rho, tau, guard)]) for rho, r in sigma.entries)


def ref_not_in(sigma, tau, guard):
    guard.tick()
    return and_(or_([not_(ref_g(r)), ref_not_eq(sigma, rho, guard)]) for rho, r in tau.entries)


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

    def expand(atom):
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
    names = corpus.sample_names(P, name_universe(P, 1))
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


def _edge_sentences(P):
    """Junctions with a part whose two names coincide (σ = σ gives (σ, σ),
    so uⱼ = u), with repeated parts, of widths 0, 1 and 6, and filter atoms
    at a non-check name under a negation."""
    N = name_universe(P, 1)
    s, t, u = (name_const(n) for n in (N[-1], N[-2], N[1]))
    assert N[-1] not in ref_condition_names(P) and N[1] in ref_condition_names(P)
    same, other = atom_eq(s, s), atom_in(t, s)
    assert star_translate(same, P) == (N[-1], N[-1])
    six = [same, other, atom_eq(s, t), atom_in(u, t), not_(atom_eq(t, u)), atom_in_g(u)]
    sentences = [junction(parts) for junction in (and_, or_) for parts in (
        [same, other], [other, same, same], [same, same], [other, other, other],
        [], [same], [other], [not_(other)], six, [not_(a) for a in six])]
    return sentences + [not_(atom_in_g(s)), or_([not_(atom_in_g(t)), same]),
                        and_([same, not_(or_([atom_in_g(s), same, same]))])]


@pytest.mark.parametrize("name", ["fork", "diamond"])
def test_edge_junctions_translate_as_the_reference(name):
    P = dict(corpus.corpus_notions())[name]
    _cold()
    for phi in _edge_sentences(P):
        left, right = star_translate(phi, P)
        ref_left, ref_right = ref_star_translate(phi, P)
        assert left is ref_left and right is ref_right, phi
        assert _agrees_with_forcing(P, phi), phi


# Reference copy of the atomic recursion before atoms were read off the
# names: every pair, check names and trivially full atoms included, goes
# through the membership, subset and equality clauses.

class RefAtomic:
    def __init__(self, P):
        self.full = (1 << len(P)) - 1
        self.down = [P.down(p) for p in P.conditions()]
        self.up = [P.up(p) for p in P.conditions()]
        self.memo = {}

    def neg(self, W):
        covered = 0
        for p, up in enumerate(self.up):
            if W >> p & 1:
                covered |= up
        return self.full & ~covered

    def value(self, kind, sigma, tau):
        key = (kind, sigma, tau)
        if key not in self.memo:
            if kind == "in":
                W = 0
                for rho, r in tau.entries:
                    W |= self.value("eq", sigma, rho) & self.down[r]
                out = self.neg(self.neg(W))
            elif kind == "sub":
                out = self.full
                for rho, r in sigma.entries:
                    out &= self.neg(self.down[r] & self.neg(self.value("in", rho, tau)))
                    if not out:
                        break
            else:
                out = self.value("sub", sigma, tau)
                if out:
                    out &= self.value("sub", tau, sigma)
            self.memo[key] = out
        return self.memo[key]


@pytest.mark.parametrize("name", [n for n, _ in corpus.corpus_notions()])
def test_atoms_read_off_the_names_agree_with_the_plain_recursion(name):
    # every atom the plain recursion reaches from the translated pairs of 60
    # sentences, against the kernel's table and against Boolean values
    P = dict(corpus.corpus_notions())[name]
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    bv = boolean_values(boolean_completion(P))
    ref = RefAtomic(P)
    names = corpus.sample_names(P, N)
    rng = random.Random(303)
    for _ in range(60):
        ref.value("eq", *star_translate(corpus.random_qf_sentence(rng, P, names), P))
    read_off = {"in": 0, "sub": 0, "eq": 0}
    for (kind, s, t), V in ref.memo.items():
        assert FR.atomic_value(kind, s, t) == V, (name, kind)
        for p in P.conditions():
            assert bv.derived_forces(p, kind, s, t) == FR.decide(kind, p, s, t), (name, kind, p)
        read_off[kind] += s is t if kind != "in" else (s, 0) in t.entries
    # the sample reaches every read-off rule, hundreds of times each
    assert min(read_off.values()) > 100, (name, read_off)


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
        star_translate(phi, fork)
        assert time.perf_counter() - start < 1.0, depth
        assert _agrees_with_forcing(fork, phi), depth


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
    star_translate(phi, fork)
    if shape is _negations:
        assert _agrees_with_forcing(fork, phi)
