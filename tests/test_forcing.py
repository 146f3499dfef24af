import functools
import itertools
import operator
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from forcelab import (EMPTY, EMPTY_NAME, BudgetError, ClassName, ClosureError,
                      ForcelabError, ForcingRelation, and_, atom_eq, atom_in, atom_in_class,
                      atom_in_g, atomic_forcing, atomic_recursion_instance,
                      audit_forcing_relation, boolean_completion,
                      boolean_values, build_collapse, check_name, compare_atomic_table,
                      etr_solve, eval_class, eval_name, exists, extension, forall,
                      forces, forcing_truth, g_dot, generic_filters, hf_make, implies,
                      make_notion, name_const, name_make, name_universe, nat_encode, not_,
                      op_name, or_, subname_closure, tarski_truth, truth_lemma_check,
                      truth_name, v_stage, var, verify_solution)
from forcelab import corpus, criteria
from forcelab import forcing as forcing_mod
from forcelab.hfset import hf_pair, hf_unpair, nat_decode
from forcelab.names import name_to_hf, op_unpair
from forcelab.poset import bits
from forcelab.truth import FiniteStructure
from test_forcing_reference import _reference_value


@pytest.fixture
def fork_relation(fork):
    return atomic_forcing(fork, corpus.oracle_universe(fork))


def test_atomic_examples_on_the_fork(fork, fork_relation):
    FR = fork_relation
    a, b = fork.index("a"), fork.index("b")
    sigma = name_make([(EMPTY_NAME, a)])
    assert FR.decide("eq", a, sigma, check_name(hf_make([EMPTY])))
    assert FR.decide("eq", b, sigma, EMPTY_NAME)
    assert not FR.decide("eq", 0, sigma, check_name(hf_make([EMPTY])))
    assert not FR.decide("eq", 0, sigma, EMPTY_NAME)


def test_reflexivity_forced_by_top(fork_relation):
    for sigma in fork_relation.universe:
        assert fork_relation.decide("eq", 0, sigma, sigma)


def test_forced_equality_and_filter_membership_at_a(fork, fork_relation):
    a = fork.index("a")
    sigma = name_make([(EMPTY_NAME, a)])
    assert fork_relation.decide("eq", a, sigma, check_name(hf_make([EMPTY])))
    member = atom_in_g(name_const(check_name(nat_encode(1))))
    assert fork_relation.value(member) >> a & 1


def test_filter_atom_matches_order(corpus_notion):
    P = corpus_notion
    FR = atomic_forcing(P, corpus.oracle_universe(P))
    for p in P.conditions():
        for q in P.conditions():
            atom = atom_in_g(name_const(check_name(nat_encode(q))))
            assert forces(FR, p, atom) == P.le(p, q)


def test_filter_atom_against_direct_evaluation(corpus_notion):
    P = corpus_notion
    FR = atomic_forcing(P, corpus.oracle_universe(P))
    gd = g_dot(P)
    for G in generic_filters(P):
        for q in P.conditions():
            atom = atom_in_g(name_const(check_name(nat_encode(q))))
            forced = any(forces(FR, p, atom) for p in bits(G))
            true = nat_encode(q) in eval_class(gd, G)
            assert forced == true


def test_empty_conjunction_is_forced(fork_relation):
    assert forces(fork_relation, 0, and_([]))
    assert not forces(fork_relation, 0, or_([]))


def test_negation_clause_restated(fork, fork_relation):
    FR = fork_relation
    pool = [atom_eq(name_const(s), name_const(t))
            for s in FR.universe[:4] for t in FR.universe[:4]]
    for phi in pool:
        for p in fork.conditions():
            lhs = forces(FR, p, not_(phi))
            rhs = not any(forces(FR, q, phi) for q in bits(fork.down(p)))
            assert lhs == rhs


def test_exists_nontop_filter_member(fork, fork_relation):
    # densely many conditions force ǎ or b̌ into the filter
    phi = exists(("x",), and_([atom_in_g(var("x")),
                               not_(atom_eq(var("x"), name_const(EMPTY_NAME)))]))
    assert forces(fork_relation, 0, phi)


def test_disjunction_equals_its_abbreviation(fork, fork_relation):
    FR = fork_relation
    atoms = [atom_eq(name_const(s), name_const(t))
             for s in FR.universe[:3] for t in FR.universe[:3]]
    for phi, psi in itertools.product(atoms[:4], repeat=2):
        direct = or_([phi, psi])
        abbreviated = not_(and_([not_(phi), not_(psi)]))
        for p in fork.conditions():
            assert forces(FR, p, direct) == forces(FR, p, abbreviated)


def test_exists_equals_its_abbreviation(fork, fork_relation):
    FR = fork_relation
    body = atom_in_g(var("x"))
    direct = exists(("x",), body)
    from forcelab import forall
    abbreviated = not_(forall(("x",), not_(body)))
    for p in fork.conditions():
        assert forces(FR, p, direct) == forces(FR, p, abbreviated)


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


def test_forces_rejects_open_and_ground(fork_relation):
    with pytest.raises(ForcelabError):
        forces(fork_relation, 0, atom_eq(var("x"), var("x")))
    from forcelab import const
    with pytest.raises(ForcelabError):
        forces(fork_relation, 0, atom_eq(const(EMPTY), const(EMPTY)))


def test_forces_checks_universe(fork_relation):
    stranger = check_name(nat_encode(4))
    phi = atom_eq(name_const(stranger), name_const(stranger))
    with pytest.raises(ForcelabError):
        forces(fork_relation, 0, phi)
    assert forces(fork_relation, 0, phi, check_universe=False)


# A name outside the universe may mention a condition the notion lacks: the
# relation refuses it as its constructor refuses such a universe name.

def _past_the_fork():
    return name_make([(EMPTY_NAME, 9)])


def test_atomic_value_refuses_a_condition_outside_the_notion(fork_relation):
    with pytest.raises(ForcelabError, match="condition outside the notion"):
        fork_relation.atomic_value("in", EMPTY_NAME, _past_the_fork())


@pytest.mark.parametrize("below", [["a"], ["a", "b"]], ids=["over-a", "over-both"])
def test_a_token_over_fork_conditions_lifts_the_forks_atomic_table(fork, below):
    # t lies below only the top and above the given conditions of the fork
    P = make_notion([*fork.elements, "t"], [(c, "t") for c in below])
    names = corpus.oracle_universe(fork)
    lifted = ForcingRelation(P, names, base=atomic_forcing(fork, names))
    assert lifted._atomic == atomic_forcing(P, names)._atomic


def test_a_notion_that_does_not_extend_the_base_by_tokens_is_refused(fork):
    base = atomic_forcing(fork, ())
    notions = dict(corpus.corpus_notions())
    for P in (notions["three-fork"],  # a later condition above none of the fork's
              notions["tree-right"],  # b above later conditions
              notions["all-equivalent"],  # another order on three conditions
              make_notion([*fork.elements, "t", "u"], [("a", "t"), ("u", "t")]),  # u below t
              make_notion(["1", "a"])):  # fewer conditions
        with pytest.raises(ForcelabError, match="does not extend the base's by tokens"):
            ForcingRelation(P, (), base=base)


def test_decide_refuses_a_condition_outside_the_notion(fork_relation):
    with pytest.raises(ForcelabError, match="condition outside the notion"):
        fork_relation.decide("in", 0, EMPTY_NAME, _past_the_fork())


def test_forces_off_the_universe_refuses_a_condition_outside_the_notion(fork_relation):
    phi = atom_in(name_const(EMPTY_NAME), name_const(_past_the_fork()))
    with pytest.raises(ForcelabError, match="condition outside the notion"):
        forces(fork_relation, 0, phi, check_universe=False)


def test_a_class_name_with_a_condition_outside_the_notion_is_refused(fork_relation):
    with pytest.raises(ForcelabError, match="condition outside the notion"):
        fork_relation.register_class(ClassName.make("C", [(EMPTY_NAME, 7)]))
    with pytest.raises(ForcelabError, match="no class name registered as 'C'"):
        forces(fork_relation, 0, atom_in_class(name_const(EMPTY_NAME), "C"))


def test_universe_must_be_closed(fork):
    sigma = name_make([(check_name(nat_encode(1)), 0)])
    with pytest.raises(ClosureError):
        atomic_forcing(fork, [sigma])


def test_audit_passes_on_corpus(corpus_notion):
    P = corpus_notion
    FR = atomic_forcing(P, name_universe(P, 1))
    report = audit_forcing_relation(FR)
    assert report.ok, report.failures()


def test_audit_catches_corruption(fork):
    FR = atomic_forcing(fork, name_universe(fork, 1))
    sigma = FR.universe[1]
    a = fork.index("a")
    assert FR.decide("eq", a, sigma, sigma)
    FR._atomic[("eq", sigma, sigma)] &= ~(1 << a)
    report = audit_forcing_relation(FR)
    assert not report.ok
    assert "downward-closure" in report.failures() or "density" in report.failures()


def test_extension_quotient_identifications(fork):
    FR = atomic_forcing(fork, name_universe(fork, 1))
    a = fork.index("a")
    up_a = next(G for G in generic_filters(fork) if G >> a & 1)
    ext = extension(FR, up_a)
    sigma = name_make([(EMPTY_NAME, a)])
    tau = name_make([(EMPTY_NAME, 0)])
    assert ext.representative[sigma] is ext.representative[tau]
    assert ext.evaluation[sigma] is hf_make([EMPTY])
    assert ext.evaluation[tau] is hf_make([EMPTY])


def test_extension_filter_class_matches_direct(fork):
    FR = atomic_forcing(fork, corpus.oracle_universe(fork))
    for G in generic_filters(fork):
        ext = extension(FR, G)
        direct = eval_class(g_dot(fork), G)
        assert ext.structure.predicates["G"] == direct & set(ext.structure.domain)


def test_the_filter_class_name_is_built_on_first_use(monkeypatch, fork):
    from forcelab import forcing

    calls = []

    def counting_g_dot(P):
        calls.append(P)
        return g_dot(P)

    monkeypatch.setattr(forcing, "g_dot", counting_g_dot)
    ft = forcing_truth(3, [EMPTY], corpus.first_order_pool())
    FR = ft.relation
    phi = atom_in_class(var("x"), "A")
    assert ft.holds(phi, {"x": EMPTY}) and not ft.holds(phi, {"x": hf_make([EMPTY])})
    assert FR.value(ft._stars[phi], {"x": ft.slot_names[EMPTY]}) == FR.full
    assert calls == []
    atom = atom_in_g(name_const(check_name(nat_encode(1))))
    assert forces(FR, 1, atom, check_universe=False)
    assert not forces(FR, 0, atom, check_universe=False)
    assert calls == [ft.fa]
    assert list(FR.classes) == ["G", "A"]
    assert FR.classes["G"].entries == g_dot(ft.fa).entries
    assert calls == [ft.fa]

    calls.clear()
    FR = atomic_forcing(fork, corpus.oracle_universe(fork))
    FR.register_class(ClassName.make("T", []))
    assert calls == []
    for G in generic_filters(fork):
        assert sorted(extension(FR, G).class_extensions) == ["G", "T"]
    assert calls == [fork]
    assert list(FR.classes) == ["G", "T"]


def _quotient_eval(ext, phi, assignment):
    """Satisfaction computed on the quotient side only: membership and class
    relations on representatives, quantifiers over the blocks."""
    from forcelab import And, AtomEq, AtomIn, AtomInClass, AtomInG, Exists, Forall, Not, Or
    from forcelab.formulas import NameConst, Var

    def term_block(t):
        if isinstance(t, NameConst):
            return ext.representative[t.name]
        if isinstance(t, Var):
            return assignment[t.name]
        raise AssertionError

    reps = sorted(set(ext.representative.values()), key=lambda n: n.key)
    if isinstance(phi, AtomEq):
        return term_block(phi.left) is term_block(phi.right)
    if isinstance(phi, AtomIn):
        return (term_block(phi.left), term_block(phi.right)) in ext.membership
    if isinstance(phi, AtomInClass):
        return term_block(phi.term) in ext.class_extensions[phi.ident]
    if isinstance(phi, AtomInG):
        return term_block(phi.term) in ext.class_extensions["G"]
    if isinstance(phi, Not):
        return not _quotient_eval(ext, phi.sub, assignment)
    if isinstance(phi, And):
        return all(_quotient_eval(ext, s, assignment) for s in phi.subs)
    if isinstance(phi, Or):
        return any(_quotient_eval(ext, s, assignment) for s in phi.subs)
    if isinstance(phi, (Forall, Exists)):
        want_all = isinstance(phi, Forall)
        for values in itertools.product(reps, repeat=len(phi.vars)):
            inner = dict(assignment)
            inner.update(zip(phi.vars, values))
            if _quotient_eval(ext, phi.body, inner) != want_all:
                return not want_all
        return want_all
    raise AssertionError(type(phi))


def test_quotient_satisfaction_agrees_with_direct(fork):
    from forcelab import ground_formula
    from forcelab.truth import eval_formula
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    pool = corpus.oracle_pool(fork, N)
    for G in generic_filters(fork):
        ext = extension(FR, G)
        for phi in pool:
            direct = eval_formula(ext.structure, ground_formula(phi, ext), {})
            assert _quotient_eval(ext, phi, {}) == direct


def test_truth_lemma_on_oracle_pool(corpus_notion):
    P = corpus_notion
    N = corpus.oracle_universe(P)
    FR = atomic_forcing(P, N)
    ok, failure = truth_lemma_check(FR, corpus.oracle_pool(P, N))
    assert ok, failure


def test_atomic_relation_as_recursion_instance(fork):
    N = name_universe(fork, 1)
    FR = atomic_forcing(fork, N)
    inst, codec, stage_of = atomic_recursion_instance(fork, N)
    sol = etr_solve(inst)
    assert verify_solution(inst, sol) == (True, None)
    assert compare_atomic_table(FR, sol, codec)


# Criterion 7's staged atomic instances code "p forces σ ∈ τ" (kind 0) and
# "p forces σ = τ" (kind 1) as the doubleton {p̄, ⟨kind, ⟨⌜σ⌝, ⌜τ⌝⟩⟩}.

CRITERION_7_NOTIONS = corpus.corpus_notions()[:6]


@pytest.mark.parametrize("label", [label for label, _ in CRITERION_7_NOTIONS])
def test_staged_atomic_codes_are_doubletons_in_condition_order(label):
    P = dict(CRITERION_7_NOTIONS)[label]
    N = sorted(set(name_universe(P, 1)), key=lambda n: n.key)
    inst, codec, _ = atomic_recursion_instance(P, N)
    assert len(codec) == 2 * len(P.conditions()) * len(N) ** 2
    assert inst.domain == tuple(codec)
    assert list(codec.values()) == [(p, kind, s, t) for p in P.conditions()
                                    for kind in ("in", "eq") for s in N for t in N]
    for x, (p, kind, s, t) in codec.items():
        assert len(x) == 2 and nat_encode(p) in x, x
        (c,) = [m for m in x if nat_decode(m) is None]
        assert hf_unpair(c) == (nat_encode(("in", "eq").index(kind)),
                                hf_pair(name_to_hf(s), name_to_hf(t)))


@pytest.mark.parametrize("label", [label for label, P in CRITERION_7_NOTIONS
                                   if len(P.conditions()) > 2])
def test_staged_atomic_codes_that_collide_are_refused(monkeypatch, label):
    # the last condition coded as condition 0: a dict keyed by the codes
    # would keep one of the two entries and drop the other
    P = dict(CRITERION_7_NOTIONS)[label]
    last, real = len(P.conditions()) - 1, forcing_mod.nat_encode
    monkeypatch.setattr(forcing_mod, "nat_encode", lambda k: real(0 if k == last else k))
    with pytest.raises(ForcelabError, match="collide"):
        atomic_recursion_instance(P, name_universe(P, 1))


def test_staged_atomic_codes_hold_no_keys_and_record_no_unpairs():
    # a fresh interpreter, so that no other test has read a code's key
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    code = textwrap.dedent("""
        from forcelab import atomic_recursion_instance, corpus, hfset, name_universe
        P = dict(corpus.corpus_notions())["four-fork"]
        N = name_universe(P, 1)
        unpairs = len(hfset._unpairs)
        _, codec, _ = atomic_recursion_instance(P, N)
        keyed = sum(x._key is not None for x in codec)
        print(len(codec), keyed, len(hfset._unpairs) - unpairs)
    """)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    codes, keyed, unpairs_grown = map(int, done.stdout.split())
    assert codes > 1000
    assert keyed == 0 and unpairs_grown == 0


def _both_sides_agree(P, N) -> bool:
    """The direct table against the staged instance and the Boolean values."""
    FR = atomic_forcing(P, N)
    inst, codec, _ = atomic_recursion_instance(P, N)
    bv = boolean_values(boolean_completion(P))
    return (compare_atomic_table(FR, etr_solve(inst), codec)
            and criteria.value_coherence(FR, bv).failures == 0)


def test_check_name_atoms_are_read_off_their_sets(corpus_notion):
    P = corpus_notion
    stage = v_stage(3)
    checks = {x: check_name(x) for x in stage}
    FR = atomic_forcing(P, list(checks.values()))
    for x, y in itertools.product(stage, repeat=2):
        s, t = checks[x], checks[y]
        assert FR.atomic_value("in", s, t) == (FR.full if x in y else 0)
        assert FR.atomic_value("sub", s, t) == (FR.full if all(m in y for m in x) else 0)
        assert FR.atomic_value("eq", s, t) == (FR.full if x is y else 0)
    assert _both_sides_agree(P, list(checks.values()))


def test_atoms_between_check_and_plain_names_take_the_recursion(corpus_notion):
    P = corpus_notion
    p = len(P) - 1
    one = check_name(hf_make([EMPTY]))
    sigma = name_make([(check_name(EMPTY), p)])
    N = subname_closure([check_name(x) for x in v_stage(3)] + [sigma])
    FR = atomic_forcing(P, N)
    # σ = 1̌ holds exactly where ∅̌ ∈ σ does: below which down(p) is dense
    expected = boolean_completion(P).algebra.regularize(P.down(p))
    assert FR.atomic_value("eq", sigma, one) == expected
    assert _both_sides_agree(P, N)


# neg and regularize held to their pointwise definitions: neg(W) holds the p
# with no extension in W, and regularize is neg applied twice.

def _pointwise_neg(P, W):
    return sum(1 << p for p in P.conditions() if not P.down(p) & W)


def _neg_inputs():
    for size in range(1, 5):  # every mask of every topped preorder
        for P in corpus.all_topped_preorders(size):
            yield P, range(1 << size)
    rng = random.Random(43)
    for n in (2, 3):
        stage = v_stage(n)
        for A in ([], stage[1:]):
            P = build_collapse(n, A)
            conditions = range(len(P))
            downsets = [functools.reduce(operator.or_, map(P.down, rng.sample(conditions, k)))
                        for k in (1, 2, 3) for _ in range(20)]
            sparse = [sum(1 << p for p in rng.sample(conditions, k))
                      for k in (1, 2, 3) for _ in range(20)]
            dense = [rng.getrandbits(len(P)) for _ in range(20)]
            yield P, [0, (1 << len(P)) - 1, *downsets, *sparse, *dense]


def test_neg_and_regularize_are_the_pointwise_definitions():
    compared = 0
    for P, masks in _neg_inputs():
        FR = atomic_forcing(P, ())
        for W in masks:
            neg = _pointwise_neg(P, W)
            assert FR.neg(W) == neg, (P, W)
            assert FR.regularize(W) == _pointwise_neg(P, neg), (P, W)
            compared += 1
    assert compared == 786 + 4 * 142  # the preorders' masks, then each collapse's


# The kernel reads ⟨a, b⟩ = ⟨c, d⟩ off a = c and b = d; the staged instance,
# the law audit and criterion 4's direct side see no such shortcut.

PAIR_NOTIONS = [(label, P) for label, P in corpus.corpus_notions()
                if len(P) <= 4 or label == "diamond"]


def _pair_universe(P):
    """The rank-1 names and the pair names of the first six, subname-closed."""
    N = name_universe(P, 1)
    return subname_closure([*N, *(op_name(a, b) for a in N[:6] for b in N[:6])])


@pytest.mark.parametrize("label", [label for label, _ in PAIR_NOTIONS])
def test_pair_name_equations_agree_with_the_staged_instance_and_the_laws(label):
    P = dict(PAIR_NOTIONS)[label]
    N = _pair_universe(P)
    assert sum(op_unpair(n) is not None for n in N) >= min(6, 2 ** len(P)) ** 2
    FR = atomic_forcing(P, N)
    inst, codec, _ = atomic_recursion_instance(P, N)
    assert compare_atomic_table(FR, etr_solve(inst), codec)
    assert audit_forcing_relation(FR).ok


MUTANT_PAIR_EQUATIONS = {
    "swapped": lambda eq, a, b, c, d: eq(a, d) & eq(b, c),
    "first-only": lambda eq, a, b, c, d: eq(a, c),
}


def _mutate_pair_equations(monkeypatch, combine):
    """The kernel with the pair-name equation read off the components by
    `combine`, wherever the pair branch of atomic_value takes it."""
    real = forcing_mod.ForcingRelation.atomic_value

    def atomic_value(self, kind, sigma, tau):
        key = (kind, sigma, tau)
        if (kind == "eq" and key not in self._atomic and sigma is not tau
                and (sigma.max_condition or tau.max_condition)
                and (left := op_unpair(sigma)) and (right := op_unpair(tau))):
            self._atomic[key] = combine(lambda x, y: atomic_value(self, "eq", x, y),
                                        *left, *right)
        return real(self, kind, sigma, tau)

    monkeypatch.setattr(forcing_mod.ForcingRelation, "atomic_value", atomic_value)


@pytest.mark.parametrize("mutant", list(MUTANT_PAIR_EQUATIONS))
def test_a_wrong_pair_equation_fails_criterion_4(monkeypatch, mutant, fresh_token_free_relations):
    _mutate_pair_equations(monkeypatch, MUTANT_PAIR_EQUATIONS[mutant])
    pool = corpus.first_order_pool()
    base = v_stage(2)
    failures = 0
    for mask in range(1 << len(base)):
        A = [base[i] for i in range(len(base)) if mask >> i & 1]
        direct = tarski_truth(FiniteStructure(base, {"A": A}), pool)
        failures += criteria.collapse_truth(forcing_truth(2, A, pool), direct).failures
    assert failures > 0


def test_swapped_pair_components_fail_the_staged_comparison(monkeypatch, fork):
    _mutate_pair_equations(monkeypatch, MUTANT_PAIR_EQUATIONS["swapped"])
    N = _pair_universe(fork)
    inst, codec, _ = atomic_recursion_instance(fork, N)
    assert not compare_atomic_table(atomic_forcing(fork, N), etr_solve(inst), codec)


def test_truth_name_atomic_pool(fork):
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    ns = [name_const(n) for n in N[:3]]
    pool = [atom_eq(s, t) for s in ns for t in ns]
    tn = truth_name(FR, pool)
    assert tn.ok
    # the named class collects exactly the forced statements
    for G in generic_filters(fork):
        ext = extension(FR, G)
        values = eval_class(tn.tdot, G)
        from forcelab import encode_formula
        for phi in pool:
            declared = hf_pair(encode_formula(phi), EMPTY) in values
            forced = any(forces(FR, p, phi) for p in bits(G))
            assert declared == forced


def test_truth_name_instantiates_a_rebound_variable(fork):
    # the instances of ∀x ∀x (x = x) are ∀x (x = x) itself: the inner binder
    # keeps x, so the pool is closed under instances
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    x = var("x")
    pool = [forall(("x",), forall(("x",), atom_eq(x, x))), forall(("x",), atom_eq(x, x))]
    pool += [atom_eq(name_const(n), name_const(n)) for n in N]
    tn = truth_name(FR, pool)
    assert tn.ok and tn.failures == []


def test_truth_name_empty_pool(fork_relation):
    tn = truth_name(fork_relation, [])
    assert tn.ok and not tn.tdot.entries


def test_truth_name_requires_closed_subformulas(fork_relation):
    phi = atom_eq(name_const(EMPTY_NAME), name_const(EMPTY_NAME))
    with pytest.raises(ClosureError):
        truth_name(fork_relation, [not_(phi)])


def test_registering_a_new_class_keeps_the_values_and_a_replaced_one_drops_them(fork):
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    for phi in corpus.oracle_pool(fork, N):
        FR.value(phi)
    kept = dict(FR._values)
    sigma = name_const(N[1])
    FR.register_class(ClassName.make("T", []))
    assert FR._values == kept
    assert FR.value(atom_in_class(sigma, "T")) == 0
    # the same class again changes nothing; one more entry changes the value
    FR.register_class(ClassName.make("T", []))
    assert FR._values.keys() == kept.keys() | {atom_in_class(sigma, "T")}
    FR.register_class(ClassName.make("T", [(N[1], 0)]))
    assert FR.value(atom_in_class(sigma, "T")) == FR.full


def test_a_mask_without_the_top_fails_extension(fork):
    # without the top a check name evaluates to the empty set, and the
    # quotient disagrees with the direct side
    FR = atomic_forcing(fork, corpus.oracle_universe(fork))
    G = generic_filters(fork)[0]
    extension(FR, G)
    with pytest.raises(ForcelabError):
        extension(FR, G & ~1)


def test_the_direct_side_of_extension_is_eval_name_and_eval_class(fork):
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    tn = truth_name(FR, list(dict.fromkeys(corpus.truth_name_pool(fork, N))))
    assert tn.ok
    for G in generic_filters(fork):
        ext = extension(FR, G)
        assert ext.class_values["T"] == eval_class(tn.tdot, G)
        assert ext.class_values["G"] == eval_class(g_dot(fork), G)
        assert ext.evaluation == {n: eval_name(n, G) for n in N}
    # a class name registered again under its ident is evaluated afresh
    FR.register_class(ClassName.make("T", [(N[1], 0)]))
    for G in generic_filters(fork):
        assert extension(FR, G).class_values["T"] == {eval_name(N[1], G)}


def test_an_eager_table_over_the_atomic_budget_is_refused(fork, monkeypatch):
    N = corpus.oracle_universe(fork)
    monkeypatch.setattr(forcing_mod, "ATOMIC_BUDGET", len(fork) * len(N) ** 2 - 1)
    with pytest.raises(BudgetError, match=r"^3 conditions x 9\^2 pairs exceeds budget 242$"):
        atomic_forcing(fork, N)


def test_a_fresh_table_holds_every_pair_of_the_universe(fork):
    FR = atomic_forcing(fork, name_universe(fork, 1))
    pairs = {(kind, s, t) for s in FR.universe for t in FR.universe for kind in ("in", "sub", "eq")}
    assert len(pairs) == 3 * len(FR.universe) ** 2
    assert pairs <= FR._atomic.keys()


# Deeper names: four-fork with its oracle universe and 300
# seeded rank-2 names, 1-8 entries each drawn from the rank-1 names under any
# condition, closed under subnames.  Its entries are non-check names under
# non-top conditions, where the in/sub/eq recursion does its work.

@pytest.fixture(scope="module")
def deep_four_fork():
    P = dict(corpus.corpus_notions())["four-fork"]
    rng = random.Random(0)
    N1 = name_universe(P, 1)
    deep = [name_make([(rng.choice(N1), rng.randrange(len(P)))
                       for _ in range(rng.randint(1, 8))]) for _ in range(300)]
    oracle = corpus.oracle_universe(P)
    FR = atomic_forcing(P, subname_closure(list(oracle) + deep))
    return FR, corpus.oracle_pool(P, oracle)


def test_rank_2_names_keep_the_truth_lemma_and_the_laws(deep_four_fork):
    FR, pool = deep_four_fork
    assert len(FR.universe) == 331 and len(FR._atomic) == 3 * 331 ** 2
    assert truth_lemma_check(FR, pool) == (True, None)
    assert audit_forcing_relation(FR).ok


def test_a_flipped_rank_2_entry_fails_the_truth_lemma(deep_four_fork):
    # The filter's least member m lies below every member, so a downward-
    # closed value meets G iff it holds m: flipping m where no other member
    # of G is set changes the forced row at G.
    FR, pool = deep_four_fork
    P = FR.notion
    g = generic_filters(P)[0]
    m = next(q for q in bits(g) if all(P.le(q, r) for r in bits(g)))
    deep = [n for n in FR.universe if n.rank == 2 and n.max_condition]
    key = next((kind, s, t) for s in deep for t in FR.universe for kind in ("in", "eq")
               if FR._atomic[kind, s, t] & g & ~(1 << m) == 0)
    assert truth_lemma_check(FR, pool)[0]
    FR._atomic[key] ^= 1 << m
    FR._values.clear()
    try:
        with pytest.raises(ForcelabError):
            truth_lemma_check(FR, pool)
    finally:
        FR._atomic[key] ^= 1 << m
        FR._values.clear()


def test_a_nested_three_variable_sentence_is_refused_before_any_value(deep_four_fork):
    # ∃x ∀y,z (y ∈ x ∧ z ∈ y → z ∈ x): each block alone is within the
    # budget (331² names), but the inner one's body sees x too
    FR, _ = deep_four_fork
    x, y, z = var("x"), var("y"), var("z")
    phi = exists(("x",), forall(("y", "z"), implies(and_([atom_in(y, x), atom_in(z, y)]),
                                                    atom_in(z, x))))
    before = dict(FR._values)
    with pytest.raises(BudgetError, match=r"^quantifier block over 331\^3 names$"):
        FR.value(phi)
    assert FR._values == before
