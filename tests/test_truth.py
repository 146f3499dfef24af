import itertools
import random
import re
import time

import pytest

from forcelab import (EMPTY, And, AtomEq, AtomIn, AtomInClass, BudgetError, ClosureError,
                      FiniteStructure, Forall, ForcelabError, ForcingNotion, ForcingRelation,
                      Not, Or, PairTerm, and_, atom_eq, atom_in, atom_in_class, atom_in_g,
                      atomic_forcing, bits, build_collapse, const, etr_solve,
                      eval_formula, exists, forall, forcing_truth, hf_make,
                      invariance_check, name_const, not_, or_, perturb,
                      star8_translate, subformula_closure, substitute,
                      tarski_truth, tarski_truth_instance, theta_formula,
                      v_stage, var, verify_solution)
from forcelab import corpus, criteria
from forcelab import etr as etr_mod
from forcelab import forcing as forcing_mod
from forcelab import poset
from forcelab import truth as truth_mod
from forcelab.formulas import encode_formula, encode_valuation, formula_to_sexp, pair_term
from forcelab.names import check_name, eps_dot, n_dot
from forcelab.hfset import hf_pair, nat_encode
from forcelab.truth import instances, valuation_key


def stage3():
    return FiniteStructure(v_stage(3))


def test_an_unclosed_pool_names_its_first_missing_subformula():
    # Formula nodes hash by identity, so the order of a set of missing
    # subformulas follows addresses; the message names the first one in
    # canonical_pool order, here always the equality.
    for a, b in itertools.permutations(["x", "y", "z", "w"], 2):
        eq, mem = atom_eq(var(a), var(b)), atom_in(var(a), var(b))
        want = "pool is not subformula-closed; missing e.g. " + formula_to_sexp(eq)
        for pool in ([and_([mem, eq])], [or_([eq, mem]), not_(eq)]):
            with pytest.raises(ClosureError) as err:
                tarski_truth(stage3(), pool)
            assert str(err.value) == want
            with pytest.raises(ClosureError) as err:
                forcing_truth(2, [], pool)
            assert str(err.value) == want


def test_empty_set_is_definable():
    M = stage3()
    phi = exists(("x",), forall(("z",), not_(atom_in(var("z"), var("x")))))
    assert eval_formula(M, phi)


def test_class_atom():
    M = FiniteStructure(v_stage(3), {"A": [EMPTY]})
    assert eval_formula(M, atom_in_class(const(EMPTY), "A"))
    assert not eval_formula(M, atom_in_class(const(hf_make([EMPTY])), "A"))


def test_theta_disjunction_is_membership():
    M = FiniteStructure(v_stage(4))
    for a in v_stage(3):
        body = or_([theta_formula(u, "z") for u in a.children])
        for b in v_stage(3):
            assert eval_formula(M, body, {"z": b}) == (b in a)


def test_eval_errors():
    M = stage3()
    with pytest.raises(ForcelabError):
        eval_formula(M, atom_in_g(const(EMPTY)))
    with pytest.raises(ForcelabError):
        eval_formula(M, atom_eq(var("x"), var("x")))  # uncovered free variable
    from forcelab import atom_tr
    with pytest.raises(ForcelabError):
        eval_formula(M, atom_tr(const(EMPTY), const(EMPTY), const(EMPTY)))
    # the same refusals for an atom taken along two axes, both its arguments
    a, b, c = var("a"), var("b"), var("c")
    for atom, message in [(atom_tr(a, b, c), "iterated-truth atoms are judged"),
                          (atom_in(pair_term(a, b), c), "forcing-language terms cannot")]:
        with pytest.raises(ForcelabError, match=message):
            eval_formula(FiniteStructure(v_stage(2)), forall(("a",), exists(("b",), atom)),
                         {"c": EMPTY})


def test_tarski_diagonal():
    M = FiniteStructure(v_stage(2))
    pool = [atom_eq(var("x"), var("y"))]
    tp = tarski_truth(M, pool)
    for a in M.domain:
        for b in M.domain:
            assert tp.holds(pool[0], {"x": a, "y": b}) == (a is b)


def test_valuations_over_the_eval_budget_are_refused(monkeypatch):
    M = FiniteStructure(v_stage(3))
    pool = [atom_eq(var("x"), var("y"))]
    monkeypatch.setattr(truth_mod, "EVAL_BUDGET", len(M.domain) ** 2 - 1)
    with pytest.raises(BudgetError, match=r"^4\^2 valuations for one formula$"):
        tarski_truth(M, pool)
    assert tarski_truth(M, [atom_eq(var("x"), var("x"))]).holds(
        atom_eq(var("x"), var("x")), {"x": EMPTY})


def test_tarski_agrees_with_direct_eval():
    M = FiniteStructure(v_stage(3), {"A": [EMPTY]})
    pool = corpus.first_order_pool()
    tp = tarski_truth(M, pool)
    for phi in tp.pool:
        for v in instances(M, phi):
            assert tp.holds(phi, v) == eval_formula(M, phi, v)


def _wide_pool():
    """A pool whose formulas have up to four free variables, so that the
    direct check loops over the values of all but the last two."""
    x, y, z, w = var("x"), var("y"), var("z"), var("w")
    return list(subformula_closure([
        or_([and_([atom_in(x, y), atom_in(y, z)]), atom_eq(x, z)]),
        exists(("u",), and_([atom_in(var("u"), x), atom_in(y, var("u")),
                             not_(atom_eq(z, var("u")))])),
        and_([atom_in_class(z, "A"), atom_in(x, y), not_(atom_in(w, z))]),
    ]))


@pytest.mark.parametrize("n", [2, 3])
def test_the_direct_check_reads_tables_past_two_free_variables(n):
    stage = v_stage(n)
    M = FiniteStructure(stage, {"A": stage[1::2]})
    tp = tarski_truth(M, _wide_pool())
    assert max(len(phi.free) for phi in tp.pool) == 4
    M = FiniteStructure(stage, {"A": stage[1::2]})  # evaluated afresh, valuation by valuation
    assert tp.pairs == {(phi, valuation_key(phi, v)) for phi in tp.pool
                        for v in instances(M, phi) if eval_formula(M, phi, v)}


def test_a_misread_atom_fails_the_direct_check_at_that_atom(monkeypatch):
    # the staged side reads atoms with _eval_atom; here y ∈ z, an atom of the
    # formula with three free variables, is misread at y = ∅, z = {∅}
    stage = v_stage(2)
    target = atom_in(var("y"), var("z"))
    real = truth_mod._eval_atom

    def misread(M, phi, v):
        got = real(M, phi, v)
        return not got if phi is target and (v["y"], v["z"]) == tuple(stage) else got

    monkeypatch.setattr(truth_mod, "_eval_atom", misread)
    with pytest.raises(ForcelabError, match=re.escape(
            f"staged truth disagrees with direct evaluation at {formula_to_sexp(target)}")):
        tarski_truth(FiniteStructure(stage, {"A": stage[1:]}), _wide_pool())


def test_each_flipped_staged_point_of_a_three_variable_formula_is_caught(monkeypatch):
    # one staged point of the formula flipped at a time: the direct check
    # names that formula, at every valuation of the first variable too
    stage = v_stage(2)
    M = FiniteStructure(stage, {"A": stage[1:]})
    pool = _wide_pool()
    phi = next(f for f in pool if len(f.free) == 3)
    solve = etr_mod.etr_solve
    for v in instances(M, phi):
        point = hf_pair(encode_formula(phi), encode_valuation(v))
        monkeypatch.setattr(etr_mod, "etr_solve",
                            lambda inst: perturb(solve(inst), phi.rank, point))
        with pytest.raises(ForcelabError, match=re.escape(formula_to_sexp(phi))):
            tarski_truth(M, pool)
    monkeypatch.undo()
    tarski_truth(M, pool)


def test_tarski_instance_is_unique_solution():
    M = FiniteStructure(v_stage(2))
    pool = list(subformula_closure([not_(atom_in(var("x"), var("y")))]))
    inst, codec = tarski_truth_instance(M, pool)
    sol = etr_solve(inst)
    assert verify_solution(inst, sol) == (True, None)
    for alpha in range(inst.length):
        for x in inst.domain:
            assert not verify_solution(inst, perturb(sol, alpha, x))[0]


def _fresh_codec(M, pool):
    return {hf_pair(encode_formula(phi), encode_valuation(v)): (phi, v)
            for phi in pool for v in instances(M, phi)}


def test_tarski_codes_serve_every_parameter_set_over_one_domain_and_pool():
    # the codes are built once per domain and pool; each call gets its own
    # codec dict, and the solutions still follow A
    pool = corpus.first_order_pool()
    stage = v_stage(3)
    M1, M2 = (FiniteStructure(stage, {"A": A}) for A in ([EMPTY], stage[1:]))
    (inst1, codec1), (inst2, codec2) = (tarski_truth_instance(M, pool) for M in (M1, M2))
    assert codec1 == codec2 == _fresh_codec(M1, pool)
    assert codec1 is not codec2
    assert etr_solve(inst1).slices != etr_solve(inst2).slices
    codec1.clear()
    assert tarski_truth_instance(M1, pool)[1] == codec2


def test_tarski_codes_follow_the_domain_and_the_pool():
    # after V3's codes are built, neither V2 nor a smaller pool is served them
    pool = corpus.first_order_pool()
    small = list(subformula_closure([not_(atom_in(var("x"), var("y")))]))
    stage3 = FiniteStructure(v_stage(3), {"A": [EMPTY]})
    for M, other in ((FiniteStructure(v_stage(2), {"A": [EMPTY]}), pool), (stage3, small)):
        tarski_truth_instance(stage3, pool)
        assert tarski_truth_instance(M, other)[1] == _fresh_codec(M, other)


# --- the clock-collapse translation -----------------------------------------

def test_star8_membership_atom():
    fa = build_collapse(2, [])
    star = star8_translate(atom_in(var("x"), var("y")), fa)
    assert isinstance(star, AtomIn)
    assert isinstance(star.left, PairTerm)


def test_star8_quantifier_becomes_clock_conjunction():
    fa = build_collapse(2, [])
    star = star8_translate(forall(("x",), atom_eq(var("x"), var("x"))), fa)
    assert isinstance(star, And) and len(star.subs) == fa.clock
    want = atom_eq(name_const(check_name(nat_encode(0))),
                   name_const(check_name(nat_encode(0))))
    assert star.subs[0] is want


def test_star8_negation_is_homomorphic():
    fa = build_collapse(2, [])
    phi = atom_eq(var("x"), var("y"))
    assert star8_translate(not_(phi), fa) is not_(star8_translate(phi, fa))


def test_star8_slots_fill_to_op_names():
    fa = build_collapse(2, [])
    star = star8_translate(atom_in(var("x"), var("y")), fa)
    nd = n_dot(fa, EMPTY)
    closed = substitute(star, {"x": name_const(nd), "y": name_const(nd)})
    assert not closed.free
    assert isinstance(closed, AtomIn) and not isinstance(closed.left, PairTerm)


# Reference copy of the clock translation before it was memoized: a tree
# recursion, exponential on shared subformulas.

def ref_star8_translate(phi, fa):
    eps = name_const(eps_dot(fa))
    clock_names = [name_const(check_name(nat_encode(m))) for m in range(fa.clock)]

    def walk(f):
        if isinstance(f, AtomEq):
            return atom_eq(f.left, f.right)
        if isinstance(f, AtomIn):
            return atom_in(pair_term(f.left, f.right), eps)
        if isinstance(f, AtomInClass):
            return atom_in_class(f.term, "A")
        if isinstance(f, Not):
            return not_(walk(f.sub))
        if isinstance(f, (And, Or)):
            subs = [walk(s) for s in f.subs]
            return and_(subs) if isinstance(f, And) else or_(subs)
        body = walk(f.body)
        conjuncts = [substitute(body, dict(zip(f.vars, values)))
                     for values in itertools.product(clock_names, repeat=len(f.vars))]
        return and_(conjuncts) if isinstance(f, Forall) else or_(conjuncts)

    return walk(phi)


def _star8_chain(depth):
    """f_{k+1} = f_k ∧ ¬f_k over f_0 = (x = y): 2^k paths, k + 1 nodes."""
    f = atom_eq(var("x"), var("y"))
    for _ in range(depth):
        f = and_([f, not_(f)])
    return f


def test_star8_translates_as_before():
    fa = build_collapse(2, [EMPTY])
    for phi in corpus.first_order_pool():
        assert star8_translate(phi, fa) is ref_star8_translate(phi, fa)
    for depth in range(13):
        phi = _star8_chain(depth)
        assert star8_translate(phi, fa) is ref_star8_translate(phi, fa), depth


def test_star8_translates_a_deep_shared_chain_quickly():
    fa = build_collapse(2, [EMPTY])
    start = time.perf_counter()
    star = star8_translate(_star8_chain(22), fa)
    assert time.perf_counter() - start < 1.0
    assert star.free == {"x", "y"}


def test_forcing_truths_share_each_stage_translation_and_only_that():
    # Collapses at one stage share their ε name, so every parameter set
    # reuses one clock translation; each star must be the one a fresh
    # translation over the notion gives.
    pool = corpus.first_order_pool()
    stage = v_stage(3)
    built = [forcing_truth(3, A, pool) for A in ([stage[0]], stage[1:])]
    built.append(forcing_truth(2, [], pool))  # after stage 3, whose memo must not leak
    for ft in built:
        for phi in ft.pool:
            assert ft._stars[phi] is ref_star8_translate(phi, ft.fa), formula_to_sexp(phi)
    first, second, stage2 = built
    assert all(first._stars[phi] is second._stars[phi] for phi in first.pool)
    assert any(stage2._stars[phi] is not first._stars[phi] for phi in first.pool)


def test_forcing_truth_refuses_a_pool_nested_past_the_cap():
    # checked once per pool formula when the truth is built, not per query
    phi = atom_in(var("x"), var("y"))
    for _ in range(forcing_mod.NESTING_CAP + 1):
        phi = not_(phi)
    with pytest.raises(BudgetError, match="exceeds the cap"):
        forcing_truth(2, [], subformula_closure([phi]))
    assert forcing_truth(2, [], subformula_closure([phi.sub])).holds(phi.sub, {
        "x": EMPTY, "y": EMPTY}) is (forcing_mod.NESTING_CAP % 2 == 1)


def test_forcing_truth_refuses_a_query_outside_its_pool_or_stage():
    ft = forcing_truth(2, [], corpus.first_order_pool())
    phi = next(p for p in ft.pool if len(p.free) == 2)
    x, y = phi.free_sorted
    outside = v_stage(3)[-1]
    with pytest.raises(ForcelabError, match="outside the declared pool"):
        ft.holds(atom_in(var("q"), var("q")), {"q": EMPTY})
    # a missing variable is named first, even beside a value outside the stage
    with pytest.raises(ForcelabError, match="must cover the free variables"):
        ft.holds(phi, {x: outside})
    with pytest.raises(ForcelabError, match="must lie in the collapsed stage"):
        ft.holds(phi, {x: EMPTY, y: outside})


def test_both_sides_of_criterion_4_refuse_the_same_queries():
    pool = corpus.first_order_pool()
    stage = v_stage(2)
    ft = forcing_truth(2, [EMPTY], pool)
    tp = tarski_truth(FiniteStructure(stage, {"A": [EMPTY]}), pool)
    phi = next(p for p in ft.pool if len(p.free) == 2)
    x, y = phi.free_sorted
    outside = v_stage(3)[-1]
    for query, message in [
            ((atom_in(var("q"), var("q")), {"q": EMPTY}), "outside the declared pool"),
            ((phi, {x: EMPTY}), "must cover the free variables"),
            ((phi, {x: outside}), "must cover the free variables"),
            ((phi, {x: EMPTY, y: outside}), "must lie in the collapsed stage")]:
        errors = []
        for side in (ft, tp):
            with pytest.raises(ForcelabError, match=message) as err:
                side.holds(*query)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


# --- the token-free base: each parameter set lifts the stage's atomic values

def _lifted_differences(ft) -> list:
    """The atomic entries of ft's relation and of its base, each read through
    the relation, that differ from a plain relation over the same collapse."""
    FR, plain = ft.relation, atomic_forcing(ft.fa, ())
    keys = set(FR._atomic) | set(FR._base._atomic)
    assert len(keys) > len(FR._atomic)
    return [key for key in keys if FR.atomic_value(*key) != plain.atomic_value(*key)]


def _criterion_4_holds(n, A, pool, structure=None) -> bool:
    ft = forcing_truth(n, A, pool)
    tp = tarski_truth(structure or FiniteStructure(v_stage(n), {"A": A}), pool)
    return (criteria.collapse_truth(ft, tp).failures == 0
            and invariance_check(n, A, pool, ft) == (True, None))


@pytest.mark.parametrize("n", [2, 3])
def test_every_lifted_atomic_value_is_the_plain_recursions(n):
    pool = corpus.first_order_pool()
    stage = v_stage(n)
    for mask in range(1 << len(stage)):
        A = [stage[i] for i in range(len(stage)) if mask >> i & 1]
        ft = forcing_truth(n, A, pool)
        criteria.collapse_truth(ft, tarski_truth(FiniteStructure(stage, {"A": A}), pool))
        assert invariance_check(n, A, pool, ft) == (True, None)
        assert _lifted_differences(ft) == [], mask


def test_collapse_truths_at_one_stage_share_one_token_free_base():
    pool = corpus.first_order_pool()
    stage = v_stage(3)
    first, second = (forcing_truth(3, A, pool).relation for A in ([stage[0]], stage[1:]))
    base = truth_mod._token_free_relation(3)
    assert first._base is second._base is base
    assert len(base.notion) == len(build_collapse(3, [])) == 209 + 12
    stage2 = forcing_truth(2, [EMPTY], pool).relation
    assert stage2._base is truth_mod._token_free_relation(2) is not base


def test_only_the_last_stages_token_free_base_is_kept(fresh_token_free_relations):
    pool = corpus.first_order_pool()
    forcing_truth(3, [EMPTY], pool)
    forcing_truth(2, [EMPTY], pool)
    assert truth_mod._token_free_relation.cache_info().currsize == 1


def test_a_relation_refuses_a_base_its_notion_does_not_extend_by_tokens():
    base = truth_mod._token_free_relation(2)
    assert ForcingRelation(build_collapse(2, [EMPTY]), (), base=base)._base is base
    # the stage-2 collapse with one more token, above no condition
    plain = build_collapse(2, [])
    unrealized = ForcingNotion(plain.elements + ("t",), [
        (p, q) for p in plain.conditions() for q in bits(plain.up(p))])
    for notion in (build_collapse(3, [EMPTY]), unrealized):
        with pytest.raises(ForcelabError, match="does not extend the base's by tokens"):
            ForcingRelation(notion, (), base=base)


@pytest.mark.parametrize("mutant", ["never", "always"])
def test_a_lift_that_misplaces_the_token_bits_fails_criterion_4(monkeypatch, mutant):
    # a token bit that is never set, or always set: only A = ∅, with no
    # a-tokens, still passes
    real = forcing_mod._token_lift
    monkeypatch.setattr(forcing_mod, "_token_lift", lambda P, B: tuple(
        (bit, bit if mutant == "never" else 0) for bit, _ in real(P, B)))
    pool = corpus.first_order_pool()
    for n in (2, 3):
        stage = v_stage(n)
        passed = [mask for mask in range(1 << len(stage)) if _criterion_4_holds(
            n, [stage[i] for i in range(len(stage)) if mask >> i & 1], pool)]
        assert passed == [0], n


def test_a_corrupted_base_entry_fails_criterion_4_at_every_parameter_set(
        fresh_token_free_relations):
    pool = corpus.first_order_pool()
    stage = v_stage(2)
    base = truth_mod._token_free_relation(2)
    fa = build_collapse(2, [])
    slots = [n_dot(fa, a) for a in stage]
    assert base.atomic_value("eq", *slots) == 0
    base._atomic[("eq", *slots)] = base.full  # the two slots are never equal
    assert not any(_criterion_4_holds(2, A, pool) for A in ([], [EMPTY], stage[1:], stage))


def test_the_lift_holds_over_a_five_element_transitive_set(monkeypatch,
                                                           fresh_token_free_relations):
    # T = V3 ∪ {{{{∅}}}} in place of stage 3, for a seeded sample of its A
    T = sorted([*v_stage(3), hf_make([hf_make([hf_make([EMPTY])])])], key=lambda x: x.key)
    monkeypatch.setattr(poset, "v_stage", lambda n: list(T))
    poset._collapse_skeleton.cache_clear()
    try:
        pool = corpus.first_order_pool()
        for mask in random.Random("five-element").sample(range(1 << len(T)), 4):
            A = [T[i] for i in range(len(T)) if mask >> i & 1]
            assert _criterion_4_holds(3, A, pool, FiniteStructure(T, {"A": A})), mask
            ft = forcing_truth(3, A, pool)
            assert len(ft.fa.targets) == 5
            criteria.collapse_truth(ft, tarski_truth(FiniteStructure(T, {"A": A}), pool))
            assert _lifted_differences(ft) == [], mask
    finally:
        poset._collapse_skeleton.cache_clear()


def test_forcing_truth_atomic_parameter_membership():
    stage = v_stage(2)
    for A in ([], [EMPTY], [stage[1]], list(stage)):
        ft = forcing_truth(2, A, corpus.first_order_pool())
        phi = atom_in_class(var("x"), "A")
        for a in stage:
            assert ft.holds(phi, {"x": a}) == (a in set(A))


def test_forcing_truth_tautology():
    ft = forcing_truth(2, [], corpus.first_order_pool())
    taut = forall(("x",), atom_eq(var("x"), var("x")))
    assert ft.holds(taut, {})


@pytest.mark.parametrize("mask", range(4))
def test_forcing_truth_equals_tarski_stage2(mask):
    stage = v_stage(2)
    A = [stage[i] for i in range(2) if mask >> i & 1]
    pool = corpus.first_order_pool()
    ft = forcing_truth(2, A, pool)
    tp = tarski_truth(FiniteStructure(stage, {"A": A}), pool)
    for phi in ft.pool:
        for v in instances(FiniteStructure(stage), phi):
            assert ft.holds(phi, v) == tp.holds(phi, v)


def test_invariance_stage2():
    pool = corpus.first_order_pool()
    ok, cx = invariance_check(2, [EMPTY], pool, forcing_truth(2, [EMPTY], pool))
    assert ok, cx


def test_the_collapse_relation_forces_over_no_names():
    # the clock translations have no quantifiers, so no clause needs a universe
    pool = corpus.first_order_pool()
    ft = forcing_truth(3, [EMPTY], pool)
    assert ft.relation.universe == ()
    assert list(ft.relation.classes) == ["G", "A"]
    direct = tarski_truth(FiniteStructure(v_stage(3), {"A": [EMPTY]}), pool)
    verdict = criteria.collapse_truth(ft, direct)
    assert verdict.failures == 0 and verdict.checked == 266
    assert invariance_check(3, [EMPTY], pool, ft) == (True, None)


def test_the_parameter_set_may_be_an_iterator():
    ft = forcing_truth(2, iter([EMPTY]), corpus.first_order_pool())
    phi = atom_in_class(var("x"), "A")
    assert ft.A == {EMPTY}
    assert ft.holds(phi, {"x": EMPTY}) and not ft.holds(phi, {"x": hf_make([EMPTY])})


@pytest.mark.parametrize("changed", ["n", "A", "pool"])
def test_invariance_check_refuses_a_truth_built_from_other_arguments(changed):
    pool = corpus.first_order_pool()
    ft = forcing_truth(3, [EMPTY], pool)
    args = {"n": 3, "A": [EMPTY], "pool": pool}
    args[changed] = {"n": 2, "A": [], "pool": pool[:3]}[changed]
    with pytest.raises(ForcelabError, match="ft was built from another"):
        invariance_check(args["n"], args["A"], args["pool"], ft)
    # the same arguments in another order or with repeats are the same ones
    assert invariance_check(3, [EMPTY, EMPTY], pool[::-1], ft) == (True, None)


def test_invariance_fails_with_degenerate_tokens(monkeypatch, fresh_token_free_relations):
    # A token above no condition, here e(0,0) (no f has f(0) ∈ f(0)), lies
    # below only the top, so the top's verdicts are not every condition's.
    skeleton = poset._collapse_skeleton

    def with_e00(stage):
        got = skeleton(stage)
        up, down = list(got.up), list(got.down)
        e_index = {**got.e_index, (0, 0): len(up)}
        poset._place_token(up, down, 0)
        return got._replace(elements=got.elements + ("e_0_0",), e_index=e_index,
                            up=tuple(up), down=tuple(down))

    monkeypatch.setattr(poset, "_collapse_skeleton", with_e00)
    pool = corpus.first_order_pool()
    ft = forcing_truth(2, [], pool)
    assert (0, 0) in ft.fa.e_index
    ok, cx = invariance_check(2, [], pool, ft)
    assert not ok and ft.fa.elements[cx[0]] == "e_0_0"


def test_invariance_fails_with_check_name_parameter():
    # a condition that pins a clock slot forces things about the slot's
    # check name that other conditions do not
    from forcelab import atomic_forcing, forces, subname_closure
    fa = build_collapse(2, [])
    nd = n_dot(fa, EMPTY)
    pseudo = check_name(nat_encode(0))
    FR = atomic_forcing(fa, subname_closure([nd, pseudo]))
    stmt = atom_eq(name_const(pseudo), name_const(nd))
    values = {forces(FR, p, stmt, check_universe=False) for p in fa.conditions()}
    assert values == {True, False}


def test_valuation_key_is_the_sorted_restriction():
    M = FiniteStructure(v_stage(2))
    for phi in corpus.iterated_pool():
        for v in instances(M, phi):
            wider = {**v, "z": EMPTY, "b0": EMPTY}
            assert valuation_key(phi, wider) == tuple(sorted((x, v[x]) for x in phi.free))
