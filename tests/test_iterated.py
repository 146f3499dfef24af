import itertools

import pytest

from forcelab import (EMPTY, AtomTr, ClosureError, DerivedIteratedTruth,
                      FiniteStructure, Forall, StageTranslator,
                      and_, atom_eq, atom_in, atom_in_class, atom_tr, const,
                      encode_formula,
                      encode_valuation, etr_solve, forall, formula_to_sexp,
                      iterated_truth,
                      iterated_truth_instance, nat_encode, not_, or_,
                      stage_comparison_structure, subformula_closure, v_stage,
                      var, verify_solution)
from forcelab import corpus
from forcelab.truth import instances

BETA_MAX = 5


@pytest.fixture(scope="module")
def setup():
    stage = v_stage(3)
    A = [EMPTY, stage[2]]
    base = FiniteStructure(stage, {"d": A})
    pool = corpus.iterated_pool()
    return base, pool, iterated_truth(base, BETA_MAX, pool)


def tr_atom_of(pool):
    return next(f for f in pool if isinstance(f, AtomTr))


def test_requires_closed_pool():
    M = FiniteStructure(v_stage(2), {"d": []})
    with pytest.raises(ClosureError):
        iterated_truth(M, 2, [not_(atom_eq(var("a"), var("b")))])


def test_atoms_judged_correctly(setup):
    base, pool, it = setup
    from forcelab import eval_formula
    for beta in range(BETA_MAX):
        for phi in pool:
            if phi.rank == 0 and not isinstance(phi, AtomTr):
                for v in instances(base, phi):
                    assert it.holds(beta, phi, v) == eval_formula(base, phi, v)


def test_self_coherence_clause(setup):
    base, pool, it = setup
    atom = tr_atom_of(pool)
    xv, yv, zv = atom.free_sorted
    for beta in range(BETA_MAX):
        for alpha in range(BETA_MAX):
            for psi in pool:
                for av in instances(base, psi):
                    v = {xv: nat_encode(alpha), yv: encode_formula(psi),
                         zv: encode_valuation(av)}
                    got = it._query(beta, atom, v)
                    assert got == (alpha < beta and it._query(alpha, psi, av))


def test_stage_zero_truth_atom_is_false(setup):
    base, pool, it = setup
    atom = tr_atom_of(pool)
    taut = forall(("a",), atom_eq(var("a"), var("a")))
    xv, yv, zv = atom.free_sorted
    v = {xv: nat_encode(0), yv: encode_formula(taut), zv: encode_valuation({})}
    assert not it._query(0, atom, v)
    for beta in range(1, BETA_MAX):
        assert it._query(beta, atom, v)


def test_junk_arguments_make_the_atom_false(setup):
    base, pool, it = setup
    atom = tr_atom_of(pool)
    xv, yv, zv = atom.free_sorted
    junk = {xv: base.domain[1], yv: base.domain[1], zv: base.domain[1]}
    assert not it._query(2, atom, junk)


def test_truth_free_formulas_are_stage_independent(setup):
    base, pool, it = setup
    from forcelab import subformulas
    for phi in pool:
        if any(isinstance(s, AtomTr) for s in subformulas(phi)):
            continue
        for v in instances(base, phi):
            assert len({it.holds(b, phi, v) for b in range(BETA_MAX)}) == 1


def test_boolean_and_quantifier_clauses(setup):
    from forcelab import And, Not, Or
    base, pool, it = setup
    for beta in range(BETA_MAX):
        for phi in pool:
            for v in instances(base, phi):
                if isinstance(phi, Not):
                    assert it.holds(beta, phi, v) != it._query(
                        beta, phi.sub, {k: v[k] for k in phi.sub.free})
                elif isinstance(phi, (And, Or)):
                    votes = [it._query(beta, s, {k: v[k] for k in s.free})
                             for s in phi.subs]
                    combined = all(votes) if isinstance(phi, And) else any(votes)
                    assert it.holds(beta, phi, v) == combined
                elif isinstance(phi, Forall):
                    votes = []
                    for values in itertools.product(base.domain, repeat=len(phi.vars)):
                        ext = dict(v)
                        ext.update(zip(phi.vars, values))
                        votes.append(it._query(beta, phi.body,
                                               {k: ext[k] for k in phi.body.free}))
                    assert it.holds(beta, phi, v) == all(votes)


def test_recursion_instance_is_bit_identical():
    M = FiniteStructure(v_stage(2), {"d": [EMPTY]})
    pool = list(subformula_closure([atom_in(var("a"), var("b")),
                                    not_(atom_in(var("a"), var("b"))),
                                    atom_tr(var("a"), var("b"), var("c"))]))
    inst, codec, stage_index = iterated_truth_instance(M, 3, pool)
    sol = etr_solve(inst)
    assert verify_solution(inst, sol) == (True, None)
    it = iterated_truth(M, 3, pool)
    span = max(f.rank for f in pool) + 1
    for enc, (phi, v) in codec.items():
        staged = sorted(i // span for i, sl in enumerate(sol.slices) if enc in sl)
        assert staged == [b for b in range(3) if it.holds(b, phi, v)]


# --- the stage translation ---------------------------------------------------

def test_translation_fixes_plain_atoms(setup):
    base, pool, _ = setup
    tr = StageTranslator(pool, BETA_MAX)
    plain = atom_in(var("a"), var("b"))
    for beta in range(BETA_MAX):
        assert tr.translate(beta, plain) is plain


def test_translation_at_stage_zero_is_empty_disjunction(setup):
    base, pool, _ = setup
    tr = StageTranslator(pool, BETA_MAX)
    assert tr.translate(0, tr_atom_of(pool)) is or_([])


def test_translation_output_is_constant_free(setup):
    base, pool, _ = setup
    tr = StageTranslator(pool, BETA_MAX)
    out = tr.translate(2, tr_atom_of(pool))
    assert "ground" not in out.const_kinds and "name" not in out.const_kinds


def test_pool_escape_is_an_error(setup):
    base, pool, _ = setup
    stranger = atom_eq(var("a"), var("a"))  # in the pool
    outside = and_([atom_in(var("a"), var("a")), atom_in(var("a"), var("a"))])
    tr = StageTranslator(pool, BETA_MAX)
    atom = atom_tr(var("a"), const(encode_formula(outside)), var("c"))
    with pytest.raises(ClosureError):
        tr.translate(1, atom)


def test_derived_predicate_coincides_on_base_instances(setup):
    base, pool, it_base = setup
    D = stage_comparison_structure(base, pool, BETA_MAX)
    derived = DerivedIteratedTruth(D, pool, BETA_MAX)
    it = iterated_truth(D, BETA_MAX, pool)
    for beta in range(BETA_MAX):
        for phi in pool:
            for v in instances(base, phi):
                assert derived.holds(beta, phi, v) == it.holds(beta, phi, v), \
                    (beta, formula_to_sexp(phi))


def test_derived_predicate_coincides_at_encoding_points(setup):
    base, pool, _ = setup
    D = stage_comparison_structure(base, pool, BETA_MAX)
    derived = DerivedIteratedTruth(D, pool, BETA_MAX)
    it = iterated_truth(D, BETA_MAX, pool)
    atom = tr_atom_of(pool)
    xv, yv, zv = atom.free_sorted
    for beta in (1, 4):
        for alpha in (0, 2, 4):
            for psi in pool:
                if len(psi.free) > 1:
                    continue
                for av in instances(base, psi):
                    v = {xv: nat_encode(alpha), yv: encode_formula(psi),
                         zv: encode_valuation(av)}
                    assert derived.holds(beta, atom, v) == it.holds(beta, atom, v)


def test_translation_pins_down_a_value_coding_a_variable():
    # {{∅}} is the code of the variable `a`, so the valuation {a ↦ {{∅}}} is
    # the degenerate pair {{code}}; with it in d, ¬(a ∈ d) is false there.
    stage = v_stage(3)
    code_of_a = stage[3]
    base = FiniteStructure(stage, {"d": [code_of_a]})
    pool = corpus.iterated_pool()
    D = stage_comparison_structure(base, pool, 1)
    derived = DerivedIteratedTruth(D, pool, 1)
    it = iterated_truth(D, 2, pool)
    atom = tr_atom_of(pool)
    xv, yv, zv = atom.free_sorted
    psi = not_(atom_in_class(var("a"), "d"))
    assert psi in pool
    v = {xv: nat_encode(0), yv: encode_formula(psi),
         zv: encode_valuation({"a": code_of_a})}
    assert not it.holds(1, atom, v)
    assert not derived.holds(1, atom, v)
