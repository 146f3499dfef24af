import pytest

from forcelab import (EMPTY, And, AtomTr, BudgetError, ClosureError, DerivedIteratedTruth,
                      Exists, FiniteStructure, ForcelabError, Forall, Not, Or, StageTranslator,
                      and_, atom_eq, atom_in, atom_in_class, atom_tr, const,
                      encode_formula, encode_valuation, forall, iterated_truth,
                      nat_encode, not_, or_, stage_comparison_structure,
                      subformula_closure, v_stage, var)
from forcelab import corpus, criteria
from forcelab import truth as truth_mod
from forcelab.formulas import formula_to_sexp
from forcelab.truth import CODED_VALUATION_CAP, instances

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


def _instances(base, pool):
    return sum(len(base.domain) ** len(phi.free) for phi in pool)


def test_atoms_judged_correctly(setup):
    base, pool, it = setup
    atoms = [phi for phi in pool if phi.rank == 0 and not isinstance(phi, AtomTr)]
    assert criteria.iterated_atoms(it) == (0, None, BETA_MAX * _instances(base, atoms))


def test_self_coherence_clause(setup):
    base, pool, it = setup
    assert criteria.self_coherence(it) == (0, None, BETA_MAX ** 2 * _instances(base, pool))


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
    composites = [phi for phi in pool if isinstance(phi, (Not, And, Or, Forall))]
    assert criteria.iterated_logic(it) == (0, None, BETA_MAX * _instances(base, composites))


def test_recursion_instance_is_bit_identical():
    M = FiniteStructure(v_stage(2), {"d": [EMPTY]})
    pool = list(subformula_closure([atom_in(var("a"), var("b")),
                                    not_(atom_in(var("a"), var("b"))),
                                    atom_tr(var("a"), var("b"), var("c"))]))
    inputs = [(M, pool), corpus.coded_truth_input()]
    assert criteria.staged_iterated(inputs, 3) == (
        0, None, sum(1 + _instances(M, pool) for M, pool in inputs))
    # Over V₂ no truth atom decodes.  In the coded domain, a = 0, 1 or 2,
    # b = ⌜d(a)⌝ and c = ∅ or {a ↦ x} decode; d(x) holds at x = ∅ only, and
    # tr(a, b, c) at the stages above a.
    coded, coded_pool = inputs[1]
    decoded = [[v for v in instances(M, tr_atom_of(pool))
                if truth_mod._decode_tr_args(v["a"], v["b"], v["c"]) is not None]
               for M, pool in inputs]
    it = iterated_truth(coded, 3, coded_pool)
    held = [(beta, v) for beta in range(3) for v in decoded[1]
            if it.holds(beta, tr_atom_of(coded_pool), v)]
    assert (len(decoded[0]), len(coded.domain), len(decoded[1]), len(held)) == (0, 6, 9, 3)
    assert {(beta, v["a"]) for beta, v in held} == {(1, EMPTY), (2, EMPTY), (2, nat_encode(1))}
    assert all(v["c"] == encode_valuation({"a": EMPTY}) for _, v in held)


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


def test_each_disjunct_is_built_once_per_translator():
    tr = StageTranslator(corpus.iterated_pool(), BETA_MAX)
    for beta in range(BETA_MAX):
        for phi in tr.pool:
            tr.translate(beta, phi)
    # one truth atom, ξ = 0..3 below the stages β ≤ 4
    assert len(tr._disjuncts) == (BETA_MAX - 1) * len(tr.pool)


def test_pool_escape_is_an_error(setup):
    base, pool, _ = setup
    stranger = atom_eq(var("a"), var("a"))  # in the pool
    outside = and_([atom_in(var("a"), var("a")), atom_in(var("a"), var("a"))])
    tr = StageTranslator(pool, BETA_MAX)
    atom = atom_tr(var("a"), const(encode_formula(outside)), var("c"))
    with pytest.raises(ClosureError):
        tr.translate(1, atom)


def test_a_truth_atom_with_a_constant_argument_is_refused(setup):
    # a constant code of a pool formula, a constant stage, and a constant
    # code of a formula outside the pool
    base, pool, _ = setup
    a, b, c = var("a"), var("b"), var("c")
    outside = and_([atom_in(a, a), atom_in(a, a)])
    derived = DerivedIteratedTruth(base, pool, BETA_MAX)
    for holds in (StageTranslator(pool, BETA_MAX).translate, derived.holds):
        for atom in (atom_tr(a, const(encode_formula(pool[0])), c),
                     atom_tr(const(nat_encode(0)), b, c)):
            with pytest.raises(ForcelabError, match="^truth-atom arguments must be variables$"):
                holds(1, atom)
        with pytest.raises(ClosureError):
            holds(1, atom_tr(a, const(encode_formula(outside)), c))


def test_a_stage_above_the_cap_is_refused(setup):
    base, pool, _ = setup
    derived = DerivedIteratedTruth(base, pool, 1)
    assert derived.holds(1, tr_atom_of(pool), {"a": EMPTY, "b": EMPTY, "c": EMPTY}) is False
    with pytest.raises(BudgetError, match="^stage 2 exceeds the cap 1$"):
        derived.holds(2, tr_atom_of(pool), {"a": EMPTY, "b": EMPTY, "c": EMPTY})


def test_a_truth_atom_about_a_formula_outside_the_pool_is_false(monkeypatch):
    # ⌜¬ a ∈ a⌝ is coded in the structure but outside the pool: both sides
    # read the truth atom false wherever it decodes to that formula
    M, pool = corpus.coded_truth_input()
    outside = not_(atom_in(var("a"), var("a")))
    assert outside not in pool
    M = FiniteStructure([*M.domain, encode_formula(outside)], M.predicates)
    tr = tr_atom_of(pool)
    decoded = [truth_mod._decode_tr_args(v["a"], v["b"], v["c"]) for v in instances(M, tr)]
    assert any(d is not None and d[0] == 0 and d[1] is outside for d in decoded)
    verdict = criteria.staged_iterated([(M, pool)], 3)
    assert verdict.failures == 0 and verdict.checked > len(decoded)
    # a pointwise side that takes the formula for a pool member reads those
    # atoms true at every later stage, and the staged side disagrees
    make = criteria.iterated_truth

    def widened(*args):
        it = make(*args)
        it._pool_set |= {outside}
        return it

    monkeypatch.setattr(criteria, "iterated_truth", widened)
    verdict = criteria.staged_iterated([(M, pool)], 3)
    assert verdict.failures and verdict.first == formula_to_sexp(tr)


def test_derived_predicate_coincides_on_base_instances(setup):
    base, pool, it_base = setup
    D = stage_comparison_structure(base, pool, BETA_MAX)
    derived = DerivedIteratedTruth(D, pool, BETA_MAX)
    it = iterated_truth(D, BETA_MAX, pool)
    points = criteria.instance_points(base, pool, BETA_MAX)
    assert criteria.dual_path(derived, it, points) == (0, None, BETA_MAX * _instances(base, pool))


def test_derived_predicate_coincides_at_encoding_points(setup):
    base, pool, _ = setup
    D = stage_comparison_structure(base, pool, BETA_MAX)
    derived = DerivedIteratedTruth(D, pool, BETA_MAX)
    it = iterated_truth(D, BETA_MAX, pool)
    coded = [psi for psi in pool if len(psi.free) <= CODED_VALUATION_CAP]
    points = criteria.encoding_points(base, pool, BETA_MAX)
    assert len(points) == BETA_MAX ** 2 * _instances(base, coded)
    assert criteria.dual_path(derived, it, points) == (0, None, len(points))


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


def test_the_memo_keeps_no_conjunction_grid(setup, monkeypatch):
    # a ∧/∨ grid is asked for by the nearest ¬ or quantifier above it, whose
    # own value is kept, so only ¬ and quantifier grids are worth keeping
    base, pool, _ = setup
    D = stage_comparison_structure(base, pool, 2)
    derived = DerivedIteratedTruth(D, pool, 2)
    it = iterated_truth(D, 2, pool)
    computed, real_value = set(), truth_mod._value

    def spy(M, phi, axes, v):
        computed.add((type(phi), len(axes)))
        return real_value(M, phi, axes, v)

    monkeypatch.setattr(truth_mod, "_value", spy)
    points = criteria.instance_points(base, pool, 2) + criteria.encoding_points(base, pool, 2)
    assert criteria.dual_path(derived, it, points) == (0, None, len(points))
    stored = {(type(key[0]), len(key[1])) for key in D._cache if not isinstance(key[0], str)}
    assert {(And, 2), (Or, 2)} & computed
    assert not {(And, 2), (Or, 2)} & stored
    assert (Not, 2) in stored and {(Forall, 2), (Exists, 2)} & stored
