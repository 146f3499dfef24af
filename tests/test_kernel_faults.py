"""Fault injection into the bitmask kernels: forcing values, Boolean values
and the atom rows of Tarskian evaluation.

Each test corrupts one bit of one stored mask and asserts that the check
built on it reports failure.  The checks compare the kernel's masks with
sides computed without them (the staged recursion instance, Boolean values
in the regular-open algebra, direct evaluation in the generic extension,
pointwise iterated truth, the truth-teller's verdicts in the truth-telling
game) or with the forcing laws, so a wrong mask cannot pass them.  The
Boolean values are corrupted the same way and must fail the comparison
with the kernel or leave the algebra, and a flipped memoized complement
must fail the algebra's law audit.  One test poisons an entry of the
memoized pair table instead, and self-coherence must catch the wrong code.
Poisoned memoized values must fail the truth-name clauses, the law audit's
dense decidedness and extension's class comparison.
The last tests read the source of the independent sides and fail if one
of them names the code it is compared with.
"""

import ast
import contextlib
import inspect
import itertools
import random
from pathlib import Path

import pytest

from forcelab import (EMPTY, And, AtomTr, DerivedIteratedTruth, Exists, Forall,
                      ForcelabError, Not, Or, and_, atom_eq, atom_in, atom_in_class,
                      atomic_forcing, atomic_recursion_instance,
                      audit_boolean_algebra, audit_forcing_relation,
                      boolean_completion, boolean_values,
                      compare_atomic_table, const, encode_formula,
                      encode_valuation, etr_solve, exists, extension, forcing_truth,
                      generic_filters, invariance_check, iterated_truth, name_const,
                      name_universe, nat_encode, not_, stage_comparison_structure,
                      subformula_closure, subformulas, tarski_truth,
                      theta_formula, truth_lemma_check, truth_name, v_stage, var)
import forcelab
from forcelab import corpus, criteria, hfset
from forcelab import forcing as forcing_mod
from forcelab import games as games_mod
from forcelab import names as names_mod
from forcelab import truth as truth_mod
from forcelab.hfset import hf_pair, hf_unpair
from forcelab.poset import bits
from forcelab.truth import FiniteStructure, instances

KINDS = ("in", "sub", "eq")
COMPOSITE = (Not, And, Or, Forall, Exists)


@pytest.fixture(scope="module")
def fork_kernel():
    P = corpus.fork()
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    inst, codec, _ = atomic_recursion_instance(P, N)
    return FR, etr_solve(inst), codec, boolean_values(boolean_completion(P))


def _values_agree(FR, bv) -> bool:
    """Criterion 3's comparison: Boolean values against the kernel's decisions."""
    return criteria.value_coherence(FR, bv).failures == 0


def _single_flips(FR, kinds):
    for kind, s, t in itertools.product(kinds, FR.universe, FR.universe):
        for p in FR.notion.conditions():
            yield kind, s, t, p


@contextlib.contextmanager
def _flipped(FR, kind, s, t, p):
    """The mask of (kind, s, t) with bit p flipped, restored on exit; formula
    values memoized meanwhile are dropped both times."""
    FR._atomic[(kind, s, t)] ^= 1 << p
    FR._values.clear()
    try:
        yield
    finally:
        FR._atomic[(kind, s, t)] ^= 1 << p
        FR._values.clear()


def test_every_single_flip_fails_the_staged_comparison(fork_kernel):
    FR, sol, codec, _ = fork_kernel
    assert compare_atomic_table(FR, sol, codec)
    caught = 0
    for kind, s, t, p in _single_flips(FR, ("in", "eq")):
        with _flipped(FR, kind, s, t, p):
            caught += not compare_atomic_table(FR, sol, codec)
    assert caught == 2 * len(FR.universe) ** 2 * len(FR.notion)
    assert compare_atomic_table(FR, sol, codec)


def test_every_single_flip_fails_the_boolean_value_comparison(fork_kernel):
    FR, _, _, bv = fork_kernel
    assert _values_agree(FR, bv)
    caught = 0
    for kind, s, t, p in _single_flips(FR, KINDS):
        with _flipped(FR, kind, s, t, p):
            caught += not _values_agree(FR, bv)
    assert caught == 3 * len(FR.universe) ** 2 * len(FR.notion)


def test_every_single_boolean_value_flip_is_caught(fork_kernel):
    # For an element V, embed(q) ≤ V holds exactly when q ∈ V, so a flipped
    # bit that stays in the algebra changes derived_forces at q.
    FR, _, _, bv = fork_kernel
    B = bv.completion.algebra
    assert _values_agree(FR, bv)
    assert len(bv._memo) == 3 * len(FR.universe) ** 2
    caught = 0
    for key in list(bv._memo):
        for p in FR.notion.conditions():
            bv._memo[key] ^= 1 << p
            try:
                caught += not B.is_element(bv._memo[key]) or not _values_agree(FR, bv)
            finally:
                bv._memo[key] ^= 1 << p
    assert caught == len(bv._memo) * len(FR.notion)
    assert _values_agree(FR, bv)


def test_every_single_complement_flip_fails_the_law_audit(fork_kernel):
    # Complements are unique, so a flipped complement either leaves the
    # algebra (closure) or no longer complements its argument.
    FR, _, _, bv = fork_kernel
    B = bv.completion.algebra
    assert audit_boolean_algebra(B).ok
    memo = B._complement
    assert set(memo) == set(B.elements)
    caught = 0
    for a in memo:
        for p in FR.notion.conditions():
            memo[a] ^= 1 << p
            try:
                caught += not audit_boolean_algebra(B).ok
            finally:
                memo[a] ^= 1 << p
    assert caught == len(memo) * len(FR.notion)
    assert audit_boolean_algebra(B).ok


def test_flipped_check_name_equality_fails_both_comparisons(fork_kernel):
    # atoms between two check names are read off their sets and stored in
    # the same table, so a flipped entry must still be caught
    FR, sol, codec, bv = fork_kernel
    checks = [n for n in FR.universe if n.max_condition == 0]
    assert len(checks) == 2
    for s, t in itertools.product(checks, repeat=2):
        for p in FR.notion.conditions():
            with _flipped(FR, "eq", s, t, p):
                assert not compare_atomic_table(FR, sol, codec)
                assert not _values_agree(FR, bv)
    assert compare_atomic_table(FR, sol, codec) and _values_agree(FR, bv)


def test_flipped_read_off_entries_fail_both_comparisons(fork_kernel):
    # σ = σ, and ρ ∈ τ at an entry (ρ, 0) of τ, are read off the names for
    # any names and stored in the same table, so a flipped entry must still
    # be caught; some of these names are not check names
    FR, sol, codec, bv = fork_kernel
    N = FR.universe
    diagonal = [("eq", s, s) for s in N]
    top_members = [("in", rho, t) for t in N for rho, r in t.entries if r == 0]
    assert any(t.max_condition for _, _, t in top_members)
    for kind, s, t in diagonal + top_members:
        assert FR._atomic[(kind, s, t)] == FR.full
        for p in FR.notion.conditions():
            with _flipped(FR, kind, s, t, p):
                assert not compare_atomic_table(FR, sol, codec)
                assert not _values_agree(FR, bv)
    assert compare_atomic_table(FR, sol, codec) and _values_agree(FR, bv)


def test_every_single_equality_flip_fails_the_law_audit(fork_kernel):
    FR = fork_kernel[0]
    assert audit_forcing_relation(FR).ok
    caught = 0
    for kind, s, t, p in _single_flips(FR, ("eq",)):
        with _flipped(FR, kind, s, t, p):
            report = audit_forcing_relation(FR)
            caught += not report.ok
            if s is not t:
                assert "eq-symmetric" in report.failures()
    assert caught == len(FR.universe) ** 2 * len(FR.notion)


def _entries(FR):
    """The table's (kind, σ, τ) keys over the universe, in the audit's order."""
    return list(itertools.product(KINDS, FR.universe, FR.universe))


def _per_entry_laws(FR) -> dict:
    """The first downward-closure and density counterexamples, each entry
    judged on its own by the laws' pointwise definitions."""
    down, found = FR._down, {}
    for kind, s, t in _entries(FR):
        V = FR._atomic[kind, s, t]
        for p in bits(V):
            if down[p] & ~V:
                found.setdefault("downward-closure", (kind, p, next(bits(down[p] & ~V)), s, t))
        for p in bits(FR.full & ~V):
            if all(down[q] & V for q in bits(down[p])):
                found.setdefault("density", (kind, p, s, t))
    return found


def test_a_flip_in_a_shared_mask_is_blamed_on_its_entry(fork_kernel):
    # The audit judges each distinct mask once; a corrupted entry whose old
    # mask other entries keep must still be the one reported.  Setting the
    # top in a mask that is not full breaks downward closure; clearing it in
    # the full mask breaks density.
    FR = fork_kernel[0]
    assert audit_forcing_relation(FR).ok
    masks = [FR._atomic[key] for key in _entries(FR)]
    for law, pick in (("downward-closure", lambda V: V != FR.full),
                      ("density", lambda V: V == FR.full)):
        key = next(key for key, V in zip(_entries(FR), masks) if pick(V) and masks.count(V) > 1)
        with _flipped(FR, *key, 0):
            got = audit_forcing_relation(FR).failures()[law]
        assert got[0] == key[0] and got[1] == 0 and got[-2:] == key[1:]
    assert audit_forcing_relation(FR).ok


def test_the_first_law_counterexamples_match_a_per_entry_reference():
    P = dict(corpus.corpus_notions())["tree-left"]
    seen = set()
    for seed in range(3):
        FR = atomic_forcing(P, name_universe(P, 1))
        rng = random.Random(seed)
        for _ in range(8):
            kind, s, t = rng.choice(_entries(FR))
            FR._atomic[kind, s, t] ^= 1 << rng.randrange(len(P))
        want = _per_entry_laws(FR)
        got = {law: cx for law, cx in audit_forcing_relation(FR).failures().items()
               if law in ("downward-closure", "density")}
        assert got == want
        seen |= want.keys()
    assert seen == {"downward-closure", "density"}


@pytest.mark.parametrize("kind", ["eq", "in"])
def test_a_flip_after_a_passing_check_fails_the_next_one(fork, kind):
    # extension keeps only its direct side across calls; the forced rows are
    # read afresh, so a bit flipped after a passing check is caught
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    pool = corpus.oracle_pool(fork, N)
    tn_pool = list(dict.fromkeys(corpus.truth_name_pool(fork, N)))
    assert truth_lemma_check(FR, pool)[0]
    assert truth_name(FR, tn_pool).ok
    G = generic_filters(fork)[0]
    g = G.members
    m = next(q for q in bits(g) if all(fork.le(q, r) for r in bits(g)))
    s, t = next((s, t) for s in N for t in N if s.max_condition
                and FR._atomic[kind, s, t] & g & ~(1 << m) == 0)
    with _flipped(FR, kind, s, t, m):
        with pytest.raises(ForcelabError):
            truth_lemma_check(FR, pool)
        with pytest.raises(ForcelabError):
            truth_name(FR, tn_pool)
    assert truth_lemma_check(FR, pool)[0] and truth_name(FR, tn_pool).ok


@pytest.mark.parametrize("set_bit", [True, False], ids=["set", "clear"])
def test_composite_flip_at_a_filter_member_fails_the_truth_lemma(fork, set_bit):
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    pool = corpus.oracle_pool(fork, N)
    assert truth_lemma_check(FR, pool)[0]
    # The filter's least member m lies below every member, so a downward-closed
    # value meets the filter iff it holds m.  Setting m where no member forces
    # the formula, or clearing it where m alone does, flips the verdict at G.
    for G in generic_filters(fork):
        g = G.members
        m = next(q for q in bits(g) if all(fork.le(q, r) for r in bits(g)))
        for phi in (f for f in pool if isinstance(f, COMPOSITE)):
            V = FR.value(phi)
            if (V & g == 0) if set_bit else (V & g == 1 << m):
                FR._values[phi] = V ^ (1 << m)
                assert truth_lemma_check(FR, phi) == (False, (G, phi))
                return
    pytest.fail("no composite formula with the wanted value at a generic filter")


def _least_member(P, G) -> int:
    g = G.members
    return next(q for q in bits(g) if all(P.le(q, r) for r in bits(g)))


def test_a_membership_flip_between_unshared_names_fails_extension(fork):
    # s and t are equal at G to themselves alone, so one flipped ∈ bit at
    # G's least member keeps forced equality a congruence
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    G = generic_filters(fork)[0]
    g, m = G.members, _least_member(fork, G)
    alone = [s for s in N if all(FR._atomic["eq", s, u] & g == 0 for u in N if u != s)]
    s, t = next((s, t) for s in alone for t in alone if FR._atomic["in", s, t] & g == 0)
    extension(FR, G)
    with _flipped(FR, "in", s, t, m):
        with pytest.raises(ForcelabError, match="forced membership disagrees"):
            extension(FR, G)


def test_a_flipped_class_value_fails_extension(fork):
    FR = atomic_forcing(fork, corpus.oracle_universe(fork))
    G = generic_filters(fork)[0]
    key = atom_in_class(name_const(FR.universe[0]), "G")
    FR._values[key] = FR.value(key) ^ G.members
    with pytest.raises(ForcelabError, match="class 'G' extension disagrees"):
        extension(FR, G)


def test_a_set_bit_of_a_conjunction_fails_its_truth_name_clause(fork):
    # set at G's least member, a conjunction false at G is declared there
    # while one of its conjuncts is not
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    pool = corpus.truth_name_pool(fork, N)
    G = generic_filters(fork)[0]
    phi = next(f for f in pool if isinstance(f, And) and FR.value(f) & G.members == 0)
    FR._values[phi] |= 1 << _least_member(fork, G)
    failures = truth_name(FR, pool).failures
    assert ("conjunction-clause", G, phi) in failures


def test_cleared_bits_of_a_quantifier_fail_its_truth_name_clause(fork):
    # ∀x (x = x) undeclared at G while each instance is declared
    N = corpus.oracle_universe(fork)
    FR = atomic_forcing(fork, N)
    pool = corpus.truth_name_pool(fork, N)
    G = generic_filters(fork)[0]
    phi = next(f for f in pool if isinstance(f, Forall))
    FR._values[phi] = FR.value(phi) & ~G.members
    failures = truth_name(FR, pool).failures
    assert ("quantifier-clause", G, phi) in failures


def test_a_cleared_negation_fails_dense_decidedness(fork):
    # with ¬φ forced nowhere, φ alone must be decided densely, and an atom
    # that fails somewhere is not (modus ponens, whose implications end in
    # ¬φ, fails too)
    FR = atomic_forcing(fork, corpus.oracle_universe(fork))
    phi = next(f for f in forcing_mod._atomic_formulas(FR)
               if not all(FR._down[q] & FR.value(f) for q in fork.conditions()))
    FR._values[not_(phi)] = 0
    assert audit_forcing_relation(FR).laws["dense-decided"] == (False, phi)


def test_top_bit_flip_fails_invariance_on_stage_2_collapse():
    pool = corpus.first_order_pool()
    ft = forcing_truth(2, [EMPTY], pool)
    assert invariance_check(2, [EMPTY], pool, ft) == (True, None)
    phi = next(f for f in ft.pool if isinstance(f, COMPOSITE))
    v = next(iter(instances(FiniteStructure(ft.fa.targets), phi)))
    FR = ft.relation
    # the memo key of the star translation under the slot valuation
    star, binding = ft._stars[phi], {x: ft.slot_names[v[x]] for x in phi.free}
    assert star.free
    FR._values[(star, tuple(binding[x] for x in star.free_sorted))] ^= 1 << ft.fa.one
    ok, cx = invariance_check(2, [EMPTY], pool, ft)
    assert not ok
    assert cx[1] is phi and cx[2] == tuple(sorted(v.items()))


# --- the atom rows of Tarskian evaluation -------------------------------------
#
# `eval_formula` reads ∈, = and class atoms off rows of its structure, so one
# flipped row bit changes its answers.  tarski_truth's staged instance, the
# iterated truth predicate and the truth-telling game judge atoms pointwise,
# so each must then disagree with it.

STAGES = 4


@pytest.fixture(scope="module")
def iterated_setup():
    stage = v_stage(3)
    base = FiniteStructure(stage, {"d": [EMPTY, stage[2]]})
    pool = corpus.iterated_pool()
    return base, pool, stage_comparison_structure(base, pool, STAGES)


@contextlib.contextmanager
def _row_flipped(M, y, x, kind="in"):
    """x's bit in the row of y of the given kind (by default the ∈ row: y's
    members in the domain) flipped, and restored on exit; memoized values,
    among them the two-axis grids built from the rows, are dropped both
    times."""
    truth_mod._row(M, kind, y)
    M._rows[(kind, y)] ^= 1 << M.domain.index(x)
    M._cache.clear()
    try:
        yield
    finally:
        M._rows[(kind, y)] ^= 1 << M.domain.index(x)
        M._cache.clear()


def _staged_disagrees(M, pool) -> bool:
    try:
        tarski_truth(M, pool)
    except ForcelabError as e:
        assert "staged truth disagrees" in str(e)
        return True
    return False


def _dual_path_disagrees(M, pool, queries) -> bool:
    derived, direct = DerivedIteratedTruth(M, pool, STAGES), iterated_truth(M, STAGES, pool)
    return criteria.dual_path(derived, direct, queries).failures > 0


def test_flipped_row_bit_on_stage_3_fails_both_comparisons(iterated_setup):
    base, pool, _ = iterated_setup
    M = FiniteStructure(base.domain, base.predicates)
    # over the base alone only truth-free formulas translate to themselves
    plain = [f for f in pool if not any(isinstance(s, AtomTr) for s in subformulas(f))]
    queries = [(beta, phi, v) for beta in range(STAGES) for phi in plain
               for v in instances(M, phi)]
    assert not _staged_disagrees(M, plain)
    assert not _dual_path_disagrees(M, pool, queries)
    with _row_flipped(M, base.domain[1], EMPTY):  # ∅ ∈ {∅}
        assert _staged_disagrees(M, plain)
        assert _dual_path_disagrees(M, pool, queries)
    assert not _staged_disagrees(M, plain)


def test_flipped_row_bit_of_a_code_fails_both_comparisons(iterated_setup):
    # 1 ∈ 2 is read only where θ_2 pins down a stage code, which the dual
    # path does at the encoding points of stage-2 truth atoms.
    base, pool, D = iterated_setup
    two = nat_encode(2)
    plain = [exists(("a",), atom_in(var("a"), const(two))), atom_in(var("a"), const(two))]
    atom = next(f for f in pool if isinstance(f, AtomTr))
    xv, yv, zv = atom.free_sorted
    queries = [(STAGES - 1, atom, {xv: two, yv: encode_formula(psi), zv: encode_valuation(av)})
               for psi in pool if len(psi.free) <= truth_mod.CODED_VALUATION_CAP
               for av in instances(base, psi)]
    assert not _staged_disagrees(D, plain)
    assert not _dual_path_disagrees(D, pool, queries)
    with _row_flipped(D, two, nat_encode(1)):
        assert _staged_disagrees(D, plain)
        assert _dual_path_disagrees(D, pool, queries)


@pytest.mark.parametrize("kind", ["ni", "eq"])
def test_flipped_two_axis_row_bit_fails_the_dual_path(iterated_setup, kind):
    # ∃a ∃b (a ∈ b ∧ θ_∅(a) ∧ θ_1(b)) takes ∃b's body along a and b, so its
    # a ∈ b reads the grid of "ni" rows: row ∅, bit 1 = {∅} decides it.  With
    # = and θ_1 twice it reads the grid of "eq" rows at row 1, bit 1.
    base, _, _ = iterated_setup
    M = FiniteStructure(base.domain, base.predicates)
    x, y = (EMPTY, nat_encode(1)) if kind == "ni" else (nat_encode(1), nat_encode(1))
    a, b = var("a"), var("b")
    link = atom_in(a, b) if kind == "ni" else atom_eq(a, b)
    sentence = exists(("a",), exists(("b",), and_([
        link, theta_formula(x, "a"), theta_formula(y, "b")])))
    pool = list(subformula_closure([sentence]))
    queries = [(beta, sentence, {}) for beta in range(STAGES)]
    assert not _dual_path_disagrees(M, pool, queries)
    assert ("grid", kind) in M._cache
    with _row_flipped(M, x, y, kind):
        assert _dual_path_disagrees(M, pool, queries)
    assert not _dual_path_disagrees(M, pool, queries)


# --- the pair codes behind the encoding points --------------------------------
#
# hf_pair answers from a table after the first build, so a wrong table entry
# is a wrong code wherever it is used.  Criterion 6's self-coherence reads a
# truth atom at coded valuations and compares it with the predicate queried
# at the valuations themselves, so it must catch one.

def _self_coherence_failures(base, pool) -> int:
    return criteria.self_coherence(iterated_truth(base, STAGES, pool)).failures


@contextlib.contextmanager
def _pair_poisoned(a, b, wrong):
    """hf_pair's table entry for (a, b) replaced by `wrong`, restored on exit."""
    right = hf_pair(a, b)
    hfset._pairs[(a, b)] = wrong
    try:
        yield
    finally:
        hfset._pairs[(a, b)] = right


def test_poisoned_pair_entry_fails_self_coherence(iterated_setup):
    base, pool, _ = iterated_setup
    # the valuation a ↦ ∅ is coded as {⟨"a", ∅⟩}; poisoned, it codes a ↦ {∅},
    # and d holds of ∅ but not of {∅}
    (entry,) = encode_valuation({"a": EMPTY}).children
    a_code, _ = hf_unpair(entry)
    assert _self_coherence_failures(base, pool) == 0
    with _pair_poisoned(a_code, EMPTY, hf_pair(a_code, nat_encode(1))):
        assert encode_valuation({"a": EMPTY}) is encode_valuation({"a": nat_encode(1)})
        assert _self_coherence_failures(base, pool) > 0
    assert _self_coherence_failures(base, pool) == 0


def _game_verdict_mismatches(M, pool, clock) -> int:
    """Criterion 8's comparison: the truth-teller's winning verdicts against
    eval_formula, counted over the pool instances the clock reaches, with
    her win and its playout."""
    return criteria.truth_telling(M, pool, [clock]).failures


def test_flipped_row_bit_fails_the_truth_telling_comparison():
    M = FiniteStructure(v_stage(2))
    pool = corpus.atomic_game_pool()
    assert _game_verdict_mismatches(M, pool, 2) == 0
    with _row_flipped(M, nat_encode(1), EMPTY):  # ∅ ∈ {∅}
        # x ∈ y and ¬(x ∈ y) at x = ∅, y = {∅}
        assert _game_verdict_mismatches(M, pool, 2) == 2
    assert _game_verdict_mismatches(M, pool, 2) == 0


# --- the independence of the pointwise sides ----------------------------------
#
# A side that called the evaluator it is compared with would agree with any
# corruption of it, so none of these may name `eval_formula` or `_value`.

POINTWISE_SIDES = [
    (truth_mod, "IteratedTruthPredicate._eval"),
    (truth_mod, "_staged_truth_instance"),
    (forcing_mod, "atomic_recursion_instance"),
    (games_mod, "truth_telling_game"),
]


def _definition(module, qualname):
    node = ast.parse(inspect.getsource(module))
    for part in qualname.split("."):
        node = next(n for n in ast.walk(node)
                    if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part)
    return node


def _offenders(sides, forbidden) -> list:
    offenders = []
    for module, qualname in sides:
        for n in ast.walk(_definition(module, qualname)):
            named = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if named in forbidden:
                offenders.append((qualname, named, n.lineno))
    return offenders


# A reference that read atoms with the code it checks would agree with any
# fault in that code, so the reference files import only the public API and
# read a `_`-prefixed attribute (dunders aside) only off `self`.  One read is
# allowed: the polarity test's spy on `forcing_mod._SizeGuard`, whose charge
# it checks against `ref_charge`, the file's own count of the documented rule.

REFERENCE_PRIVATE_READS = {("forcing", "forcing_mod._SizeGuard")}


def _reference_breaches(name: str, source: str) -> list:
    """The non-public forcelab imports and the private attribute reads of
    test_{name}_reference.py's source."""
    tree = ast.parse(source)
    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                and (n.module or "").split(".")[0] == "forcelab" for alias in n.names}
    assert imported
    reads = [ast.unparse(n) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr.startswith("_")
             and not n.attr.endswith("__") and ast.unparse(n.value) != "self"]
    return sorted(imported - set(forcelab.__all__)) + [
        read for read in reads if (name, read) not in REFERENCE_PRIVATE_READS]


def _reference_source(name: str) -> str:
    return (Path(__file__).parent / f"test_{name}_reference.py").read_text()


@pytest.mark.parametrize("name", ["forcing", "games", "iterated"])
def test_reference_files_import_only_the_public_api(name):
    assert _reference_breaches(name, _reference_source(name)) == []


def test_the_reference_guard_catches_a_private_memo_read():
    source = _reference_source("forcing")
    probe = "\n\ndef test_probe(FR):\n    assert FR._values and self._memo\n"
    assert _reference_breaches("forcing", source + probe) == ["FR._values"]
    # the one allowed read is the forcing file's own
    spy = "from forcelab import corpus\nforcing_mod._SizeGuard\n"
    assert _reference_breaches("games", spy) == ["forcing_mod._SizeGuard"]


def test_pointwise_sides_never_name_the_merged_evaluator():
    assert _offenders(POINTWISE_SIDES, ("eval_formula", "_value")) == []


def test_the_truth_telling_judge_reads_atoms_off_the_sets():
    named = {n.id for n in ast.walk(_definition(games_mod, "truth_telling_game"))
             if isinstance(n, ast.Name)}
    assert "_eval_atom" in named


# Criterion 3 compares Boolean values with the forcing kernel, so the
# regular-open algebra and the Boolean-value recursion may not reach it.

ALGEBRA_SIDES = [(forcing_mod, "BooleanAlgebra"), (forcing_mod, "BooleanValues")]
KERNEL_NAMES = ("ForcingRelation", "atomic_value", "_witnessed", "_atomic", "_neg", "_up",
                "op_unpair")


def test_algebra_sides_never_name_the_forcing_kernel():
    assert _offenders(ALGEBRA_SIDES, KERNEL_NAMES) == []


# Criterion 4 compares the collapse relation with Tarskian truth, computed
# over the structure's sets, so that side may name no part of the kernel.

def test_tarskian_truth_never_names_the_forcing_kernel():
    sides = [(truth_mod, "tarski_truth"), (truth_mod, "tarski_truth_instance"),
             (truth_mod, "_staged_truth_instance")]
    assert _offenders(sides, KERNEL_NAMES + ("forcing_mod",)) == []


# Criterion 7 compares the staged atomic instance with the kernel's table.
# Its step builds masks of conditions much as the kernel does, but from the
# earlier slices alone, so it may name no part of the kernel.

# Criteria 1 and 5 compare the quotient by the forced rows with direct
# evaluation.  `extension` keeps the direct side per filter; it is computed
# from the names alone, so it may name no part of the kernel and ask it for
# no value.  Criterion 9's law audit judges each distinct mask by the laws'
# pointwise definitions, not with the kernel's own operators.

def test_the_direct_side_never_names_the_forcing_kernel():
    forbidden = KERNEL_NAMES + ("value", "decide")
    sides = [(forcing_mod, "_DirectSide"), (names_mod, "eval_name"), (names_mod, "eval_class")]
    assert _offenders(sides, forbidden) == []


def test_the_law_audit_judges_masks_without_the_kernel_operators():
    assert _offenders([(forcing_mod, "_judge_mask")], ("neg", "regularize")) == []


def test_the_staged_atomic_instance_never_names_the_forcing_kernel():
    forbidden = KERNEL_NAMES + ("neg", "regularize", "decide")
    assert _offenders([(forcing_mod, "atomic_recursion_instance")], forbidden) == []


# Criteria 1 and 4 compare forcing with truth: direct evaluation in the
# generic extension (`ground_formula`, then `eval_formula`) and Tarskian truth
# (`tarski_truth`).  The forcing walk under a name valuation, and the atomic
# recursion it reads, may reach none of them.

FORCING_SIDES = [(forcing_mod, "ForcingRelation.value"), (forcing_mod, "ForcingRelation._clause"),
                 (forcing_mod, "ForcingRelation.atomic_value"),
                 (forcing_mod, "ForcingRelation._witnessed"), (forcing_mod, "_term_pname")]
TRUTH_NAMES = ("eval_formula", "_value", "ground_formula", "tarski_truth")


def test_the_forcing_walk_never_names_the_truth_sides():
    assert _offenders(FORCING_SIDES, TRUTH_NAMES) == []


# The criteria compare sides given to them or built by the sides' public
# constructors, so none may reach into the kernel or an evaluator's internals.

def test_the_criteria_reach_into_no_side():
    sides = [(criteria, name) for name, f in vars(criteria).items() if hasattr(f, "__wrapped__")]
    assert len(sides) == 12
    assert _offenders(sides, KERNEL_NAMES + ("_value", "_eval", "_rows", "_cache")) == []
