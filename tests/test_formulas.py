import collections
import hashlib
import itertools
import json
import random
import time
import types
from pathlib import Path

import pytest

from forcelab import (EMPTY, And, AtomTr, Exists, FiniteStructure, ForcelabError, NameConst,
                      PairTerm, ParseError, StageTranslator, and_, atom_eq, atom_in,
                      atom_in_class, atom_tr, check_name, const, decode_formula,
                      decode_valuation, encode_formula, encode_valuation,
                      eval_name, exists, forall, forcing_truth, formula_to_sexp,
                      generic_filters, ground_formula, hf_make, iff,
                      map_formula, name_const, nat_decode, nat_encode, nodes,
                      not_, or_, parse_formula, stage_comparison_structure,
                      subformula_closure, subformulas, substitute, v_stage, var)
from forcelab import corpus, dag
from forcelab import formulas, truth
from forcelab.formulas import Forall, map_atom, rename_free, variables
from forcelab.hfset import hf_list, hf_pair
from forcelab.names import name_make


x, y = var("x"), var("y")


def test_ranks():
    assert atom_eq(x, y).rank == 0
    assert not_(atom_eq(x, y)).rank == 1
    assert and_([atom_eq(x, y), not_(atom_in(x, y))]).rank == 2
    assert and_([]).rank == 1


def test_interning_gives_identity():
    assert atom_eq(x, y) is atom_eq(var("x"), var("y"))
    assert and_([atom_eq(x, y)]) is and_([atom_eq(x, y)])


def test_free_variables():
    phi = forall(("x",), and_([atom_eq(x, y), atom_in(x, x)]))
    assert phi.free == {"y"}


def test_substitute_basic():
    out = substitute(atom_in(x, y), {"x": const(EMPTY)})
    assert out is atom_in(const(EMPTY), y)


def test_substitute_under_binder():
    phi = forall(("x",), atom_eq(x, y))
    out = substitute(phi, {"y": const(EMPTY)})
    assert out is forall(("x",), atom_eq(x, const(EMPTY)))


def test_substitute_bound_target_errors():
    # x is bound wherever it occurs, so there is no free occurrence to replace
    phi = forall(("x",), atom_eq(x, y))
    assert substitute(phi, {"x": const(EMPTY)}) is phi


def test_substitute_open_term_errors():
    with pytest.raises(ForcelabError):
        substitute(atom_eq(x, y), {"x": var("z")})


def test_mixed_constant_kinds_rejected():
    with pytest.raises(ForcelabError):
        and_([atom_eq(const(EMPTY), x), atom_eq(name_const(check_name(EMPTY)), y)])


def test_parse_examples():
    phi = parse_formula("(forall (x) (in x (const (hf))))")
    assert isinstance(phi, Forall)
    assert phi is forall(("x",), atom_in(var("x"), const(EMPTY)))
    assert parse_formula("(and)") is and_([])


def test_parse_name_terms_need_notion():
    with pytest.raises(ParseError):
        parse_formula("(= (check (hf)) (check (hf)))")
    P = corpus.fork()
    phi = parse_formula("(= (check (hf)) (name))", P)
    assert phi is atom_eq(name_const(check_name(EMPTY)), name_const(check_name(EMPTY)))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_formula("(= (var x))")
    with pytest.raises(ParseError):
        parse_formula("(unknown-head)")
    with pytest.raises(ParseError) as e:
        parse_formula("(and (= x y)")
    assert e.value.position is not None


def _random_formula(rng, depth=3):
    roll = rng.random()
    terms = [var(rng.choice("xyz")), const(EMPTY), const(nat_encode(rng.randrange(3)))]
    t = lambda: rng.choice(terms)
    if depth == 0 or roll < 0.35:
        return rng.choice([atom_eq(t(), t()), atom_in(t(), t()),
                           atom_in_class(t(), "A"), atom_tr(t(), t(), t())])
    if roll < 0.5:
        return not_(_random_formula(rng, depth - 1))
    if roll < 0.7:
        return and_([_random_formula(rng, depth - 1) for _ in range(rng.randrange(3))])
    if roll < 0.8:
        return or_([_random_formula(rng, depth - 1) for _ in range(rng.randrange(3))])
    ctor = forall if roll < 0.9 else exists
    vs = tuple(sorted({rng.choice("xyz") for _ in range(rng.randrange(1, 3))}))
    return ctor(vs, _random_formula(rng, depth - 1))


def test_parse_print_roundtrip_1000():
    rng = random.Random(2024)
    for _ in range(1000):
        phi = _random_formula(rng)
        assert parse_formula(formula_to_sexp(phi)) is phi


def test_print_parse_identity_on_canonical_text():
    rng = random.Random(7)
    for _ in range(200):
        text = formula_to_sexp(_random_formula(rng))
        assert formula_to_sexp(parse_formula(text)) == text


def _pools():
    yield "first-order", corpus.first_order_pool()
    yield "iterated", corpus.iterated_pool()
    for label, P in corpus.corpus_notions():
        yield label, corpus.oracle_pool(P, corpus.oracle_universe(P))


def test_kept_texts_equal_a_fresh_fold():
    for label, pool in _pools():
        for phi in subformula_closure(pool):
            for _ in range(2):  # a miss, then a hit
                assert formula_to_sexp(phi) == formulas._fold_text(phi, None), label


def test_canonical_pool_order_is_rank_then_fresh_text():
    for label, pool in _pools():
        pool = list(pool)
        want = sorted(set(pool), key=lambda f: (f.rank, formulas._fold_text(f, None)))
        assert list(formulas.canonical_pool(pool)) == want, label
        assert list(formulas.canonical_pool(reversed(pool))) == want, label


def test_name_constants_print_as_indices_without_a_notion_and_as_tokens_with_one(fork):
    named = name_make([(check_name(EMPTY), fork.index("a"))])
    phi = and_([atom_in(name_const(named), name_const(check_name(hf_make([EMPTY])))),
                not_(atom_eq(x, name_const(named)))])
    with_fork = ("(and (in (name (pair (name) a)) (name (pair (name) 1))) "
                 "(not (= (var x) (name (pair (name) a)))))")
    without = ("(and (in (name (pair (name) 1)) (name (pair (name) 0))) "
               "(not (= (var x) (name (pair (name) 1)))))")
    for _ in range(2):  # the kept text never stands in for a notion's
        assert formula_to_sexp(phi, fork) == with_fork
        assert formula_to_sexp(phi) == without


def test_rank_monotone_under_subformulas():
    rng = random.Random(5)
    for _ in range(100):
        phi = _random_formula(rng)
        for sub in subformula_closure([phi]):
            if sub is not phi:
                assert sub.rank < phi.rank or sub not in set(_strict_subs(phi))


def _strict_subs(phi):
    return subformulas(phi) - {phi}


def test_substituting_constants_preserves_rank():
    rng = random.Random(11)
    for _ in range(100):
        phi = _random_formula(rng)
        free = phi.free
        if not free or free & _collect_bound(phi):
            continue
        out = substitute(phi, {v: const(EMPTY) for v in free})
        assert out.rank == phi.rank


def _collect_bound(phi):
    return {v for node in nodes(phi) if isinstance(node, (Forall, Exists)) for v in node.vars}


def test_godel_roundtrip():
    rng = random.Random(3)
    for _ in range(300):
        phi = _random_formula(rng)
        assert decode_formula(encode_formula(phi)) is phi
    # the forcing language's pools and the stage-2 clock translations, which
    # hold name constants and pair terms
    forcing_language = list(forcing_truth(2, [], corpus.first_order_pool())._stars.values())
    for _, P in corpus.corpus_notions():
        N = corpus.oracle_universe(P)
        forcing_language += corpus.oracle_pool(P, N) + corpus.truth_name_pool(P, N)
    kinds = {type(t) for phi in forcing_language for t in formulas.terms(phi)}
    assert {NameConst, PairTerm} <= kinds
    assert [f for f in forcing_language if decode_formula(encode_formula(f)) is not f] == []
    assert decode_formula(EMPTY) is None
    assert decode_formula(nat_encode(5)) is None


def test_godel_roundtrip_at_depth_1000():
    # the decoder folds over subcodes, so it has no recursion to run out of
    phi = atom_eq(x, y)
    for depth in range(1000):
        phi = [not_(phi), and_([phi, atom_in(x, y)]), or_([atom_eq(y, y), phi]),
               exists(("y",), phi)][depth % 4]
    assert phi.rank == 1000
    assert decode_formula(encode_formula(phi)) is phi


def test_valuation_roundtrip():
    v = {"x": EMPTY, "y": nat_encode(2)}
    assert decode_valuation(encode_valuation(v)) == v
    assert decode_valuation(hf_make([EMPTY])) is None


def test_a_decoded_valuation_is_a_new_dict_each_time():
    v = {"x": EMPTY, "y": nat_encode(2)}
    code = encode_valuation(v)
    first = decode_valuation(code)
    first["x"] = nat_encode(1)
    del first["y"]
    assert decode_valuation(code) == v
    assert decode_valuation(code) is not decode_valuation(code)


def test_junk_valuation_codes_stay_junk_when_cached():
    key = formulas._encode_str("x")
    junk = [
        hf_make([EMPTY]),
        hf_make([hf_pair(hf_make([EMPTY]), EMPTY)]),  # {∅} is no list
        hf_make([hf_pair(hf_list([hf_make([nat_encode(1)])]), EMPTY)]),  # {{∅}} is no natural
        hf_make([hf_pair(hf_list([nat_encode(len(formulas._ALPHABET))]), EMPTY)]),
        hf_make([hf_pair(EMPTY, EMPTY)]),  # the empty identifier
        hf_make([hf_pair(key, EMPTY), hf_pair(key, nat_encode(1))]),  # x twice
    ]
    for code in junk:
        assert decode_valuation(code) is None
        hits = formulas._valuation_items.cache_info().hits
        assert decode_valuation(code) is None
        assert formulas._valuation_items.cache_info().hits == hits + 1


def test_comparison_structure_codes_round_trip():
    """Every code stage_comparison_structure adds for criterion 6's base."""
    stage = v_stage(3)
    base = FiniteStructure(stage, {"d": [EMPTY, stage[2]]})
    pool = corpus.iterated_pool()
    stage_cap = 5
    domain = set(stage_comparison_structure(base, pool, stage_cap).domain)
    assert all(nat_decode(nat_encode(xi)) == xi for xi in range(stage_cap + 1))
    valuations = 0
    for psi in pool:
        code = encode_formula(psi)
        assert code in domain and decode_formula(code) is psi
        fv = tuple(sorted(psi.free))
        for v in fv:
            assert formulas._decode_str(formulas._encode_str(v)) == v
        if len(fv) > 1:
            continue
        for values in itertools.product(base.domain, repeat=len(fv)):
            av = dict(zip(fv, values))
            vcode = encode_valuation(av)
            assert vcode in domain
            for _ in range(2):  # the second decode reads the cache
                assert decode_valuation(vcode) == av
                assert encode_valuation(decode_valuation(vcode)) is vcode
            valuations += 1
    assert valuations >= len(stage)  # some formula has one free variable


def test_iff_encoding_meaning():
    # built from the primitive connectives only
    phi = iff(atom_eq(x, x), atom_eq(y, y))
    assert not phi.free - {"x", "y"}
    assert isinstance(phi, And)


# --- the traversal core ------------------------------------------------------

def _translated_truth_atoms():
    pool = corpus.iterated_pool()
    tr = StageTranslator(pool, 4)
    atom = next(f for f in pool if isinstance(f, AtomTr))
    return [tr.translate(beta, atom) for beta in range(5)]


def test_identity_map_returns_the_same_node():
    pools = [corpus.first_order_pool(), corpus.iterated_pool()]
    for _, P in corpus.corpus_notions():
        N = corpus.oracle_universe(P)
        pools += [corpus.oracle_pool(P, N), corpus.truth_name_pool(P, N)]
    formulas = [phi for pool in pools for phi in pool] + _translated_truth_atoms()
    for phi in formulas:
        assert map_formula(phi, lambda atom: atom) is phi


def test_translated_truth_atom_is_walked_as_a_dag():
    # The tree expansion of this formula has about 2·10^10 nodes.
    phi = _translated_truth_atoms()[1]
    started = time.monotonic()
    subs = subformulas(phi)
    assert time.monotonic() - started < 1
    assert len(subs) == 2909
    seen = set()
    for node in nodes(phi):
        assert node not in seen and all(c in seen for c in node.children())
        seen.add(node)
    assert seen == subs


def ref_rename_free(phi, mapping):
    # the renaming before it pruned unchanged subformulas: every node rebuilt,
    # once per set of renamed variables that quantifiers above it bind
    def parts(item):
        f, bound = item
        if isinstance(f, (Forall, Exists)):
            bound = bound | mapping.keys() & set(f.vars)
        return [(c, bound) for c in f.children()]

    def rebuild(item, kids):
        f, bound = item
        if f.rank:
            return formulas._rebuild(f, kids)
        live = {k: var(v) for k, v in mapping.items() if k not in bound}
        return map_atom(f, lambda t: formulas._subst_term(t, live))

    return dag.fold((phi, frozenset()), parts, rebuild)


def test_rename_free_matches_the_full_rebuild():
    # every stage translation of the iterated pool at stages 0-4, with its
    # free variables renamed, and with every variable (bound ones included)
    pool = corpus.iterated_pool()
    tr = StageTranslator(pool, 4)
    renamed = 0
    for beta in range(5):
        for phi in pool:
            psi = tr.translate(beta, phi)
            names = sorted(variables(psi))
            for keys in (psi.free_sorted, names):
                mapping = {k: f"r{i}" for i, k in enumerate(keys)}
                got = rename_free(psi, mapping)
                assert got is ref_rename_free(psi, mapping), (beta, phi)
                assert got.free == {mapping[k] for k in psi.free}
                renamed += got is not psi
    assert renamed > 0


def test_a_stage_translation_rebuilds_each_composite_node_once_per_stage(monkeypatch):
    # _rebuild calls counted by the stage whose translation makes them; the
    # renamings inside a truth atom's disjuncts are not counted
    pool = corpus.iterated_pool()
    tr = StageTranslator(pool, 4)
    stages, rebuilt = [], collections.Counter()
    rebuild, translate, rename = formulas._rebuild, tr.translate, truth.rename_free

    def within(stage, call, *args):
        stages.append(stage)
        try:
            return call(*args)
        finally:
            stages.pop()

    def counted(phi, kids):
        if stages[-1] is not None:
            rebuilt[stages[-1], phi] += 1
        return rebuild(phi, kids)

    monkeypatch.setattr(formulas, "_rebuild", counted)
    monkeypatch.setattr(truth, "rename_free", lambda *args: within(None, rename, *args))
    tr.translate = lambda beta, phi: within(beta, translate, beta, phi)
    for beta in range(5):
        for phi in pool:
            tr.translate(beta, phi)
    composite = {f for phi in pool for f in nodes(phi) if f.rank}
    assert rebuilt.keys() == {(beta, f) for beta in range(5) for f in composite}
    assert set(rebuilt.values()) == {1}


def test_rename_free_leaves_no_reference_cycle(cyclic_garbage):
    phi = forall(("a",), atom_in(var("a"), var("b")))
    assert cyclic_garbage(lambda: rename_free(phi, {"b": "r0"})) == 0


def test_substitute_and_ground_match_recorded_results():
    # Digests of the texts produced, on the corpus oracle pools, by the
    # tree-recursive substitution and grounding that the traversal core
    # replaced.  Grounding reads only the name evaluations of an extension.
    want = json.loads((Path(__file__).parent / "golden" / "traversal.json").read_text())
    for label, P in corpus.corpus_notions():
        N = corpus.oracle_universe(P)
        pool = corpus.oracle_pool(P, N)
        h = hashlib.sha256()
        for phi in subformula_closure(pool):
            if isinstance(phi, (Forall, Exists)):
                for n in N:
                    inst = substitute(phi.body, {v: name_const(n) for v in phi.vars})
                    h.update(formula_to_sexp(inst, P).encode() + b"\n")
        for G in generic_filters(P):
            memo = {}
            ext = types.SimpleNamespace(evaluation={n: eval_name(n, G, memo) for n in N})
            for phi in pool:
                h.update(formula_to_sexp(ground_formula(phi, ext)).encode() + b"\n")
        assert h.hexdigest() == want[label], label
