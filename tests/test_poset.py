import itertools
import time

import pytest

from forcelab import (EMPTY, BudgetError, ForcelabError, ParseError, build_collapse,
                      generic_filters, hf_make, is_dense, is_separative,
                      make_notion, minimal_classes, parse_poset, v_stage)
from forcelab import corpus, poset, sexpr
from forcelab.poset import COLLAPSE_BUDGET, ForcingNotion, _collapse_skeleton, bits, is_filter


def test_trivial_is_separative():
    ok, cx = is_separative(make_notion(["1"]))
    assert ok and cx is None


def test_chain_is_not_separative():
    ok, cx = is_separative(corpus.chain2())
    assert not ok and cx == (0, 1)


def test_fork_is_separative(fork):
    assert is_separative(fork) == (True, None)


def test_corpus_all_separative():
    for name, P in corpus.corpus_notions():
        assert is_separative(P)[0], name
        assert len(P) <= 5, name
    assert len(corpus.corpus_notions()) >= 10


def test_density(fork):
    a, b = fork.index("a"), fork.index("b")
    assert is_dense(fork, 1 << a | 1 << b)
    assert not is_dense(fork, 1 << a)


def _brute_force_generic(P):
    """Independent oracle: every filter meeting every dense subset."""
    n = len(P)
    dense = [D for D in range(1 << n) if is_dense(P, D)]
    return [f for f in range(1 << n) if is_filter(P, f)
            and all(f & D for D in dense)]


@pytest.mark.parametrize("name", [name for name, _ in corpus.corpus_notions()])
def test_generic_filters_match_brute_force(name):
    P = dict(corpus.corpus_notions())[name]
    got = sorted(generic_filters(P))
    assert got == _brute_force_generic(P)


def test_fork_has_two_generic_filters(fork):
    filters = generic_filters(fork)
    assert sorted(list(bits(g)) for g in filters) == [[0, 1], [0, 2]]


def test_equivalent_teeth_share_a_filter():
    P = make_notion(["1", "a", "a2", "b"], [("a", "a2"), ("a2", "a")])
    filters = generic_filters(P)
    assert len(filters) == 2
    assert 0b111 in filters


def test_a_collapse_below_stage_0_is_refused():
    with pytest.raises(ForcelabError, match="no stage V_-1"):
        build_collapse(-1, [])


def test_collapse_counts_stage2():
    fa = build_collapse(2, [])
    # 7 partial injections + the two realizable supremum tokens
    assert len(fa) == 9


def test_collapse_order_clauses():
    stage = v_stage(2)
    fa = build_collapse(2, list(stage))
    f = fa.fn_condition({0: EMPTY, 1: hf_make([EMPTY])})
    assert fa.le(f, fa.e_index[(0, 1)])       # f(0) ∈ f(1)
    assert not fa.le(f, fa.e_index[(1, 0)])
    a0 = fa.a_index[0]
    assert fa.le(f, a0)                        # f(0) ∈ A
    assert all(not fa.le(a0, q) for graph, q in fa.fn_index.items() if graph)


def test_collapse_token_transitivity():
    fa = build_collapse(2, [])
    e01 = fa.e_index[(0, 1)]
    small = fa.fn_condition({0: EMPTY, 1: hf_make([EMPTY])})
    assert fa.le(small, e01)
    for q in fa.conditions():
        if fa.le(q, small):
            assert fa.le(q, e01)


def test_collapse_minimal_are_total_bijections():
    fa = build_collapse(2, [])
    minimal = {next(bits(c)) for c in minimal_classes(fa)}
    graph_of = {p: graph for graph, p in fa.fn_index.items()}
    for m in minimal:
        assert len(graph_of[m]) == fa.clock
    assert len(minimal) == 2


def test_collapse_stage3_has_24_generic_filters():
    fa = build_collapse(3, [])
    assert len(generic_filters(fa)) == 24


def test_collapse_sizes_stage3():
    stage = v_stage(3)
    fa = build_collapse(3, [])
    fns = [graph for graph in fa.fn_index if graph]
    assert len(fns) == 208  # non-empty partial injections of 4 slots into 4 sets
    assert len(fa) == 221
    for r in range(1, len(stage) + 1):
        for A in itertools.combinations(stage, r):
            assert len(build_collapse(3, A)) == 225


def test_collapse_budget():
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        build_collapse(4, [])
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# The all-pairs collapse builder, kept as the reference for CollapseNotion:
# a frontier search for the functions, f ≤ g tested for every pair (f, g),
# and the token realizers found by re-reading each graph per token.

def ref_collapse(stage, A):
    targets = v_stage(stage)
    k = len(targets)
    A = frozenset(A)
    fns = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for fn in frontier:
            m = dict(fn)
            used = set(m.values())
            for i in range(k):
                if i in m:
                    continue
                if any(i < s for s in m):  # add slots in increasing order only
                    continue
                for t in targets:
                    if t not in used:
                        nxt.append(tuple(sorted(m.items())) + ((i, t),))
            if len(fns) + len(nxt) > COLLAPSE_BUDGET:
                raise BudgetError(f"collapse notion exceeds budget {COLLAPSE_BUDGET}")
        fns.extend(nxt)
        frontier = nxt

    elements = ["1"]
    fn_index = {(): 0}
    for fn in sorted((f for f in fns if f), key=lambda f: tuple((i, t.key) for i, t in f)):
        fn_index[fn] = len(elements)
        elements.append("f{" + ",".join(f"{i}:{targets.index(t)}" for i, t in fn) + "}")

    def realizers_e(i, j):
        return [fn_index[f] for f in fns
                if i in dict(f) and j in dict(f) and dict(f)[i] in dict(f)[j]]

    def realizers_a(i):
        return [fn_index[f] for f in fns if i in dict(f) and dict(f)[i] in A]

    e_index, a_index, pairs = {}, {}, []
    for i in range(k):
        for j in range(k):
            below = realizers_e(i, j)
            if not below:
                continue
            e_index[(i, j)] = len(elements)
            elements.append(f"e_{i}_{j}")
            pairs.extend((b, e_index[(i, j)]) for b in below)
    for i in range(k):
        below = realizers_a(i)
        if not below:
            continue
        a_index[i] = len(elements)
        elements.append(f"a_{i}")
        pairs.extend((b, a_index[i]) for b in below)

    for f in fns:
        for g in fns:
            if f != g and set(g) <= set(f):
                pairs.append((fn_index[f], fn_index[g]))
    return ForcingNotion(elements, pairs), fn_index, e_index, a_index


def _collapse_configurations():
    for n in (0, 1, 2, 3):
        stage = v_stage(n)
        for r in range(len(stage) + 1):
            for A in itertools.combinations(stage, r):
                yield n, A


def test_collapse_configurations_count():
    assert len(list(_collapse_configurations())) == 1 + 2 + 4 + 16


def _differences_from_reference(n, A):
    """The attributes in which the collapse differs from the reference."""
    fa = build_collapse(n, A)
    ref, fn_index, e_index, a_index = ref_collapse(n, A)
    pairs = [("elements", fa.elements, ref.elements),
             ("_up", fa._up, ref._up), ("_down", fa._down, ref._down),
             ("fn_index", list(fa.fn_index.items()), list(fn_index.items())),
             ("e_index", list(fa.e_index.items()), list(e_index.items())),
             ("a_index", list(fa.a_index.items()), list(a_index.items()))]
    return [label for label, got, want in pairs if got != want]


@pytest.mark.parametrize("n, A", list(_collapse_configurations()))
def test_collapse_matches_all_pairs_reference(n, A):
    assert _differences_from_reference(n, A) == []


def test_a_dropped_parameter_token_bit_fails_the_all_pairs_reference(monkeypatch):
    # one realizer of one a(i) no longer lies below it, in either mask
    place = poset._place_token
    for n in (2, 3):
        stage = v_stage(n)
        for A in (stage[:1], stage):
            token = min(build_collapse(n, A).a_index.values())
            monkeypatch.setattr(poset, "_place_token", lambda up, down, below: place(
                up, down, below & below - 1 if len(up) == token else below))
            assert _differences_from_reference(n, A) == ["_up", "_down"]


def test_collapses_at_one_stage_share_their_functions():
    plain, with_a = build_collapse(3, []), build_collapse(3, v_stage(3)[1:])
    assert plain.fn_index is with_a.fn_index
    assert len(plain.fn_index) == 209 and len(plain) == 209 + 12 and len(with_a) == 209 + 12 + 4


def test_every_collapse_at_a_stage_reads_the_shared_down_masks_off_its_skeleton():
    # the masks of the functions and e-tokens are the skeleton's own objects,
    # not recomputed per parameter set; only the top's gains the a-token bits
    for n in (2, 3):
        stage = v_stage(n)
        skeleton = _collapse_skeleton(n)
        shared = len(skeleton.elements)
        for r in range(len(stage) + 1):
            for A in itertools.combinations(stage, r):
                fa = build_collapse(n, A)
                assert all(got is want for got, want in
                           zip(fa._down[1:shared], skeleton.down[1:shared], strict=True))
                assert fa._down[0] == (1 << len(fa)) - 1


def test_collapse_is_not_separative_at_finite_scale():
    # With finitely many targets a partial map can have every completion
    # land inside a supremum token's realizers, so nothing below it is
    # incompatible with the token; the forcing machinery must therefore
    # work on arbitrary preorders, and does (the collapse-truth tests).
    for n in (2, 3):
        ok, cx = is_separative(build_collapse(n, []))
        assert not ok and cx is not None


def test_compatibility_symmetry(corpus_notion):
    P = corpus_notion
    for p in P.conditions():
        assert P.compatible(P.one, p)
        for q in P.conditions():
            assert P.compatible(p, q) == P.compatible(q, p)


def test_poset_sexp_roundtrip(fork):
    text = fork.to_sexp()
    again = parse_poset(text)
    assert again.elements == fork.elements
    for p in fork.conditions():
        for q in fork.conditions():
            assert again.le(p, q) == fork.le(p, q)


@pytest.mark.parametrize("stage", [2, 3])
def test_collapse_sexp_lists_weaker_conditions_in_index_order(stage):
    # stage 3 is large enough that a hash set of conditions iterates out of order
    fa = build_collapse(stage, [EMPTY])
    text = fa.to_sexp()
    (le,) = [clause for clause in sexpr.read(text)[1:] if clause[0] == "le"]
    pairs = [(fa.index(a), fa.index(b)) for a, b in le[1:]]
    assert pairs == [(p, q) for p in fa.conditions() for q in fa.conditions()
                     if p != q and fa.le(p, q)]
    again = parse_poset(text)
    assert again.elements == fa.elements
    assert [again.up(p) for p in again.conditions()] == [fa.up(p) for p in fa.conditions()]
    assert again.to_sexp() == text


def test_make_notion_names_an_unknown_token():
    with pytest.raises(ForcelabError, match="unknown condition token 'zz'"):
        make_notion(["1", "a"], [("a", "zz")])


def test_parse_poset_names_an_unknown_token():
    with pytest.raises(ParseError, match="le mentions unknown condition token 'c'"):
        parse_poset("(poset (elems a b) (one a) (le (c a)))")


def test_poset_parse_errors():
    with pytest.raises(Exception):
        parse_poset("(poset (elems a b))")
    with pytest.raises(Exception):
        parse_poset("(poset (elems a) (one zzz))")


@pytest.mark.parametrize("text", [
    "(poset (elems a) (one a) (le (a b)))",
    "(poset (elems a b) (one a) (le (c a)))",
    "(poset (elems a a) (one a))",
    "(poset (elems a (b)) (one a))",
    "(poset (elems a b) (one a) (le ((a) b)))",
    # a clause given twice
    "(poset (elems 1 a b) (elems 1 c) (one 1) (le))",
    "(poset (elems 1 a) (one 1) (one a) (le))",
    "(poset (elems a b) (one a) (le (b a)) (le))",
])
def test_malformed_poset_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_poset(text)
