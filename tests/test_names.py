import itertools

import pytest
from hypothesis import given, strategies as st

from forcelab import (EMPTY, EMPTY_NAME, BudgetError, ForcelabError,
                      ParseError, a_dot, build_collapse, check_name, eps_dot,
                      eval_class, eval_name, g_dot, generic_filters, hf_make,
                      hf_pair, n_dot, name_make, name_to_hf, name_to_sexp,
                      name_universe, nat_encode, op_name, parse_name,
                      subname_closure, subnames, v_stage)
from forcelab import corpus, names, sexpr
from forcelab.names import ClassName, op_unpair
from forcelab.poset import bits
from test_grammar import fork_names


def test_check_name_shapes():
    assert check_name(EMPTY) is EMPTY_NAME
    one = hf_make([EMPTY])
    assert check_name(one) is name_make([(EMPTY_NAME, 0)])


def test_permuted_and_duplicated_entries_give_the_canonical_name():
    # name_make looks its argument up before sorting; only sorted tuples may be keys.
    pool = [check_name(x) for x in v_stage(2)]
    entries = [(n, r) for n in pool for r in (0, 2, 1)]
    for r in range(1, 4):
        for chosen in itertools.combinations(entries, r):
            canonical = name_make(chosen)
            for perm in itertools.permutations(chosen):
                assert name_make(perm) is canonical
                assert name_make(perm + perm[-1:]) is canonical
            assert canonical.entries == tuple(sorted(chosen, key=lambda e: (e[0].key, e[1])))


@given(st.lists(st.tuples(fork_names, st.integers(0, 2)), max_size=5), st.randoms())
def test_name_make_is_the_trusted_step_on_the_canonical_entries(entries, rnd):
    given_order = entries + entries[:2]
    rnd.shuffle(given_order)
    canonical = tuple(sorted(set(entries), key=lambda e: (e[0].key, e[1])))
    assert name_make(given_order) is name_make(entries) is names._interned(canonical)


@given(fork_names, fork_names, st.randoms())
def test_op_name_is_the_name_of_its_kuratowski_entries(sigma, tau, rnd):
    inner = [(sigma, 0), (tau, 0)]
    rnd.shuffle(inner)
    outer = [(name_make([(sigma, 0)]), 0), (name_make(inner), 0)]
    rnd.shuffle(outer)
    assert op_name(sigma, tau) is name_make(outer)


def test_every_intern_key_is_strictly_sorted():
    fa = build_collapse(2, [])
    name_make(reversed([(n_dot(fa, a), p) for a in fa.targets for p in fa.conditions()]))
    eps_dot(fa)
    assert len(names._intern) > 20
    for key, name in names._intern.items():
        assert name.entries is key
        assert all((a.key, r) < (b.key, s) for (a, r), (b, s) in zip(key, key[1:])), name


def test_check_name_evaluates_to_itself(corpus_notion):
    P = corpus_notion
    for G in generic_filters(P):
        for x in v_stage(3):
            assert eval_name(check_name(x), G) is x


def test_check_name_injectivity(corpus_notion):
    P = corpus_notion
    stage = v_stage(3)
    for G in generic_filters(P):
        values = [eval_name(check_name(x), G) for x in stage]
        assert len(set(values)) == len(stage)


def test_op_name_dedup_at_equal_arguments():
    op = op_name(EMPTY_NAME, EMPTY_NAME)
    assert len(op.entries) == 1  # {⟨σ,1⟩} appears once after extensionality


def test_op_name_rank():
    sigma = check_name(nat_encode(2))
    tau = EMPTY_NAME
    assert op_name(sigma, tau).rank == max(sigma.rank, tau.rank) + 2


def test_op_name_evaluates_to_kuratowski_pair(fork):
    names = name_universe(fork, 1)
    for G in generic_filters(fork):
        for sigma, tau in itertools.product(names[:5], repeat=2):
            got = eval_name(op_name(sigma, tau), G)
            assert got is hf_pair(eval_name(sigma, G), eval_name(tau, G))


def test_g_dot_extension(fork):
    gd = g_dot(fork)
    for G in generic_filters(fork):
        assert eval_class(gd, G) == {nat_encode(i) for i in bits(G)}


def test_collapse_names_require_collapse_notion(fork):
    with pytest.raises(ForcelabError):
        eps_dot(fork)


def test_n_dot_names_the_preimage_slot():
    fa = build_collapse(2, [])
    graph_of = {p: graph for graph, p in fa.fn_index.items()}
    for G in generic_filters(fa):
        minimal = min(bits(G), key=lambda p: fa.down(p).bit_count())
        fn = dict(graph_of[minimal])
        for a in fa.targets:
            inverse = next(i for i, t in fn.items() if t is a)
            assert eval_name(n_dot(fa, a), G) is nat_encode(inverse)


def test_eps_dot_is_the_membership_copy():
    fa = build_collapse(2, [])
    graph_of = {p: graph for graph, p in fa.fn_index.items()}
    eps = eps_dot(fa)
    for G in generic_filters(fa):
        minimal = min(bits(G), key=lambda p: fa.down(p).bit_count())
        fn = dict(graph_of[minimal])
        want = {hf_pair(nat_encode(i), nat_encode(j))
                for i, ti in fn.items() for j, tj in fn.items() if ti in tj}
        assert set(eval_name(eps, G).children) == want


def test_a_dot_extension_is_the_copied_parameter():
    stage = v_stage(2)
    A = [stage[1]]
    fa = build_collapse(2, A)
    graph_of = {p: graph for graph, p in fa.fn_index.items()}
    ad = a_dot(fa, A)
    for G in generic_filters(fa):
        minimal = min(bits(G), key=lambda p: fa.down(p).bit_count())
        fn = dict(graph_of[minimal])
        want = {nat_encode(i) for i, t in fn.items() if t in set(A)}
        assert eval_class(ad, G) == want


def test_a_dot_validates_parameter():
    fa = build_collapse(2, [])
    with pytest.raises(ForcelabError):
        a_dot(fa, [EMPTY])


def test_universe_counts():
    trivial = corpus.corpus_notions()[0][1]
    assert len(name_universe(trivial, 1)) == 2
    fork = corpus.fork()
    assert len(name_universe(fork, 1)) == 2 ** 3
    # closed form |N_{k+1}| = 2^(|N_k|·|P|)
    assert len(name_universe(trivial, 2)) == 2 ** (2 * 1)


def test_universe_budget():
    with pytest.raises(BudgetError):
        name_universe(corpus.fork(), 2)  # 2^24 names
    with pytest.raises(BudgetError):
        name_universe(corpus.fork(), 3)


def test_seeded_universe_is_subname_closed():
    sigma = name_make([(check_name(nat_encode(1)), 2)])
    seeded = subname_closure([op_name(EMPTY_NAME, sigma)])
    assert sigma in seeded and EMPTY_NAME in seeded
    for n in seeded:
        assert subnames(n) <= set(seeded)


def test_eval_respects_conditions(fork):
    a = fork.index("a")
    sigma = name_make([(EMPTY_NAME, a)])
    up_a, up_b = sorted(generic_filters(fork), key=lambda G: list(bits(G)))
    assert eval_name(sigma, up_a) is hf_make([EMPTY])
    assert eval_name(sigma, up_b) is EMPTY


def test_eval_rank_bound(fork):
    for G in generic_filters(fork):
        for sigma in name_universe(fork, 1):
            assert eval_name(sigma, G).rank <= sigma.rank


def test_eval_walks_any_name_rank(fork):
    # far deeper than the interpreter's recursion limit of 1,000 frames: at
    # each level an entry under a's filter, and one under b's, which up_a cuts
    deep = 5000
    a, b = fork.index("a"), fork.index("b")
    up_a, _ = sorted(generic_filters(fork), key=lambda G: list(bits(G)))
    sigma, want = EMPTY_NAME, EMPTY
    for _ in range(deep):
        sigma = name_make([(sigma, a), (EMPTY_NAME, b)])
        want = hf_make([want])
    assert sigma.rank == deep
    assert eval_name(sigma, up_a) is want


def test_name_sexp_roundtrip(fork):
    sigma = name_make([(check_name(nat_encode(1)), fork.index("b")),
                       (EMPTY_NAME, 0)])
    text = name_to_sexp(sigma, fork)
    assert parse_name(sexpr.read(text), fork) is sigma
    assert parse_name(sexpr.read("(opname (check (hf)) (name))"), fork) \
        is op_name(EMPTY_NAME, EMPTY_NAME)


def test_unknown_condition_token_is_a_parse_error(fork):
    with pytest.raises(ParseError, match="unknown condition token 'zz'"):
        parse_name(sexpr.read("(name (pair (name) zz))"), fork)
    with pytest.raises(ParseError):
        fork.index("zz")


def test_name_to_hf_injective(fork):
    names = name_universe(fork, 1)
    images = {name_to_hf(n) for n in names}
    assert len(images) == len(names)


def test_op_name_is_the_pair_name_built_entry_by_entry(fork):
    # op_name passes its entries in canonical order; the names are the ones
    # name_make builds from the entries in any order
    N = [*name_universe(fork, 1)[:6], check_name(nat_encode(2)), op_name(EMPTY_NAME, EMPTY_NAME)]
    for sigma, tau in itertools.product(N, repeat=2):
        left = name_make([(sigma, 0)])
        assert op_name(sigma, tau) is name_make([(name_make([(tau, 0), (sigma, 0)]), 0), (left, 0)])


def test_op_unpair_inverts_op_name(fork):
    N = [*name_universe(fork, 1)[:6], check_name(nat_encode(2)), op_name(EMPTY_NAME, EMPTY_NAME)]
    for sigma, tau in itertools.product(N, repeat=2):
        assert op_unpair(op_name(sigma, tau)) == (sigma, tau)
    assert len(op_name(N[3], N[3]).entries) == 1  # {{σ}} is the pair (σ, σ)


def test_op_unpair_refuses_names_that_are_no_pair_name(fork):
    a, c = name_universe(fork, 1)[1:3]
    singletons = name_make([(name_make([(a, 0)]), 0), (name_make([(c, 0)]), 0)])
    assert op_unpair(singletons) is None  # {{a}, {c}}
    pair = op_name(a, c)
    for (kid, _), r in itertools.product(pair.entries, (1, 2)):
        rest = [e for e in pair.entries if e[0] is not kid]
        assert op_unpair(name_make([(kid, r), *rest])) is None  # a non-top outer condition
        inner = name_make((n, r if n is a else 0) for n, _ in kid.entries)
        assert op_unpair(name_make([(inner, 0), *rest])) is None  # a non-top inner condition
    for n in name_universe(fork, 1):
        assert op_unpair(n) is None  # rank < 2
    assert op_unpair(name_make([*pair.entries, (EMPTY_NAME, 0)])) is None  # three entries


def test_a_negative_condition_is_refused_in_a_name():
    # -1 once passed as the top: max_condition 0, a check name to the kernel
    for entries in ([(EMPTY_NAME, -1)], [(EMPTY_NAME, 0), (EMPTY_NAME, -2)]):
        with pytest.raises(ForcelabError, match="must not be negative"):
            name_make(entries)
        with pytest.raises(ForcelabError, match="must not be negative"):
            name_make(reversed(entries))
    with pytest.raises(ForcelabError, match="must not be negative"):
        ClassName.make("C", [(EMPTY_NAME, -2)])
    assert name_make([(EMPTY_NAME, 2)]).max_condition == 2


def test_a_negative_universe_rank_is_refused(fork):
    with pytest.raises(ForcelabError, match="rank -1"):
        name_universe(fork, -1)
