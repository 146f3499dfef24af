"""HF sets and names as DAGs: identity hashing, the order held in their
keys, walks that visit each distinct node once, and reprs bounded by the
tree size."""

import collections
import functools
import random
import time

from hypothesis import given, strategies as st

from forcelab import (EMPTY, EMPTY_NAME, And, Not, and_, atom_eq, atom_in, atomic_forcing,
                      check_name, const, corpus, decode_formula, encode_formula, forces,
                      hf_make, map_formula, name_const, name_make, name_to_hf, name_to_sexp,
                      name_universe, not_, or_, parse_formula, star_translate, subname_closure,
                      subnames, substitute, theta_formula, v_stage, var)
from forcelab import dag
from forcelab.dag import REPR_CAP
from forcelab.formulas import atom_terms, formula_to_sexp, nodes, pair_term, rename_free


def test_interned_values_hash_by_identity(fork):
    sets = v_stage(3)
    names = name_universe(fork, 1)
    x, y = var("x"), var("y")
    formulas = [*nodes(corpus.oracle_pool(fork, corpus.oracle_universe(fork))[-1]),
                *corpus.first_order_pool(), *corpus.iterated_pool(),
                atom_in(pair_term(x, y), x), atom_eq(const(EMPTY), y)]
    terms = [t for f in formulas if not f.children() for t in atom_terms(f)]
    for value in [*sets, *names, *formulas, *terms]:
        assert type(value).__hash__ is object.__hash__, type(value)
        assert not hasattr(value, "_hash")
    rng = random.Random(0)
    for s in sets:
        kids = [*s.children, *s.children[:1]]
        rng.shuffle(kids)
        assert hf_make(kids) is s
    for n in names:
        entries = [*n.entries, *n.entries[-1:]]
        rng.shuffle(entries)
        assert name_make(entries) is n
    for f in formulas:
        assert parse_formula(formula_to_sexp(f, fork), fork) is f


# Reference comparators: the recursive order the keys replace.

def ref_hf_cmp(a, b):
    if a is b:
        return 0
    if a.rank != b.rank:
        return -1 if a.rank < b.rank else 1
    for x, y in zip(a.children, b.children):
        c = ref_hf_cmp(x, y)
        if c:
            return c
    return -1 if len(a.children) < len(b.children) else 1


def ref_name_cmp(a, b):
    if a is b:
        return 0
    if a.rank != b.rank:
        return -1 if a.rank < b.rank else 1
    for (n1, r1), (n2, r2) in zip(a.entries, b.entries):
        c = ref_name_cmp(n1, n2)
        if c:
            return c
        if r1 != r2:
            return -1 if r1 < r2 else 1
    return -1 if len(a.entries) < len(b.entries) else 1


def ref_entry_cmp(e1, e2):
    return ref_name_cmp(e1[0], e2[0]) or (e1[1] > e2[1]) - (e1[1] < e2[1])


def _sign(x):
    return (x > 0) - (x < 0)


def _key_cmp(a, b):
    return (a.key > b.key) - (a.key < b.key)


def _assert_same_order(xs, ref):
    xs = list(xs)
    for a in xs:
        for b in xs:
            assert _key_cmp(a, b) == _sign(ref(a, b))
            assert (a < b) == (ref(a, b) < 0)
    shuffled = xs[:]
    random.Random(0).shuffle(shuffled)
    assert (sorted(shuffled, key=lambda x: x.key)
            == sorted(shuffled, key=functools.cmp_to_key(ref)))


def test_set_order_is_the_recursive_order_on_v4():
    stage = v_stage(4)
    _assert_same_order(stage, ref_hf_cmp)
    assert all((a <= b) == (ref_hf_cmp(a, b) <= 0) for a in stage for b in stage)
    for x in stage:
        assert list(x.children) == sorted(x.children, key=functools.cmp_to_key(ref_hf_cmp))


def test_name_order_is_the_recursive_order(fork):
    names = list(name_universe(fork, 1)) + [check_name(x) for x in v_stage(3)]
    names = subname_closure(names + list(corpus.oracle_universe(fork)))
    _assert_same_order(names, ref_name_cmp)
    for n in names:
        assert list(n.entries) == sorted(n.entries, key=functools.cmp_to_key(ref_entry_cmp))


hf_sets = st.recursive(st.just(EMPTY),
                       lambda inner: st.lists(inner, max_size=4).map(hf_make),
                       max_leaves=12)

fork_names = st.recursive(
    st.just(EMPTY_NAME),
    lambda inner: st.lists(st.tuples(inner, st.integers(0, 2)), max_size=4).map(name_make),
    max_leaves=12)


@given(st.lists(hf_sets, min_size=2, max_size=5))
def test_set_order_on_random_sets(xs):
    _assert_same_order(xs, ref_hf_cmp)


@given(st.lists(fork_names, min_size=2, max_size=5))
def test_name_order_on_random_names(xs):
    _assert_same_order(xs, ref_name_cmp)


# Shared chains: tree expansions of 2^40 nodes over about 40 distinct nodes.

def _name_chain(depth):
    n = EMPTY_NAME
    for _ in range(depth):
        n = name_make([(n, 0), (n, 1)])
    return n


def _formula_chain(depth):
    f = atom_eq(var("x"), var("x"))
    for _ in range(depth):
        f = and_([f, not_(f)])
    return f


def _within_a_second(fn):
    start = time.perf_counter()
    out = fn()
    assert time.perf_counter() - start < 1.0
    return out


def test_name_walks_visit_each_distinct_node_once():
    n = _name_chain(40)
    assert _within_a_second(lambda: len(subnames(n))) == 41
    assert _within_a_second(lambda: n.max_condition) == 1
    assert _within_a_second(lambda: name_to_hf(n)).rank == 3 * 40 + 1
    assert _within_a_second(lambda: repr(n)) == "<PName of rank 40: 41 distinct nodes>"


def test_formula_code_round_trip_and_repr_on_a_shared_chain():
    f = _formula_chain(40)
    assert _within_a_second(lambda: decode_formula(encode_formula(f))) is f
    assert _within_a_second(lambda: repr(f)).startswith("<And of rank 80: ")


def _counted(fn):
    calls = collections.Counter()

    def counting(node, *args):
        calls[node] += 1
        return fn(node, *args)
    return counting, calls


def test_fold_asks_each_distinct_node_for_its_children_once():
    f = _formula_chain(40)
    children, asked = _counted(lambda node: node.children())
    combine, combined = _counted(lambda node, kids: 1 + sum(kids))
    # the chain of depth d has 3·2^d - 2 tree nodes over 2d + 1 distinct ones
    assert dag.fold(f, children, combine) == 3 * 2 ** 40 - 2
    assert asked == combined == dict.fromkeys(nodes(f), 1)
    assert len(asked) == 2 * 40 + 1


def test_a_fold_over_node_and_context_visits_each_pair_once():
    # (subformula, sign) pairs, as the polarity pass of star_translate walks
    # them: below the top conjunction every node is met with both signs
    f = _formula_chain(40)

    def parts(item):
        node, sign = item
        if isinstance(node, Not):
            return [(node.sub, not sign)]
        return [(c, sign) for c in node.children()]

    def negation_normal_form(item, kids):
        node, sign = item
        if isinstance(node, Not):
            return kids[0]
        if isinstance(node, And):
            return and_(kids) if sign else or_(kids)
        return node if sign else not_(node)

    children, asked = _counted(parts)
    combine, combined = _counted(negation_normal_form)
    out = dag.fold((f, True), children, combine)
    assert asked == combined == dict.fromkeys(dag.nodes((f, True), parts), 1)
    assert len(asked) == 4 * 40
    assert all(g.sub.rank == 0 for g in nodes(out) if isinstance(g, Not))


def _deep_chain(depth, left):
    """A chain alternating ∧ and ¬ over left ∈ y, nested depth levels."""
    f = atom_in(left, var("y"))
    for i in range(depth):
        f = not_(f) if i % 2 else and_([f, atom_eq(var("y"), var("y"))])
    return f


def test_rewrites_walk_any_nesting_depth():
    # far deeper than the interpreter's recursion limit of 1,000 frames
    deep = 5000
    phi = _deep_chain(deep, var("x"))
    assert phi.rank == deep
    assert substitute(phi, {"x": const(EMPTY)}) is _deep_chain(deep, const(EMPTY))
    assert rename_free(phi, {"x": "u"}) is _deep_chain(deep, var("u"))
    assert map_formula(phi, lambda atom: atom) is phi
    x = EMPTY
    for _ in range(deep):
        x = hf_make([x])
    name = check_name(x)
    assert name.rank == deep
    atom = atom_eq(name_const(name), name_const(EMPTY_NAME))
    assert decode_formula(encode_formula(atom)) is atom
    for _ in range(deep):
        (name, r), = name.entries
        assert r == 0
    assert name is EMPTY_NAME
    assert theta_formula(x).rank > deep

    def chain(t):  # pair terms nested `deep` levels on the left
        for _ in range(deep):
            t = pair_term(t, var("b"))
        return t

    atom = atom_eq(chain(var("a")), var("c"))
    assert atom.free == {"a", "b", "c"} and atom.const_kinds == {"name"}
    assert substitute(atom, {"a": name_const(EMPTY_NAME)}) is atom_eq(
        chain(name_const(EMPTY_NAME)), var("c"))
    assert decode_formula(encode_formula(atom)) is atom
    text = formula_to_sexp(atom)
    assert text.startswith("(= " + "(opterm " * deep + "(var a) (var b))")
    assert text.count("(var b)") == deep
    assert repr(atom).startswith("<AtomEq of rank 0: ")
    # the kernel reads the name a pair-term chain denotes by a fold too
    fork = corpus.fork()
    FR = atomic_forcing(fork, name_universe(fork, 1))
    twice = atom_eq(chain(var("a")), chain(var("a")))
    assert forces(FR, fork.one, twice, env={"a": FR.universe[0], "b": FR.universe[-1]})


def test_repr_of_a_star_translation_code_is_a_summary():
    P = dict(corpus.corpus_notions())["trivial"]
    rng = random.Random(3)
    names = corpus.sample_names(P, name_universe(P, 1))
    sentences = [corpus.random_qf_sentence(rng, P, names) for _ in range(9)]
    code = name_to_hf(star_translate(sentences[8], P)[0])
    assert code.rank == 60
    assert _within_a_second(lambda: repr(code)) == "<HFSet of rank 60: 180 distinct nodes>"


# Reference printers: the tree-recursive reprs and printers the folds replace.

def ref_set_repr(x):
    return "{" + ", ".join(ref_set_repr(c) for c in x.children) + "}" if x.children else "∅"


def ref_name_repr(n):
    return "name{" + ", ".join(f"({ref_name_repr(m)},{r})" for m, r in n.entries) + "}"


def ref_set_sexp(x):
    return "(hf" + "".join(" " + ref_set_sexp(c) for c in x.children) + ")"


def ref_name_sexp(n, P):
    return "(name" + "".join(f" (pair {ref_name_sexp(m, P)} {P.elements[r]})"
                             for m, r in n.entries) + ")"


def test_texts_below_the_cap_are_unchanged(fork):
    for x in v_stage(4):
        assert repr(x) == ref_set_repr(x)
        assert x.to_sexp() == ref_set_sexp(x)
    for n in subname_closure([*corpus.oracle_universe(fork), _name_chain(8)]):
        assert repr(n) == ref_name_repr(n)
        assert name_to_sexp(n, fork) == ref_name_sexp(n, fork)


def test_the_cap_is_on_the_tree_size():
    # a chain of depth d has 2^(d+1) - 1 tree nodes
    depth = REPR_CAP.bit_length() - 1
    below, above = _name_chain(depth - 1), _name_chain(depth)
    assert repr(below) == ref_name_repr(below)
    assert repr(above).startswith("<PName of rank")
    x = name_to_hf(_name_chain(3))
    assert repr(x) == ref_set_repr(x)
