import pytest
from hypothesis import given, strategies as st

from forcelab import (EMPTY, BudgetError, FiniteStructure, ForcelabError,
                      atomic_recursion_instance, corpus, eval_formula, hf_make, hf_rank,
                      name_universe, nat_decode, nat_encode, subformulas, theta_formula, v_stage)
from forcelab import hfset
from forcelab.dag import nodes
from forcelab.hfset import hf_list, hf_pair, hf_unlist, hf_unpair, transitive_closure


def test_empty():
    assert hf_make([]) is EMPTY
    assert hf_rank(EMPTY) == 0


def test_duplicates_collapse():
    assert hf_make([EMPTY, EMPTY]) is hf_make([EMPTY])


def test_von_neumann_two():
    two = hf_make([EMPTY, hf_make([EMPTY])])
    assert two is nat_encode(2)


def test_ranks():
    one = hf_make([EMPTY])
    assert hf_rank(one) == 1
    assert hf_rank(hf_make([one, EMPTY])) == 2


def test_rank_law():
    xs = [EMPTY, hf_make([EMPTY]), nat_encode(3)]
    assert hf_rank(hf_make(xs)) == 1 + max(hf_rank(x) for x in xs)


def test_every_rank_is_one_more_than_the_largest_child_rank():
    # the interning table reads the rank off the last, key-largest child
    P = corpus.fork()
    _, codec, _ = atomic_recursion_instance(P, name_universe(P, 1))
    sets = [*v_stage(4), *transitive_closure(codec)]
    assert len(sets) > len(codec) + 16
    for x in sets:
        assert x.rank == (1 + max(c.rank for c in x.children) if x.children else 0)


def _powerset_count(n):
    # independent oracle: iterate the powerset sizes from the empty stage
    size = 0
    for _ in range(n):
        size = 2 ** size
    return size


def test_v_stage_small():
    assert v_stage(0) == []
    assert v_stage(2) == sorted([EMPTY, hf_make([EMPTY])], key=lambda s: s.key)
    assert len(v_stage(4)) == _powerset_count(4) == 16


def test_v_stage_cap():
    with pytest.raises(BudgetError):
        v_stage(6)


def test_a_negative_stage_is_refused():
    with pytest.raises(ForcelabError, match="no stage V_-1"):
        v_stage(-1)


def test_nat_codec():
    assert nat_encode(0) is EMPTY
    assert nat_decode(hf_make([EMPTY, hf_make([EMPTY])])) == 2
    assert nat_decode(hf_make([hf_make([EMPTY])])) is None
    for k in range(12):
        assert nat_decode(nat_encode(k)) == k


def test_a_negative_natural_is_refused():
    nat_encode(11)  # the cache holds naturals up to 11
    with pytest.raises(ForcelabError, match="no natural number -3"):
        nat_encode(-3)


def test_pair_roundtrip():
    a, b = nat_encode(1), nat_encode(3)
    assert hf_unpair(hf_pair(a, b)) == (a, b)
    assert hf_unpair(hf_pair(a, a)) == (a, a)
    assert hf_unpair(nat_encode(3)) is None
    xs = [nat_encode(i) for i in (2, 0, 5)]
    assert hf_unlist(hf_list(xs)) == xs


# Reference constructions for the memoized pair codes: the general
# constructor, and a decoder that tries every candidate from the union.

def ref_pair(a, b):
    return hf_make([hf_make([a]), hf_make([a, b])])


def ref_unpair(x):
    union = {c for child in x for c in child}
    found = [(a, b) for a in union for b in union if ref_pair(a, b) is x]
    assert len(found) <= 1
    return found[0] if found else None


@pytest.fixture
def empty_pair_tables(monkeypatch):
    # fresh memo tables, so the tests below take the building paths
    monkeypatch.setattr(hfset, "_pairs", {})
    monkeypatch.setattr(hfset, "_unpairs", {})


def test_pairs_are_the_general_construction(empty_pair_tables):
    stage = v_stage(4)
    for a in stage:
        for b in stage:
            pair = hf_pair(a, b)
            assert pair is ref_pair(a, b), (a, b)
            assert hf_pair(a, b) is pair and hf_unpair(pair) == (a, b)  # from the tables
    assert len(hfset._pairs) == len(stage) ** 2


def test_unpair_decodes_sets_it_never_paired(empty_pair_tables):
    # every set of V_4 and every pair over it, decoded before hf_pair
    # built any of them, then again from the table
    stage = v_stage(4)
    sets = stage + [ref_pair(a, b) for a in stage for b in stage]
    for _ in range(2):
        for x in sets:
            assert hf_unpair(x) == ref_unpair(x), x
    assert not hfset._pairs
    assert len(hfset._unpairs) == len(set(sets))


def test_sexp_form():
    assert EMPTY.to_sexp() == "(hf)"
    assert hf_make([EMPTY, hf_make([EMPTY])]).to_sexp() == "(hf (hf) (hf (hf)))"


hf_sets = st.recursive(st.just(EMPTY),
                       lambda inner: st.lists(inner, max_size=4).map(hf_make),
                       max_leaves=12)


@given(st.lists(hf_sets, max_size=6), st.randoms())
def test_canonicalization_is_a_congruence(xs, rng):
    shuffled = list(xs) + [rng.choice(xs)] if xs else []
    rng.shuffle(shuffled)
    assert hf_make(xs) is hf_make(shuffled) or not xs


def test_every_intern_key_is_strictly_sorted():
    # hf_make looks its argument up before sorting; only sorted tuples may be keys.
    hf_make(reversed(v_stage(4)))
    assert len(hfset._intern) > 16
    for key, x in hfset._intern.items():
        assert x.children is key
        assert all(a.key < b.key for a, b in zip(key, key[1:])), x


@given(hf_sets, hf_sets)
def test_order_is_total_and_rank_first(a, b):
    assert (a is b) == (not a < b and not b < a)
    if a.rank < b.rank:
        assert a < b


# Keys are built on first read.  The reference builds them bottom-up from
# their definition, (rank, *child keys), and is compared with a stack: == on
# tuples nested 6,000 deep would overflow the interpreter's own stack.  A
# root's key holds the keys of the sets below it, so walking the roots' keys
# compares every key once.

def _reference_keys(roots):
    ref = {}
    for root in roots:
        for x in nodes(root, lambda x: x.children):  # children before parents
            ref[x] = (x.rank, *(ref[c] for c in x.children))
    return ref


def _same_nested_tuple(a, b) -> bool:
    stack, seen = [(a, b)], set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if type(x) is not tuple or type(y) is not tuple:
            if x != y:
                return False
        elif len(x) != len(y):
            return False
        else:
            stack.extend(zip(x, y))
    return True


def test_deep_keys_are_built_without_recursion():
    # the lists differ in their first item, ∅ against {∅}, at equal rank
    long = hf_list([EMPTY] * 3000)
    sibling = hf_list([nat_encode(1)] + [EMPTY] * 2999)
    assert long.rank == sibling.rank == 6000
    assert long._key is None and sibling._key is None
    assert long < sibling and not sibling < long and long <= sibling
    stage = v_stage(4)
    roots = [long, sibling, *stage]
    ref = _reference_keys(roots)
    assert len(ref) > 6000
    for x in roots:
        assert _same_nested_tuple(x.key, ref[x]), x
    for x in ref:  # and each key below a root is the one its set holds
        assert x.key == (x.rank, *(c.key for c in x.children)), x
    assert stage == sorted(stage, key=ref.__getitem__) == sorted(reversed(stage))


def test_theta_empty_shape():
    # θ_∅(x) is ∀z (z∈x ⟺ empty disjunction)
    phi = theta_formula(EMPTY)
    assert phi.free == {"x"}
    assert "ground" not in phi.const_kinds and "name" not in phi.const_kinds


def test_theta_rank_strictly_grows():
    outer = theta_formula(hf_make([EMPTY]))
    assert outer.rank > theta_formula(EMPTY).rank
    for sub in subformulas(outer) - {outer}:
        assert sub.rank < outer.rank


def test_theta_defines_each_set():
    big = FiniteStructure(v_stage(4))
    for a in v_stage(3):
        phi = theta_formula(a)
        matched = [b for b in v_stage(4) if eval_formula(big, phi, {"x": b})]
        assert matched == [a]
