"""Property tests of the text grammars: printing then parsing gives the value
back, parsing then printing gives canonical text back, and malformed text
of any shape raises ParseError and nothing else."""

import pytest
from hypothesis import given, settings, strategies as st

from forcelab import (EMPTY, EMPTY_NAME, FiniteStructure, ParseError, and_,
                      atom_eq, atom_in, atom_in_class, atom_in_g, atom_tr,
                      const, corpus, decode_formula, encode_formula,
                      encode_valuation, exists, forall, formula_to_sexp,
                      hf_make, hf_pair, iterated_truth, make_notion, name_const,
                      name_make, name_to_sexp, nat_encode, not_, or_,
                      parse_formula, parse_game, parse_hf, parse_name,
                      parse_poset, random_game_tree, sexpr, v_stage, var)
from forcelab.formulas import pair_term
from forcelab.hfset import hf_list

FORK = corpus.fork()

hf_sets = st.recursive(st.just(EMPTY),
                       lambda inner: st.lists(inner, max_size=3).map(hf_make),
                       max_leaves=10)

fork_names = st.recursive(
    st.just(EMPTY_NAME),
    lambda inner: st.lists(st.tuples(inner, st.integers(0, len(FORK) - 1)),
                           max_size=3).map(name_make),
    max_leaves=10)

variables = st.sampled_from("xyz").map(var)


def _formulas(terms, *extra_atoms):
    atoms = st.one_of(st.builds(atom_eq, terms, terms), st.builds(atom_in, terms, terms),
                      st.builds(atom_in_class, terms, st.sampled_from(["A", "G"])),
                      st.builds(atom_tr, terms, terms, terms), *extra_atoms)
    blocks = st.lists(st.sampled_from("xyz"), max_size=2)
    return st.recursive(atoms, lambda inner: st.one_of(
        st.builds(not_, inner),
        st.lists(inner, max_size=3).map(and_),
        st.lists(inner, max_size=3).map(or_),
        st.builds(forall, blocks, inner),
        st.builds(exists, blocks, inner)), max_leaves=8)


ground_terms = st.one_of(variables, hf_sets.map(const))
name_terms = st.recursive(st.one_of(variables, fork_names.map(name_const)),
                          lambda inner: st.builds(pair_term, inner, inner), max_leaves=3)
ground_formulas = _formulas(ground_terms)
name_formulas = _formulas(name_terms, st.builds(atom_in_g, name_terms))


@st.composite
def posets(draw):
    tokens = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(tokens), st.sampled_from(tokens)),
                          max_size=5))
    return make_notion(tokens, pairs)


games = st.builds(random_game_tree, st.randoms(use_true_random=False), st.integers(1, 20))

round_trip = settings(max_examples=50)


@round_trip
@given(hf_sets)
def test_sets_round_trip(x):
    text = x.to_sexp()
    assert parse_hf(sexpr.read(text)) is x
    assert parse_hf(sexpr.read(text)).to_sexp() == text


@round_trip
@given(fork_names)
def test_names_round_trip(n):
    text = name_to_sexp(n, FORK)
    assert parse_name(sexpr.read(text), FORK) is n
    assert name_to_sexp(parse_name(sexpr.read(text), FORK), FORK) == text


@round_trip
@given(ground_formulas)
def test_ground_formulas_round_trip(phi):
    text = formula_to_sexp(phi)
    assert parse_formula(text) is phi
    assert formula_to_sexp(parse_formula(text)) == text


@round_trip
@given(name_formulas)
def test_name_formulas_round_trip(phi):
    text = formula_to_sexp(phi, FORK)
    assert parse_formula(text, FORK) is phi
    assert formula_to_sexp(parse_formula(text, FORK), FORK) == text


@round_trip
@given(posets())
def test_posets_round_trip(P):
    text = P.to_sexp()
    Q = parse_poset(text)
    assert Q.elements == P.elements
    assert all(Q.up(p) == P.up(p) for p in P.conditions())
    assert Q.to_sexp() == text


@round_trip
@given(games)
def test_games_round_trip(T):
    text = T.to_sexp()
    U = parse_game(text)
    assert U.root == T.root and len(U) == len(T)
    assert all((U.nodes[i].mover, U.nodes[i].children, U.nodes[i].winner)
               == (T.nodes[i].mover, T.nodes[i].children, T.nodes[i].winner)
               for i in T.nodes)
    assert U.to_sexp() == text


WORDS = ["hf", "name", "pair", "check", "opname", "1", "a", "b", "zz", "=", "in",
         "in-class", "in-G", "tr", "not", "and", "or", "forall", "exists", "var",
         "const", "opterm", "x", "A", "G", "poset", "elems", "one", "le", "game",
         "node", "terminal", "root", "mover", "children", "winner", "I", "II",
         "0", "-1", "--1", "1x", "-", "²", "٣"]

# Each parser with canonical texts of its own grammar, to be broken.
PARSERS = {
    "sexpr": (sexpr.read, hf_sets.map(lambda x: x.to_sexp())),
    "hf": (lambda text: parse_hf(sexpr.read(text)), hf_sets.map(lambda x: x.to_sexp())),
    "name": (lambda text: parse_name(sexpr.read(text), FORK),
             fork_names.map(lambda n: name_to_sexp(n, FORK))),
    "formula": (parse_formula, ground_formulas.map(formula_to_sexp)),
    "formula-over-fork": (lambda text: parse_formula(text, FORK),
                          name_formulas.map(lambda phi: formula_to_sexp(phi, FORK))),
    "poset": (parse_poset, posets().map(lambda P: P.to_sexp())),
    "game": (parse_game, games.map(lambda T: T.to_sexp())),
}

garbage_forms = st.recursive(st.sampled_from(WORDS),
                             lambda inner: st.lists(inner, max_size=5), max_leaves=16)
token_soup = st.lists(st.sampled_from(WORDS + ["(", ")", " ", ";", "\n"]),
                      max_size=30).map("".join)


def _slots(form):
    """Every (list, index) position inside a form."""
    out, stack = [], [form]
    while stack:
        f = stack.pop()
        if isinstance(f, list):
            out += [(f, i) for i in range(len(f))]
            stack += f
    return out


@st.composite
def _subforms(draw):
    """A piece of a canonical text of any of the grammars, most often of a formula."""
    texts = [texts for _, texts in PARSERS.values()]
    form = sexpr.read(draw(st.one_of(PARSERS["formula"][1],
                                     PARSERS["formula-over-fork"][1], *texts)))
    slots = _slots(form)
    return form if not slots else draw(st.sampled_from([f[i] for f, i in slots]))


@st.composite
def _mutants(draw, texts):
    """A canonical text with one position replaced by garbage or by a piece
    of another text."""
    form = sexpr.read(draw(texts))
    slots = _slots(form)
    if not slots:
        return sexpr.show(draw(garbage_forms))
    f, i = draw(st.sampled_from(slots))
    f[i] = draw(st.one_of(st.sampled_from(WORDS), garbage_forms, _subforms()))
    return sexpr.show(form)


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=200)
@given(st.data())
def test_malformed_texts_raise_only_parse_errors(parser, data):
    text = data.draw(st.one_of(_mutants(PARSERS[parser][1]),
                               garbage_forms.map(sexpr.show), token_soup))
    try:
        PARSERS[parser][0](text)
    except ParseError:
        pass


@pytest.mark.parametrize("parser,text", [
    ("game", "(game (root --1))"),
    ("game", "(game (node ² (mover I) (children)) (root ²))"),
    ("formula", "(and (= (const (hf)) x) (in-G x))"),
    ("formula", "(forall ((x)) (= x x))"),
    ("name", "(name (pair (name) (a)))"),
], ids=["double-minus-id", "non-ascii-digit-id", "mixed-constants", "list-as-variable",
        "list-as-condition"])
def test_texts_that_raised_other_errors(parser, text):
    with pytest.raises(ParseError):
        PARSERS[parser][0](text)


@pytest.mark.parametrize("parser", PARSERS)
def test_nesting_beyond_the_reader_bound_is_a_parse_error(parser):
    with pytest.raises(ParseError):
        PARSERS[parser][0]("(" * (sexpr.MAX_DEPTH + 1) + ")" * (sexpr.MAX_DEPTH + 1))


def test_texts_nested_up_to_the_bound_parse():
    depth = sexpr.MAX_DEPTH
    x = parse_hf(sexpr.read("(hf " * depth + ")" * depth))
    assert x.rank == depth - 1
    phi = parse_formula("(not " * (depth - 2) + "(= x x)" + ")" * (depth - 2))
    assert phi.rank == depth - 2
    phi = parse_formula("(and " * (depth - 2) + "(= x x)" + ")" * (depth - 2))
    assert phi.rank == depth - 2


# ⟨10, [⌜(= (const ∅) x)⌝, ⌜(in-G x)⌝]⟩ is a conjunction code whose parts mix
# ground and name constants, so it codes no formula.
MIXED_CODE = hf_pair(nat_encode(10), hf_list([encode_formula(atom_eq(const(EMPTY), var("x"))),
                                              encode_formula(atom_in_g(var("x")))]))


def test_a_code_mixing_constant_kinds_decodes_to_none():
    assert decode_formula(MIXED_CODE) is None


def test_a_truth_atom_at_a_code_mixing_constant_kinds_is_false():
    atom = atom_tr(var("a"), var("b"), var("c"))
    it = iterated_truth(FiniteStructure(v_stage(2)), 2, [atom])
    v = {"a": nat_encode(0), "b": MIXED_CODE, "c": encode_valuation({"x": EMPTY})}
    assert not it.holds(1, atom, v)
