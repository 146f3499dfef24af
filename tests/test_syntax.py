"""The formula syntax table: every node type's text head, code tag, argument
kinds and usage message, and the texts and codes the table produces."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from forcelab import (EncodingError, ForcelabError, ParseError, corpus, dag,
                      parse_formula, sexpr)
from forcelab import formulas
from forcelab.formulas import SYNTAX, Formula, encode_formula, formula_to_sexp
from forcelab.truth import StageTranslator

GOLDEN = Path(__file__).parent / "golden" / "syntax.json"
FORMATS = (Path(__file__).parent.parent / "FORMATS.md").read_text()


def _text_digest(phi, notion) -> bytes:
    """sha256 of formula_to_sexp(phi).  A formula whose text is too long to
    print (a stage translation's text runs to billions of nodes) gets a
    Merkle digest instead: each node's s-expression with its subformulas'
    digests in place of their texts, so every node's text is still pinned."""
    if dag.fold(phi, formulas._children,
                lambda _, kids: min(dag.REPR_CAP + 1, 1 + sum(kids))) <= dag.REPR_CAP:
        return hashlib.sha256(formula_to_sexp(phi, notion).encode()).digest()
    return b"merkle" + formulas.fold(phi, lambda node, kids: hashlib.sha256(sexpr.show(
        formulas._formula_sexp(node, tuple(k.hex() for k in kids), notion)).encode()).digest())


def _code_digest(code) -> bytes:
    """A Merkle digest of an HF set over its canonically ordered members."""
    return dag.fold(code, lambda x: x.children, lambda _, kids: hashlib.sha256(
        b"{" + b",".join(kids) + b"}").digest())


def syntax_digests() -> dict[str, dict[str, str]]:
    """For each formula set: one digest of the texts and one of the codes of
    its formulas, in the order the set lists them."""
    sets = []
    for label, P in corpus.corpus_notions():
        N = corpus.oracle_universe(P)
        sets.append((f"oracle/{label}", P, corpus.oracle_pool(P, N)))
        sets.append((f"truth-name/{label}", P, corpus.truth_name_pool(P, N)))
    sets.append(("first-order", None, corpus.first_order_pool()))
    pool = corpus.iterated_pool()
    sets.append(("iterated", None, pool))
    tr = StageTranslator(pool, 2)
    for beta in range(3):
        sets.append((f"stage/{beta}", None, [tr.translate(beta, phi) for phi in pool]))
    out = {}
    for label, P, phis in sets:
        text, code = hashlib.sha256(), hashlib.sha256()
        for phi in phis:
            text.update(_text_digest(phi, P))
            code.update(_code_digest(encode_formula(phi)))
        out[label] = {"text": text.hexdigest(), "code": code.hexdigest()}
    return out


def test_texts_and_codes_match_recorded_outputs():
    # Recorded from the per-node-type printers and encoders the syntax
    # table replaced.
    want = json.loads(GOLDEN.read_text())
    got = syntax_digests()
    assert got.keys() == want.keys()
    for label in want:
        assert got[label] == want[label], label


# One malformed form per head, with the exact message it is refused with.
# A list of subformulas is never malformed itself, so `and` and `or` are
# refused by what their subformulas are.
MALFORMED = {
    "=": ("(= x)", "(= t t) takes two terms"),
    "in": ("(in x y z)", "(in t t) takes two terms"),
    "in-class": ("(in-class (bogus) (y))",
                 "(in-class t <identifier>) takes a term and an identifier"),
    "in-G": ("(in-G)", "(in-G t) takes one term"),
    "tr": ("(tr x y)", "(tr t t t) takes three terms"),
    "not": ("(not (= x x) (= x x))", "(not f) takes one formula"),
    "and": ("(and x)", "expected a formula, got x"),
    "or": ("(or (foo))", "unknown formula form 'foo'"),
    "forall": ("(forall x (= x x))", "(forall (v*) f) takes a variable list and a formula"),
    "exists": ("(exists (x (y)) (= x x))",
               "(exists (v*) f) takes a variable list and a formula"),
}


@pytest.mark.parametrize("head", sorted(MALFORMED))
def test_each_head_refuses_a_malformed_form_with_its_usage(head):
    text, message = MALFORMED[head]
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert str(e.value) == message


def test_an_unknown_head_is_refused_by_name():
    for text, message in [("(bogus x)", "unknown formula form 'bogus'"),
                          ("((x) y)", "unknown formula form ['x']")]:
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert str(e.value) == message


def _concrete(cls):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from _concrete(sub)


def test_every_node_type_has_one_row_with_a_unique_head_and_tag():
    assert set(_concrete(Formula)) == set(SYNTAX)
    rows = list(SYNTAX.values())
    assert all(cls is row.cls for cls, row in SYNTAX.items())
    assert len({row.head for row in rows}) == len({row.tag for row in rows}) == len(rows)
    assert all(len(row.kinds) == len(row.fields) for row in rows)


def test_a_node_type_without_a_row_keeps_its_error_types():
    class _Stray(Formula):
        __slots__ = ()

    with pytest.raises(ForcelabError) as e:
        formula_to_sexp(_Stray())
    assert type(e.value) is ForcelabError and str(e.value) == "unknown formula _Stray"
    with pytest.raises(EncodingError, match="^cannot encode formula _Stray$"):
        encode_formula(_Stray())


def test_the_table_is_the_one_formats_documents():
    grammar = FORMATS.split("## Formulas\n\n```")[1].split("```")[0]
    coding = FORMATS.split("## Formulas and valuations as sets")[1].split("\n\n")
    table = next(block for block in coding if block.startswith("| tag |"))
    tags = {int(t) for line in table.splitlines()[2:]
            for t in re.findall(r"\d+", line.split("|")[1])}
    for row in SYNTAX.values():
        assert f"({row.head} " in grammar or f"({row.head})" in grammar, row.head
        assert row.tag in tags, row.tag
