"""Parse trees for the finite-scale infinitary languages.

Connectives take finite sequences of subformulas (the empty conjunction is
true, the empty disjunction false); quantifiers bind blocks of variables.
Nodes and terms are interned, so structural equality is identity and every
node carries a cached parse-tree rank and free-variable set.

Atoms come in two constant flavours that never mix inside one formula:
ground constants (truth language, over an actual structure) and name
constants (forcing language, over a notion).
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from . import dag, sexpr
from .errors import EncodingError, ForcelabError, ParseError
from .hfset import (HFSet, hf_list, hf_make, hf_pair, hf_unlist,
                    hf_unpair, nat_decode, nat_encode)
from .names import (PName, entry_names, name_make, name_to_hf, name_to_sexp,
                    op_name, parse_name)
from .poset import ForcingNotion

_intern: dict[tuple, object] = {}
# One (set, sorted tuple) per distinct free-variable or constant-kind set,
# shared by every node that has it.
_sets: dict[frozenset[str], tuple[frozenset[str], tuple[str, ...]]] = {}

T = TypeVar("T")


def _mk(cls, *fields):
    key = (cls, *fields)
    node = _intern.get(key)
    if node is None:
        node = cls(*fields)
        _intern[key] = node
    return node


_NO_KIND, _GROUND, _NAME = frozenset(), frozenset(("ground",)), frozenset(("name",))


class Term:
    """A term carries its free variables and its constant kind, filled at
    construction as a formula's are, so no walk reads them."""

    __slots__ = ("free", "kinds")

    free: frozenset[str]
    kinds: frozenset[str]


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self.free, self.kinds = frozenset((name,)), _NO_KIND


class GroundConst(Term):
    __slots__ = ("value",)

    def __init__(self, value: HFSet):
        self.value = value
        self.free, self.kinds = frozenset(), _GROUND


class NameConst(Term):
    __slots__ = ("name",)

    def __init__(self, name: PName):
        self.name = name
        self.free, self.kinds = frozenset(), _NAME


class PairTerm(Term):
    """Deferred op-pair of two terms; collapses to a NameConst once both sides are names."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self.free, self.kinds = left.free | right.free, _NAME


def var(name: str) -> Var:
    if not name:
        raise ForcelabError("empty variable name")
    return _mk(Var, name)


def const(value: HFSet) -> GroundConst:
    return _mk(GroundConst, value)


def name_const(name: PName) -> NameConst:
    return _mk(NameConst, name)


def pair_term(left: Term, right: Term) -> Term:
    if isinstance(left, NameConst) and isinstance(right, NameConst):
        return name_const(op_name(left.name, right.name))
    return _mk(PairTerm, left, right)


def _term_parts(t: Term) -> tuple[Term, ...]:
    return (t.left, t.right) if isinstance(t, PairTerm) else ()


def _term_fold(t: Term, combine: Callable[[Term, tuple], T]) -> T:
    """`dag.fold` over the parts of pair terms, so their nesting depth is not
    bounded by the stack; a term with at most one level of pairing is
    combined without a walk."""
    if not isinstance(t, PairTerm):
        return combine(t, ())
    if isinstance(t.left, PairTerm) or isinstance(t.right, PairTerm):
        return dag.fold(t, _term_parts, combine)
    return combine(t, (combine(t.left, ()), combine(t.right, ())))


def _shared(names: frozenset[str]) -> tuple[frozenset[str], tuple[str, ...]]:
    got = _sets.get(names)
    if got is None:
        got = _sets[names] = (names, tuple(sorted(names)))
    return got


class Formula:
    __slots__ = ("rank", "free", "free_sorted", "const_kinds")

    rank: int
    free: frozenset[str]
    free_sorted: tuple[str, ...]
    const_kinds: frozenset[str]

    def _finish(self, rank: int, free: frozenset[str], kinds: frozenset[str]):
        if kinds >= {"ground", "name"}:
            raise ForcelabError("a formula may not mix ground constants with name constants")
        self.rank = rank
        self.free, self.free_sorted = _shared(free)
        self.const_kinds = _shared(kinds)[0]

    def __repr__(self) -> str:
        return dag.bounded_repr(self, _parts, lambda: formula_to_sexp(self))

    def children(self) -> tuple["Formula", ...]:
        """The immediate subformulas; atoms have none."""
        return ()


class _BinaryAtom(Formula):  # the shared body of AtomEq and AtomIn
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right
        self._finish(0, left.free | right.free, left.kinds | right.kinds)


class AtomEq(_BinaryAtom):
    __slots__ = ()


class AtomIn(_BinaryAtom):
    __slots__ = ()


class AtomInClass(Formula):
    __slots__ = ("term", "ident")

    def __init__(self, term: Term, ident: str):
        self.term = term
        self.ident = ident
        self._finish(0, term.free, term.kinds)


class AtomInG(Formula):
    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term
        self._finish(0, term.free, term.kinds | _NAME)


class AtomTr(Formula):
    """Iterated-truth atom: stage, formula code, valuation code."""

    __slots__ = ("stage", "code", "valuation")

    def __init__(self, stage: Term, code: Term, valuation: Term):
        self.stage = stage
        self.code = code
        self.valuation = valuation
        self._finish(0, stage.free | code.free | valuation.free,
                     stage.kinds | code.kinds | valuation.kinds)


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        self.sub = sub
        self._finish(1 + sub.rank, sub.free, sub.const_kinds)

    def children(self) -> tuple[Formula, ...]:
        return (self.sub,)


class _Junction(Formula):  # the shared body of And and Or
    __slots__ = ("subs",)

    def __init__(self, subs: tuple[Formula, ...]):
        self.subs = subs
        self._finish(1 + max((s.rank for s in subs), default=0),
                     frozenset().union(*(s.free for s in subs)),
                     frozenset().union(*(s.const_kinds for s in subs)))

    def children(self) -> tuple[Formula, ...]:
        return self.subs


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


class _Quantifier(Formula):  # the shared body of Forall and Exists
    __slots__ = ("vars", "body")

    def __init__(self, vars: tuple[str, ...], body: Formula):
        self.vars = vars
        self.body = body
        self._finish(1 + body.rank, body.free - set(vars), body.const_kinds)

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


def atom_eq(left: Term, right: Term) -> Formula:
    return _mk(AtomEq, left, right)


def atom_in(left: Term, right: Term) -> Formula:
    return _mk(AtomIn, left, right)


def atom_in_class(term: Term, ident: str) -> Formula:
    return _mk(AtomInClass, term, ident)


def atom_in_g(term: Term) -> Formula:
    return _mk(AtomInG, term)


def atom_tr(stage: Term, code: Term, valuation: Term) -> Formula:
    return _mk(AtomTr, stage, code, valuation)


def not_(sub: Formula) -> Formula:
    return _mk(Not, sub)


def and_(subs: Iterable[Formula]) -> Formula:
    return _mk(And, tuple(subs))


def or_(subs: Iterable[Formula]) -> Formula:
    return _mk(Or, tuple(subs))


def forall(vars: Sequence[str], body: Formula) -> Formula:
    return _mk(Forall, tuple(vars), body)


def exists(vars: Sequence[str], body: Formula) -> Formula:
    return _mk(Exists, tuple(vars), body)


def iff(a: Formula, b: Formula) -> Formula:
    return and_([or_([not_(a), b]), or_([not_(b), a])])


def implies(a: Formula, b: Formula) -> Formula:
    return not_(and_([a, not_(b)]))


# ---------------------------------------------------------------------------
# The syntax table: one row per node type, giving its text head, its code tag,
# the kinds of its arguments and the fields that hold them, and the usage a
# malformed form is refused with (a list of subformulas is the rest of its
# form, so it is never malformed).  A row has at most one subformula or
# list-of-subformulas argument, and it comes last.  The parser, printer,
# encoder and decoder read the row and dispatch on argument kinds;
# FORMATS.md shows the table.

TERM, IDENT, SUB, SUBS, BLOCK = "term", "identifier", "subformula", "subformulas", "variable block"


class Syntax(NamedTuple):
    cls: type
    head: str
    tag: int
    kinds: tuple[str, ...]
    fields: tuple[str, ...]
    usage: str | None


SYNTAX = {row.cls: row for row in (
    Syntax(AtomEq, "=", 4, (TERM, TERM), ("left", "right"), "(= t t) takes two terms"),
    Syntax(AtomIn, "in", 5, (TERM, TERM), ("left", "right"), "(in t t) takes two terms"),
    Syntax(AtomInClass, "in-class", 6, (TERM, IDENT), ("term", "ident"),
           "(in-class t <identifier>) takes a term and an identifier"),
    Syntax(AtomInG, "in-G", 7, (TERM,), ("term",), "(in-G t) takes one term"),
    Syntax(AtomTr, "tr", 8, (TERM, TERM, TERM), ("stage", "code", "valuation"),
           "(tr t t t) takes three terms"),
    Syntax(Not, "not", 9, (SUB,), ("sub",), "(not f) takes one formula"),
    Syntax(And, "and", 10, (SUBS,), ("subs",), None),
    Syntax(Or, "or", 11, (SUBS,), ("subs",), None),
    Syntax(Forall, "forall", 12, (BLOCK, SUB), ("vars", "body"),
           "(forall (v*) f) takes a variable list and a formula"),
    Syntax(Exists, "exists", 13, (BLOCK, SUB), ("vars", "body"),
           "(exists (v*) f) takes a variable list and a formula"),
)}
_BY_HEAD = {row.head: row for row in SYNTAX.values()}
_BY_TAG_CODE = {nat_encode(row.tag): row for row in SYNTAX.values()}


def _args(phi: Formula, kids: Sequence, error: type[ForcelabError], what: str
          ) -> tuple[Syntax, list]:
    """phi's row, and phi's arguments in row order with each subformula
    replaced by its entry in kids (the results for phi's children)."""
    row = SYNTAX.get(type(phi))
    if row is None:
        raise error(f"{what} {type(phi).__name__}")
    rest = iter(kids)
    return row, [tuple(rest) if kind == SUBS else next(rest) if kind == SUB
                 else getattr(phi, field) for kind, field in zip(row.kinds, row.fields)]


# ---------------------------------------------------------------------------
# Traversal.  Formulas are hash-consed DAGs whose tree expansions can be far
# larger than the DAG (a stage translation of a truth atom has a few thousand
# distinct nodes and billions of tree nodes), so every walk here is the one
# walk of `dag`, which visits each distinct node once.

_children = operator.methodcaller("children")


def nodes(phi: Formula, skip: Container[Formula] = ()) -> Iterator[Formula]:
    """`dag.nodes` over subformulas: each distinct node once, children first."""
    return dag.nodes(phi, _children, skip)


def fold(phi: Formula, combine: Callable[[Formula, tuple], T],
         memo: dict[Formula, T] | None = None) -> T:
    """`dag.fold` over subformulas: combine(node, results for its children)."""
    return dag.fold(phi, _children, combine, memo)


def _parts(x) -> tuple:
    """What the text of a formula is printed from: its subformulas, the terms
    of its atoms with their parts, and the names and sets inside constants."""
    if isinstance(x, Formula):
        return x.children() if x.rank else atom_terms(x)
    if isinstance(x, PairTerm):
        return (x.left, x.right)
    if isinstance(x, NameConst):
        return (x.name,)
    if isinstance(x, GroundConst):
        return (x.value,)
    if isinstance(x, PName):
        return entry_names(x)
    return x.children if isinstance(x, HFSet) else ()


def _rebuild(phi: Formula, kids: Sequence[Formula]) -> Formula:
    if isinstance(phi, Not):
        return not_(kids[0])
    if isinstance(phi, (Forall, Exists)):
        return _mk(type(phi), phi.vars, kids[0])
    return _mk(type(phi), tuple(kids))


def map_formula(phi: Formula, atom_fn: Callable[[Formula], Formula],
                memo: dict[Formula, Formula] | None = None) -> Formula:
    """Rebuild phi with every atom replaced by atom_fn(atom): one fold, so
    each distinct subformula is rebuilt once.  Pass `memo` to share the
    rebuilt nodes across calls with the same atom_fn."""
    return fold(phi, lambda f, kids: _rebuild(f, kids) if f.rank else atom_fn(f), memo)


def atom_terms(atom: Formula) -> tuple[Term, ...]:
    """The argument terms of an atom, in order."""
    if isinstance(atom, (AtomEq, AtomIn)):
        return (atom.left, atom.right)
    if isinstance(atom, AtomTr):
        return (atom.stage, atom.code, atom.valuation)
    return (atom.term,)


def map_atom(atom: Formula, term_fn: Callable[[Term], Term]) -> Formula:
    """The atom with term_fn applied to each argument term."""
    new = [term_fn(t) for t in atom_terms(atom)]
    if isinstance(atom, AtomInClass):
        return atom_in_class(new[0], atom.ident)
    return _mk(type(atom), *new)


def terms(phi: Formula) -> set[Term]:
    """Every term occurring in phi, including the parts of pair terms."""
    out: set[Term] = set()
    stack = [t for node in nodes(phi) if node.rank == 0 for t in atom_terms(node)]
    while stack:
        t = stack.pop()
        if t not in out:
            out.add(t)
            if isinstance(t, PairTerm):
                stack += (t.left, t.right)
    return out


def _variables(node: Formula, kids: tuple[frozenset[str], ...]) -> frozenset[str]:
    bound = node.vars if isinstance(node, (Forall, Exists)) else ()
    return node.free.union(bound, *kids)


def variables(phi: Formula, memo: dict | None = None) -> frozenset[str]:
    """Every variable occurring in phi, free or bound."""
    return fold(phi, _variables, memo)


def subformulas(phi: Formula) -> set[Formula]:
    return set(nodes(phi))


def canonical_pool(pool: Iterable[Formula]) -> tuple[Formula, ...]:
    """The distinct formulas of a pool in the fixed order: rank, then text."""
    return tuple(sorted(set(pool), key=lambda f: (f.rank, formula_to_sexp(f))))


def subformula_closure(pool: Iterable[Formula]) -> tuple[Formula, ...]:
    out: set[Formula] = set()
    for phi in pool:
        out.update(nodes(phi, out))
    return canonical_pool(out)


# ---------------------------------------------------------------------------
# Substitution.

def _subst_term(t: Term, bindings: dict[str, Term]) -> Term:
    def combine(u: Term, kids: tuple[Term, ...]) -> Term:
        if isinstance(u, Var):
            return bindings.get(u.name, u)
        return pair_term(*kids) if kids else u

    return _term_fold(t, combine)


def substitute(phi: Formula, bindings: dict[str, Term]) -> Formula:
    """Simultaneous substitution of closed terms for the free occurrences of
    variables; an occurrence bound above stays as it is.  The terms are
    closed, so nothing they bring in can be captured."""
    for v, t in bindings.items():
        if t.free:
            raise ForcelabError(f"substituted term for {v} must be closed")
    return _replace_free(phi, bindings)


def rename_free(phi: Formula, mapping: dict[str, str]) -> Formula:
    """Rename free variables, leaving occurrences bound above alone.  The
    targets must not occur in phi, or they would be captured."""
    return _replace_free(phi, {k: var(v) for k, v in mapping.items()})


def _replace_free(phi: Formula, bindings: dict[str, Term]) -> Formula:
    """phi with each free occurrence of a variable of `bindings` replaced by
    its term.  One fold over (node, live names) pairs, the names still to
    replace there; a subformula with none free is a leaf returned as it is,
    so only the paths down to replaced occurrences are rebuilt."""
    def parts(item: tuple[Formula, frozenset[str]]) -> list:
        f, live = item
        if f.free.isdisjoint(live):
            return []
        if isinstance(f, (Forall, Exists)):
            live = live.difference(f.vars)
        return [(c, live) for c in f.children()]

    def rebuild(item: tuple[Formula, frozenset[str]], kids: tuple[Formula, ...]) -> Formula:
        f, live = item
        if f.free.isdisjoint(live):
            return f
        if f.rank:
            return _rebuild(f, kids)
        targets = {k: bindings[k] for k in live}
        return map_atom(f, lambda t: _subst_term(t, targets))

    return dag.fold((phi, frozenset(bindings)), parts, rebuild)


# ---------------------------------------------------------------------------
# Text form.

def parse_hf(form) -> HFSet:
    if not isinstance(form, list) or not form or form[0] != "hf":
        raise ParseError("expected (hf ...)")
    return hf_make(parse_hf(child) for child in form[1:])


def _parse_term(form, notion: ForcingNotion | None) -> Term:
    if isinstance(form, str):
        return var(form)  # bare symbols are variable shorthand
    if not isinstance(form, list) or not form:
        raise ParseError(f"expected a term, got {sexpr.show(form)}")
    head = form[0]
    if head == "var":
        if len(form) != 2 or not isinstance(form[1], str):
            raise ParseError("(var <identifier>) takes one identifier")
        return var(form[1])
    if head == "const":
        if len(form) != 2:
            raise ParseError("(const <hf>) takes one set")
        return const(parse_hf(form[1]))
    if head in ("name", "check", "opname"):
        if notion is None:
            raise ParseError("name constants need a notion for condition tokens")
        return name_const(parse_name(form, notion))
    if head == "opterm":
        if len(form) != 3:
            raise ParseError("(opterm <t> <t>) takes two terms")
        return pair_term(_parse_term(form[1], notion), _parse_term(form[2], notion))
    raise ParseError(f"unknown term form {head!r}")


def _parse_formula(form, notion: ForcingNotion | None) -> Formula:
    if not isinstance(form, list) or not form:
        raise ParseError(f"expected a formula, got {sexpr.show(form)}")
    head, args = form[0], form[1:]
    row = _BY_HEAD.get(head) if isinstance(head, str) else None
    if row is None:
        raise ParseError(f"unknown formula form {head!r}")
    if row.kinds == (SUBS,):
        args = [args]  # (and f*): the subformulas are the rest of the form
    if len(args) != len(row.kinds) or not all(
            kind not in _SHAPED or _SHAPED[kind](arg) for kind, arg in zip(row.kinds, args)):
        raise ParseError(row.usage)
    return _mk(row.cls, *(_PARSE[kind](arg, notion) for kind, arg in zip(row.kinds, args)))


# Identifiers and variable blocks are checked before any argument is parsed;
# terms and subformulas are checked as they are parsed.
_SHAPED = {IDENT: lambda arg: isinstance(arg, str),
           BLOCK: lambda arg: isinstance(arg, list) and all(isinstance(v, str) for v in arg)}
_PARSE = {TERM: _parse_term, IDENT: lambda ident, _: ident, SUB: _parse_formula,
          SUBS: lambda forms, notion: tuple(_parse_formula(f, notion) for f in forms),
          BLOCK: lambda vs, _: tuple(vs)}


def parse_formula(text: str, notion: ForcingNotion | None = None) -> Formula:
    form = sexpr.read(text)
    try:
        return _parse_formula(form, notion)
    except ParseError:
        raise
    except ForcelabError as e:  # well-formed parts that make no formula, e.g. mixed constants
        raise ParseError(str(e)) from None


def _term_sexp(t: Term, notion: ForcingNotion | None) -> str:
    """The text of a term: one fold, so pair terms of any depth print."""
    def combine(u: Term, kids: tuple[str, ...]) -> str:
        if isinstance(u, Var):
            return sexpr.show(["var", u.name])
        if isinstance(u, GroundConst):
            return sexpr.show(["const", u.value.to_sexp()])
        if isinstance(u, NameConst):
            return sexpr.show(name_to_sexp(u.name, notion))
        if isinstance(u, PairTerm):
            return sexpr.show(["opterm", *kids])
        raise ForcelabError(f"unknown term {type(u).__name__}")

    return _term_fold(t, combine)


def _formula_sexp(phi: Formula, kids: tuple[str, ...], notion: ForcingNotion | None):
    """The s-expression of one node, given the texts of its subformulas."""
    row, values = _args(phi, kids, ForcelabError, "unknown formula")
    out = [row.head]
    for kind, value in zip(row.kinds, values):
        if kind == TERM:
            out.append(_term_sexp(value, notion))
        elif kind == SUBS:
            out += value
        else:
            out.append(list(value) if kind == BLOCK else value)
    return out


# The text of a formula printed without a notion, kept for every formula
# whose text was asked for (pools are sorted by it); the texts of its
# subformulas are folded afresh on each miss and not kept.
_text_cache: dict[Formula, str] = {}


def _fold_text(phi: Formula, notion: ForcingNotion | None) -> str:
    return fold(phi, lambda node, kids: sexpr.show(_formula_sexp(node, kids, notion)))


def formula_to_sexp(phi: Formula, notion: ForcingNotion | None = None) -> str:
    if notion is not None:
        return _fold_text(phi, notion)
    text = _text_cache.get(phi)
    if text is None:
        text = _text_cache[phi] = _fold_text(phi, None)
    return text


# ---------------------------------------------------------------------------
# Every set is definable: the formulas θ_a(x), built by ∈-recursion, with
# distinct bound variables per depth so no renaming is ever needed.

_theta_cache: dict[tuple[HFSet, str, int], Formula] = {}


def theta_formula(a: HFSet, free_var: str = "x") -> Formula:
    """The constant-free formula defining a: θ_a(x) = ∀z (z∈x ⟺ ⋁_{u∈a} θ_u(z)).
    One fold over (set, variable, depth) triples, kept in _theta_cache."""
    return dag.fold((a, free_var, 0), _theta_parts, _theta_node, _theta_cache)


def _theta_parts(item: tuple[HFSet, str, int]) -> list:
    a, _, depth = item
    return [(u, f"z{depth}", depth + 1) for u in a.children]


def _theta_node(item: tuple[HFSet, str, int], disjuncts: tuple[Formula, ...]) -> Formula:
    _, v, depth = item
    z = f"z{depth}"
    return forall((z,), iff(atom_in(var(z), var(v)), or_(disjuncts)))


# ---------------------------------------------------------------------------
# Formulas as sets: an injective, constructor-tagged coding into HF sets,
# used wherever a formula must appear inside a name or a truth-atom argument.

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CHAR_INDEX = {c: i for i, c in enumerate(_ALPHABET)}

# Identifiers recur in every variable, block and valuation code, so each is
# encoded once per string and decoded once per interned code.

@functools.cache
def _encode_str(s: str) -> HFSet:
    try:
        return hf_list(nat_encode(_CHAR_INDEX[c]) for c in s)
    except KeyError as e:
        raise EncodingError(f"identifier {s!r} uses characters outside {_ALPHABET!r}") from e


@functools.cache
def _decode_str(x: HFSet) -> str | None:
    items = hf_unlist(x)
    if items is None:
        return None
    out = []
    for item in items:
        k = nat_decode(item)
        if k is None or k >= len(_ALPHABET):
            return None
        out.append(_ALPHABET[k])
    return "".join(out)


def _tagged(tag: int, payload: HFSet) -> HFSet:
    return hf_pair(nat_encode(tag), payload)


def encode_term(t: Term) -> HFSet:
    return _term_fold(t, _encode_term_node)


def _encode_term_node(t: Term, kids: tuple[HFSet, ...]) -> HFSet:
    if isinstance(t, Var):
        return _tagged(0, _encode_str(t.name))
    if isinstance(t, GroundConst):
        return _tagged(1, t.value)
    if isinstance(t, NameConst):
        return _tagged(2, name_to_hf(t.name))
    if isinstance(t, PairTerm):
        return _tagged(3, hf_pair(*kids))
    raise EncodingError(f"cannot encode term {type(t).__name__}")


_code_cache: dict[Formula, HFSet] = {}


def encode_formula(phi: Formula) -> HFSet:
    got = _code_cache.get(phi)
    return got if got is not None else fold(phi, _encode_node, _code_cache)


def _encode_node(phi: Formula, kids: tuple[HFSet, ...]) -> HFSet:
    row, values = _args(phi, kids, EncodingError, "cannot encode formula")
    parts = [_ENCODE[kind](value) for kind, value in zip(row.kinds, values)]
    return _tagged(row.tag, parts[0] if len(parts) == 1 else
                   hf_pair(*parts) if len(parts) == 2 else hf_list(parts))


_ENCODE = {TERM: encode_term, IDENT: _encode_str, SUB: lambda code: code, SUBS: hf_list,
           BLOCK: lambda vs: hf_list(map(_encode_str, vs))}


# Codes are DAGs, so the decoders keep caches (None results included) that
# make each distinct subcode decode once.  Formula, term and name codes
# decode by one fold each.

_name_codes: dict[HFSet, PName | None] = {}


def _decode_name(x: HFSet) -> PName | None:
    return dag.fold(x, _entry_codes, _decode_entries, _name_codes)


def _entry_codes(x: HFSet) -> tuple[HFSet, ...]:
    """The name codes of x's entries; none when x is not a set of pairs."""
    pairs = [hf_unpair(child) for child in x.children]
    return () if None in pairs else tuple(p[0] for p in pairs)


def _decode_entries(x: HFSet, subs: tuple[PName | None, ...]) -> PName | None:
    pairs = [hf_unpair(child) for child in x.children]
    if None in pairs or None in subs:
        return None
    ranks = [nat_decode(p[1]) for p in pairs]
    return None if None in ranks else name_make(zip(subs, ranks))


_term_codes: dict[HFSet, Term | None] = {}
_PAIR_TAG = nat_encode(3)


def decode_term(x: HFSet) -> Term | None:
    if x in _term_codes:
        return _term_codes[x]
    return dag.fold(x, _pair_codes, _decode_term_node, _term_codes)


def _pair_codes(x: HFSet) -> tuple[HFSet, ...]:
    """The codes of the two parts when x is a pair term's code; none else."""
    p = hf_unpair(x)
    q = hf_unpair(p[1]) if p is not None and p[0] is _PAIR_TAG else None
    return () if q is None else q


def _decode_term_node(x: HFSet, parts: tuple[Term | None, ...]) -> Term | None:
    p = hf_unpair(x)
    if p is None:
        return None
    tag, payload = nat_decode(p[0]), p[1]
    if tag == 0:
        s = _decode_str(payload)
        return var(s) if s else None
    if tag == 1:
        return const(payload)
    if tag == 2:
        n = _decode_name(payload)
        return name_const(n) if n is not None else None
    if tag == 3 and parts and None not in parts:
        return pair_term(*parts)
    return None


_formula_codes: dict[HFSet, Formula | None] = {}


def decode_formula(x: HFSet) -> Formula | None:
    """The formula x codes, or None when x codes none: not a code, or parts
    that would mix ground constants with name constants.  One fold over the
    subcodes, so the nesting depth is not bounded by the stack; each code
    is unpacked once."""
    if x in _formula_codes:
        return _formula_codes[x]
    parsed: dict[HFSet, tuple] = {}

    def subcodes(code: HFSet) -> tuple[HFSet, ...]:
        got = parsed.get(code)
        if got is None:
            got = parsed[code] = _code_parts(code)
        return got[2]

    return dag.fold(x, subcodes, lambda code, subs: _decode_node(parsed[code], subs),
                    _formula_codes)


_NO_CODE = (None, (), ())


def _code_parts(x: HFSet) -> tuple[Syntax | None, Sequence, tuple[HFSet, ...]]:
    """The row of x's tag, the codes of its arguments (a list of subformulas
    as the list of their codes) and the codes of the subformulas x's formula
    is built from; (None, (), ()) when x is no code of that row's shape.
    One argument is the payload, two are a pair and three a list."""
    p = hf_unpair(x)
    row = _BY_TAG_CODE.get(p[0]) if p is not None else None
    if row is None:
        return _NO_CODE
    if row.kinds == (SUBS,):
        subs = hf_unlist(p[1])
        return (row, (subs,), tuple(subs)) if subs is not None else _NO_CODE
    n = len(row.kinds)
    parts = (p[1],) if n == 1 else hf_unpair(p[1]) if n == 2 else hf_unlist(p[1])
    if parts is None or len(parts) != n:
        return _NO_CODE
    return row, parts, parts[-1:] if row.kinds[-1] == SUB else ()


def _decode_node(parsed: tuple, subs: tuple[Formula | None, ...]) -> Formula | None:
    row, parts, _ = parsed
    if row is None or None in subs:
        return None
    values = []
    for kind, part in zip(row.kinds, parts):
        value = subs[-1] if kind == SUB else subs if kind == SUBS else _DECODE[kind](part)
        if value is None:
            return None
        values.append(value)
    try:
        return _mk(row.cls, *values)
    except ForcelabError:  # raised by the constructors for mixed constants only
        return None


def _decode_block(x: HFSet) -> tuple[str, ...] | None:
    items = hf_unlist(x)
    vs = None if items is None else tuple(map(_decode_str, items))
    return vs if vs is not None and all(vs) else None


_DECODE = {TERM: decode_term, IDENT: lambda x: _decode_str(x) or None, BLOCK: _decode_block}


def encode_valuation(valuation: dict[str, HFSet]) -> HFSet:
    """Kuratowski-coded finite map from variable identifiers to sets."""
    return hf_make(hf_pair(_encode_str(v), x) for v, x in valuation.items())


def decode_valuation(x: HFSet) -> dict[str, HFSet] | None:
    """The map x codes, as a new dict on every call, or None."""
    items = _valuation_items(x)
    return None if items is None else dict(items)


@functools.cache
def _valuation_items(x: HFSet) -> tuple[tuple[str, HFSet], ...] | None:
    out: dict[str, HFSet] = {}
    for child in x.children:
        p = hf_unpair(child)
        if p is None:
            return None
        v = _decode_str(p[0])
        if v is None or not v or v in out:
            return None
        out[v] = p[1]
    return tuple(out.items())
