"""P-names over a finite forcing notion, and their evaluation.

A name is hereditarily a finite set of (name, condition-index) pairs.
Names are interned like HF sets: one canonical instance per value, hashed
by identity, with entries kept sorted by (name, condition index) in the
canonical order, immutable and shareable after single-threaded
construction.  The order is held as data: a name's key is the flat tuple
(rank, n1.key, r1, n2.key, r2, ...) over its sorted entries, so tuple
comparison orders names by rank first, then lexicographically on entries;
printed orders sort by it.  Condition indices refer to positions in a
notion's element list; index 0 is the top condition of every notion,
which is what makes check names portable.
`name_make` sorts; its trusted step `_interned`, as in `hfset`, takes
entries already canonical, as `op_name` and star_translate's junctions do.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import sexpr
from .dag import bounded_repr, fold, nodes
from .errors import BudgetError, ForcelabError, ParseError
from .hfset import HFSet, _members, hf_make, hf_pair, nat_encode
from .poset import CollapseNotion, ForcingNotion

_intern: dict[tuple, "PName"] = {}

NAME_UNIVERSE_BUDGET = 20000


class PName:
    """An interned P-name.  Use :func:`name_make` or `_interned` to construct."""

    __slots__ = ("entries", "rank", "max_condition", "key")

    entries: tuple[tuple["PName", int], ...]
    rank: int
    max_condition: int  # the largest condition index anywhere below
    key: tuple

    def __init__(self, entries):
        # one pass over the sorted entries; the last has the largest rank
        key, top = [1 + entries[-1][0].rank if entries else 0], 0
        for n, r in entries:
            key += n.key, r
            m = n.max_condition if n.max_condition > r else r
            if m > top:
                top = m
        self.entries, self.rank, self.max_condition, self.key = entries, key[0], top, tuple(key)

    def __lt__(self, other: "PName") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return bounded_repr(self, entry_names, lambda: fold(self, entry_names, _show_name))


def _show_name(n: PName, kids: tuple[str, ...]) -> str:
    return "name{" + ", ".join(f"({k},{r})" for k, (_, r) in zip(kids, n.entries)) + "}"


def entry_names(name: PName) -> tuple[PName, ...]:
    """The names of the entries, in entry order: a name's children in the DAG."""
    return tuple(n for n, _ in name.entries)


def name_make(entries: Iterable[tuple[PName, int]] = ()) -> PName:
    # Only canonical (sorted, duplicate-free) tuples are keys of the table,
    # so a hit on the entries as given is the name; sort only on a miss.
    tup = tuple(entries)
    cached = _intern.get(tup)
    if cached is not None:
        return cached
    return _interned(_canonical(tup))


def _interned(tup: tuple[tuple[PName, int], ...]) -> PName:
    """The name with the canonical (sorted, duplicate-free) entries tup."""
    cached = _intern.get(tup)
    if cached is None:
        cached = _intern[tup] = PName(tup)
    return cached


def _canonical(entries: Iterable[tuple[PName, int]]) -> tuple[tuple[PName, int], ...]:
    """The entries sorted and without duplicates; a negative condition is refused."""
    tup = tuple(sorted(set(entries), key=lambda e: (e[0].key, e[1])))
    if any(r < 0 for _, r in tup):
        raise ForcelabError("a name entry's condition index must not be negative")
    return tup


EMPTY_NAME = name_make()


class ClassName(NamedTuple):
    """A name-shaped object used as a predicate symbol, never as a constant."""

    ident: str
    entries: tuple[tuple[PName, int], ...]

    @staticmethod
    def make(ident: str, entries: Iterable[tuple[PName, int]]) -> "ClassName":
        return ClassName(ident, _canonical(entries))


def subnames(name: PName) -> set[PName]:
    return set(nodes(name, entry_names))


def subname_closure(names: Iterable[PName]) -> tuple[PName, ...]:
    out: set[PName] = set()
    for n in names:
        out.update(nodes(n, entry_names, out))
    return tuple(sorted(out, key=lambda n: n.key))


def is_subname_closed(names: Iterable[PName]) -> bool:
    pool = set(names)
    return all(n in pool for name in pool for n, _ in name.entries)


_check_cache: dict[HFSet, PName] = {}


def check_name(x: HFSet) -> PName:
    """The canonical name x̌ = {(y̌, 1) : y ∈ x}, whose value is always x:
    one fold over the members, kept in _check_cache."""
    cached = _check_cache.get(x)
    return cached if cached is not None else fold(
        x, _members, lambda _, kids: name_make((k, 0) for k in kids), _check_cache)


def op_name(sigma: PName, tau: PName) -> PName:
    """Canonical name for the Kuratowski pair of the two names' values, by
    the trusted step: {σ} < {σ, τ} exactly when σ < τ, as for `hf_pair`."""
    left = _interned(((sigma, 0),))
    if sigma is tau:
        return _interned(((left, 0),))
    if sigma.key < tau.key:
        return _interned(((left, 0), (_interned(((sigma, 0), (tau, 0))), 0)))
    return _interned(((_interned(((tau, 0), (sigma, 0))), 0), (left, 0)))


def op_unpair(name: PName) -> tuple[PName, PName] | None:
    """Invert op_name: (σ, τ) when name is op_name(σ, τ), else None.

    The test is structural: every condition at both levels is 0, the top,
    and {{σ}} is the one-entry case σ = τ.  A name of rank < 2 or with more
    than two entries is refused before any entry is read."""
    entries = name.entries
    if name.rank < 2 or len(entries) > 2:
        return None
    if len(entries) == 1:
        ((inner, r),) = entries
        if r or len(inner.entries) != 1 or inner.entries[0][1]:
            return None
        sigma = inner.entries[0][0]
        return sigma, sigma
    (x, r), (y, s) = entries
    left, pair = (x.entries, y.entries) if len(x.entries) < len(y.entries) else (y.entries, x.entries)
    if r or s or len(left) != 1 or len(pair) != 2 or left[0] not in pair or pair[0][1] or pair[1][1]:
        return None
    sigma = left[0][0]
    return sigma, pair[1][0] if pair[0][0] is sigma else pair[0][0]


def g_dot(P: ForcingNotion) -> ClassName:
    """Canonical class name of the generic filter: pairs (ǐ, i), conditions as naturals."""
    return ClassName.make("G", ((check_name(nat_encode(i)), i) for i in P.conditions()))


def _require_collapse(P: ForcingNotion) -> CollapseNotion:
    if not isinstance(P, CollapseNotion):
        raise ForcelabError("this name requires a collapse notion with supremum tokens")
    return P


def eps_dot(P: ForcingNotion) -> PName:
    """Name of the clock-copy of membership: pairs ⟨op(ǐ, ǰ), e(i,j)⟩."""
    C = _require_collapse(P)
    return name_make(
        (op_name(check_name(nat_encode(i)), check_name(nat_encode(j))), e)
        for (i, j), e in C.e_index.items())


def a_dot(P: ForcingNotion, A: Iterable[HFSet]) -> ClassName:
    """Class name of the clock-copy of the parameter set: pairs ⟨ǐ, a(i)⟩."""
    C = _require_collapse(P)
    if frozenset(A) != C.A:
        raise ForcelabError("parameter set disagrees with the notion's parameter")
    return ClassName.make("A", ((check_name(nat_encode(i)), a) for i, a in C.a_index.items()))


def n_dot(P: ForcingNotion, a: HFSet) -> PName:
    """Name of the clock slot that the generic bijection sends to a."""
    C = _require_collapse(P)
    if a not in set(C.targets):
        raise ForcelabError("value must lie in the collapsed stage")
    return name_make(
        (check_name(nat_encode(k)), C.fn_condition({n: a}))
        for n in range(C.clock) for k in range(n))


def name_universe(P: ForcingNotion, rho: int) -> tuple[PName, ...]:
    """Name pool for quantifier clauses: every name of rank ≤ rho (rho ≤ 2),
    subname-closed and canonically ordered.  A pool of deeper names is the
    `subname_closure` of chosen ones.
    """
    if rho < 0:
        raise ForcelabError(f"no name universe of rank {rho}")
    if rho > 2:
        raise BudgetError("exhaustive name universes are limited to rank 2")
    layer = [EMPTY_NAME]
    for _ in range(rho):
        pairs = [(n, p) for n in layer for p in P.conditions()]
        if 2 ** len(pairs) > NAME_UNIVERSE_BUDGET:
            raise BudgetError(f"exhaustive universe would have 2^{len(pairs)} names, "
                              f"budget {NAME_UNIVERSE_BUDGET}")
        layer = [name_make(tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1))
                 for mask in range(1 << len(pairs))]
    return tuple(sorted(set(layer), key=lambda n: n.key))


def eval_name(name: PName, g: int, memo: dict | None = None) -> HFSet:
    """Direct evaluation along the filter mask g: the values of the entries
    whose condition is in g, one fold over the entry names g keeps.  Values
    are kept in `memo`; pass one to share them across calls along g."""
    return fold(name, lambda n: tuple(m for m, r in n.entries if g >> r & 1),
                lambda _, kids: hf_make(kids), memo)


def eval_class(cls: ClassName, g: int, memo: dict | None = None) -> frozenset[HFSet]:
    """The values of the class's entries whose condition is in the filter
    mask g, sharing `memo` as `eval_name` does."""
    memo = {} if memo is None else memo
    return frozenset(eval_name(n, g, memo) for n, r in cls.entries if g >> r & 1)


_hf_codes: dict[PName, HFSet] = {}


def name_to_hf(name: PName) -> HFSet:
    """Injective coding of a name as an HF set of (coded entry, condition ordinal) pairs."""
    return fold(name, entry_names, lambda n, kids: hf_make(
        hf_pair(k, nat_encode(r)) for k, (_, r) in zip(kids, n.entries)), _hf_codes)


# ---------------------------------------------------------------------------
# Text form: (name (pair <name> <cond-token>) ...) with sugar
# (check <hf>) and (opname <name> <name>).

def parse_name(form, P: ForcingNotion) -> PName:
    from .formulas import parse_hf  # hf literals share the formula grammar

    if not isinstance(form, list) or not form:
        raise ParseError("expected a name form")
    head = form[0]
    if head == "check":
        if len(form) != 2:
            raise ParseError("(check <hf>) takes one set")
        return check_name(parse_hf(form[1]))
    if head == "opname":
        if len(form) != 3:
            raise ParseError("(opname <name> <name>) takes two names")
        return op_name(parse_name(form[1], P), parse_name(form[2], P))
    if head == "name":
        entries = []
        for entry in form[1:]:
            if not (isinstance(entry, list) and len(entry) == 3 and entry[0] == "pair"
                    and isinstance(entry[2], str)):
                raise ParseError("name entries are (pair <name> <cond-token>)")
            entries.append((parse_name(entry[1], P), P.index(entry[2])))
        return name_make(entries)
    raise ParseError(f"unknown name form {head!r}")


def name_to_sexp(name: PName, P: ForcingNotion | None = None) -> str:
    """The (name ...) text; conditions print as P's tokens, or as indices without P."""
    def show(n: PName, kids: tuple[str, ...]) -> str:
        return sexpr.show(["name"] + [["pair", k, P.elements[r] if P is not None else str(r)]
                                      for k, (_, r) in zip(kids, n.entries)])

    return fold(name, entry_names, show)
