"""Finite forcing notions: preorders with a designated top condition.

Conditions are ordered by strength (lower = stronger).  Everything here
works on arbitrary preorders; equivalent conditions (p ≤ q ≤ p) are
permitted and all machinery is invariant under swapping equivalents.
A set of conditions is an `int` mask with bit p for condition p.
"""

from __future__ import annotations

import functools
import operator
import random
from itertools import combinations, permutations
from math import comb, perm
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import sexpr
from .errors import BudgetError, ForcelabError, ParseError
from .hfset import HFSet, v_stage

DENSE_SAMPLE_LIMIT = 12  # exhaustive dense-set verification up to this size
DENSE_SAMPLE_COUNT = 400  # seeded random subsets tried above that size
DENSE_SAMPLE_SEED = 0
COLLAPSE_BUDGET = 5000


def bits(mask: int) -> Iterator[int]:
    """The conditions in a mask, in increasing order, one step per member."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(up: list[int]) -> list[int]:
    """Close up-masks under transitivity, in place: repeat up[p] = ⋃ up[q]
    over the q in up[p] until nothing changes."""
    changed = True
    while changed:
        changed = False
        for p, mask in enumerate(up):
            new = functools.reduce(operator.or_, map(up.__getitem__, bits(mask)))
            if new != mask:
                up[p] = new
                changed = True
    return up


def _down_masks(up: Sequence[int]) -> list[int]:
    """The down-masks of closed up-masks: down[q] has bit p when p ≤ q."""
    down = [0] * len(up)
    for p, mask in enumerate(up):
        for q in bits(mask):
            down[q] |= 1 << p
    return down


class ForcingNotion:
    """A finite preorder with top element at index 0.

    `le(p, q)` means condition p is at least as strong as q.  The relation
    is stored reflexively and transitively closed.
    """

    def __init__(self, elements: Sequence[str], le_pairs: Iterable[tuple[int, int]]):
        elements = tuple(elements)
        if not elements:
            raise ForcelabError("a forcing notion needs at least the top condition")
        if len(set(elements)) != len(elements):
            raise ForcelabError("duplicate condition tokens")
        up = [1 | 1 << p for p in range(len(elements))]  # up[p] has bit q when p ≤ q
        for p, q in le_pairs:
            up[p] |= 1 << q
        up = _closure(up)
        self._init(elements, up, _down_masks(up))

    def _init(self, elements: tuple[str, ...], up: Sequence[int], down: Sequence[int]):
        """Store distinct tokens (the top first) with their up-masks, which
        must already be reflexive, hold the top and be transitively closed,
        and the down-masks read off them."""
        self.elements = elements
        self._up = tuple(up)
        self._down = tuple(down)
        self._index = {tok: i for i, tok in enumerate(elements)}

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def one(self) -> int:
        return 0

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ParseError(f"unknown condition token {token!r}") from None

    def le(self, p: int, q: int) -> bool:
        return self._up[p] >> q & 1 == 1

    def down(self, p: int) -> int:
        """The mask of p's extensions (conditions at least as strong), p included."""
        return self._down[p]

    def up(self, p: int) -> int:
        """The mask of the conditions p extends, p and the top included."""
        return self._up[p]

    def equivalent(self, p: int, q: int) -> bool:
        return self.le(p, q) and self.le(q, p)

    def compatible(self, p: int, q: int) -> bool:
        return self._down[p] & self._down[q] != 0

    def conditions(self) -> range:
        return range(len(self.elements))

    def to_sexp(self) -> str:
        pairs = [[self.elements[p], self.elements[q]]
                 for p in self.conditions() for q in bits(self._up[p]) if p != q]
        return sexpr.show(["poset", ["elems", *self.elements],
                           ["one", self.elements[0]], ["le", *pairs]])

    def __repr__(self) -> str:
        return f"ForcingNotion({len(self)} conditions)"


def parse_poset(text: str) -> ForcingNotion:
    form = sexpr.read(text)
    if not isinstance(form, list) or not form or form[0] != "poset":
        raise ParseError("expected (poset ...)")
    elems: list[str] | None = None
    one: str | None = None
    pairs: list[tuple[str, str]] = []
    seen = []
    for clause in form[1:]:
        if not isinstance(clause, list) or not clause:
            raise ParseError("bad poset clause")
        head = clause[0]
        if head in seen:
            raise ParseError(f"repeated poset clause {head!r}")
        seen.append(head)
        if head == "elems":
            elems = clause[1:]
            if not all(isinstance(e, str) for e in elems):
                raise ParseError("(elems ...) takes condition tokens")
        elif head == "one":
            if len(clause) != 2:
                raise ParseError("(one <token>) takes one token")
            one = clause[1]
        elif head == "le":
            for pair in clause[1:]:
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(t, str) for t in pair)):
                    raise ParseError("le entries are (<stronger> <weaker>) pairs")
                pairs.append((pair[0], pair[1]))
        else:
            raise ParseError(f"unknown poset clause {head!r}")
    if elems is None or one is None:
        raise ParseError("poset needs (elems ...) and (one ...)")
    if one not in elems:
        raise ParseError(f"top {one!r} not among elements")
    elems.remove(one)
    try:
        return make_notion([one, *elems], pairs)
    except ForcelabError as e:  # a duplicate token, or an le pair naming an unknown one
        raise ParseError(str(e)) from None


def make_notion(elements: Sequence[str], le_pairs: Iterable[tuple[str, str]] = ()) -> ForcingNotion:
    """Convenience constructor from tokens; the first element is the top."""
    idx = {tok: i for i, tok in enumerate(elements)}
    try:
        pairs = [(idx[a], idx[b]) for a, b in le_pairs]
    except KeyError as e:
        raise ForcelabError(f"le mentions unknown condition token {e.args[0]!r}") from None
    return ForcingNotion(elements, pairs)


class Filter(NamedTuple):
    """An upward-closed, downward-directed set of conditions, as a mask."""

    notion: ForcingNotion
    members: int


def is_filter(P: ForcingNotion, members: int) -> bool:
    if not members:
        return False
    if any(P.up(p) & ~members for p in bits(members)):
        return False
    return all(P.down(p) & P.down(q) & members for p in bits(members) for q in bits(members))


def is_separative(P: ForcingNotion) -> tuple[bool, tuple[int, int] | None]:
    """Check: whenever p ≰ q, some r ≤ p is incompatible with q."""
    for p in P.conditions():
        for q in P.conditions():
            if P.le(p, q):
                continue
            if not any(not P.compatible(r, q) for r in bits(P.down(p))):
                return False, (p, q)
    return True, None


def is_dense(P: ForcingNotion, D: int) -> bool:
    return all(D & down for down in P._down)


def minimal_classes(P: ForcingNotion) -> list[int]:
    """Equivalence classes of ≤-minimal conditions, ordered by least member.

    p is minimal when all its extensions lie above it; its class is then
    its whole downset.
    """
    classes = []
    seen = 0
    for p in P.conditions():
        down = P.down(p)
        if not seen >> p & 1 and not down & ~P.up(p):
            classes.append(down)
            seen |= down
    return classes


def generic_filters(P: ForcingNotion) -> list[Filter]:
    """The filters meeting every dense subset: one per minimal-element class.

    The closed-form computation is verified against the definition, either
    exhaustively (|P| ≤ 12) or on seeded sampled dense sets above that.
    """
    filters = [Filter(P, P.up(next(bits(cls)))) for cls in minimal_classes(P)]
    _verify_generic(P, filters)
    return filters


def _dense_subsets(P: ForcingNotion) -> Iterator[int]:
    n = len(P)
    if n <= DENSE_SAMPLE_LIMIT:
        yield from (D for D in range(1 << n) if is_dense(P, D))
        return
    # Canonical dense families first, then seeded random subsets.
    for p in P.conditions():
        yield P.down(p) | sum(1 << q for q in P.conditions() if not P.compatible(q, p))
    yield functools.reduce(operator.or_, minimal_classes(P))
    rng = random.Random(DENSE_SAMPLE_SEED)
    for _ in range(DENSE_SAMPLE_COUNT):
        D = sum(1 << i for i in range(n) if rng.random() < 0.5)
        if is_dense(P, D):
            yield D


def _verify_genericity_of(P: ForcingNotion, members: int) -> int | None:
    """Return a dense set the candidate misses, or None."""
    return next((D for D in _dense_subsets(P) if not D & members), None)


def _verify_generic(P: ForcingNotion, filters: list[Filter]):
    for F in filters:
        missed = _verify_genericity_of(P, F.members)
        if missed is not None:
            raise ForcelabError(f"claimed generic filter {list(bits(F.members))} "
                                f"misses dense set {list(bits(missed))}")
    if len(P) > DENSE_SAMPLE_LIMIT:
        return
    returned = {F.members for F in filters}
    all_filters = [f for f in range(1 << len(P)) if is_filter(P, f)]
    for f in all_filters:
        if f in returned or any(f != g and not f & ~g for g in all_filters):
            continue
        if _verify_genericity_of(P, f) is None:
            raise ForcelabError(f"omitted filter {list(bits(f))} meets every dense set")


# ---------------------------------------------------------------------------
# The collapse-with-suprema notion.

Graph = tuple[tuple[int, HFSet], ...]  # a collapse function: (slot, target), sorted by slot


class _CollapseSkeleton(NamedTuple):
    """What a collapse shares with every other at its stage and token
    setting: its functions and e-tokens and everything read off them.
    Masks have bit p for condition p (the top is the empty function, 0)."""

    elements: tuple[str, ...]  # the functions', then the e-tokens'
    fn_index: dict[Graph, int]  # each function's condition
    e_index: dict[tuple[int, int], int]  # (i, j) -> e(i,j), above the f with f(i) ∈ f(j)
    up: tuple[int, ...]  # the closed up-masks
    down: tuple[int, ...]  # the down-masks: no a-token is ever below a function or e-token
    sends: dict[tuple[int, HFSet], int]  # (i, x) -> the f with f(i) = x


@functools.cache
def _collapse_skeleton(stage: int, include_degenerate_tokens: bool) -> _CollapseSkeleton:
    """The functions and e-tokens of the stage's collapse, built once per
    stage and token setting."""
    targets = v_stage(stage)
    k = len(targets)
    # v_stage lists the targets in key order, so positions order graphs as keys do.
    position = {t: n for n, t in enumerate(targets)}
    graphs = sorted((tuple(zip(slots, image))
                     for r in range(1, k + 1)
                     for slots in combinations(range(k), r)
                     for image in permutations(targets, r)),
                    key=lambda g: [(i, position[t]) for i, t in g])
    elements = ["1"]
    fn_index: dict[Graph, int] = {(): 0}
    for graph in graphs:
        fn_index[graph] = len(elements)
        elements.append("f{" + ",".join(f"{i}:{position[t]}" for i, t in graph) + "}")

    # f ≤ g iff f extends g: the proper sub-graphs of f, the empty one included.
    up = [1 | 1 << p for p in range(len(elements))]
    in_realizers: dict[tuple[int, int], int] = {}
    sends: dict[tuple[int, HFSet], int] = {}
    for graph, p in fn_index.items():
        for r in range(len(graph)):
            for sub in combinations(graph, r):
                up[p] |= 1 << fn_index[sub]
        for i, x in graph:
            sends[(i, x)] = sends.get((i, x), 0) | 1 << p
            for j, y in graph:
                if x in y:
                    in_realizers[(i, j)] = in_realizers.get((i, j), 0) | 1 << p
    up = _closure(up)
    down = _down_masks(up)
    e_index: dict[tuple[int, int], int] = {}
    for i in range(k):
        for j in range(k):
            below = in_realizers.get((i, j), 0)
            if below or include_degenerate_tokens:
                e_index[(i, j)] = len(elements)
                elements.append(f"e_{i}_{j}")
                _place_token(up, down, below)
    return _CollapseSkeleton(tuple(elements), fn_index, e_index, tuple(up), tuple(down), sends)


def _place_token(up: list[int], down: list[int], below: int):
    """Append a token above exactly the conditions in `below`: its bit
    enters its realizers' up-masks and the top's down-mask, and its
    down-mask is its realizers and itself.  No token lies below a function
    or another token, so no other mask changes."""
    bit = 1 << len(up)
    up.append(1 | bit)
    down.append(below | bit)
    down[0] |= bit
    for p in bits(below):
        up[p] |= bit


class CollapseNotion(ForcingNotion):
    """Collapse of a cumulative stage onto its own clock, with supremum tokens.

    Conditions are the injective partial functions from the clock
    {0..k-1} into the stage (k = stage size), ordered by reverse inclusion,
    together with tokens: e(i,j) above exactly the f with f(i) ∈ f(j), and
    a(i) above exactly the f with f(i) ∈ A.  Minimal conditions are then
    the total bijections from the clock onto the stage.

    Only the a(i) depend on A, so the functions and e-tokens are built once
    per stage and token setting (`_collapse_skeleton`, after the count has
    been checked against COLLAPSE_BUDGET) and shared by every collapse
    there: their tokens, `fn_index` and `e_index` (read-only), their
    up-masks, closed once, their down-masks, and for each slot i and target
    x the functions with f(i) = x.  A graph is kept sorted by slot, so each
    sub-tuple of it is again a graph: f's proper sub-graphs (at most 2^k of
    them) are exactly the g with f < g.  Each collapse then adds its
    a-tokens, a(i) realized by ⋃_{x∈A} {f : f(i) = x}, setting each one's
    bit in its realizers' up-masks and in the top's down-mask.  Tokens come
    after the functions, e-tokens before a-tokens, so the index of every
    function and e-token is the same for every A.

    Tokens whose defining class of conditions is empty (e.g. e(i,i), or
    every a(i) when A is empty) break the everywhere-invariance of forcing
    star-translated statements, so they are omitted unless explicitly
    requested via include_degenerate_tokens.
    """

    def __init__(self, stage: int, A: Iterable[HFSet],
                 include_degenerate_tokens: bool = False):
        targets = v_stage(stage)
        k = len(targets)
        self.stage = stage
        self.clock = k
        self.targets = tuple(targets)
        self.A = frozenset(A)
        if not self.A <= set(targets):
            raise ForcelabError("parameter set must be a subset of the stage")
        if sum(comb(k, r) * perm(k, r) for r in range(k + 1)) > COLLAPSE_BUDGET:
            raise BudgetError(f"collapse notion exceeds budget {COLLAPSE_BUDGET}")
        skeleton = _collapse_skeleton(stage, include_degenerate_tokens)
        self.fn_index, self.e_index = skeleton.fn_index, skeleton.e_index
        up, down = list(skeleton.up), list(skeleton.down)
        tokens: list[str] = []
        self.a_index: dict[int, int] = {}
        for i in range(k):
            below = functools.reduce(operator.or_, (skeleton.sends.get((i, x), 0)
                                                    for x in self.A), 0)
            if below or include_degenerate_tokens:
                self.a_index[i] = len(up)
                tokens.append(f"a_{i}")
                _place_token(up, down, below)
        self._init(skeleton.elements + tuple(tokens), up, down)

    def fn_condition(self, mapping: dict[int, HFSet]) -> int:
        return self.fn_index[tuple(sorted(mapping.items()))]


def build_collapse(n: int, A: Iterable[HFSet],
                   include_degenerate_tokens: bool = False) -> CollapseNotion:
    """The finite analogue of the augmented collapse forcing over stage n."""
    return CollapseNotion(n, A, include_degenerate_tokens)
