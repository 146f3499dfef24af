"""Canonical hereditarily finite sets.

Every extensionally distinct set has exactly one interned instance, so
equality and hash are identity, and a Python set of sets iterates in
address order.  The sort key, the flat tuple (rank, *child keys), gives the
total order used wherever order is printed or ties broken (rank first, then
lexicographically on the ordered children); tuple comparison stops at the
first differing child, since equal children share one key.  A set builds
its key on first read, by one `dag.fold` over the descendants that have
none yet, and keeps it; comparisons read the ranks first and the keys only
when the ranks are equal, so sets that are only built, paired and looked
up never hold one.

Kuratowski pairs and their decoding are memoized by identity: `hf_pair`
keeps a table (a, b) → pair and `hf_unpair` a table set → (a, b) or None,
filled by structural decoding the first time a set is asked for, so each
pair is built and each set decoded once.  Like the interning table, these
tables never shrink.

Values are immutable and safely shareable once constructed; the interning
and memo tables themselves are confined to single-threaded construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .dag import bounded_repr, fold, nodes
from .errors import BudgetError, ForcelabError

STAGE_CAP = 5  # |v_stage(5)| = 65536; larger stages are refused

_intern: dict[tuple, "HFSet"] = {}
_pairs: dict[tuple["HFSet", "HFSet"], "HFSet"] = {}
_unpairs: dict["HFSet", tuple["HFSet", "HFSet"] | None] = {}


class HFSet:
    """An interned hereditarily finite set.  Use :func:`hf_make` to construct.
    Its order key is built on first read (see `key`)."""

    __slots__ = ("children", "rank", "_key")

    children: tuple["HFSet", ...]
    rank: int

    def __init__(self, children: tuple["HFSet", ...], rank: int):
        self.children = children
        self.rank = rank
        self._key = None

    @property
    def key(self) -> tuple:
        """The flat tuple (rank, *child keys), built on first read together
        with the keys of the descendants that have none yet, then kept."""
        key = self._key
        return key if key is not None else fold(self, _members, _key_of, _KEY_SLOTS)

    # Interning makes identity the same as extensional equality; the default
    # object __eq__ and __hash__ are therefore correct (and O(1)).

    def __lt__(self, other: "HFSet") -> bool:
        # the rank is the key's first component
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.key < other.key

    def __le__(self, other: "HFSet") -> bool:
        return not other < self

    def __contains__(self, x: "HFSet") -> bool:
        return any(x is c for c in self.children)

    def __iter__(self) -> Iterator["HFSet"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)

    def __repr__(self) -> str:
        return bounded_repr(self, _members, lambda: fold(
            self, _members, lambda x, kids: "{" + ", ".join(kids) + "}" if kids else "∅"))

    def to_sexp(self) -> str:
        return fold(self, _members, lambda x, kids: "(hf" + "".join(" " + k for k in kids) + ")")


def _members(x: HFSet) -> tuple[HFSet, ...]:
    return x.children


def _key_of(x: HFSet, child_keys: tuple[tuple, ...]) -> tuple:
    return (x.rank, *child_keys)


class _KeySlots:
    """`fold`'s memo for `HFSet.key`: the sets' own key slots, so a walk
    enters no set that already has its key, and recurses in no Python frame."""

    __slots__ = ()

    def __contains__(self, x: HFSet) -> bool:
        return x._key is not None

    def __getitem__(self, x: HFSet) -> tuple:
        return x._key

    def __setitem__(self, x: HFSet, key: tuple) -> None:
        x._key = key


_KEY_SLOTS = _KeySlots()


def hf_make(children: Iterable[HFSet] = ()) -> HFSet:
    """Return the canonical set with the given children (order and duplicates ignored)."""
    # Only canonical (sorted, duplicate-free) tuples are keys of the table,
    # so a hit on the children as given is the set; sort only on a miss.
    tup = tuple(children)
    cached = _intern.get(tup)
    if cached is not None:
        return cached
    return _interned(tuple(sorted(set(tup))))


def _interned(tup: tuple[HFSet, ...]) -> HFSet:
    """The set with the canonical (sorted, duplicate-free) children tup."""
    cached = _intern.get(tup)
    if cached is not None:
        return cached
    made = HFSet(tup, 1 + tup[-1].rank if tup else 0)  # sorted by rank first
    _intern[tup] = made
    return made


EMPTY = hf_make()


def hf_rank(x: HFSet) -> int:
    return x.rank


def hf_pair(a: HFSet, b: HFSet) -> HFSet:
    """Kuratowski pair {{a}, {a, b}}, built once per (a, b)."""
    pair = (a, b)
    got = _pairs.get(pair)
    if got is None:
        single = _interned((a,))
        if a is b:
            got = _interned((single,))
        elif a < b:  # {a} < {a, b} exactly when a < b
            got = _interned((single, _interned(pair)))
        else:
            got = _interned((_interned((b, a)), single))
        _pairs[pair] = got
    return got


def hf_unpair(x: HFSet) -> tuple[HFSet, HFSet] | None:
    """Invert hf_pair, or None if x is not a Kuratowski pair; decoded once per set."""
    try:
        return _unpairs[x]
    except KeyError:
        got = _unpairs[x] = _decode_pair(x)
        return got


def _decode_pair(x: HFSet) -> tuple[HFSet, HFSet] | None:
    if len(x) == 1:
        (inner,) = x.children
        if len(inner) == 1:
            return inner.children[0], inner.children[0]
        return None
    if len(x) == 2:
        small, big = sorted(x.children, key=len)
        if len(small) == 1 and len(big) == 2:
            a = small.children[0]
            rest = [c for c in big.children if c is not a]
            if len(rest) == 1 and a in big:
                return a, rest[0]
        return None
    return None


def hf_list(items: Iterable[HFSet]) -> HFSet:
    """Right-nested pair encoding of a finite sequence; the empty list is ∅."""
    out = EMPTY
    for item in reversed(list(items)):
        out = hf_pair(item, out)
    return out


def hf_unlist(x: HFSet) -> list[HFSet] | None:
    out: list[HFSet] = []
    while x is not EMPTY:
        p = hf_unpair(x)
        if p is None:
            return None
        out.append(p[0])
        x = p[1]
    return out


def v_stage(n: int) -> list[HFSet]:
    """All sets of rank < n, in canonical order.  Refused above the stage cap."""
    if n < 0:
        raise ForcelabError(f"no stage V_{n}")
    if n > STAGE_CAP:
        raise BudgetError(f"stage {n} exceeds cap {STAGE_CAP} "
                          f"(|V_{STAGE_CAP}| = 2^{2 ** (STAGE_CAP - 1)})")
    stage: list[HFSet] = []
    for _ in range(n):
        stage = [hf_make(sub) for sub in _subsets(stage)]
    return sorted(stage, key=lambda s: s.key)


def _subsets(xs: list[HFSet]) -> Iterator[tuple[HFSet, ...]]:
    for mask in range(1 << len(xs)):
        yield tuple(xs[i] for i in range(len(xs)) if mask >> i & 1)


_nat_cache: list[HFSet] = [EMPTY]


def nat_encode(k: int) -> HFSet:
    """The von Neumann ordinal k."""
    if k < 0:
        raise ForcelabError(f"no natural number {k}")
    while len(_nat_cache) <= k:
        _nat_cache.append(hf_make(_nat_cache))
    return _nat_cache[k]


def nat_decode(x: HFSet) -> int | None:
    """Invert nat_encode; None when x is not a von Neumann natural."""
    k = len(x)
    return k if nat_encode(k) is x else None


def transitive_closure(xs: Iterable[HFSet]) -> list[HFSet]:
    """All members-of-members-of... of the given sets, including the sets themselves."""
    seen: set[HFSet] = set()
    for x in xs:
        seen.update(nodes(x, _members, seen))
    return sorted(seen, key=lambda s: s.key)
