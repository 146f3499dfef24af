"""The one structural walk over hash-consed values.

HF sets, names and formulas are interned DAGs whose tree expansions can be
exponentially larger (a star-translated name's code has 180 distinct sets
and 263 million tree nodes), so every structural walk visits each distinct
node once.  Only text a caller asks for (`to_sexp`, `name_to_sexp`,
`formula_to_sexp`) is tree-sized; reprs abbreviate above REPR_CAP.
"""

from __future__ import annotations

from typing import Callable, Container, Iterator, Sequence

REPR_CAP = 10_000  # tree nodes a repr prints in full


def nodes(root, children: Callable[..., Sequence], skip: Container = ()) -> Iterator:
    """Each distinct node below root once, children before parents.  Nodes
    in `skip` are neither yielded nor entered."""
    seen: set = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        elif node not in seen and node not in skip:
            seen.add(node)
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(children(node)))


def fold(root, children: Callable[..., Sequence], combine: Callable, memo: dict | None = None):
    """combine(node, results for its children), bottom-up, once per distinct
    node; children(node) is called once per distinct node too.  A node may
    carry the context a walk needs, say (subformula, live variables), so
    one fold serves every walk.  Results are kept in `memo`; pass one to
    share them across calls."""
    memo = {} if memo is None else memo
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            memo[node] = combine(node, tuple(map(memo.__getitem__, kids)))
        elif node not in memo:
            kids = children(node)
            stack.append((node, kids))
            stack.extend([(c, None) for c in reversed(kids)])
    return memo[root]


def bounded_repr(root, children: Callable[..., Sequence], text: Callable[[], str]) -> str:
    """text() when root's tree expansion has at most REPR_CAP nodes, else a
    one-line summary: type, rank and the number of distinct nodes."""
    sizes: dict = {}
    if fold(root, children, lambda _, kids: min(REPR_CAP + 1, 1 + sum(kids)), sizes) > REPR_CAP:
        return f"<{type(root).__name__} of rank {root.rank}: {len(sizes)} distinct nodes>"
    return text()
