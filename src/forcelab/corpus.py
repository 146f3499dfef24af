"""The fixed test corpus: small separative notions and formula pools.

A strict poset diamond (top, two middles, shared bottom) is never
separative, because nothing below the top is incompatible with a middle;
the corpus diamond therefore puts the middle tier equivalent to the top,
which keeps the diamond picture while staying separative.
"""

from __future__ import annotations

import random

from .etr import staged_instance
from .formulas import (Formula, and_, atom_eq, atom_in, atom_in_class,
                       atom_in_g, atom_tr, encode_formula, encode_valuation, exists,
                       forall, implies, name_const, not_, or_, subformula_closure, var)
from .games import random_game_tree, zermelo_recursion_instance
from .hfset import EMPTY, hf_rank, nat_encode, v_stage
from .names import (EMPTY_NAME, PName, check_name, name_make, name_universe,
                    subname_closure)
from .poset import ForcingNotion, make_notion
from .truth import FiniteStructure, tarski_truth_instance


def fork() -> ForcingNotion:
    return make_notion(["1", "a", "b"])


def chain2() -> ForcingNotion:
    """The two-element chain; the standard non-separative example."""
    return make_notion(["1", "a"])


def diamond() -> ForcingNotion:
    return make_notion(["1", "a", "b", "c", "d"],
                       [("1", "a"), ("1", "b"),
                        ("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")])


def all_topped_preorders(size: int) -> list[ForcingNotion]:
    """Every distinct preorder on the given number of conditions with the
    first element on top; exhaustive, so keep the size tiny."""
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    seen: set[tuple[int, ...]] = set()
    out = []
    for mask in range(1 << len(pairs)):
        chosen = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        P = ForcingNotion([f"p{i}" for i in range(size)], chosen)
        if P._up not in seen:
            seen.add(P._up)
            out.append(P)
    return out


def corpus_notions() -> list[tuple[str, ForcingNotion]]:
    """At least ten separative notions with at most five conditions each."""
    return [
        ("trivial", make_notion(["1"])),
        ("fork", fork()),
        ("three-fork", make_notion(["1", "a", "b", "c"])),
        ("four-fork", make_notion(["1", "a", "b", "c", "d"])),
        ("diamond", diamond()),
        ("tree-left", make_notion(["1", "a", "b", "c", "d"],
                                  [("c", "a"), ("d", "a")])),
        ("tree-right", make_notion(["1", "a", "b", "c", "d"],
                                   [("c", "b"), ("d", "b")])),
        ("equivalent-top", make_notion(["1", "t", "a", "b"], [("1", "t")])),
        ("equivalent-tooth", make_notion(["1", "a", "a2", "b"],
                                         [("a", "a2"), ("a2", "a")])),
        ("all-equivalent", make_notion(["1", "x", "y"], [("1", "x"), ("1", "y")])),
        ("wide-equivalent", make_notion(["1", "a", "b", "c", "c2"],
                                        [("c", "c2"), ("c2", "c")])),
        ("double-tooth", make_notion(["1", "a", "a2", "b", "b2"],
                                     [("a", "a2"), ("a2", "a"),
                                      ("b", "b2"), ("b2", "b")])),
    ]


def oracle_universe(P: ForcingNotion, rank: int = 1) -> tuple[PName, ...]:
    """Every name of rank ≤ rank, together with the condition check names,
    so that filter atoms about every condition stay inside the universe."""
    base = list(name_universe(P, rank))
    base.extend(check_name(nat_encode(i)) for i in P.conditions())
    return subname_closure(base)


def sample_names(P: ForcingNotion, universe) -> list[PName]:
    """The constants of random sentences: the empty name and the names
    holding it at condition 0, at the last condition, and at 1 and the
    last, those of them in the universe."""
    picks = [EMPTY_NAME, name_make([(EMPTY_NAME, 0)])]
    last = len(P) - 1
    picks.append(name_make([(EMPTY_NAME, last)]))
    if len(P) > 2:
        picks.append(name_make([(EMPTY_NAME, 1), (EMPTY_NAME, last)]))
    pool = set(universe)
    return [n for n in dict.fromkeys(picks) if n in pool]


def oracle_pool(P: ForcingNotion, universe) -> list[Formula]:
    """Closed formulas spanning atoms, negation, conjunction, quantifiers and
    the generic-filter predicate; at least forty over any corpus notion."""
    ns = [name_const(n) for n in sample_names(P, universe)]
    atoms: list[Formula] = []
    for s in ns:
        for t in ns:
            atoms.append(atom_eq(s, t))
            atoms.append(atom_in(s, t))
    pool = list(atoms)
    pool.extend(not_(a) for a in atoms)
    pool.extend(not_(not_(a)) for a in atoms[:4])
    pool.extend(and_([a, b]) for a, b in zip(atoms, atoms[1:7]))
    pool.extend(or_([a, not_(b)]) for a, b in zip(atoms, atoms[2:8]))
    pool.extend(and_([atom_eq(ns[0], ns[0]), atom_in(s, ns[1])]) for s in ns)
    pool.append(and_([]))
    pool.append(or_([]))
    pool.append(forall(("x",), atom_eq(var("x"), var("x"))))
    pool.append(forall(("x",), implies(atom_in(var("x"), ns[0]), atom_eq(var("x"), ns[0]))))
    pool.append(exists(("x",), atom_in(var("x"), ns[1])))
    pool.append(forall(("x",), or_([atom_in(var("x"), ns[1]), not_(atom_in(var("x"), ns[1]))])))
    for i in P.conditions():
        pool.append(atom_in_g(name_const(check_name(nat_encode(i)))))
    pool.append(atom_in_g(ns[-1]))
    pool.append(not_(atom_in_g(ns[-1])))
    pool.append(exists(("x",), atom_in_g(var("x"))))
    pool.append(and_([atom_in_g(name_const(check_name(nat_encode(0)))),
                      forall(("x",), atom_eq(var("x"), var("x")))]))
    pool.append(or_([atom_in(ns[0], ns[1]), atom_in_g(ns[-1])]))
    return list(dict.fromkeys(pool))


def truth_name_pool(P: ForcingNotion, universe) -> list[Formula]:
    """Closed, closed-subformula-complete pool for the truth-predicate name."""
    ns = [name_const(n) for n in sample_names(P, universe)[:3]]
    atoms = [atom_eq(s, t) for s in ns for t in ns] + \
            [atom_in(s, t) for s in ns for t in ns[:2]]
    pool = list(atoms)
    pool.extend(not_(a) for a in atoms[:8])
    pool.extend(and_([a, b]) for a, b in zip(atoms, atoms[1:3]))
    body = atom_eq(var("x"), var("x"))
    pool.append(forall(("x",), body))
    pool.extend(atom_eq(name_const(n), name_const(n)) for n in universe)
    return list(dict.fromkeys(pool))


def first_order_pool() -> list[Formula]:
    """Subformula-closed first-order pool over equality, membership and the
    parameter predicate; at least twenty-five formulas."""
    x, y = var("x"), var("y")
    seeds = [
        atom_eq(x, y),
        atom_in(x, y),
        atom_in_class(x, "A"),
        not_(atom_in(x, y)),
        not_(atom_in_class(x, "A")),
        and_([atom_eq(x, y), atom_in_class(x, "A")]),
        or_([atom_in(x, y), atom_in(y, x)]),
        forall(("x",), atom_eq(var("x"), var("x"))),
        forall(("x",), or_([atom_in_class(var("x"), "A"),
                            not_(atom_in_class(var("x"), "A"))])),
        exists(("x",), atom_in_class(var("x"), "A")),
        forall(("x", "y"), implies(atom_in(var("x"), var("y")),
                                   not_(atom_in(var("y"), var("x"))))),
        exists(("x",), forall(("y",), not_(atom_in(var("y"), var("x"))))),
        implies(atom_in_class(x, "A"), atom_in_class(x, "A")),
        and_([atom_in(x, y), atom_in_class(y, "A")]),
        or_([atom_eq(x, y), not_(atom_eq(x, y))]),
        forall(("y",), exists(("x",), or_([atom_in(var("x"), var("y")),
                                           atom_eq(var("x"), var("y"))]))),
    ]
    return list(subformula_closure(seeds))


def iterated_pool() -> list[Formula]:
    """Subformula-closed pool in the language with the staged-truth atom.

    Variable names and the parameter-predicate identifier stay single,
    early-alphabet characters so the coded formulas, and hence the
    θ-formulas that must pin them down, stay small.
    """
    a, b, c = var("a"), var("b"), var("c")
    seeds = [
        atom_eq(a, b),
        atom_in(a, b),
        atom_in(a, a),
        atom_in_class(a, "d"),
        not_(atom_in(a, b)),
        not_(atom_in_class(a, "d")),
        and_([atom_eq(a, b), atom_in_class(a, "d")]),
        forall(("c",), implies(atom_in(var("c"), a), atom_in(var("c"), b))),
        atom_tr(a, b, c),
        not_(atom_tr(a, b, c)),
        forall(("a",), atom_eq(var("a"), var("a"))),
    ]
    return list(subformula_closure(seeds))


def coded_truth_input() -> tuple[FiniteStructure, list[Formula]]:
    """V₂ with 2, ⌜d(a)⌝ and each ⌜{a ↦ x}⌝, d = {∅}, and the closure of a ∈ b,
    ¬ a ∈ b, tr(a, b, c) and d(a): unlike over V₂, some truth atoms decode."""
    a, b, c = var("a"), var("b"), var("c")
    d_a = atom_in_class(a, "d")
    coded = [nat_encode(2), encode_formula(d_a), *(encode_valuation({"a": x}) for x in v_stage(2))]
    pool = subformula_closure([atom_in(a, b), not_(atom_in(a, b)), atom_tr(a, b, c), d_a])
    return FiniteStructure([*v_stage(2), *coded], {"d": [EMPTY]}), list(pool)


def staged_truth_inputs() -> list[tuple[FiniteStructure, list[Formula]]]:
    """The iterated predicate's staged-instance inputs: V₂ with d = {∅} and
    the closure of the iterated pool's formulas of rank at most 1, where no
    truth atom decodes, and the coded domain, where some do."""
    small = list(subformula_closure(f for f in iterated_pool() if f.rank <= 1))
    return [(FiniteStructure(v_stage(2), {"d": [EMPTY]}), small), coded_truth_input()]


def atomic_game_pool() -> list[Formula]:
    """The four atoms the truth-telling game checks: x ∈ y, ¬ x ∈ y, x = y
    and ¬ x = y."""
    x, y = var("x"), var("y")
    return [atom_in(x, y), not_(atom_in(x, y)), atom_eq(x, y), not_(atom_eq(x, y))]


def builtin_instances():
    """Named recursion instances for the engine checks."""
    stage = tuple(v_stage(3))
    A = frozenset([EMPTY])

    def constant(x, alpha, view):
        return x in A

    def cumulative(x, alpha, view):
        return all(any(view(beta, y) for beta in range(alpha)) for y in x.children)

    def monotone(x, alpha, view):
        if hf_rank(x) == 0:
            return True
        return any(view(beta, x) for beta in range(alpha)) or hf_rank(x) <= alpha

    def whole(length, step, label):  # every stage decides the whole domain
        return staged_instance(stage, length, lambda x: range(length), step, label)

    out = [
        ("constant", whole(3, constant, "constant")),
        ("cumulative-hierarchy", whole(4, cumulative, "cumulative-hierarchy")),
        ("monotone", whole(4, monotone, "monotone")),
    ]
    M = FiniteStructure(v_stage(2))
    inst, _ = tarski_truth_instance(M, subformula_closure(
        [not_(atom_in(var("a"), var("b")))]))
    out.append(("tarski-truth", inst))
    tree = random_game_tree(random.Random(12), 40)
    out.append(("zermelo-labels", zermelo_recursion_instance(tree)[0]))
    return out


def random_qf_sentence(rng: random.Random, P: ForcingNotion, names) -> Formula:
    """A random closed quantifier-free sentence over the given names, at
    most three connectives deep."""
    ns = list(names)

    def gen(d: int) -> Formula:
        roll = rng.random()
        if d == 0 or roll < 0.4:
            kind = rng.randrange(4)
            s, t = rng.choice(ns), rng.choice(ns)
            if kind == 0:
                return atom_eq(name_const(s), name_const(t))
            if kind == 1:
                return atom_in(name_const(s), name_const(t))
            if kind == 2:
                return atom_in_g(name_const(s))
            return atom_in_g(name_const(check_name(nat_encode(rng.randrange(len(P))))))
        if roll < 0.6:
            return not_(gen(d - 1))
        width = rng.randint(0, 3)
        subs = [gen(d - 1) for _ in range(width)]
        return and_(subs) if roll < 0.8 else or_(subs)

    return gen(3)
