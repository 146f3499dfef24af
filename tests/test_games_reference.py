"""`truth_telling_game` judges a declaration on the clauses it touches only,
and builds each position once, as an acyclic graph.  A builder that does
neither is kept here as the reference, after the pattern of
test_forcing_reference.py: it builds the game as a tree and replays the
whole history at every declaration node.  The graph's unfolding, numbered
as the reference numbers its tree, must have the reference's rows, notes
included."""

import itertools

import pytest

from forcelab import (And, AtomIn, AtomTr, BudgetError, Exists, FiniteStructure, Forall,
                      GameTree, Not, Or, and_, atom_eq, atom_in, exists, forall, instances,
                      nat_encode, not_, or_, truth_telling_game, v_stage, valuation_key, var)
from forcelab import corpus, games


def _atom_holds(phi, v) -> bool:
    """x ∈ y or x = y under v, read off the members of the sets."""
    left, right = v[phi.left.name], v[phi.right.name]
    return left in right.children if isinstance(phi, AtomIn) else left is right


def _reference_violates(M, history: dict) -> bool:
    def declared(phi, v):
        return history.get((phi, valuation_key(phi, v)))

    for (phi, key), verdict in history.items():
        v = dict(key)
        if phi.rank == 0:
            if not isinstance(phi, AtomTr) and verdict != _atom_holds(phi, v):
                return True
            continue
        # ¬ψ is the conjunction of the one vote ¬ψ; ∧ and ∀ are universal.
        if isinstance(phi, Not):
            sub = declared(phi.sub, v)
            votes = [None if sub is None else not sub]
        elif isinstance(phi, (And, Or)):
            votes = [declared(s, v) for s in phi.subs]
        else:
            votes = [declared(phi.body, {**v, **dict(zip(phi.vars, values))})
                     for values in itertools.product(M.domain, repeat=len(phi.vars))]
        universal = isinstance(phi, (Not, And, Forall))
        if None not in votes and (all(votes) if universal else any(votes)) != verdict:
            return True
        if verdict == universal and (not universal) in votes:
            return True  # one declared vote already refutes the verdict
    return False


def _votes(M, phi, v) -> list:
    if isinstance(phi, (And, Or)):
        return [(s, valuation_key(s, v)) for s in phi.subs]
    votes = []
    for values in itertools.product(M.domain, repeat=len(phi.vars)):
        inst = dict(v)
        inst.update(zip(phi.vars, values))
        votes.append((phi.body, valuation_key(phi.body, inst)))
    return votes


def reference_game(M, pool, clock) -> GameTree:
    pool_instances = [(phi, v) for phi in pool for v in instances(M, phi)]
    rows = {}
    counter = itertools.count()

    def interrogator_node(clock_now, history, answer):
        ident = next(counter)
        if clock_now == 0:
            rows[ident] = (None, (), "II", {"role": "clock-exhausted", **answer})
            return ident
        kids = []
        for phi, v in pool_instances:
            for smaller in range(clock_now):
                kids.append(teller_node(phi, v, smaller, history))
        rows[ident] = ("I", tuple(kids), None,
                       {"role": "interrogator", "clock": clock_now, **answer})
        return ident

    def teller_node(phi, v, clock_next, history):
        ident = next(counter)
        challenge = (phi, valuation_key(phi, v))
        kids = []
        for verdict in (True, False):
            # a true ∃ or ∨ and a false ∀ or ∧ name a vote with that verdict
            if verdict and isinstance(phi, (Exists, Or)) or \
                    not verdict and isinstance(phi, (Forall, And)):
                for witness in _votes(M, phi, v):
                    kids.append(declaration_node(challenge, verdict, clock_next, history,
                                                 witness=witness))
            else:
                kids.append(declaration_node(challenge, verdict, clock_next, history))
        rows[ident] = ("II", tuple(kids), None,
                       {"role": "truth-teller", "challenge": challenge, "clock": clock_next})
        return ident

    def declaration_node(challenge, verdict, clock_next, history, witness=None):
        new_history = dict(history)
        contradiction = False
        for key, verd in [(challenge, verdict)] + ([(witness, verdict)] if witness else []):
            if new_history.get(key, verd) != verd:
                contradiction = True
            new_history[key] = verd
        answer = {"verdict": verdict, "challenge": challenge}
        if contradiction or _reference_violates(M, new_history):
            ident = next(counter)
            rows[ident] = (None, (), "I", {"role": "violation", **answer})
            return ident
        return interrogator_node(clock_next, new_history, answer)

    root = interrogator_node(clock, {}, {})
    return GameTree(rows, root)


x, y = var("x"), var("y")
ATOMS = corpus.atomic_game_pool()
POOLS = {
    "atoms": ATOMS,
    "exists": ATOMS + [exists(("x",), atom_in(x, y))],
    "forall": ATOMS + [or_([atom_in(x, y), atom_eq(x, y)]),
                       forall(("x",), or_([atom_in(x, y), atom_eq(x, y)]))],
    "and": ATOMS + [and_([atom_in(x, y), not_(atom_eq(x, y))])],
    # a true ∨ may name a true ∃ as its witness, which names none of its own
    "nested": [atom_in(x, y), atom_eq(x, y), exists(("x",), atom_in(x, y)),
               or_([exists(("x",), atom_in(x, y)), atom_eq(x, y)])],
}


def rows_of(T: GameTree) -> dict:
    """T's nodes read back through `T.nodes` as rows (mover, children, winner,
    note), with an empty note as None."""
    return {i: (n.mover, n.children, n.winner, n.note or None) for i, n in T.nodes.items()}


def unfold(T: GameTree) -> tuple[GameTree, dict[int, int]]:
    """The game tree T's graph unfolds to, with one copy of a node per line
    into it, numbered in pre-order as the reference creates its nodes, and
    the node of T each copy copies."""
    rows, origin = {}, {}
    counter = itertools.count()

    def copy(i):
        ident = next(counter)
        origin[ident] = i
        node = T.nodes[i]
        rows[ident] = (node.mover, tuple(copy(c) for c in node.children), node.winner,
                       node.note)
        return ident

    return GameTree(rows, copy(T.root)), origin


def _content(node) -> tuple:
    return node.mover, node.children, node.winner, tuple(node.note.items())


def _matches_the_reference(M, pool, clock):
    T = truth_telling_game(M, pool, clock)
    ref = reference_game(M, pool, clock)
    tree, _ = unfold(T)
    assert tree.root == ref.root
    assert dict(tree.nodes.items()) == dict(ref.nodes.items())
    assert len(T) == len(ref.nodes)
    # each distinct row is stored once
    assert len({_content(node) for node in T.nodes.values()}) == len(T.nodes)


@pytest.mark.parametrize("label", list(POOLS))
@pytest.mark.parametrize("clock", [1, 2, 3])
def test_game_matches_the_replaying_reference(label, clock):
    _matches_the_reference(FiniteStructure(v_stage(2)), POOLS[label], clock)


@pytest.mark.parametrize("label", list(POOLS))
def test_game_over_the_ordinal_three_matches_the_replaying_reference(label):
    # 2 = {0, 1} has two members, so membership is read where V₂ has no case
    _matches_the_reference(FiniteStructure([nat_encode(k) for k in range(3)]), POOLS[label], 2)


def test_the_existential_pool_reaches_its_size():
    T = truth_telling_game(FiniteStructure(v_stage(2)), POOLS["exists"], 3)
    assert len(T) == 43_401
    assert len(T.nodes) == 939


def test_an_existential_over_an_empty_domain_has_no_true_answer():
    M = FiniteStructure(v_stage(0))
    pool = [exists(("x",), atom_eq(x, x))]
    T = truth_telling_game(M, pool, 1)
    assert dict(unfold(T)[0].nodes.items()) == dict(reference_game(M, pool, 1).nodes.items())
    (teller,) = T.nodes[T.root].children
    assert len(T.nodes[teller].children) == 1


def test_the_budget_still_names_the_pool_size(monkeypatch):
    monkeypatch.setattr(games, "GAME_BUDGET", 100)
    with pytest.raises(BudgetError, match=r"pool 16 instances, clock 3"):
        truth_telling_game(FiniteStructure(v_stage(2)), ATOMS, 3)
