"""`truth_telling_game` judges a declaration on the clauses it touches only.
A copy of the builder it replaced is kept here as the reference, after the
pattern of test_forcing_reference.py: it replays the whole history at every
declaration node.  Both must build the same rows, notes included."""

import itertools

import pytest

from forcelab import (And, AtomTr, BudgetError, Exists, FiniteStructure, Forall, GameTree,
                      Not, Or, and_, atom_eq, atom_in, exists, forall, not_, or_,
                      truth_telling_game, v_stage, var)
from forcelab import games
from forcelab.truth import _eval_atom, instances, valuation_key


def _reference_violates(M, history: dict) -> bool:
    def declared(phi, v):
        return history.get((phi, valuation_key(phi, v)))

    for (phi, key), verdict in history.items():
        v = dict(key)
        if phi.rank == 0:
            if not isinstance(phi, AtomTr) and verdict != _eval_atom(M, phi, v):
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
            if verdict and isinstance(phi, Exists):
                for values in itertools.product(M.domain, repeat=len(phi.vars)):
                    inst = dict(v)
                    inst.update(zip(phi.vars, values))
                    kids.append(declaration_node(
                        challenge, verdict, clock_next, history,
                        witness=(phi.body, valuation_key(phi.body, inst))))
            else:
                kids.append(declaration_node(challenge, verdict, clock_next, history))
        rows[ident] = ("II", tuple(kids), None,
                       {"role": "truth-teller", "challenge": challenge, "clock": clock_next})
        return ident

    def declaration_node(challenge, verdict, clock_next, history, witness=None):
        new_history = dict(history)
        contradiction = False
        for key, verd in [(challenge, verdict)] + ([(witness, True)] if witness else []):
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
ATOMS = [atom_in(x, y), not_(atom_in(x, y)), atom_eq(x, y), not_(atom_eq(x, y))]
POOLS = {
    "atoms": ATOMS,
    "exists": ATOMS + [exists(("x",), atom_in(x, y))],
    "forall": ATOMS + [or_([atom_in(x, y), atom_eq(x, y)]),
                       forall(("x",), or_([atom_in(x, y), atom_eq(x, y)]))],
    "and": ATOMS + [and_([atom_in(x, y), not_(atom_eq(x, y))])],
}


@pytest.mark.parametrize("label", list(POOLS))
@pytest.mark.parametrize("clock", [1, 2, 3])
def test_game_matches_the_replaying_reference(label, clock):
    M = FiniteStructure(v_stage(2))
    T = truth_telling_game(M, POOLS[label], clock)
    ref = reference_game(M, POOLS[label], clock)
    assert T.root == ref.root
    assert T._rows == ref._rows


def test_the_existential_pool_reaches_its_size():
    T = truth_telling_game(FiniteStructure(v_stage(2)), POOLS["exists"], 3)
    assert len(T._rows) == 43_401


def test_an_existential_over_an_empty_domain_has_no_true_answer():
    M = FiniteStructure(v_stage(0))
    pool = [exists(("x",), atom_eq(x, x))]
    T = truth_telling_game(M, pool, 1)
    assert T._rows == reference_game(M, pool, 1)._rows
    (teller,) = T._rows[T.root][1]
    assert len(T._rows[teller][1]) == 1


def test_the_budget_still_names_the_pool_size(monkeypatch):
    monkeypatch.setattr(games, "GAME_BUDGET", 100)
    with pytest.raises(BudgetError, match=r"pool 16 instances, clock 3"):
        truth_telling_game(FiniteStructure(v_stage(2)), ATOMS, 3)
