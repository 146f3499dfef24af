"""The library's records are named tuples: none can be assigned to, and those
whose fields hash compare and hash by their fields."""

import random

import pytest

from forcelab import (EMPTY, FiniteStructure, atom_eq, atom_in, atomic_forcing,
                      boolean_completion, check_name, corpus, etr_solve, extension,
                      generic_filters, name_const, random_game_tree, tarski_truth,
                      truth_name, v_stage, var, zermelo_solve)
from forcelab.etr import staged_instance
from forcelab.names import ClassName


def _keep_all(x, alpha, view):
    return True


def _hashable_records():
    """One of each record that used to be a frozen dataclass."""
    P = corpus.fork()
    inst = staged_instance(v_stage(2), 2, lambda x: range(2), _keep_all, "records")
    return {
        "RecursionInstance": inst,
        "Solution": etr_solve(inst),
        "Filter": generic_filters(P)[0],
        "ClassName": ClassName.make("T", [(check_name(EMPTY), 0)]),
        "BooleanCompletion": boolean_completion(P),
        "TruthPredicate": tarski_truth(FiniteStructure(v_stage(2)),
                                       [atom_in(var("x"), var("y"))]),
    }


def _other_records():
    """One of each record that used to be a mutable dataclass."""
    P = corpus.fork()
    N = corpus.oracle_universe(P)
    FR = atomic_forcing(P, N)
    pool = [atom_eq(name_const(N[0]), name_const(N[1]))]
    T = random_game_tree(random.Random(7), 20)
    return {
        "GameNode": T.nodes[T.root],
        "ZermeloResult": zermelo_solve(T),
        "GenericExtension": extension(FR, generic_filters(P)[0]),
        "TruthName": truth_name(FR, pool),
    }


HASHABLE = ("BooleanCompletion", "ClassName", "Filter", "RecursionInstance", "Solution",
            "TruthPredicate")
OTHER = ("GameNode", "GenericExtension", "TruthName", "ZermeloResult")


@pytest.fixture(scope="module")
def records():
    return {**_hashable_records(), **_other_records()}


@pytest.mark.parametrize("kind", HASHABLE + OTHER)
def test_a_record_refuses_assignment(records, kind):
    record = records[kind]
    assert type(record).__name__ == kind
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("kind", HASHABLE)
def test_a_record_compares_and_hashes_by_its_fields(records, kind):
    record = records[kind]
    rebuilt = type(record)(*(getattr(record, field) for field in record._fields))
    assert rebuilt is not record
    assert rebuilt == record and hash(rebuilt) == hash(record)


def test_records_with_one_field_changed_differ():
    G = generic_filters(corpus.fork())[0]
    assert G._replace(members=G.members ^ 1) != G
    T = ClassName.make("T", [(check_name(EMPTY), 0)])
    assert T._replace(ident="S") != T
