import gc
import hashlib
import random
import tracemalloc

import pytest

from forcelab import (And, BudgetError, Exists, FiniteStructure, Forall, ForcelabError,
                      GameNode, GameTree, Or, ParseError, and_, atom_eq, atom_in,
                      continuous_rank, etr_solve, eval_formula, exists, extract_verdicts,
                      forall, label_fixpoint_violation, or_, parse_game,
                      random_game_tree, truth_telling_game, v_stage, var, verify_strategy,
                      zermelo_recursion_instance, zermelo_solve, verify_solution)
from forcelab import corpus, criteria, games
from forcelab.dag import nodes as dag_nodes
from forcelab.formulas import nodes as formula_nodes
from forcelab.truth import instances, valuation_key
from test_games_reference import rows_of, unfold


def leaf(winner):
    return (None, (), winner, None)


def inner(mover, children):
    return (mover, children, None, None)


def test_rank_examples():
    single = GameTree({0: leaf("I")}, 0)
    assert continuous_rank(single) == {0: 0}
    two = GameTree({0: inner("I", (1, 2)), 1: leaf("I"), 2: leaf("II")}, 0)
    assert continuous_rank(two)[0] == 1


def test_ranks_strictly_decrease():
    rng = random.Random(0)
    for _ in range(30):
        T = random_game_tree(rng, 500)
        rank = continuous_rank(T)
        for nid in T._reachable:
            for child in T.nodes[nid].children:
                assert rank[child] < rank[nid]


def test_zermelo_immediate_win():
    T = GameTree({0: inner("I", (1, 2)), 1: leaf("I"), 2: leaf("II")}, 0)
    res = zermelo_solve(T)
    assert res.labels[0] == "I"
    assert res.strategy_I[0] == 1


def test_zermelo_forced_loss():
    # every move of player I meets a winning reply by player II
    rows = {0: inner("I", (1, 2)), 1: inner("II", (3,)), 2: inner("II", (4,)),
            3: leaf("II"), 4: leaf("II")}
    res = zermelo_solve(GameTree(rows, 0))
    assert res.labels[0] == "II"


def test_labels_are_a_fixpoint_and_relabeling_breaks_it():
    rng = random.Random(1)
    for _ in range(40):
        T = random_game_tree(rng, 50)
        res = zermelo_solve(T)
        for nid in T._reachable:
            node = T.nodes[nid]
            if not node.children:
                assert res.labels[nid] == node.winner
                continue
            mine = [c for c in node.children if res.labels[c] == node.mover]
            want = node.mover if mine else ("II" if node.mover == "I" else "I")
            assert res.labels[nid] == want
            assert res.labels[nid] != ("II" if want == "I" else "I")


def test_winner_strategy_survives_all_play():
    rng = random.Random(2)
    for _ in range(200):
        T = random_game_tree(rng, 120)
        res = zermelo_solve(T)
        winner = res.labels[T.root]
        ok, line = verify_strategy(T, res.strategy(winner), winner)
        assert ok, line


def test_loser_strategy_is_refuted():
    rng = random.Random(3)
    refuted = 0
    for _ in range(200):
        T = random_game_tree(rng, 120)
        res = zermelo_solve(T)
        loser = "II" if res.labels[T.root] == "I" else "I"
        ok, line = verify_strategy(T, res.strategy(loser), loser)
        if not ok:
            refuted += 1
            assert line is not None
    assert refuted > 0


def test_labels_invariant_under_child_permutation():
    rng = random.Random(4)
    for _ in range(30):
        T = random_game_tree(rng, 60)
        permuted = {}
        for nid, node in T.nodes.items():
            kids = list(node.children)
            rng.shuffle(kids)
            permuted[nid] = (node.mover, tuple(kids), node.winner, None)
        T2 = GameTree(permuted, T.root)
        r1, r2 = zermelo_solve(T), zermelo_solve(T2)
        assert r1.labels == r2.labels
        for player in ("I", "II"):
            ok1, _ = verify_strategy(T, r1.strategy(player), player)
            ok2, _ = verify_strategy(T2, r2.strategy(player), player)
            assert ok1 == ok2


def test_zermelo_as_recursion_instance():
    rng = random.Random(5)
    for _ in range(20):
        T = random_game_tree(rng, 50)
        inst, codec = zermelo_recursion_instance(T)
        sol = etr_solve(inst)
        assert verify_solution(inst, sol) == (True, None)
        labels = zermelo_solve(T).labels
        for enc, nid in codec.items():
            assert any(enc in sl for sl in sol.slices) == (labels[nid] == "I")


def test_game_sexp_roundtrip():
    T = GameTree({0: inner("I", (1, 2)), 1: leaf("I"), 2: leaf("II")}, 0)
    again = parse_game(T.to_sexp())
    assert again.root == 0
    assert again.nodes[0].children == (1, 2)
    assert again.nodes[2].winner == "II"


@pytest.fixture(scope="module")
def stored_trees():
    rng = random.Random(6)
    M = FiniteStructure(v_stage(2))
    return ([random_game_tree(rng, 200) for _ in range(200)]
            + [truth_telling_game(M, corpus.atomic_game_pool(), clock) for clock in (1, 2, 3)])


def test_node_view_matches_a_tree_rebuilt_from_its_game_nodes(stored_trees):
    for T in stored_trees:
        U = GameTree({i: (n.mover, n.children, n.winner, n.note or None)
                      for i, n in T.nodes.items()}, T.root)
        assert len(U) == len(T) and list(U.nodes) == list(T.nodes)
        for i, node in T.nodes.items():
            assert node.ident == i
            assert U.nodes[i] == node
        assert dict(U.nodes.items()) == dict(T.nodes.items())
        assert U._reachable == T._reachable


def _distinct_reachable(T) -> set:
    seen, stack = set(), [T.root]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(T.nodes[i].children)
    return seen


def test_reachable_lists_children_before_parents(stored_trees):
    for T in stored_trees:
        position = {i: k for k, i in enumerate(T._reachable)}
        assert T._reachable[-1] == T.root
        assert len(position) == len(T._reachable) == len(_distinct_reachable(T))
        assert all(position[c] < position[i] for i in T._reachable
                   for c in T.nodes[i].children)


def test_game_text_round_trips_byte_for_byte(stored_trees):
    for T in stored_trees:
        text = T.to_sexp()
        assert parse_game(text).to_sexp() == text


def test_node_view_is_read_only():
    T = random_game_tree(random.Random(7), 20)
    with pytest.raises(TypeError):
        T.nodes[T.root] = GameNode(T.root, None, (), "I")


def test_node_view_holds_exactly_the_defined_ids():
    # list columns (ids 0..n-1) and dict columns (any ids) answer alike
    T = random_game_tree(random.Random(7), 20)
    n = len(T.nodes)
    assert list(T.nodes) == list(range(n))
    U = GameTree({-3: inner("I", (5,)), 5: (None, (), "II", {"role": "end"})}, -3)
    assert list(U.nodes) == [-3, 5] and U.nodes[5].note == {"role": "end"}
    # keys that are not ids, even ones that do not compare with an int,
    # are absent, as they are from a dict
    for view, absent in ((T.nodes, (-1, n)), (U.nodes, (-4, -1, 0, 6))):
        for i in (*absent, "a", None, 1.5, (), []):
            assert i not in view and view.get(i) is None
            with pytest.raises(KeyError):
                view[i]


def test_a_node_reads_as_the_game_node_built_from_its_fields():
    T = GameTree({-3: inner("I", (5, 6)), 5: leaf("II"),
                  6: (None, (), "I", {"role": "end"})}, -3)
    assert T.nodes[-3] == GameNode(-3, "I", (5, 6))
    assert T.nodes[5] == GameNode(5, None, (), "II")
    assert T.nodes[6] == GameNode(6, None, (), "I", {"role": "end"})
    # a node without a note has an empty one, built or read
    for node in (T.nodes[-3], T.nodes[5], GameNode(0, None, (), "I")):
        assert not node.note and len(node.note) == 0 and node.note == {}
    # every read is a GameNode, not only equal to one: inner nodes and
    # terminals, with and without a note, from dict and list columns
    L = GameTree({0: ("I", (1, 2), None, {"role": "ask"}), 1: leaf("II"),
                  2: (None, (), "I", {"role": "end"})}, 0)
    assert L._children.__class__ is list and T._children.__class__ is dict
    assert L.nodes[0] == GameNode(0, "I", (1, 2), None, {"role": "ask"})
    for view in (T.nodes, L.nodes):
        assert all(type(view[i]) is GameNode for i in view)


# sha256 of repr([(T._player, T._children), ...]) for `count` trees drawn
# one after another from random.Random(seed) with `max_nodes`, as the trees
# were first recorded: a reordered, added or dropped draw changes them
RANDOM_TREE_DIGESTS = {
    # a lone terminal root
    (1, 200, 1): "e1bed2fb0cf0c58b099360d77a723a49917b5ef57f3bad21a548d3647a185643",
    # 163 nodes, down to the depth cap
    (0, 200, 1): "377ff411544725ccc62be91c550dd4df742732823b8cdb1c01ec7df68ee2882f",
    # stopped by the node cap above the depth cap
    (5, 30, 1): "78b10f1154132f67605c2198f92a34a845900dc107015db05a13392d8e53ffc3",
    # both caps
    (10, 30, 1): "bfb9aff6687d1c10e3c2031109ebaa7a3cf713f67a11d48183743b808b8ed843",
    # 271 nodes under a cap it never reaches
    (5, 5000, 1): "2f67fd044d82736d446b3ad9d0042c3fbb58e601954f62d2dc62c2ad4fe09ba2",
    # 163, 1, 200 and 96 nodes from one generator
    (0, 200, 4): "ba956d92a5c40d7773ce8e456cb2f0ed66862e27fb171b0e8afb2f10b4445ffc",
}


@pytest.mark.parametrize("seed, max_nodes, count", RANDOM_TREE_DIGESTS)
def test_random_trees_are_the_recorded_ones(seed, max_nodes, count):
    rng = random.Random(seed)
    columns = [(T._player, T._children)
               for T in (random_game_tree(rng, max_nodes) for _ in range(count))]
    digest = hashlib.sha256(repr(columns).encode()).hexdigest()
    assert digest == RANDOM_TREE_DIGESTS[seed, max_nodes, count]


def test_random_tree_rows_leave_the_garbage_collector():
    rng = random.Random(8)
    trees = [random_game_tree(rng, 200) for _ in range(20)]
    # A collection untracks a tuple whose items are all untracked.
    gc.collect()
    for T in trees:
        children = [T.nodes[i].children for i in T.nodes]
        assert not any(map(gc.is_tracked, children))
        # per node the columns hold a shared player string, the children
        # tuple and, if it has one, the note: no row object
        held = {id(x) for x in gc.get_referents(T._player, T._children, T._notes)}
        per_node = {id(x) for x in (*children, *T._notes.values())}
        assert held <= per_node | {id("I"), id("II")}


def test_random_trees_cost_at_most_80_bytes_a_node():
    rng = random.Random(0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trees = [random_game_tree(rng, 200) for _ in range(1000)]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nodes = sum(len(T.nodes) for T in trees)
    assert nodes > 80_000
    assert held / nodes <= 80


# --- truth-telling -----------------------------------------------------------

def test_interrogator_never_wins():
    M = FiniteStructure(v_stage(2))
    for clock in (1, 2, 3):
        T = truth_telling_game(M, corpus.atomic_game_pool(), clock)
        res = zermelo_solve(T)
        assert res.labels[T.root] == "II"
        ok, _ = verify_strategy(T, res.strategy_II, "II")
        assert ok


def test_extracted_verdicts_match_truth_at_sufficient_clock():
    M = FiniteStructure(v_stage(2))
    pool = corpus.atomic_game_pool()
    # per clock: the winner, her playout and the instances of rank below it
    reached = sum(2 + sum(len(M.domain) ** len(phi.free) for phi in pool if phi.rank < clock)
                  for clock in (1, 2, 3))
    assert criteria.truth_telling(M, pool, (1, 2, 3)) == (0, None, reached)


def test_truth_telling_game_leaves_no_reference_cycle(cyclic_garbage):
    M = FiniteStructure(v_stage(2))
    assert cyclic_garbage(lambda: truth_telling_game(M, corpus.atomic_game_pool(), 2)) == 0


def test_atomic_lie_loses_within_clock_two():
    M = FiniteStructure(v_stage(2))
    pool = corpus.atomic_game_pool()
    T = truth_telling_game(M, pool, 2)
    res = zermelo_solve(T)
    liar = dict(res.strategy_II)
    for nid in T._reachable:
        node = T.nodes[nid]
        if node.mover == "II":
            phi, key = node.note["challenge"]
            if phi.rank == 0:
                wrong = not eval_formula(M, phi, dict(key))
                for child in node.children:
                    if T.nodes[child].note.get("verdict") == wrong:
                        liar[nid] = child
                        break
    ok, line = verify_strategy(T, liar, "II")
    assert not ok and line is not None


def test_existential_challenges_demand_witnesses():
    M = FiniteStructure(v_stage(2))
    x, y = var("x"), var("y")
    pool = [exists(("x",), atom_eq(x, y)), atom_eq(x, y)]
    T = truth_telling_game(M, pool, 2)
    res = zermelo_solve(T)
    assert res.labels[T.root] == "II"


# Past the atoms: every connective and quantifier up to rank 2, in a pool
# closed under subformulas so that every vote of a composite can be
# challenged, played at clock rank + 1.

def _rank_two_pool():
    x, y = var("x"), var("y")
    xin, xeq = atom_in(x, y), atom_eq(x, y)
    some = exists(("x",), xin)
    tops = [forall(("x",), or_([xin, xeq])), exists(("x",), and_([xin, atom_eq(x, x)])),
            or_([some, xeq]), and_([some, xeq]), forall(("x",), xeq)]
    return list(dict.fromkeys(f for phi in tops for f in formula_nodes(phi)))


@pytest.fixture(scope="module")
def rank_two_game():
    M = FiniteStructure(v_stage(2))
    pool = _rank_two_pool()
    T = truth_telling_game(M, pool, max(phi.rank for phi in pool) + 1)
    return M, pool, T, zermelo_solve(T)


def test_rank_two_verdicts_match_truth(rank_two_game):
    M, pool, T, res = rank_two_game
    assert {type(phi) for phi in pool if phi.rank == 1} >= {Exists, Forall, And, Or}
    assert {type(phi) for phi in pool if phi.rank == 2} >= {Exists, Forall, And, Or}
    # the unfolded tree is larger than the budget the graph's rows keep to
    assert len(T) == 497_323 and len(T.nodes) == 3_554
    assert res.labels[T.root] == "II"
    assert verify_strategy(T, res.strategy_II, "II") == (True, None)
    pool_instances = [(phi, v) for phi in pool for v in instances(M, phi)]
    verdicts = extract_verdicts(T, res.strategy_II, pool_instances)
    assert len(verdicts) == len(pool_instances) == 34
    assert all(verdicts[(phi, valuation_key(phi, v))] == eval_formula(M, phi, v)
               for phi, v in pool_instances)


def test_a_lie_on_one_quantified_instance_loses(rank_two_game):
    M, pool, T, res = rank_two_game
    lies = 0
    for phi in pool:
        if not isinstance(phi, (Exists, Forall)):
            continue
        for v in instances(M, phi):
            challenge, wrong = (phi, valuation_key(phi, v)), not eval_formula(M, phi, v)
            liar = dict(res.strategy_II)
            for nid in T._reachable:
                node = T.nodes[nid]
                if node.mover == "II" and node.note["challenge"] == challenge:
                    liar[nid] = next(c for c in node.children
                                     if T.nodes[c].note["verdict"] == wrong)
            ok, line = verify_strategy(T, liar, "II")
            assert not ok and T.nodes[line[-1]].winner == "I"
            lies += 1
    assert lies == 8


# The clock bound is exact.  Challenged on a rank-r instance with c clock
# units left, a truth-teller whose first verdict lies never wins at c ≥ r,
# and for every rank r ≥ 1 some lie wins at c = r − 1.

def _surviving_lies(M, T, labels) -> dict:
    """(rank, clock left) -> (root challenges where some lying first verdict
    is labelled II, root challenges)."""
    counts = {}
    for teller in T.nodes[T.root].children:
        note = T.nodes[teller].note
        phi, key = note["challenge"]
        wrong = not eval_formula(M, phi, dict(key))
        lies = [a for a in T.nodes[teller].children if T.nodes[a].note["verdict"] == wrong]
        won, asked = counts.get((phi.rank, note["clock"]), (0, 0))
        counts[(phi.rank, note["clock"])] = (won + any(labels[a] == "II" for a in lies), asked + 1)
    return counts


def test_a_lie_survives_exactly_below_the_clock_bound(rank_two_game):
    M, _, T, res = rank_two_game
    atomic = truth_telling_game(M, corpus.atomic_game_pool(), 3)
    games = {"atomic": (atomic, zermelo_solve(atomic).labels), "rank two": (T, res.labels)}
    want = {"atomic": {(1, 0): (8, 8)},
            "rank two": {(1, 0): (9, 12), (2, 0): (12, 12), (2, 1): (1, 12)}}
    for label, (game, labels) in games.items():
        surviving = _surviving_lies(M, game, labels)
        assert {c for _, c in surviving} == {0, 1, 2}, label
        assert not any(won for (r, c), (won, _) in surviving.items() if c >= r), label
        assert all(surviving[(r, r - 1)][0] for r, _ in surviving if r >= 1), label
        assert {k: v for k, v in surviving.items() if v[0]} == want[label]


def test_a_negative_clock_is_refused():
    M = FiniteStructure(v_stage(2))
    with pytest.raises(ForcelabError, match="the clock must be a natural number, not -1"):
        truth_telling_game(M, corpus.atomic_game_pool(), -1)


def test_budget(monkeypatch):
    M = FiniteStructure(v_stage(2))
    monkeypatch.setattr(games, "GAME_BUDGET", 100)
    with pytest.raises(BudgetError):
        truth_telling_game(M, corpus.atomic_game_pool(), 3)


@pytest.mark.parametrize("text", [
    "(game (node x) (root 0))",
    "(game (node) (root 0))",
    "(game (node 0 mover) (root 0))",
    "(game (node 0 (mover I) (children 1)) (root 0))",
    "(game (terminal 0 (winner I)) (root 3))",
    "(game (node 0 (mover I) (children 0)) (root 0))",
    "(game (node 0 (mover I) (children 1)) (node 1 (mover II) (children 0)) (root 0))",
    "(game (node 0 (mover I) (children 1 2)) (node 1 (mover II) (children 2))"
    " (node 2 (mover I) (children 1)) (root 0))",
    "(game (terminal 0 (winner nobody)) (root 0))",
    # a node or the root defined twice, and parts or tokens the grammar lacks
    "(game (terminal 1 (winner I)) (terminal 1 (winner II)) (root 1))",
    "(game (terminal 0 (winner I)) (terminal 1 (winner II)) (root 0) (root 1))",
    "(game (terminal 0 (winner I) (children 2)) (terminal 2 (winner II)) (root 0))",
    "(game (node 0 (mover I) (children 1) (colour red)) (terminal 1 (winner I)) (root 0))",
    "(game (node 0 (mover I) (mover II) (children 1)) (terminal 1 (winner I)) (root 0))",
    "(game (terminal 0 (winner I III)) (root 0))",
    "(game (node 0 (mover I II) (children 1)) (terminal 1 (winner I)) (root 0))",
    "(game (terminal 1 (winner I)) (terminal 2 (winner II)) (root 1 2))",
])
def test_malformed_game_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_game(text)


# --- acyclic graphs ------------------------------------------------------------

def test_a_shared_child_is_one_row_and_unfolds_into_copies():
    # 3 is a child of both 1 and 2; the unfolded tree has two copies of it
    rows = {0: inner("I", (1, 2)), 1: inner("II", (3, 4)), 2: inner("II", (3,)),
            3: leaf("I"), 4: leaf("II")}
    T = GameTree(rows, 0)
    assert len(T) == 6 and len(T._reachable) == 5
    again = parse_game(T.to_sexp())
    assert dict(again.nodes.items()) == dict(T.nodes.items())
    assert again.root == 0 and len(again) == 6
    assert again.to_sexp() == T.to_sexp()
    assert rows_of(unfold(T)[0]) == {0: inner("I", (1, 4)), 1: inner("II", (2, 3)),
                                     2: leaf("I"), 3: leaf("II"), 4: inner("II", (5,)),
                                     5: leaf("I")}


@pytest.mark.parametrize("rows", [
    {0: inner("I", (0,))},
    {0: inner("I", (1,)), 1: inner("II", (0,))},
    {0: inner("I", (1, 2)), 1: inner("II", (2,)), 2: inner("I", (1,))},
])
def test_a_cycle_is_refused(rows):
    with pytest.raises(ForcelabError, match="cycle"):
        GameTree(rows, 0)


@pytest.mark.parametrize("rows, node", [
    ({0: inner("I", (0,))}, 0),
    ({0: inner("I", (1,)), 1: inner("II", (0,))}, 1),
    ({0: inner("I", (1, 2)), 1: inner("II", (2,)), 2: inner("I", (1,))}, 2),
    ({0: inner("I", (1, 1)), 1: inner("II", (2, 3)), 2: leaf("I"), 3: inner("I", (1,))}, 3),
], ids=["self-loop", "two-cycle", "below-the-root", "below-a-shared-child"])
def test_a_cycle_names_the_node_whose_child_is_still_open(rows, node):
    with pytest.raises(ForcelabError, match=f"^game graph has a cycle through node {node}$"):
        GameTree(rows, 0)


def random_dag(rng: random.Random, n: int) -> GameTree:
    """Node i's children are drawn from the four nodes after it, so the graph
    is acyclic and shares many of its nodes."""
    rows = {}
    for i in range(n):
        later = list(range(i + 1, min(i + 5, n)))
        if not later or i and rng.random() < 0.2:
            rows[i] = leaf(rng.choice(["I", "II"]))
        else:
            kids = rng.sample(later, min(len(later), rng.randint(1, 3)))
            rows[i] = inner(rng.choice(["I", "II"]), tuple(kids))
    return GameTree(rows, 0)


def test_a_graph_is_ordered_as_the_structural_walk_orders_it():
    # one walk lists a shared graph's nodes children first, in the order of
    # dag.nodes, and counts its unfolding; a tree keeps the same order
    rng = random.Random(3)
    games_ = [random_dag(rng, rng.randint(4, 14)) for _ in range(50)]
    games_ += [random_game_tree(rng, 60) for _ in range(20)]
    games_.append(truth_telling_game(FiniteStructure(v_stage(2)), corpus.atomic_game_pool(), 2))
    for T in games_:
        assert T._reachable == tuple(dag_nodes(T.root, lambda i: T.nodes[i].children))
        assert len(T) == len(unfold(T)[0].nodes)


def _on_tree(strategy: dict, dag: GameTree, tree: GameTree, origin: dict) -> dict:
    # the positional strategy on every copy of each node
    return {u: tree.nodes[u].children[dag.nodes[origin[u]].children.index(strategy[origin[u]])]
            for u in tree._reachable if origin[u] in strategy}


def _is_a_losing_line(T, line, strategy, player) -> bool:
    steps = list(zip(line, line[1:]))
    return (line[0] == T.root
            and all(c in T.nodes[i].children for i, c in steps)
            and all(c == strategy[i] for i, c in steps if T.nodes[i].mover == player)
            and not T.nodes[line[-1]].children and T.nodes[line[-1]].winner != player)


def test_random_dags_solve_as_their_unfolded_trees():
    rng = random.Random(10)
    shared = refuted = 0
    for _ in range(150):
        T = random_dag(rng, rng.randint(4, 14))
        tree, origin = unfold(T)
        shared += len(T) > len(T._reachable)
        res, tree_res = zermelo_solve(T), zermelo_solve(tree)
        assert all(tree_res.labels[u] == res.labels[origin[u]] for u in tree._reachable)
        assert label_fixpoint_violation(T, res.labels) is None
        for player in ("I", "II"):
            random_moves = {i: rng.choice(T.nodes[i].children) for i in T._reachable
                            if T.nodes[i].mover == player}
            for strategy in (res.strategy(player), random_moves):
                ok, line = verify_strategy(T, strategy, player)
                assert ok == verify_strategy(tree, _on_tree(strategy, T, tree, origin), player)[0]
                assert ok == (line is None)
                if not ok:
                    refuted += 1
                    assert _is_a_losing_line(T, line, strategy, player), line
    assert shared > 100 and refuted > 100


def test_the_clock_three_game_stores_at_most_its_positions():
    # 2,273 distinct (clock, set of declarations) positions in the unfolded game
    T = truth_telling_game(FiniteStructure(v_stage(2)), corpus.atomic_game_pool(), 3)
    assert len(T) == 29_713 and len(T.nodes) <= 2_273
