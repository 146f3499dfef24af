"""Finite clopen games: ranking, back-propagation solving, strategy
verification, and the interrogator/truth-teller game over a finite
structure.

Player I moves first at the root of the truth-telling game and plays the
interrogator; player II is the truth-teller.  The interrogator's clock
value strictly descends, so the game is finite; the truth-teller loses as
soon as her declarations explicitly violate a Tarskian clause instance.
A game is stored as an acyclic graph of positions, in columns indexed by
position: its player, children and note; its game tree is the graph's
unfolding.
"""

from __future__ import annotations

import itertools
import random
import re
from collections.abc import Mapping
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import dag, sexpr
from . import etr as etr_mod
from .errors import BudgetError, ForcelabError, ParseError
from .formulas import And, AtomTr, Exists, Forall, Formula, Not, Or
from .hfset import HFSet, nat_encode
from .truth import FiniteStructure, _eval_atom, instances, valuation_key

GAME_BUDGET = 300_000

# The verdict on a composite that one vote makes good, and so names that
# vote as its witness: a true ∃ or ∨, a false ∀ or ∧.
_NAMES_A_WITNESS = {Exists: True, Or: True, Forall: False, And: False}

# The truth-telling game's terminal positions, after a violation and at
# clock 0, are the rows they end in, less the answer that reaches them.
_LIE = ("I", (), (("role", "violation"),))
_END = ("II", (), (("role", "clock-exhausted"),))


_NO_NOTE: Mapping = MappingProxyType({})  # the note of every node without one


class GameNode(NamedTuple):
    ident: int
    mover: str | None          # "I" | "II" | None at terminals
    children: tuple[int, ...]
    winner: str | None = None  # set at terminals
    note: Mapping = _NO_NOTE


_new_tuple = tuple.__new__


class _NodeView(Mapping):
    """A game's columns read as GameNodes, built on each read; read-only."""

    __slots__ = ("_least", "_player", "_children", "_notes")

    def __init__(self, player, children, notes: dict):
        # no id lies below `_least`: 0 for list columns, where a negative
        # index would wrap around, and the least id for dict columns
        self._least = 0 if children.__class__ is list else min(children, default=0)
        self._player, self._children, self._notes = player, children, notes

    def __getitem__(self, i: int) -> GameNode:
        # a key that does not compare with the ids, or does not index a
        # list, is absent, as it is from a dict
        try:
            if i < self._least:
                raise KeyError(i)
            children = self._children[i]
        except (IndexError, TypeError):
            raise KeyError(i) from None
        notes = self._notes
        note = notes.get(i) if notes else None
        note = dict(note) if note else _NO_NOTE
        # tuple.__new__ skips the named tuple's Python-level __new__
        if children:
            return _new_tuple(GameNode, (i, self._player[i], children, None, note))
        return _new_tuple(GameNode, (i, None, children, self._player[i], note))

    def __iter__(self) -> Iterator[int]:
        children = self._children
        return iter(range(len(children)) if children.__class__ is list else children)

    def __len__(self) -> int:
        return len(self._children)


class GameTree:
    """A finite game stored as columns indexed by node id: `_player` holds
    each node's mover if it has children and its winner if not, `_children`
    its children tuple, and `_notes` the note of each node that has one, as
    a tuple of (key, value) pairs.  The columns are lists when the ids are
    0..n-1 and dicts otherwise; both are read as `col[i]`.  `nodes` is the
    GameNode view of them.

    `GameTree(rows, root)` takes a mapping from each node id to its row
    (mover, children, winner, note), with note a dict or None; a terminal's
    mover and an inner node's winner are not kept.  The nodes form an
    acyclic graph: a node may be the child of several others, and the game
    tree is its unfolding, one copy of a shared node per line into it.
    `_reachable` lists each distinct node below the root once, every child
    before its parents; `len` counts the nodes of the unfolded tree."""

    def __init__(self, rows: Mapping[int, tuple], root: int):
        player = {i: mover if children else winner
                  for i, (mover, children, winner, _) in rows.items()}
        kids = {i: row[1] for i, row in rows.items()}
        undefined = sorted({root, *(c for children in kids.values() for c in children)}
                           - kids.keys())
        if undefined:
            raise ForcelabError(f"node {undefined[0]} is used but never defined")
        if all(i == k for k, i in enumerate(kids)):
            player, kids = list(player.values()), list(kids.values())
        notes = {i: tuple(row[3].items()) for i, row in rows.items() if row[3]}
        self._store(player, kids, notes, root)

    @classmethod
    def _of_columns(cls, player: list, children: list, notes: dict, root: int) -> GameTree:
        """The game a builder wrote as columns, taken as they are."""
        T = cls.__new__(cls)
        T._store(player, children, notes, root)
        return T

    def _store(self, player, children, notes: dict, root: int):
        self._player, self._children, self._notes = player, children, notes
        self.nodes = _NodeView(player, children, notes)
        self.root = root
        self._validate()

    def _validate(self):
        """Check each distinct node below the root once, list it after its
        children, and count the unfolded tree.  A tree takes one pre-order
        walk, whose reverse lists children first; at the first node reached
        twice the walk stops, and the graph takes one post-order walk."""
        player, kids = self._player, self._children
        seen: set[int] = set()
        order: list[int] = []
        stack = [self.root]
        while stack:
            i = stack.pop()
            if i in seen:
                self._walk_graph()
                return
            seen.add(i)
            order.append(i)
            children = kids[i]
            if player[i] not in ("I", "II"):
                raise ForcelabError(_unplayed(i, children))
            stack.extend(children)
        order.reverse()
        self._reachable = tuple(order)
        self._size = len(order)

    def _walk_graph(self):
        """One post-order walk, children in order, that adds up each node's
        unfolded size; a child still on the open path is a cycle.  The stack
        holds node ids to enter and, as 1-tuples, nodes to finish."""
        player, kids = self._player, self._children
        size: dict[int, int] = {}  # each finished node's unfolded size
        open_path: set[int] = set()
        stack: list = [self.root]
        while stack:
            i = stack.pop()
            if i.__class__ is tuple:
                i, = i
                children = kids[i]
                if not open_path.isdisjoint(children):
                    raise ForcelabError(f"game graph has a cycle through node {i}")
                open_path.remove(i)
                size[i] = 1 + sum(map(size.__getitem__, children))
            elif i not in size and i not in open_path:
                children = kids[i]
                if player[i] not in ("I", "II"):
                    raise ForcelabError(_unplayed(i, children))
                open_path.add(i)
                stack.append((i,))
                stack.extend(reversed(children))
        self._reachable = tuple(size)
        self._size = size[self.root]

    def __len__(self) -> int:
        return self._size

    def to_sexp(self) -> str:
        forms = ["game"]
        player, kids = self._player, self._children
        for i in sorted(self._reachable):
            children = kids[i]
            if children:
                forms.append(["node", str(i), ["mover", player[i]],
                              ["children", *(str(c) for c in children)]])
            else:
                forms.append(["terminal", str(i), ["winner", player[i]]])
        forms.append(["root", str(self.root)])
        return sexpr.show(forms)


def _unplayed(i: int, children: tuple) -> str:
    return f"internal node {i} needs a mover" if children else f"terminal node {i} needs a winner"


def _game_int(token) -> int:
    if isinstance(token, str) and re.fullmatch(r"-?[0-9]+", token):
        return int(token)
    raise ParseError(f"expected a node number, got {token!r}")


_GAME_PARTS = {"node": ("mover", "children"), "terminal": ("winner",)}


def _game_parts(clause: list) -> dict[str, list]:
    parts = {}
    for part in clause[2:]:
        if not isinstance(part, list) or not part or not isinstance(part[0], str):
            raise ParseError(f"bad part {part!r} in ({clause[0]} ...)")
        key = part[0]
        if key not in _GAME_PARTS[clause[0]]:
            raise ParseError(f"unknown part ({key} ...) in ({clause[0]} ...)")
        if key in parts:
            raise ParseError(f"repeated part ({key} ...) in ({clause[0]} ...)")
        if key != "children" and len(part) != 2:
            raise ParseError(f"({key} <player>) takes one player")
        parts[key] = part[1:]
    return parts


def parse_game(text: str) -> GameTree:
    form = sexpr.read(text)
    if not isinstance(form, list) or not form or form[0] != "game":
        raise ParseError("expected (game ...)")
    rows: dict[int, tuple] = {}
    root = None
    for clause in form[1:]:
        if not isinstance(clause, list) or not clause:
            raise ParseError("bad game clause")
        head = clause[0]
        if head not in ("node", "terminal", "root"):
            raise ParseError(f"unknown game clause {head!r}")
        if len(clause) < 2:
            raise ParseError(f"({head} ...) needs a node number")
        ident = _game_int(clause[1])
        if head == "root":
            if len(clause) != 2 or root is not None:
                raise ParseError("a game has one (root <node>) clause with one node number")
            root = ident
            continue
        if ident in rows:
            raise ParseError(f"node {ident} is defined twice")
        parts = _game_parts(clause)
        if head == "node":
            children = tuple(_game_int(c) for c in parts.get("children", ()))
            rows[ident] = (parts.get("mover", [None])[0], children, None, None)
        else:
            rows[ident] = (None, (), parts.get("winner", [None])[0], None)
    if root is None:
        raise ParseError("game needs a (root ...) clause")
    try:
        return GameTree(rows, root)
    except ForcelabError as e:
        raise ParseError(str(e)) from None


def continuous_rank(T: GameTree) -> dict[int, int]:
    """Terminals get 0; every parent gets one more than its highest child."""
    rank: dict[int, int] = {}
    kids = T._children
    for i in T._reachable:
        children = kids[i]
        rank[i] = 1 + max(rank[c] for c in children) if children else 0
    return rank


class ZermeloResult(NamedTuple):
    labels: dict[int, str]
    strategy_I: dict[int, int]
    strategy_II: dict[int, int]

    def strategy(self, player: str) -> dict[int, int]:
        return self.strategy_I if player == "I" else self.strategy_II


def zermelo_solve(T: GameTree) -> ZermeloResult:
    """Label every node with the player who can force a win from it, by
    back-propagation from the terminals; the winner's strategy stays on the
    winner's labels."""
    labels: dict[int, str] = {}
    strat = {"I": {}, "II": {}}
    player, kids = T._player, T._children
    for i in T._reachable:
        who, children = player[i], kids[i]  # the mover, or a terminal's winner
        if not children:
            labels[i] = who
            continue
        mine = [c for c in children if labels[c] == who]
        labels[i] = who if mine else _other(who)
        strat[who][i] = mine[0] if mine else children[0]
    return ZermeloResult(labels, strat["I"], strat["II"])


def _other(player: str) -> str:
    return "II" if player == "I" else "I"


def label_fixpoint_violation(T: GameTree, labels: dict[int, str]) -> int | None:
    """A node whose label is not its winner (at a terminal) or not what its
    children's labels give its mover, or None when the labels are a fixpoint."""
    player, kids = T._player, T._children
    for i in sorted(T._reachable):
        want, children = player[i], kids[i]  # the mover, or a terminal's winner
        if children and not any(labels[c] == want for c in children):
            want = _other(want)
        if labels[i] != want:
            return i
    return None


def verify_strategy(T: GameTree, strategy: dict[int, int], player: str
                    ) -> tuple[bool, list[int] | None]:
    """Play the strategy against every opposing move; the verdict is whether
    every terminal it reaches is a win for the player.  Each reached node is
    checked once, and a failure comes with a line from the root to the node
    where the strategy loses or names no move."""
    players, kids = T._player, T._children
    parent: dict[int, int | None] = {T.root: None}
    stack = [T.root]
    while stack:
        i = stack.pop()
        who, children = players[i], kids[i]  # the mover, or a terminal's winner
        if not children:
            if who != player:
                return False, _line(parent, i)
            continue
        if who == player:
            choice = strategy.get(i)
            if choice is None or choice not in children:
                return False, _line(parent, i)
            children = (choice,)
        for c in children:
            if c not in parent:
                parent[c] = i
                stack.append(c)
    return True, None


def _line(parent: dict[int, int | None], i: int) -> list[int]:
    line = []
    while i is not None:
        line.append(i)
        i = parent[i]
    line.reverse()
    return line


def zermelo_recursion_instance(T: GameTree):
    """The labeling as a staged recursion on node rank: the slice holds the
    nodes labeled for player I."""
    rank = continuous_rank(T)
    codec = {nat_encode(i): i for i in sorted(T._reachable)}
    enc_of = {i: e for e, i in codec.items()}
    player, kids = T._player, T._children

    def step(x: HFSet, alpha: int, view) -> bool:
        i = codec[x]
        children = kids[i]
        if not children:
            return player[i] == "I"  # the winner
        child_is_I = [view(rank[c], enc_of[c]) for c in children]
        return any(child_is_I) if player[i] == "I" else all(child_is_I)

    inst = etr_mod.staged_instance(codec, max(rank.values()) + 1, lambda x: (rank[codec[x]],),
                                   step, "zermelo-labels")
    return inst, codec


def random_game_tree(rng: random.Random, max_nodes: int = 200) -> GameTree:
    """A random finite game tree within the node budget, its nodes numbered
    0..n-1 in the order they are made.

    The nodes are taken from a stack, the root first and a node's children
    last to first, and each one draws from `rng` in this order, so that a
    seed fixes its tree: `rng.random()`, unless the tree already has
    `max_nodes` nodes or the node's depth exceeds 8 (the root's is 0), which
    make it a terminal without that draw; a terminal (a draw below 0.25, or
    either cap) then draws `rng.choice(["I", "II"])`, its winner, and an
    inner node draws `rng.randint(1, 3)`, its width, cut to the nodes left,
    and then `rng.choice(["I", "II"])`, its mover."""
    draw, randint, choice = rng.random, rng.randint, rng.choice
    sides = ["I", "II"]
    player: list[str | None] = [None]
    kids: list[tuple[int, ...]] = [()]
    total = 1  # len(kids)
    frontier = [(0, 0)]
    pop, push = frontier.pop, frontier.append
    while frontier:
        ident, depth = pop()
        if total >= max_nodes or depth > 8 or draw() < 0.25:
            player[ident] = choice(sides)
            continue
        width = randint(1, 3)
        if width > max_nodes - total:
            width = max_nodes - total
        children = kids[ident] = tuple(range(total, total + width))
        total += width
        player += [None] * width
        kids += [()] * width
        player[ident] = choice(sides)
        depth += 1
        for k in children:
            push((k, depth))
    return GameTree._of_columns(player, kids, {}, 0)


# ---------------------------------------------------------------------------
# The truth-telling game.

def truth_telling_game(M: FiniteStructure, pool: Sequence[Formula], clock: int) -> GameTree:
    """Build the finite interrogation game over the structure and pool.

    Interrogator moves pick a pool instance and a strictly smaller clock
    value; the truth-teller answers with a verdict.  A verdict that one vote
    makes good (a true ∃ or ∨, a false ∀ or ∧) names a witness, a vote she
    declares the same, so that over a pool closed under subformulas a lie
    is caught within one challenge per level of the formula.  Running out of clock loses for the interrogator;
    an explicit Tarskian violation loses for the truth-teller: a wrong
    atomic verdict, an inconsistent connective, or a fully-instantiated
    quantifier mismatch.

    Every history an interrogator node holds is free of violations, so a
    declaration is judged on the clauses it touches only: those of the
    instances it adds and of the declared instances they vote in.  Atoms are
    judged pointwise off the sets, not by `eval_formula`, which the verdicts
    are checked against.

    The game is one `dag.fold` over hashable positions: the interrogator's
    ("ask", clock, history), the truth-teller's answer to challenge i at
    ("tell", i, clock, history), its history cut at clock 0 to what the
    judge reads, and the terminals after a violation and at clock 0.  An
    "ask" folds to the row after an answer, less the answer, so every
    answer that reaches it shares its children; a "tell" folds to its
    row's id.  Equal rows share one id.  `len` of the result counts the
    nodes of the unfolded game tree; GAME_BUDGET bounds the distinct rows.
    """
    if clock < 0:
        raise ForcelabError(f"the clock must be a natural number, not {clock}")

    def votes_of(phi: Formula, v: dict) -> list[tuple]:
        # the instances whose verdicts decide a composite's: a quantifier's
        # body under each tuple of values for its variables, or the subformulas
        if isinstance(phi, (Forall, Exists)):
            return [(phi.body, valuation_key(phi.body, {**v, **dict(zip(phi.vars, values))}))
                    for values in itertools.product(M.domain, repeat=len(phi.vars))]
        if isinstance(phi, Not):
            return [(phi.sub, valuation_key(phi.sub, v))]
        return [(s, valuation_key(s, v)) for s in phi.subs]

    # (challenge, witnesses, answers).  An answer is a verdict and the
    # witness it names or None: a verdict one vote makes good names each
    # vote in turn.
    challenges = []
    for phi in pool:
        named = _NAMES_A_WITNESS.get(type(phi))
        for v in instances(M, phi):
            witnesses = tuple(votes_of(phi, v)) if named is not None else ()
            answers = [(verdict, witness) for verdict in (True, False)
                       for witness in (witnesses if verdict is named else (None,))]
            challenges.append(((phi, valuation_key(phi, v)), witnesses, answers))

    def clause_of(key: tuple) -> tuple:
        # (truth, universal, flip, votes).  An atom has its truth (None for a
        # truth atom, which no clause constrains) and no votes.  ∧ and ∀ are
        # universal, ∨ and ∃ are not, and ¬ψ declared w is judged as the
        # one-vote conjunction ψ declared ¬w.
        phi, vkey = key
        v = dict(vkey)
        if phi.rank == 0:
            return None if isinstance(phi, AtomTr) else _eval_atom(M, phi, v), None, False, None
        votes = tuple(dict.fromkeys(votes_of(phi, v)))  # a body may ignore a bound variable
        return None, isinstance(phi, (Not, And, Forall)), isinstance(phi, Not), votes

    # The clause of each instance a declaration can add, a challenge or a
    # witness, and the instances whose clauses vote on each instance.
    clauses = {key: clause_of(key) for challenge, witnesses, _ in challenges
               for key in (challenge, *witnesses)}
    voters: dict[tuple, list[tuple]] = {}
    for key, (_, _, _, votes) in clauses.items():
        for vote in votes or ():
            voters.setdefault(vote, []).append(key)

    def judged(keys: tuple) -> frozenset:
        # the declarations the judge reads when `keys` are declared: those of
        # the keys, their votes, their voters and their voters' votes
        near = set(keys)
        for key in keys:
            near.update(clauses[key][3] or ())
            for voter in voters.get(key, ()):
                near.add(voter)
                near.update(clauses[voter][3])
        return frozenset((key, verdict) for key in near for verdict in (True, False))

    reads = [judged((challenge, *witnesses)) for challenge, witnesses, _ in challenges]

    def broken(clause: tuple, verdict: bool, history: dict) -> bool:
        truth, universal, flip, votes = clause
        if votes is None:
            return truth is not None and verdict != truth
        verdict ^= flip
        declared = [history.get(vote) for vote in votes]
        if verdict == universal and (not universal) in declared:
            return True  # one declared vote already refutes the verdict
        return None not in declared and (all(declared) if universal else any(declared)) != verdict

    def violates(history: dict, added: list[tuple]) -> bool:
        for key in added:
            if broken(clauses[key], history[key], history):
                return True
            for voter in voters.get(key, ()):
                verdict = history.get(voter)
                if verdict is not None and broken(clauses[voter], verdict, history):
                    return True
        return False

    def reply(history: frozenset, challenge: tuple, verdict: bool, witness, clock_next: int):
        # the position after the truth-teller declares `verdict` on the
        # challenge and on the witness it names, if any
        declared = dict(history)
        added = []
        for key in (challenge, witness) if witness else (challenge,):
            old = declared.get(key)
            if old is None:
                added.append(key)
                declared[key] = verdict
            elif old != verdict:
                return _LIE
        if violates(declared, added):
            return _LIE
        if not clock_next:
            return _END
        return "ask", clock_next, frozenset(declared.items()) if added else history

    def moves(position: tuple) -> list:
        # An interrogator's position leads to the challenges she may make,
        # a truth-teller's to what each of her answers leads to.
        if position[0] == "ask":
            _, clock_now, history = position
            return [("tell", i, smaller, history if smaller else history & reads[i])
                    for i in range(len(challenges)) for smaller in range(clock_now)]
        if position[0] == "tell":
            _, i, clock_next, history = position
            challenge, _, answers = challenges[i]
            return [reply(history, challenge, verdict, witness, clock_next)
                    for verdict, witness in answers]
        return ()

    asked = [(("role", "interrogator"), ("clock", c)) for c in range(clock + 1)]  # shared notes
    ids: dict[tuple, int] = {}  # each row's id, in id order

    def row(who: str, kids: tuple, note: tuple) -> int:
        # `who` is the node's mover, or its winner when it has no children;
        # `note` lists its note as (key, value) pairs.  Equal rows head equal
        # subgames, so they get one id.
        content = (who, kids, note)
        ident = ids.get(content)
        if ident is None:
            if len(ids) >= GAME_BUDGET:
                raise BudgetError(f"truth-telling game exceeds {GAME_BUDGET} nodes "
                                  f"(pool {len(challenges)} instances, clock {clock})")
            ident = ids[content] = len(ids)
        return ident

    def combine(position: tuple, results: tuple):
        # An interrogator's position, or a terminal, is the row after an
        # answer less the answer; a truth-teller's is her row's id.
        if position[0] == "ask":
            return "I", results, asked[position[1]]
        if position[0] == "tell":
            _, i, clock_next, _ = position
            challenge, _, answers = challenges[i]
            kids = tuple(row(who, after, (*note, ("verdict", verdict), ("challenge", challenge)))
                         for (who, after, note), (verdict, _) in zip(results, answers))
            return row("II", kids, (("role", "truth-teller"), ("challenge", challenge),
                                    ("clock", clock_next)))
        return position  # a terminal

    root = row(*dag.fold(("ask", clock, frozenset()) if clock else _END, moves, combine))
    player, kids_of, notes = map(list, zip(*ids))
    return GameTree._of_columns(player, kids_of, dict(enumerate(notes)), root)


def extract_verdicts(T: GameTree, strategy_II: dict[int, int],
                     pool_instances: Iterable[tuple[Formula, dict]]) -> dict:
    """Read off the verdict the strategy gives to each instance when it is
    asked first, with the most generous remaining clock."""
    notes = T._notes
    best: dict = {}
    for child in T._children[T.root]:
        teller = dict(notes.get(child, ()))
        challenge = teller.get("challenge")
        clock_next = teller.get("clock", -1)
        if challenge is None:
            continue
        seen = best.get(challenge)
        if seen is None or clock_next > seen[0]:
            reply = strategy_II.get(child)
            if reply is None:
                continue
            verdict = dict(notes.get(reply, ())).get("verdict")
            best[challenge] = (clock_next, verdict)
    out = {}
    for phi, v in pool_instances:
        key = (phi, valuation_key(phi, v))
        if key in best:
            out[key] = best[key][1]
    return out
