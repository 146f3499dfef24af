"""Truth predicates over finite structures.

Plain and staged (iterated) Tarskian truth, the clock-collapse translation
that turns first-order statements about a stage into quantifier-free
infinitary statements in the forcing language of the augmented collapse,
the truth predicate derived from that forcing relation, and the stage
translation that compiles iterated-truth atoms away.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence

from . import etr as etr_mod
from . import forcing as forcing_mod  # forcing imports this module back: use it in functions only
from .errors import BudgetError, ClosureError, ForcelabError
from .formulas import (And, AtomEq, AtomIn, AtomInClass, AtomInG, AtomTr,
                       Exists, Forall, Formula, GroundConst, Not, Or, Term, Var,
                       _encode_str, and_, atom_eq, atom_in, atom_in_class,
                       canonical_pool, decode_formula, decode_valuation,
                       encode_formula, encode_valuation, exists, fold, forall,
                       formula_to_sexp, iff, map_formula, name_const, not_, or_,
                       pair_term, rename_free, substitute, theta_formula, var,
                       variables)
from .hfset import HFSet, hf_pair, nat_decode, nat_encode, transitive_closure
from .names import PName, a_dot, check_name, eps_dot, n_dot
from .poset import CollapseNotion, build_collapse

EVAL_BUDGET = 5_000_000
# The stage comparison structure holds the coded valuations of formulas with
# at most this many free variables; each one enlarges the quantifier domain.
CODED_VALUATION_CAP = 1


class FiniteStructure:
    """A finite ∈-structure with named unary predicates.

    The membership relation is the real one on the HF sets of the domain.
    """

    def __init__(self, domain: Iterable[HFSet],
                 predicates: dict[str, Iterable[HFSet]] | None = None):
        self.domain = tuple(sorted(set(domain), key=lambda x: x.key))
        self._index = {x: i for i, x in enumerate(self.domain)}
        n = len(self.domain)
        self._full = (1 << n) - 1
        self._fulls = (1, self._full, (1 << n * n) - 1)  # by number of axes
        self.predicates = {k: frozenset(v) for k, v in (predicates or {}).items()}
        for ident, pred in self.predicates.items():
            if not pred.issubset(self._index):
                raise ForcelabError(f"predicate {ident!r} is not a subset of the domain")
        self._rows: dict = {}
        self._cache: dict = {}

    def __contains__(self, x: HFSet) -> bool:
        return x in self._index

    def __repr__(self) -> str:
        return f"FiniteStructure(|domain|={len(self.domain)}, predicates={sorted(self.predicates)})"


def valuation_key(phi: Formula, v: dict[str, HFSet]) -> tuple:
    """The hashable restriction of a valuation to the formula's free
    variables: (variable, value) pairs in variable order."""
    return tuple([(x, v[x]) for x in phi.free_sorted])


def _term_value(t: Term, M: FiniteStructure, v: dict[str, HFSet]) -> HFSet:
    if isinstance(t, Var):
        try:
            return v[t.name]
        except KeyError:
            raise ForcelabError(f"valuation misses variable {t.name!r}") from None
    if isinstance(t, GroundConst):
        if t.value not in M:
            raise ForcelabError(f"constant {t.value!r} lies outside the domain")
        return t.value
    raise ForcelabError("forcing-language terms cannot be evaluated over a structure")


def _eval_atom(M: FiniteStructure, phi: Formula, v) -> bool:
    """One atom under a valuation, read off the sets themselves."""
    if isinstance(phi, AtomIn):
        return _term_value(phi.left, M, v) in _term_value(phi.right, M, v)
    if isinstance(phi, AtomEq):
        return _term_value(phi.left, M, v) is _term_value(phi.right, M, v)
    if isinstance(phi, AtomInClass):
        try:
            pred = M.predicates[phi.ident]
        except KeyError:
            raise ForcelabError(f"structure has no predicate {phi.ident!r}") from None
        return _term_value(phi.term, M, v) in pred
    _refuse_atom(phi)


def _refuse_atom(phi: Formula):
    if isinstance(phi, AtomTr):
        raise ForcelabError("iterated-truth atoms are judged by an iterated truth predicate")
    if isinstance(phi, AtomInG):
        raise ForcelabError("generic-filter atoms are forcing-language only")
    raise ForcelabError(f"unknown atomic node {type(phi).__name__}")


# ---------------------------------------------------------------------------
# Tarskian evaluation, one domain at a time.  A node's value is taken along
# a tuple of zero, one or two of its free variables, the axes, under a
# valuation of the others, as an int of |domain|^len(axes) bits.  With no
# axis it is 1 or 0.  Along one it is a mask: bit i says whether the node
# holds with the axis at domain[i].  Along two it is a grid of |domain|
# blocks: block i is the mask along the inner axis with the outer one at
# domain[i].  The inner axis is the variable that the nearest quantifier
# above binds, and the outer one that quantifier's own axis, so ∧, ∨ and ¬
# are bit operations and a quantifier is one test of its body against 0 or
# the full mask per point of its axes.  A node that lacks some of its axes
# is taken along the ones it has and spread over the rest.  Atoms read rows
# built on first use, for any set (valuations may leave the domain), and
# grids whose blocks are those rows.  Values are memoized per node, axes and
# values of the node's other free variables, except the grids of ∧ and ∨.
# Such a grid is asked for by the nearest ¬ or quantifier above it, whose
# own value is kept, so it is asked for again only where a shared
# subformula sits under two of them; keeping it would cost |domain|² bits.

def eval_formula(M: FiniteStructure, phi: Formula, valuation: dict[str, HFSet] | None = None) -> bool:
    """Tarskian satisfaction, with quantifier blocks ranging over the domain."""
    v = valuation or {}
    missing = phi.free - set(v)
    if missing:
        raise ForcelabError(f"free variables {sorted(missing)} not covered by the valuation")
    return _value(M, phi, (), v) == 1


def _value(M: FiniteStructure, phi: Formula, axes: tuple[str, ...], v) -> int:
    """phi's value along axes (v holds the other free variables, not the
    axes): 1 or 0, a mask or a grid.  Memoized per (node, axes, values),
    except the grid of an ∧ or ∨, which only the nearest ¬ or quantifier
    above it reads."""
    if not phi.free.issuperset(axes):
        return _spread(M, phi, axes, v)
    if phi.rank == 0:
        return _atom(M, phi, axes, v)
    key = (phi, axes, *map(v.get, phi.free_sorted))
    out = M._cache.get(key)
    if out is not None:
        return out
    full = M._fulls[len(axes)]
    if isinstance(phi, Not):
        out = full ^ _value(M, phi.sub, axes, v)
    elif isinstance(phi, (And, Or)):
        flip = 0 if isinstance(phi, And) else full  # ∨ is ∧ between complements
        out = full
        for s in phi.subs:
            out &= flip ^ _value(M, s, axes, v)
            if not out:
                break
        out ^= flip
    elif isinstance(phi, (Forall, Exists)):
        out = _quantify(M, phi, axes, v)
    else:
        raise ForcelabError(f"unknown formula node {type(phi).__name__}")
    if len(axes) < 2 or not isinstance(phi, (And, Or)):
        M._cache[key] = out
    return out


def _spread(M: FiniteStructure, phi: Formula, axes: tuple[str, ...], v) -> int:
    """phi's value along axes it does not all mention: its value along the
    ones it has, copied along the others."""
    kept = tuple(x for x in axes if x in phi.free)
    out = _value(M, phi, kept, v)
    if not kept:
        return out * M._fulls[len(axes)]
    if kept[0] == axes[-1]:  # the mask along the inner axis in every block
        return out * _row_blocks(M, "starts")
    n = len(M.domain)  # each bit of the mask along the outer axis fills its block
    return int(f"{out:0{n}b}".translate({48: "0" * n, 49: "1" * n}), 2)


def _quantify(M: FiniteStructure, phi: Formula, axes: tuple[str, ...], v) -> int:
    """A quantifier node.  Under two axes it takes one mask along the inner
    axis per point of the outer one.  Under fewer, the last bound variable
    the body mentions is appended to the axes and the loop runs over the
    others: with no axis the body is a mask, tested against 0 or the full
    mask, and with one a grid, reduced block by block."""
    if len(axes) == 2:
        a, b = axes
        ext, out, n = dict(v), 0, len(M.domain)
        for i, x in enumerate(M.domain):
            ext[a] = x
            out |= _value(M, phi, (b,), ext) << i * n
        return out
    want_all, body = isinstance(phi, Forall), phi.body
    if phi.vars and not M.domain:
        return want_all
    bound = [x for x in dict.fromkeys(phi.vars) if x in body.free]
    if not bound:
        return _value(M, body, axes, v)
    inner, rest = bound[-1], bound[:-1]
    ext = dict(v)
    ext.pop(inner, None)
    full = M._fulls[len(axes)]
    # a point is pending while every block seen so far is full (∀) or 0 (∃)
    fill, pending = M._full if want_all else 0, full
    for values in itertools.product(M.domain, repeat=len(rest)):
        ext.update(zip(rest, values))
        body_value = _value(M, body, (*axes, inner), ext)
        pending &= _blocks(M, body_value, fill) if axes else body_value == fill
        if not pending:
            break
    return pending if want_all else full ^ pending


def _blocks(M: FiniteStructure, grid: int, fill: int) -> int:
    """The mask of the points i of the outer axis whose block equals fill.
    Adding the full mask to every other block of grid ^ fill carries out of
    exactly the blocks that are not 0, into bit 0 of the next block, and a
    stride over the binary digits reads those bits off.  (A loop over the
    blocks costs |domain|³ bit operations, this |domain|².)"""
    n = len(M.domain)
    diff, carries = grid ^ (M._fulls[2] if fill else 0), 0
    for half in (_row_blocks(M, "even"), _row_blocks(M, "odd")):
        carries |= ((diff & half) + half) & ~half
    flags = carries >> n  # bit i·n for each block i that differs from fill
    if flags == _row_blocks(M, "starts"):
        return 0
    return M._full ^ int(f"{flags:0{n * n}b}"[n - 1::n], 2)


def _row_blocks(M: FiniteStructure, kind: str) -> int:
    """The grid whose block i is _row(M, kind, domain[i]); for kind
    "starts" it is 1 and for "even" and "odd" the full mask at even or odd
    i, else 0.  Kept in M._cache with the memoized values, so that
    clearing it drops these too."""
    key = ("grid", kind)
    out = M._cache.get(key)
    if out is None:
        n = len(M.domain)
        if kind == "starts":
            out = M._fulls[2] // M._full
        elif kind in ("even", "odd"):
            out = sum(M._full << i * n for i in range(kind == "odd", n, 2))
        else:
            out = sum(_row(M, kind, x) << i * n for i, x in enumerate(M.domain))
        M._cache[key] = out
    return out


def _atom(M: FiniteStructure, phi: Formula, axes: tuple[str, ...], v) -> int:
    """An atom that mentions each of the axes: its grid between two, its
    row along one, or its bit at the fixed arguments.  Under two axes those
    are its arguments, unless it refuses."""
    def arg(t: Term) -> HFSet | None:
        if isinstance(t, Var):
            return None if t.name in axes else v[t.name]
        if isinstance(t, GroundConst) and t.value in M:
            return t.value
        return _term_value(t, M, v)  # raises the term's error

    if isinstance(phi, AtomInClass):
        row, x = _row(M, "class", phi.ident), arg(phi.term)
        return row if x is None else row >> M._index[x] & 1 if x in M else 0
    if not isinstance(phi, (AtomIn, AtomEq)):
        _refuse_atom(phi)
    # row kinds for the left argument on the axis, and for the right one
    left, right = ("in", "ni") if isinstance(phi, AtomIn) else ("eq", "eq")
    x, y = arg(phi.left), arg(phi.right)
    if x is None:
        if len(axes) == 2:  # with axes (a, b), b ∈ a reads a's members, a ∈ b its holders
            return _row_blocks(M, left if phi.left.name == axes[1] else right)
        if y is None:
            return sum((_row(M, left, a) >> i & 1) << i for i, a in enumerate(M.domain))
        return _row(M, left, y)
    if y is None:
        return _row(M, right, x)
    if x in M:
        return _row(M, left, y) >> M._index[x] & 1
    if y in M:
        return _row(M, right, x) >> M._index[y] & 1
    return int(x in y.children if left == "in" else x is y)


def _row(M: FiniteStructure, kind: str, x) -> int:
    """A mask over the domain, built on first use: for "in" the members of
    x, for "ni" the sets that contain x, for "eq" x itself and for "class"
    the members of the predicate named x."""
    key = (kind, x)
    row = M._rows.get(key)
    if row is None:
        if kind == "ni":
            row = sum(1 << i for i, y in enumerate(M.domain) if x in y.children)
        else:
            if kind == "class" and x not in M.predicates:
                raise ForcelabError(f"structure has no predicate {x!r}")
            bits = x.children if kind == "in" else (x,) if kind == "eq" else M.predicates[x]
            row = sum(1 << M._index[c] for c in bits if c in M)
        M._rows[key] = row
    return row


def _decode_tr_args(s: HFSet, c: HFSet, z: HFSet):
    """Decode (stage, formula, valuation) or None; junk arguments make the atom false."""
    stage = nat_decode(s)
    if stage is None:
        return None
    phi = decode_formula(c)
    if phi is None:
        return None
    val = decode_valuation(z)
    if val is None:
        return None
    return stage, phi, val


# ---------------------------------------------------------------------------
# Plain truth predicates.

def instances(M: FiniteStructure, phi: Formula):
    """Every valuation of the formula's free variables over the domain."""
    return _valuations(M.domain, phi)


def _valuations(domain: Sequence[HFSet], phi: Formula):
    fv = phi.free_sorted
    if len(domain) ** len(fv) > EVAL_BUDGET:
        raise BudgetError(f"{len(domain)}^{len(fv)} valuations for one formula")
    for values in itertools.product(domain, repeat=len(fv)):
        yield dict(zip(fv, values))


class TruthPredicate(NamedTuple):
    structure: FiniteStructure
    pool: tuple[Formula, ...]
    pairs: frozenset

    def holds(self, phi: Formula, valuation: dict[str, HFSet] | None = None) -> bool:
        """Whether (phi, the valuation) is a true pair.  A query that is not
        one is refused as `ForcingTruth.holds` refuses it, or is false."""
        v = valuation or {}
        try:
            if (phi, valuation_key(phi, v)) in self.pairs:
                return True
        except KeyError:
            pass
        _refuse_query(self.pool, phi, v, self.structure)
        return False


def _refuse_query(pool, phi: Formula, v: dict[str, HFSet], domain):
    """Refuse a query about a formula outside the pool, one whose valuation
    misses a free variable, or one with a value outside the domain, in that
    order."""
    if phi not in pool:
        raise ForcelabError("formula outside the declared pool")
    if phi.free - set(v):
        raise ForcelabError("valuation must cover the free variables")
    if not all(v[x] in domain for x in phi.free):
        raise ForcelabError("valuation values must lie in the collapsed stage")


def _check_pool_closed(pool: Sequence[Formula]):
    members = set(pool)
    missing = {c for phi in members for c in phi.children()} - members
    if missing:
        raise ClosureError(
            "pool is not subformula-closed; missing e.g. "
            + formula_to_sexp(canonical_pool(missing)[0]))


def tarski_truth(M: FiniteStructure, pool: Sequence[Formula]) -> TruthPredicate:
    """The unique truth predicate on a subformula-closed pool.

    Computed as a staged recursion on formula rank and cross-checked
    against direct evaluation a table at a time: each pool formula's value
    along its last two free variables (`_value`), one mask or grid per
    valuation of the others, is compared bit by bit with the staged pairs,
    valuations in `instances` order.
    """
    _check_pool_closed(pool)
    pool = canonical_pool(pool)
    inst, codec = tarski_truth_instance(M, pool)
    sol = etr_mod.etr_solve(inst)
    pairs = set()
    for slice_ in sol.slices:
        for enc in slice_:
            phi, v = codec[enc]
            pairs.add((phi, valuation_key(phi, v)))
    for phi in pool:
        fv = phi.free_sorted
        rest, axes = fv[:-2], fv[-2:]
        for values in itertools.product(M.domain, repeat=len(rest)):
            table = _value(M, phi, axes, dict(zip(rest, values)))
            for k, point in enumerate(itertools.product(M.domain, repeat=len(axes))):
                staged = (phi, tuple(zip(fv, (*values, *point)))) in pairs
                if staged != (table >> k & 1 == 1):
                    raise ForcelabError(
                        f"staged truth disagrees with direct evaluation at {formula_to_sexp(phi)}")
    return TruthPredicate(M, pool, frozenset(pairs))


def tarski_truth_instance(M: FiniteStructure, pool: Sequence[Formula]):
    """The truth predicate as a recursion instance staged by parse-tree rank:
    the single-stage case of the iterated instance, at which every truth
    atom is false."""
    inst, codec, _ = _staged_truth_instance(M, 1, pool, "tarski-truth")
    return inst, codec


# ---------------------------------------------------------------------------
# Iterated truth predicates.

class IteratedTruthPredicate:
    """Staged truth: stage β judges truth-atoms about stages α < β only.

    Queries are computed on demand by the defining recursion (well-founded
    on stage, then parse-tree rank) and memoized.
    """

    def __init__(self, M: FiniteStructure, beta_max: int, pool: Sequence[Formula]):
        _check_pool_closed(pool)
        for phi in pool:
            if "ground" in phi.const_kinds or "name" in phi.const_kinds:
                raise ForcelabError("iterated-truth pools are constant-free")
        self.structure = M
        self.beta_max = beta_max
        self.pool = canonical_pool(pool)
        self._pool_set = frozenset(self.pool)
        self._memo: dict = {}

    def holds(self, beta: int, phi: Formula, valuation: dict[str, HFSet] | None = None) -> bool:
        if not 0 <= beta < self.beta_max:
            raise ForcelabError(f"stage {beta} outside 0..{self.beta_max - 1}")
        v = valuation or {}
        if phi.free - set(v):
            raise ForcelabError("valuation must cover the free variables")
        return self._query(beta, phi, v)

    def _query(self, beta: int, phi: Formula, v: dict[str, HFSet]) -> bool:
        # `v` may bind more than phi's free variables; the key holds only theirs.
        key = (beta, phi, *map(v.__getitem__, phi.free_sorted))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._eval(beta, phi, v)
        return got

    def _eval(self, beta: int, phi: Formula, v) -> bool:
        M = self.structure
        if isinstance(phi, AtomTr):
            s = _term_value(phi.stage, M, v)
            c = _term_value(phi.code, M, v)
            z = _term_value(phi.valuation, M, v)
            decoded = _decode_tr_args(s, c, z)
            if decoded is None:
                return False
            alpha, psi, val = decoded
            if alpha >= beta:
                return False
            if psi not in self._pool_set:
                return False
            if set(val) != set(psi.free) or not all(x in M for x in val.values()):
                return False
            return self._query(alpha, psi, val)
        if phi.rank == 0:
            return _eval_atom(M, phi, v)
        if isinstance(phi, Not):
            return not self._query(beta, phi.sub, v)
        if isinstance(phi, And):
            return all(self._query(beta, s, v) for s in phi.subs)
        if isinstance(phi, Or):
            return any(self._query(beta, s, v) for s in phi.subs)
        if isinstance(phi, (Forall, Exists)):
            want_all = isinstance(phi, Forall)
            ext = dict(v)  # this node's own copy: the caller's v stays as it was
            for values in itertools.product(M.domain, repeat=len(phi.vars)):
                ext.update(zip(phi.vars, values))
                if self._query(beta, phi.body, ext) != want_all:
                    return not want_all
            return want_all
        raise ForcelabError(f"unknown formula node {type(phi).__name__}")


def iterated_truth(M: FiniteStructure, beta_max: int, pool: Sequence[Formula]
                   ) -> IteratedTruthPredicate:
    return IteratedTruthPredicate(M, beta_max, pool)


def iterated_truth_instance(M: FiniteStructure, beta_max: int, pool: Sequence[Formula]):
    """The iterated predicate as a stage-major recursion instance (for cross-checks)."""
    return _staged_truth_instance(M, beta_max, pool, "iterated-truth")


def _staged_truth_instance(M: FiniteStructure, beta_max: int, pool: Sequence[Formula],
                           label: str):
    """Truth at stages 0..beta_max-1 as one recursion instance, staged by
    stage, then parse-tree rank.  Stage β judges truth atoms about stages
    α < β only."""
    pool = canonical_pool(pool)
    rank_span = max((phi.rank for phi in pool), default=0) + 1
    shared, code = _truth_codes(M.domain, pool)
    codec = dict(shared)  # the caller's own: the shared one serves the next call
    pool_set = frozenset(pool)

    def stage_index(beta: int, rank: int) -> int:
        return beta * rank_span + rank

    def lookup(view, beta: int, psi: Formula, v: dict) -> bool:
        values = map(v.__getitem__, psi.free_sorted)
        return view(stage_index(beta, psi.rank), code[(psi, *values)])

    def step(x: HFSet, alpha: int, view) -> bool:
        phi, v = codec[x]
        beta = alpha // rank_span
        if isinstance(phi, AtomTr):
            decoded = _decode_tr_args(_term_value(phi.stage, M, v),
                                      _term_value(phi.code, M, v),
                                      _term_value(phi.valuation, M, v))
            if decoded is None:
                return False
            a, psi, val = decoded
            if a >= beta or psi not in pool_set:
                return False
            if set(val) != set(psi.free) or not all(x in M for x in val.values()):
                return False
            return lookup(view, a, psi, val)
        if phi.rank == 0:
            return _eval_atom(M, phi, v)
        if isinstance(phi, Not):
            return not lookup(view, beta, phi.sub, v)
        if isinstance(phi, And):
            return all(lookup(view, beta, s, v) for s in phi.subs)
        if isinstance(phi, Or):
            return any(lookup(view, beta, s, v) for s in phi.subs)
        if isinstance(phi, (Forall, Exists)):
            want_all = isinstance(phi, Forall)
            for values in itertools.product(M.domain, repeat=len(phi.vars)):
                ext = dict(v)
                ext.update(zip(phi.vars, values))
                if lookup(view, beta, phi.body, ext) != want_all:
                    return not want_all
            return want_all
        raise ForcelabError(f"unknown formula node {type(phi).__name__}")

    length = beta_max * rank_span
    inst = etr_mod.staged_instance(
        codec, length, lambda x: range(codec[x][0].rank, length, rank_span), step, label)
    return inst, codec, stage_index


@functools.lru_cache(maxsize=1)
def _truth_codes(domain: tuple[HFSet, ...], pool: tuple[Formula, ...]) -> tuple[dict, dict]:
    """The code ⟨⌜φ⌝, ⌜v⌝⟩ of every (formula, valuation) of the pool over the
    domain, as a codec code ↦ (φ, v) and its inverse (φ, v's values in
    `free_sorted` order) ↦ code.  They depend on the domain and pool alone,
    and are kept for the last pair only: criterion 4 sweeps every parameter
    set over one pair, and one pair's codes are what a single call builds."""
    codec: dict[HFSet, tuple[Formula, dict]] = {}
    code: dict[tuple, HFSet] = {}
    for phi in pool:
        for v in _valuations(domain, phi):
            enc = hf_pair(encode_formula(phi), encode_valuation(v))
            codec[enc] = (phi, v)
            code[(phi, *v.values())] = enc
    return codec, code


# ---------------------------------------------------------------------------
# Step rules driven by a formula over a finite structure, for the recursion
# engine: the partial solution enters as a predicate of stage-tagged pairs.

def formula_step(base: FiniteStructure, phi: Formula, length: int):
    """A step rule that evaluates a fixed formula in the free variable x
    over the base structure, with the partial solution visible as the
    predicate S of stage-tagged pairs: S holds ⟨β, y⟩ for each y of the
    base domain that the view puts in slice β.

    The tagged pairs ⟨β, y⟩ live in an extended domain so the solution
    predicate is first-order accessible.
    """
    extended = set(base.domain)
    for beta in range(length):
        for y in base.domain:
            extended.add(hf_pair(nat_encode(beta), y))
    extended_sets = transitive_closure(extended)

    def step(x: HFSet, alpha: int, view) -> bool:
        # the structure depends on the view alone, so every point of the
        # stage shares the one kept in its memo
        M = view.memo.get(("structure", alpha))
        if M is None:
            s_pred = frozenset(hf_pair(nat_encode(beta), y)
                               for beta in range(alpha) for y in base.domain if view(beta, y))
            M = view.memo[("structure", alpha)] = FiniteStructure(
                extended_sets, {**base.predicates, "S": s_pred})
        return eval_formula(M, phi, {"x": x})

    return step


# ---------------------------------------------------------------------------
# The clock-collapse translation: first-order statements about (stage, ∈, A)
# become quantifier-free infinitary statements in the collapse forcing
# language, with free variables left as slots for the slot-names.

def star8_translate(phi: Formula, fa: CollapseNotion) -> Formula:
    """Translate a first-order (=, ∈, A-membership) formula over the clock.

    Membership atoms become op-pair membership in the clock-copy of ∈;
    quantifiers become conjunctions over the check names of clock values.
    Each distinct node translates once, and the translations are shared by
    every call over a notion with the same ε name and clock.
    """
    return fold(phi, *_shared_clock_translation(eps_dot(fa), fa.clock))


@functools.cache
def _shared_clock_translation(eps_name: PName, clock: int) -> tuple:
    """The fold step of star8_translate and its memo, kept for every collapse
    with this ε name and clock: they read nothing else of the notion.  The ε
    name names e-tokens only, which come before the a-tokens, so it is the
    same for every A at one stage."""
    eps = name_const(eps_name)
    clock_names = [name_const(check_name(nat_encode(m))) for m in range(clock)]

    def combine(f: Formula, kids: tuple[Formula, ...]) -> Formula:
        if isinstance(f, AtomEq):
            return atom_eq(_slot(f.left), _slot(f.right))
        if isinstance(f, AtomIn):
            return atom_in(pair_term(_slot(f.left), _slot(f.right)), eps)
        if isinstance(f, AtomInClass):
            if f.ident != "A":
                raise ForcelabError(f"only the parameter predicate translates, not {f.ident!r}")
            return atom_in_class(_slot(f.term), "A")
        if isinstance(f, Not):
            return not_(kids[0])
        if isinstance(f, And):
            return and_(kids)
        if isinstance(f, Or):
            return or_(kids)
        if isinstance(f, (Forall, Exists)):
            conjuncts = [substitute(kids[0], dict(zip(f.vars, values)))
                         for values in itertools.product(clock_names, repeat=len(f.vars))]
            return and_(conjuncts) if isinstance(f, Forall) else or_(conjuncts)
        raise ForcelabError(f"cannot clock-translate {type(f).__name__}")

    def _slot(t: Term) -> Term:
        if isinstance(t, GroundConst):
            raise ForcelabError("clock translation takes variables, not ground constants")
        return t  # a variable, or a name constant from quantifier instantiation

    return combine, {}


@functools.lru_cache(maxsize=1)
def _token_free_relation(n: int) -> forcing_mod.ForcingRelation:
    """The atomic relation of stage n's token-free collapse, kept for the
    last stage asked for, as `_truth_codes` keeps its last pool: every
    collapse there extends its notion by its a-tokens, so each
    `ForcingTruth` lifts the atomic values of the slot, check and ε names
    from it."""
    return forcing_mod.atomic_forcing(build_collapse(n, ()), ())


class ForcingTruth:
    """Truth predicate read off the collapse forcing: a statement is declared
    true when the top condition forces its clock translation, each free
    variable read as the slot name of its value.  Its relation's universe is
    empty: clock translations have no quantifiers to range over one.  Its
    base is the stage's token-free relation (`_token_free_relation`), so it
    computes only the atomic values that involve its own a-tokens."""

    def __init__(self, n: int, A: Iterable[HFSet], pool: Sequence[Formula]):
        _check_pool_closed(pool)
        self.pool = canonical_pool(pool)
        self.stage_n = n
        self.fa = build_collapse(n, A)
        self.A = self.fa.A
        self.slot_names = {a: n_dot(self.fa, a) for a in self.fa.targets}
        rules, memo = _shared_clock_translation(eps_dot(self.fa), self.fa.clock)
        self._stars = {phi: fold(phi, rules, memo) for phi in self.pool}
        for star in self._stars.values():
            forcing_mod._check_nesting(star)
        self.relation = forcing_mod.ForcingRelation(self.fa, (), base=_token_free_relation(n))
        self.relation.register_class(a_dot(self.fa, self.A))

    def holds(self, phi: Formula, valuation: dict[str, HFSet] | None = None) -> bool:
        """The top's bit in the value of phi's translation, read off the
        relation: the translations are closed but for their slots, free of
        ground constants and checked against NESTING_CAP when built."""
        v = valuation or {}
        star = self._stars.get(phi)
        try:
            env = {x: self.slot_names[v[x]] for x in phi.free_sorted}
        except KeyError:
            star = None
        if star is None:
            _refuse_query(self._stars, phi, v, self.slot_names)
        return self.relation.value(star, env) >> self.fa.one & 1 == 1


def forcing_truth(n: int, A: Iterable[HFSet], pool: Sequence[Formula]) -> ForcingTruth:
    return ForcingTruth(n, A, pool)


def invariance_check(n: int, A: Iterable[HFSet], pool: Sequence[Formula], ft: ForcingTruth):
    """Every condition forces a clock translation under a slot valuation iff
    the top does: each such forcing value is empty or every condition.  ft
    must have been built from n, A and pool."""
    if (n, frozenset(A), canonical_pool(pool)) != (ft.stage_n, ft.A, ft.pool):
        raise ForcelabError("ft was built from another stage, parameter set or pool")
    FR = ft.relation
    slots = FiniteStructure(ft.fa.targets)
    for phi in ft.pool:
        for v in instances(slots, phi):
            value = FR.value(ft._stars[phi], {x: ft.slot_names[v[x]] for x in phi.free})
            if value not in (0, FR.full):
                at_one = value >> ft.fa.one & 1
                p = next(q for q in ft.fa.conditions() if value >> q & 1 != at_one)
                return False, (p, phi, tuple(sorted(v.items())))
    return True, None


# ---------------------------------------------------------------------------
# The stage translation: compile iterated-truth atoms into infinitary
# formulas, mentioning stages and pool formulas only through their
# defining θ-formulas (never as parameters).

def _valuation_description(z_var: str, entries: Sequence[tuple[HFSet, str]]) -> Formula:
    """The formula saying z is exactly the coded map {var-code ↦ value-variable}.

    Each entry is (code of the variable identifier, name of the fresh
    variable holding the value).
    """
    pair_formulas = []
    for code, a in entries:
        sing = forall(("t",), iff(atom_in(var("t"), var("u")), theta_formula(code, "t")))
        doub = forall(("t",), iff(atom_in(var("t"), var("u")),
                                  or_([theta_formula(code, "t"), atom_eq(var("t"), var(a))])))
        # w must hold {code, a} itself: "no members but {code} and {code, a}"
        # alone also fits w = {{code}} for every a whose {code, a} lies
        # outside the domain.
        pair_formulas.append(and_([
            forall(("u",), iff(atom_in(var("u"), var("w")), or_([sing, doub]))),
            exists(("u",), and_([atom_in(var("u"), var("w")), doub]))]))
    return forall(("w",), iff(atom_in(var("w"), var(z_var)), or_(pair_formulas)))


class StageTranslator:
    """Memoized stage translation over a fixed pool and stage cap."""

    def __init__(self, pool: Sequence[Formula], stage_cap: int):
        _check_pool_closed(pool)
        self.pool = canonical_pool(pool)
        self.stage_cap = stage_cap
        # one memo per stage, from each subformula to its translation there
        self._memos: dict[int, dict[Formula, Formula]] = {}
        self._disjuncts: dict[tuple, Formula] = {}
        self._variables: dict[Formula, frozenset[str]] = {}

    def translate(self, beta: int, phi: Formula) -> Formula:
        if beta > self.stage_cap:
            raise BudgetError(f"stage {beta} exceeds the cap {self.stage_cap}")
        return map_formula(phi, lambda atom: self._translate_tr(beta, atom)
                           if isinstance(atom, AtomTr) else atom,
                           self._memos.setdefault(beta, {}))

    def _translate_tr(self, beta: int, phi: AtomTr) -> Formula:
        args = (phi.stage, phi.code, phi.valuation)
        if not all(isinstance(t, Var) for t in args):
            if (isinstance(phi.code, GroundConst)
                    and decode_formula(phi.code.value) not in self.pool):
                raise ClosureError("truth atom mentions a formula outside the pool")
            raise ForcelabError("truth-atom arguments must be variables")
        names = tuple(t.name for t in args)
        return or_([self._disjunct(xi, psi, names)
                    for xi in range(beta) for psi in self.pool])

    def _disjunct(self, xi: int, psi: Formula, names: tuple[str, str, str]) -> Formula:
        """The disjunct saying that x codes ξ, y codes ψ and ψ*(ξ) holds
        under the valuation z codes; built once per (ξ, ψ, argument
        variables) and shared by every β > ξ."""
        key = (xi, psi, names)
        got = self._disjuncts.get(key)
        if got is None:
            x, y, z = names
            fv = psi.free_sorted
            psi_star = self.translate(xi, psi)
            taken = variables(psi_star, self._variables) | {x, y, z}
            fresh: list[str] = []
            i = 0
            while len(fresh) < len(fv):
                if f"h{i}" not in taken:
                    fresh.append(f"h{i}")
                i += 1
            renamed = rename_free(psi_star, dict(zip(fv, fresh)))
            desc = _valuation_description(
                z, [(_encode_str(v), a) for v, a in zip(fv, fresh)])
            inner = and_([desc, renamed])
            ex = exists(tuple(fresh), inner) if fresh else inner
            got = self._disjuncts[key] = and_([
                theta_formula(nat_encode(xi), x),
                theta_formula(encode_formula(psi), y),
                ex,
            ])
        return got


class DerivedIteratedTruth:
    """The iterated predicate obtained by evaluating stage translations directly."""

    def __init__(self, M: FiniteStructure, pool: Sequence[Formula], stage_cap: int):
        self.structure = M
        self.translator = StageTranslator(pool, stage_cap)
        self.pool = self.translator.pool

    def holds(self, beta: int, phi: Formula, valuation: dict[str, HFSet] | None = None) -> bool:
        return eval_formula(self.structure, self.translator.translate(beta, phi),
                            valuation or {})


def stage_comparison_structure(base: FiniteStructure, pool: Sequence[Formula],
                               stage_cap: int) -> FiniteStructure:
    """Extend the base domain transitively with every code the stage
    translation's θ-formulas must be able to pin down.

    Coded valuations are included for formulas of at most
    CODED_VALUATION_CAP free variables only.  Evaluation
    keeps the values it computes, one per node, axes and valuation of the
    node's other free variables, so a node with k free variables is
    computed along j of them (0 ≤ j ≤ 2) up to |domain|^(k-j) times, as a
    bit, a mask over the domain or a grid over its square, as the
    quantifiers above it ask.  The grids of ∧ and ∨ are not kept: the ¬ or
    quantifier that reads one keeps its own value instead.
    """
    extra: set[HFSet] = set(base.domain)
    for xi in range(stage_cap + 1):
        extra.add(nat_encode(xi))
    for psi in pool:
        extra.add(encode_formula(psi))
        fv = tuple(sorted(psi.free))
        if len(fv) > CODED_VALUATION_CAP:
            continue
        for values in itertools.product(base.domain, repeat=len(fv)):
            extra.add(encode_valuation(dict(zip(fv, values))))
    return FiniteStructure(transitive_closure(extra), base.predicates)
