"""Forcing relations over finite notions.

A forcing value is the set of conditions forcing a statement, held as an
`int` mask with bit p for condition p: a regular-open downset.  The
elements of a Boolean completion are held the same way.  Atomic
values solve the membership/equality recursion on pairs of names, ordered
by the maximum of their ranks, by memoized recursion on masks.  Some
atoms are read off the names instead: σ = σ, σ ⊆ σ, and σ ∈ τ when (σ, 0)
is an entry of τ, are full; between two check names every condition is
the top, so the recursion only ever sees the full mask or 0 and the value
is read off the names' sets; and ⟨a, b⟩ = ⟨c, d⟩ between two pair names
(`op_name`) is a = c and b = d.  For cross-checks the values are
re-derived pointwise, with no such shortcut, as a staged recursion
instance and as Boolean values, and criterion 4 compares the collapse
relation with Tarskian truth.  On top of them sit the composite clauses
for the (finite) infinitary forcing language, the law audit, the
reduction of quantifier-free sentences to single atomic equalities (each
negated atom's rewrite built once, across calls),
Boolean completions with Boolean values, generic extensions with the
forced-iff-true oracle, and the name of a truth predicate.

Throughout, "dense below p" is the finite reading: every extension of p
has a further extension in the set.  neg(W) holds the conditions with no
extension in W, so neg(neg(W)) holds those below which W is dense.
"""

from __future__ import annotations

import functools
import itertools
import operator
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import dag
from . import etr as etr_mod
from . import truth as truth_mod
from .errors import (BudgetError, ClosureError, ForcelabError,
                     SeparativityError)
from .formulas import (And, AtomEq, AtomIn, AtomInClass, AtomInG, AtomTr,
                       Exists, Forall, Formula, NameConst, Not,
                       Or, PairTerm, Term, Var, _term_fold, and_, atom_eq, atom_in,
                       atom_in_class, atom_in_g, atom_terms, canonical_pool, const,
                       encode_formula, fold, implies, map_atom, map_formula,
                       name_const, nodes, not_, or_, substitute, terms)
from .hfset import EMPTY, HFSet, hf_make, hf_pair, nat_encode
from .names import (EMPTY_NAME, ClassName, PName, _interned, check_name,
                    eval_class, eval_name, g_dot, is_subname_closed, name_make, name_to_hf,
                    op_name, op_unpair)
from .poset import ForcingNotion, bits, generic_filters, is_separative, minimal_classes

ATOMIC_BUDGET = 2_000_000
QUANTIFIER_BUDGET = 200_000  # name tuples a quantifier block's body is valued at
TRANSLATION_BUDGET = 100_000
NESTING_CAP = 200          # formula nesting depth (rank) forces and star_translate accept
AUDIT_POOL_SIZE = 24       # atomic formulas for the modus-ponens and decidedness laws
AUDIT_TUPLE_CAP = 4000     # formula pairs, name pairs and name triples the law audit visits
ALGEBRA_TUPLE_CAP = 40000  # element pairs and triples the algebra audit visits
_NO_NAMES: Mapping = MappingProxyType({})  # the valuation of a closed formula
_OUTSIDE = "name mentions a condition outside the notion"


# The atoms between two check names, read off their sets (see atomic_value).
_CHECK_ATOMS = {
    "in": lambda sigma, tau: (sigma, 0) in tau.entries,
    "sub": lambda sigma, tau: set(sigma.entries) <= set(tau.entries),
    "eq": operator.is_,
}


def _mask(conditions: Iterable[int]) -> int:
    return sum(1 << p for p in conditions)


class ForcingRelation:
    """The forcing relation of one notion over one subname-closed universe.

    Values are condition masks.  `_atomic` maps (kind, σ, τ) to the mask of
    the atomic statement; the constructor fills it over the universe, and a
    pair outside it (atomic values are sound for any names) is computed on
    demand, and refused there if a name mentions a condition outside the
    notion, as a class name is when it is registered.  An equation between
    two pair names is read off its components' equations, so the pairs'
    singleton and doubleton names enter the table only where another atom
    asks for them.  The universe bounds the quantifier clauses.  `_values`
    keys a closed composite or class atom by its node and an open one by (node,
    the names the valuation gives its `free_sorted`); it is dropped when a
    class name replaces another under the same ident, and kept when the
    ident is new (no value can involve an unregistered ident: its clause
    raises).  `classes` maps each ident to its class name, with
    the canonical generic-filter class name first under "G"; that one is
    built the first time `classes` is read or a "G" atom is forced.

    A `base` relation may be given when the notion extends the base's by
    tokens (see `_token_lift`) and the two share a universe: then a value
    whose names all have their conditions in the base is the base's value,
    filled there on demand, lifted onto the tokens, so relations over
    several such extensions of one notion share its recursion.  That holds
    for atomic values (see `atomic_value`) and for every node with no class
    or generic-filter atom whose name constants and valuation names lie in
    the base; the base decides that once per node (`_lift_bound`).  A
    notion that does not extend the base's so, or a base over another
    universe, is refused.  Class and filter atoms, and the nodes above
    them, are valued on this relation's own notion.

    The lift of a base mask V adds each token whose realizers all lie in V
    (`_lifted`).  Each token lies below only the top, and its realizers (the
    base's conditions below it) form a nonempty downset of the base; below
    a base condition other than the top lie only base conditions.  So a
    regular-open mask W of this notion is the lift of its base part: a
    token's extensions are itself and its realizers, so it lies in W
    exactly when they all do.  Lifting commutes with `neg`: a base
    condition other than the top has no extension in lift(V) exactly when
    it has none in V, and the top exactly when V is empty (every token has
    a realizer), so neg(lift(V)) is regular open with base part neg_B(V).
    It commutes with intersections by its definition, so with neg of a
    union, the intersection of the negs.  Hence, by induction on the node
    with the atomic values as the base step: ¬ is neg; ∧ and ∀ (over the
    shared universe, whose names lie in the base) are intersections; ∨ and
    ∃ are regularized unions, neg of neg of a union.
    """

    def __init__(self, notion: ForcingNotion, universe: Sequence[PName], *,
                 base: ForcingRelation | None = None):
        self.notion = notion
        self.universe = tuple(sorted(set(universe), key=lambda n: n.key))
        if not is_subname_closed(self.universe):
            raise ClosureError("name universe must be subname-closed")
        if any(n.max_condition >= len(notion) for n in self.universe):
            raise ForcelabError(f"universe {_OUTSIDE}")
        if len(notion) * len(self.universe) ** 2 > ATOMIC_BUDGET:
            raise BudgetError(f"{len(notion)} conditions x {len(self.universe)}^2 pairs "
                              f"exceeds budget {ATOMIC_BUDGET}")
        self._classes: dict[str, ClassName | None] = {"G": None}
        self.full, self._size = (1 << len(notion)) - 1, len(notion)
        self._down, self._up = notion._down, notion._up
        # p is minimal when each of its extensions lies above it
        self._minimal = _mask(p for p, down in enumerate(self._down) if not down & ~self._up[p])
        self._neg: dict[int, int] = {}
        self._atomic: dict = {}
        self._values: dict = {}
        self._bounds: dict = {}  # filled when this relation is another's base
        self._base, self._base_size, self._lift = base, 0, ()
        if base is not None:
            if base.universe != self.universe:
                raise ForcelabError("the base's universe is not this relation's")
            self._base_size, self._lift = len(base.notion), _token_lift(notion, base.notion)
        for sigma, tau, kind in itertools.product(self.universe, self.universe, ("in", "sub", "eq")):
            self.atomic_value(kind, sigma, tau)

    @property
    def classes(self) -> dict[str, ClassName]:
        if self._classes["G"] is None:
            self._classes["G"] = g_dot(self.notion)
        return self._classes

    def register_class(self, cls: ClassName):
        if any(max(r, n.max_condition) >= self._size for n, r in cls.entries):
            raise ForcelabError(f"class name {cls.ident!r}: {_OUTSIDE}")
        old = self._classes.get(cls.ident)
        self._classes[cls.ident] = cls
        if old is not None and old != cls:
            self._values.clear()

    def neg(self, W: int) -> int:
        """The complement of W's upward closure.  W's minimal conditions are
        visited first: theirs are the widest up-masks, and for a downset
        they cover W.  Then come the members of W they leave uncovered."""
        got = self._neg.get(W)
        if got is None:
            up, covered = self._up, 0
            for part in (W & self._minimal, W):
                rest = part & ~covered
                while rest:
                    covered |= up[(rest & -rest).bit_length() - 1]
                    rest &= ~covered
            got = self._neg[W] = self.full & ~covered
        return got

    def regularize(self, W: int) -> int:
        """The conditions below which W is dense."""
        return self.neg(self.neg(W))

    # -- the atomic recursion ------------------------------------------------

    def atomic_value(self, kind: str, sigma: PName, tau: PName) -> int:
        """The mask of the atomic statement; the recursion is well-founded on
        the summed ranks of the pair, so plain memoization suffices.

        For any names, σ = σ and σ ⊆ σ are full, and so is σ ∈ τ when (σ, 0)
        is an entry of τ.  By induction on rank: each entry (ρ, r) of σ has
        ρ = ρ full, so ρ ∈ σ holds on down[r] and the subset step
        neg(down[r] & neg(ρ ∈ σ)) is full; an entry (σ, 0) of τ puts
        (σ = σ) & down[0] = full into the union that σ ∈ τ regularizes.
        These values are stored in the table like any other.

        Between two check names (every condition below is 0, the top) the
        value is read off their sets.  Each entry's condition is the top, so
        down[r] is full and every step of the recursion sees only full or 0:
        regularize(full) = full, neg(full) = 0.  By induction on rank, x̌ = y̌
        is full exactly when x = y, that is when the interned names are one
        object; x̌ ∈ y̌ when x̌ is an entry name of y̌; x̌ ⊆ y̌ when every entry
        name of x̌ is one of y̌.

        Between two pair names (`op_unpair` decodes both) ⟨a, b⟩ = ⟨c, d⟩ is
        (a = c) & (b = d).  Every atomic value is regular open, and on a
        finite notion a regular-open mask is exactly the set of p such that
        every generic G ∋ p satisfies the atom (the truth lemma, which
        criteria 1 and 7 check).  Every condition of a pair name is the top,
        so in every M[G] it is the Kuratowski pair of its components'
        values, and Kuratowski pairs are equal exactly when their components
        are.  The meet of the two regular-open values holds the same p, so
        it is the value.

        With a base, two names whose conditions all lie in it have the
        base's value plus every token whose realizers all lie in that value.
        Below a condition of the base other than the top lie only the base's
        conditions, so there the recursion runs as in the base.  The value
        is regular open, and a token's extensions are itself and its
        realizers, so it belongs to the value exactly when all its realizers
        do.  The top belongs exactly when every condition of the base has an
        extension in the value, as in the base.
        """
        key = (kind, sigma, tau)
        got = self._atomic.get(key)
        if got is not None:
            return got
        if self._base is not None and max(sigma.max_condition, tau.max_condition) < self._base_size:
            out = self._atomic[key] = self._lifted(self._base.atomic_value(kind, sigma, tau))
            return out
        if sigma.max_condition >= self._size or tau.max_condition >= self._size:
            raise ForcelabError(_OUTSIDE)
        if sigma is tau and kind in ("eq", "sub") or kind == "in" and (sigma, 0) in tau.entries:
            out = self.full
        elif not (sigma.max_condition or tau.max_condition) and kind in _CHECK_ATOMS:
            out = self.full if _CHECK_ATOMS[kind](sigma, tau) else 0
        elif kind == "in":
            out = self._witnessed(sigma, tau.entries)
        elif kind == "sub":
            # p has no extension under r below which ρ ∈ τ is nowhere forced
            out = self.full
            for rho, r in sigma.entries:
                out &= self.neg(self._down[r] & self.neg(self.atomic_value("in", rho, tau)))
                if not out:
                    break
        elif kind == "eq" and (left := op_unpair(sigma)) and (right := op_unpair(tau)):
            out = self.atomic_value("eq", left[0], right[0])
            if out:
                out &= self.atomic_value("eq", left[1], right[1])
        elif kind == "eq":
            out = self.atomic_value("sub", sigma, tau)
            if out:
                out &= self.atomic_value("sub", tau, sigma)
        else:
            raise ForcelabError(f"unknown atomic kind {kind!r}")
        self._atomic[key] = out
        return out

    def _witnessed(self, sigma: PName, entries) -> int:
        """Below which it is dense that some entry ⟨τ,r⟩ has a condition
        under r forcing σ = τ."""
        W = 0
        for tau, r in entries:
            W |= self.atomic_value("eq", sigma, tau) & self._down[r]
        return self.regularize(W)

    def decide(self, kind: str, p: int, sigma: PName, tau: PName) -> bool:
        v = self._atomic.get((kind, sigma, tau))
        return (self.atomic_value(kind, sigma, tau) if v is None else v) >> p & 1 == 1

    def value(self, phi: Formula, env: Mapping[str, PName] = _NO_NAMES) -> int:
        """The mask of the conditions forcing phi under the name valuation env."""
        if isinstance(phi, (AtomEq, AtomIn)):
            return self.atomic_value("eq" if isinstance(phi, AtomEq) else "in",
                                     _term_pname(phi.left, env), _term_pname(phi.right, env))
        key = (phi, tuple(map(env.get, phi.free_sorted))) if phi.free else phi
        got = self._values.get(key)
        if got is None:
            if self._base is not None and self._in_base(phi, env):
                got = self._values[key] = self._lifted(self._base.value(phi, env))
            else:
                got = self._values[key] = self._clause(phi, env)
        return got

    def _lifted(self, out: int) -> int:
        """A base mask with every token whose realizers all lie in it."""
        for bit, realizers in self._lift:
            if not realizers & ~out:
                out |= bit
        return out

    def _in_base(self, phi: Formula, env: Mapping[str, PName]) -> bool:
        """phi has no class or filter atom, and its name constants and the
        names env gives its free variables all have their conditions in the
        base."""
        size = self._base_size
        bound = self._base._bounds.get(phi, -1)
        if bound == -1:  # not seen yet: one fold bounds phi and every node below it
            bound = fold(phi, _lift_bound, self._base._bounds)
        return bound is not None and bound < size and all(
            (n := env.get(x)) is not None and n.max_condition < size for x in phi.free_sorted)

    def _clause(self, phi: Formula, env: Mapping[str, PName]) -> int:
        if isinstance(phi, (AtomInClass, AtomInG)):
            ident = phi.ident if isinstance(phi, AtomInClass) else "G"
            cls = (self.classes if ident == "G" else self._classes).get(ident)
            if cls is None:
                raise ForcelabError(f"no class name registered as {ident!r}")
            return self._witnessed(_term_pname(phi.term, env), cls.entries)
        if isinstance(phi, AtomTr):
            raise ForcelabError("iterated-truth atoms are not part of the forcing language")
        if isinstance(phi, Not):
            return self.neg(self.value(phi.sub, env))
        if isinstance(phi, (And, Or)):
            values = (self.value(s, env) for s in phi.subs)
        elif isinstance(phi, (Forall, Exists)):
            scope = len(phi.vars) + len(phi.free)  # the free ones are bound by outer blocks
            if len(self.universe) ** scope > QUANTIFIER_BUDGET:
                raise BudgetError(f"quantifier block over {len(self.universe)}^{scope} names")
            values = (self.value(phi.body, {**env, **dict(zip(phi.vars, names))})
                      for names in itertools.product(self.universe, repeat=len(phi.vars)))
        else:
            raise ForcelabError(f"unknown formula node {type(phi).__name__}")
        if isinstance(phi, (And, Forall)):
            return functools.reduce(operator.and_, values, self.full)
        return self.regularize(functools.reduce(operator.or_, values, 0))


def _lift_bound(phi: Formula, kids: tuple) -> int | None:
    """The greatest condition of phi's name constants, or None when phi has
    a class, filter or iterated-truth atom: a relation values those nodes on
    its own notion."""
    if isinstance(phi, (AtomInClass, AtomInG, AtomTr)) or None in kids:
        return None
    if phi.rank:
        return max(kids, default=0)
    return max((n.max_condition for n in collect_names(phi)), default=0)


def _token_lift(P: ForcingNotion, B: ForcingNotion) -> tuple[tuple[int, int], ...]:
    """The bit and the realizers of each condition of P after B's, when P
    extends B by tokens: P's first |B| conditions are B's, in B's order,
    under B's top (condition 0); no condition of B other than the top lies
    above a later one; and each later condition lies below only the top and
    above a nonempty set of B's conditions, its realizers.  Otherwise
    refused.  A notion's up- and down-masks hold the same order, so below
    |B| only the down-masks are compared."""
    n, inside = len(B), (1 << len(B)) - 1
    lift = tuple((1 << t, P._down[t] & inside) for t in range(n, len(P)))
    if (len(P) < n or B._down[0] != inside or P._down[0] & inside != inside
            or P._down[1:n] != B._down[1:n]
            or any(P._up[t] != 1 | 1 << t for t in range(n, len(P)))
            or not all(realizers for _, realizers in lift)):
        raise ForcelabError("the notion does not extend the base's by tokens")
    return lift


def atomic_forcing(P: ForcingNotion, universe: Sequence[PName]) -> ForcingRelation:
    """The forcing relation for atomic statements over a subname-closed universe."""
    return ForcingRelation(P, universe)


def collect_names(phi: Formula) -> set[PName]:
    """The names the formula mentions."""
    return {t.name for t in terms(phi) if isinstance(t, NameConst)}


def _term_pname(t: Term, env: Mapping[str, PName] = _NO_NAMES) -> PName:
    """The name a term denotes, its variables read as the names `env` gives
    them.  A pair term is one fold over its parts, so any nesting depth."""
    if isinstance(t, NameConst):
        return t.name
    if isinstance(t, Var):
        if t.name not in env:
            raise ForcelabError(f"free variable {t.name!r} is not covered by the valuation")
        return env[t.name]
    if isinstance(t, PairTerm):
        return _term_fold(t, lambda u, kids: op_name(*kids) if kids else _term_pname(u, env))
    raise ForcelabError(f"term {type(t).__name__} is not a name constant")


def forces(FR: ForcingRelation, p: int, phi: Formula, check_universe: bool = True,
           env: Mapping[str, PName] = _NO_NAMES) -> bool:
    """p forces the forcing-language formula by the recursive clauses, each
    free variable read as the name `env` gives it (`env` must cover them).

    The value of ¬φ is neg of φ's, of ∧ and ∀ the intersection, and of ∨
    and ∃ the regularized union: a disjunction is forced below which its
    disjuncts are densely forced, which agrees with reading it as an
    abbreviation (negated conjunction of negations); the agreement is
    exercised by the audit tests.  The clauses recurse once per nesting
    level, so a formula nested deeper than NESTING_CAP is refused.
    """
    if phi.free - env.keys():
        raise ForcelabError("only closed formulas are forced")
    _check_nesting(phi)
    if "ground" in phi.const_kinds:
        raise ForcelabError("forcing-language formulas use name constants, not ground constants")
    if check_universe:
        missing = (collect_names(phi) | {env[x] for x in phi.free}) - set(FR.universe)
        if missing:
            raise ForcelabError(
                f"formula mentions {len(missing)} name(s) outside the universe")
    return FR.value(phi, env) >> p & 1 == 1


def _check_nesting(phi: Formula):
    if phi.rank > NESTING_CAP:
        raise BudgetError(f"formula nested {phi.rank} deep exceeds the cap {NESTING_CAP}")


# ---------------------------------------------------------------------------
# The law audit.

class AuditReport:
    """Each law's verdict, with its first counterexample."""

    def __init__(self):
        self.laws: dict[str, tuple[bool, object]] = {}

    def record(self, law: str, ok: bool, counterexample=None):
        if law not in self.laws or self.laws[law][0]:
            self.laws[law] = (ok, counterexample)

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.laws.values())

    def failures(self) -> dict:
        return {law: cx for law, (ok, cx) in self.laws.items() if not ok}


def _atomic_formulas(FR: ForcingRelation) -> list[Formula]:
    names = [name_const(n) for n in FR.universe[:6]]
    pool = [atom(s, t) for s in names for t in names for atom in (atom_eq, atom_in)]
    return pool[:AUDIT_POOL_SIZE]


def _judge_mask(V: int, down: Sequence[int], full: int) -> tuple:
    """The first downward-closure failure (p, q) of one mask, with p in V
    and q ≤ p outside it, and the first density failure p, outside V though
    V meets every extension of p; None for a law the mask keeps.  The
    pointwise definitions, read off `down` alone."""
    closure = next(((p, next(bits(down[p] & ~V))) for p in bits(V) if down[p] & ~V), None)
    density = next((p for p in bits(full & ~V)
                    if all(down[q1] & V for q1 in bits(down[p]))), None)
    return closure, density


def audit_forcing_relation(FR: ForcingRelation) -> AuditReport:
    """Check the laws a forcing relation must satisfy, over the universe.

    Covers downward closure, the density rule, modus ponens, the equality
    axioms and dense decidedness, reporting a counterexample per law.
    Downward closure and density are judged once per distinct mask of the
    table (a memo of this call), and the verdicts recorded per entry in
    table order, so each law's counterexample is its first failing entry.
    """
    P = FR.notion
    N = FR.universe
    down = FR._down
    atomic = FR._atomic  # every (kind, σ, τ) over the universe, filled when FR was built
    report = AuditReport()

    for law in ("downward-closure", "density", "modus-ponens", "eq-reflexive",
                "eq-symmetric", "eq-transitive", "eq-congruence", "dense-decided"):
        report.record(law, True)

    verdicts: dict[int, tuple] = {}
    for kind in ("in", "sub", "eq"):
        for sigma in N:
            for tau in N:
                V = atomic[kind, sigma, tau]
                verdict = verdicts.get(V)
                if verdict is None:
                    verdict = verdicts[V] = _judge_mask(V, down, FR.full)
                closure, density = verdict
                if closure is not None:
                    report.record("downward-closure", False, (kind, *closure, sigma, tau))
                if density is not None:
                    report.record("density", False, (kind, density, sigma, tau))

    audit_pool = _atomic_formulas(FR)
    for phi, psi in itertools.islice(itertools.product(audit_pool, repeat=2), AUDIT_TUPLE_CAP):
        bad = FR.value(phi) & FR.value(implies(phi, psi)) & ~FR.value(psi)
        if bad:
            report.record("modus-ponens", False, (next(bits(bad)), phi, psi))

    for sigma in N:
        if not atomic["eq", sigma, sigma] >> P.one & 1:
            report.record("eq-reflexive", False, sigma)
    for sigma, tau in itertools.islice(itertools.product(N, repeat=2), AUDIT_TUPLE_CAP):
        bad = atomic["eq", sigma, tau] ^ atomic["eq", tau, sigma]
        if bad:
            report.record("eq-symmetric", False, (next(bits(bad)), sigma, tau))
    for sigma, tau, rho in itertools.islice(itertools.product(N, repeat=3), AUDIT_TUPLE_CAP):
        eq = atomic["eq", sigma, tau]
        bad = eq & atomic["eq", tau, rho] & ~atomic["eq", sigma, rho]
        if bad:
            report.record("eq-transitive", False, (next(bits(bad)), sigma, tau, rho))
        bad = eq & atomic["in", rho, sigma] & ~atomic["in", rho, tau]
        if bad:
            report.record("eq-congruence", False, (next(bits(bad)), sigma, tau, rho))

    for phi in audit_pool:
        decided = FR.value(phi) | FR.value(not_(phi))
        if not all(down[q1] & decided for q1 in P.conditions()):
            report.record("dense-decided", False, phi)

    return report


# ---------------------------------------------------------------------------
# Reduction of quantifier-free infinitary sentences to atomic equalities.

class _SizeGuard:
    def __init__(self, budget: int):
        self.budget = budget
        self.count = 0

    def tick(self, n: int = 1):
        self.count += n
        if self.count > self.budget:
            raise BudgetError(f"translation exceeded {self.budget} name constructions")


# What star_translate built, kept across calls: `_rewrites` maps a key
# (kind, σ, τ) for ¬(σ = τ), σ ⊄ τ or ¬(σ ∈ τ) to its `_rewrite_entry`,
# `_charges` a negated atom's key to its charge, `_junctions` to pairs.
_rewrites: dict = {}
_charges: dict = {}
_junctions: dict = {}


def _condition_index(name: PName, P: ForcingNotion) -> int | None:
    """i when the name is the check name ǐ of a condition i < |P|, else None."""
    i = len(name.entries)  # ǐ has one entry per member of i
    return i if i < len(P) and name is check_name(nat_encode(i)) else None


def star_translate(phi: Formula, P: ForcingNotion) -> tuple[PName, PName]:
    """Compile a closed, quantifier-free sentence to one atomic equality.

    One fold over (subformula, sign) pairs (sign False asks for the
    negation) returns name pairs directly: an atom's equality, and one for a
    conjunction or (redundancy construction) a disjunction.  A filter atom
    at a non-check name σ folds as ⋁ᵢ (G(ǐ) ∧ σ = ǐ).  A negated = or ∈ atom
    takes its pair from `_rewrites`, which one walk over rewrite keys fills:
    ¬(σ = τ) is σ ⊄ τ ∨ τ ⊄ σ, σ ⊄ τ is ⋁ over σ's entries (ρ, r) of
    G(ř) ∧ ρ ∉ τ, and σ ∉ τ is ⋀ over τ's entries (ρ, r) of ¬G(ř) ∨ σ ≠ ρ.
    A condition forces the sentence iff it forces the equality.  Names with
    a condition outside the notion, and nesting deeper than NESTING_CAP (so
    that `forces` can check each translation), are refused before any walk.

    The budget is charged, per distinct (subformula, sign) pair, 1 for an
    atom, 1 + k for a conjunction and 2k + 3 for a disjunction of k parts;
    per distinct negated = or ∈ atom, its rewrite's build ticks plus the
    ticks each distinct rewrite step below it adds.  The charge is kept
    with the atom, so a warm table refuses what a cold one refuses.
    """
    if phi.free:
        raise ForcelabError("only closed sentences translate")
    if "ground" in phi.const_kinds:
        raise ForcelabError("translation expects the forcing language")
    _check_nesting(phi)
    for f in nodes(phi):
        if isinstance(f, (Forall, Exists)):
            raise ForcelabError("translation is for quantifier-free sentences")
        if isinstance(f, (AtomInClass, AtomTr)):
            raise ForcelabError("translation covers =, ∈ and generic-filter atoms only")
        if not f.rank and any(_term_pname(t).max_condition >= len(P) for t in atom_terms(f)):
            raise ForcelabError(_OUTSIDE)
    guard = _SizeGuard(TRANSLATION_BUDGET)

    def parts(item: tuple[Formula, bool]) -> list:
        f, sign = item
        if isinstance(f, Not):
            return [(f.sub, not sign)]
        if isinstance(f, (And, Or)):
            return [(s, sign) for s in f.subs]
        if isinstance(f, AtomInG) and _condition_index(_term_pname(f.term), P) is None:
            checks = (name_const(check_name(nat_encode(i))) for i in P.conditions())
            return [(or_(and_([atom_in_g(c), atom_eq(f.term, c)]) for c in checks), sign)]
        return []

    def combine(item: tuple[Formula, bool], kids: tuple) -> tuple[PName, PName]:
        f, sign = item
        if isinstance(f, (And, Or)):
            conjunction = isinstance(f, And) == sign
            guard.tick(1 + len(kids) if conjunction else 2 * len(kids) + 3)
            return _junction(kids, conjunction)
        if kids:  # a negation, or a filter atom by its expansion
            return kids[0]
        if isinstance(f, AtomInG):
            guard.tick()
            return _g_pair(_condition_index(_term_pname(f.term), P), sign)
        sigma, tau = _term_pname(f.left), _term_pname(f.right)
        if not sign:
            return _negated(("eq" if isinstance(f, AtomEq) else "in", sigma, tau), guard)
        guard.tick()
        if isinstance(f, AtomEq):
            return sigma, tau
        return tau, name_make(tau.entries + ((sigma, 0),))

    return dag.fold((phi, True), parts, combine)


def _g_pair(i: int, sign: bool) -> tuple[PName, PName]:
    # G(ǐ) becomes {(∅, i)} = {(∅, 𝟙)}, and ¬G(ǐ) becomes {(∅, i)} = ∅
    return _interned(((EMPTY_NAME, i),)), _interned(((EMPTY_NAME, 0),)) if sign else EMPTY_NAME


def _junction(parts: tuple, conjunction: bool) -> tuple[PName, PName]:
    """The pair whose equality the junction of the parts' equalities reduces
    to.  ⟨ǐ, aᵢ⟩ serves both sides where aᵢ = bᵢ.  A disjunction sorts
    u = {⟨ǐ, aᵢ⟩} ∪ {⟨ǐ, bᵢ⟩} once; uⱼ is u less ⟨ǰ, bⱼ⟩, or u when aⱼ = bⱼ."""
    got = _junctions.get((parts, conjunction))
    if got is not None:
        return got
    checks = [check_name(nat_encode(i)) for i in range(len(parts))]
    a = [(op_name(c, x), 0) for c, (x, _) in zip(checks, parts)]
    b = [d if x is y else (op_name(c, y), 0) for d, c, (x, y) in zip(a, checks, parts)]
    if conjunction:
        got = _interned(_top_entries(a)), _interned(_top_entries(b))
    else:
        u_entries = _top_entries(a + b)
        u, at = _interned(u_entries), {e: k for k, e in enumerate(u_entries)}
        u_j = [(u if d is e else _interned(u_entries[:at[e]] + u_entries[at[e] + 1:]), 0)
               for d, e in zip(a, b)]
        got = _interned(_top_entries(u_j)), _interned(_top_entries(u_j + [(u, 0)]))
    _junctions[parts, conjunction] = got
    return got


def _top_entries(entries: list[tuple[PName, int]]) -> tuple[tuple[PName, int], ...]:
    """Entries whose conditions are all the top, made canonical: one sort."""
    return tuple(sorted(set(entries), key=lambda e: e[0].key))


def _negated(key: tuple[str, PName, PName], guard: _SizeGuard) -> tuple[PName, PName]:
    """The pair of a negated atom's rewrite; the first time, one walk over the
    keys below it, children first, builds what `_rewrites` lacks and sums ticks."""
    charge = _charges.get(key)
    if charge is None:
        added = 0
        for k in dag.nodes(key, _rewrite_steps):
            if k not in _rewrites:
                _rewrites[k] = _rewrite_entry(*k)
            added += _rewrites[k][2]
            if guard.count + _rewrites[k][1] + added > guard.budget:  # the charge is more
                guard.tick(_rewrites[k][1] + added)
        charge = _charges[key] = _rewrites[key][1] + added
    guard.tick(charge)
    return _rewrites[key][0]


# The measure (summed ranks, then a tag putting ¬= above ⊄ and ∉) drops from
# every step to each of its children, so the rewrite keys form no cycle.

def _measure(kind: str, sigma: PName, tau: PName) -> tuple[int, int]:
    return sigma.rank + tau.rank, int(kind == "eq")


def _measure_drops(bound, mu):
    if not mu < bound:
        raise ForcelabError(f"rewrite measure failed to decrease: {bound} -> {mu}")


def _rewrite_steps(key: tuple[str, PName, PName]) -> tuple:
    """The keys one rewrite step calls, in the order of its parts."""
    kind, sigma, tau = key
    if kind == "eq":
        kids = (("sub", sigma, tau), ("sub", tau, sigma))
    elif kind == "sub":
        kids = tuple(("in", rho, tau) for rho, _ in sigma.entries)
    else:
        kids = tuple(("eq", sigma, rho) for rho, _ in tau.entries)
    for kid in kids:
        _measure_drops(_measure(*key), _measure(*kid))
    return kids


def _rewrite_entry(kind: str, sigma: PName, tau: PName) -> tuple:
    """A step's name pair, build ticks, and the ticks its junctions and filter
    atoms add: ¬= is a disjunction of two ⊄, ⊄ one of k conjunctions G(ř) ∧ ∉,
    and ∉ a conjunction of k disjunctions ¬G(ř) ∨ ≠, over the entries."""
    kids = [_rewrites[k] for k in _rewrite_steps((kind, sigma, tau))]
    build, k = 1 + sum(e[1] for e in kids), len(kids)
    if kind == "eq":
        return _junction(tuple(e[0] for e in kids), False), build, 2 * 2 + 3
    sub = kind == "sub"
    parts = tuple(_junction((_g_pair(r, sub), e[0]), sub)
                  for (_, r), e in zip((sigma if sub else tau).entries, kids))
    return _junction(parts, not sub), build, 6 * k + 3 if sub else 9 * k + 1


# ---------------------------------------------------------------------------
# Boolean completions: the regular-open algebra of the preorder.

class BooleanAlgebra:
    """The regular-open downsets of a finite separative preorder.

    A downset U is regular exactly when it contains every condition below
    which it is dense; equivalently, U is determined by which classes of
    minimal conditions it absorbs.
    """

    def __init__(self, P: ForcingNotion):
        self.notion = P
        self._down = P._down
        # for each p, the down masks of p's extensions
        self._ext_downs = [[self._down[q] for q in bits(d)] for d in self._down]
        self._regular: dict[int, int] = {}
        self._complement: dict[int, int] = {}
        classes = minimal_classes(P)
        below = [_mask(k for k, cls in enumerate(classes) if cls & d) for d in self._down]
        elements = {_mask(p for p, b in enumerate(below) if not b & ~chosen)
                    for chosen in range(1 << len(classes))}
        self.elements = sorted(elements, key=lambda u: (u.bit_count(), list(bits(u))))
        self._element_set = frozenset(self.elements)
        self.zero = 0
        self.one = (1 << len(P)) - 1

    def __len__(self) -> int:
        return len(self.elements)

    def is_element(self, U: int) -> bool:
        return U in self._element_set

    def regularize(self, U: int) -> int:
        """Those p below which U is dense; the regular-open closure of a downset."""
        got = self._regular.get(U)
        if got is None:
            got = self._regular[U] = _mask(
                p for p, downs in enumerate(self._ext_downs) if all(d & U for d in downs))
        return got

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return self.regularize(a | b)

    def neg(self, a: int) -> int:
        """Those p whose downset misses a; memoized like regularize."""
        got = self._complement.get(a)
        if got is None:
            got = self._complement[a] = _mask(
                p for p, d in enumerate(self._down) if not d & a)
        return got

    def le(self, a: int, b: int) -> bool:
        return not a & ~b


class BooleanCompletion(NamedTuple):
    algebra: BooleanAlgebra
    images: tuple[int, ...]  # each condition's image under the embedding

    def embed(self, p: int) -> int:
        return self.images[p]


def boolean_completion(P: ForcingNotion) -> BooleanCompletion:
    """The regular-open completion with its dense order embedding.

    Raises when the notion is not separative; separativity is exactly what
    makes the embedding injective up to equivalence.
    """
    ok, cx = is_separative(P)
    if not ok:
        raise SeparativityError(
            f"notion is not separative: no extension of {P.elements[cx[0]]} "
            f"is incompatible with {P.elements[cx[1]]}", cx)
    B = BooleanAlgebra(P)
    embed = tuple(B.regularize(d) for d in B._down)
    for p, U in enumerate(embed):
        if not B.is_element(U):
            raise ForcelabError(f"embedding image of {P.elements[p]} is not regular-open")
    return BooleanCompletion(B, embed)


def audit_boolean_algebra(B: BooleanAlgebra) -> AuditReport:
    """Boolean-algebra laws plus regularity and, on small notions, completeness
    of the element enumeration among all regular-open downsets."""
    report = AuditReport()
    P = B.notion
    for law in ("regular", "complement", "de-morgan", "distributive", "closure",
                "enumeration-complete"):
        report.record(law, True)

    def down_closed(U: int) -> bool:
        return not any(B._down[p] & ~U for p in bits(U))

    for U in B.elements:
        if not down_closed(U) or B.regularize(U) != U:
            report.record("regular", False, list(bits(U)))
    for a in B.elements:
        if B.join(a, B.neg(a)) != B.one or B.meet(a, B.neg(a)) != B.zero:
            report.record("complement", False, list(bits(a)))
    pairs = itertools.islice(itertools.product(B.elements, repeat=2), ALGEBRA_TUPLE_CAP)
    for a, b in pairs:
        if B.neg(B.join(a, b)) != B.meet(B.neg(a), B.neg(b)):
            report.record("de-morgan", False, (list(bits(a)), list(bits(b))))
        if not (B.is_element(B.join(a, b)) and B.is_element(B.meet(a, b))
                and B.is_element(B.neg(a))):
            report.record("closure", False, (list(bits(a)), list(bits(b))))
    triples = itertools.islice(itertools.product(B.elements, repeat=3), ALGEBRA_TUPLE_CAP)
    for a, b, c in triples:
        if B.meet(a, B.join(b, c)) != B.join(B.meet(a, b), B.meet(a, c)):
            report.record("distributive", False,
                          (list(bits(a)), list(bits(b)), list(bits(c))))

    if len(P) <= 12:
        for U in range(1 << len(P)):
            if down_closed(U) and B.regularize(U) == U and not B.is_element(U):
                report.record("enumeration-complete", False, list(bits(U)))
    return report


class BooleanValues:
    """Boolean values of atomic statements, by the recursion on names."""

    def __init__(self, completion: BooleanCompletion):
        self.completion = completion
        self._size = len(completion.algebra.notion)
        self._memo: dict = {}

    def value(self, kind: str, sigma: PName, tau: PName) -> int:
        key = (kind, sigma, tau)
        got = self._memo.get(key)
        if got is not None:
            return got
        if sigma.max_condition >= self._size or tau.max_condition >= self._size:
            raise ForcelabError(_OUTSIDE)
        B = self.completion.algebra
        i = self.completion.embed
        if kind == "in":
            out = B.regularize(functools.reduce(
                operator.or_, (B.meet(self.value("eq", sigma, rho), i(r))
                               for rho, r in tau.entries), B.zero))
        elif kind == "sub":
            out = functools.reduce(
                operator.and_, (B.join(B.neg(i(r)), self.value("in", rho, tau))
                                for rho, r in sigma.entries), B.one)
        elif kind == "eq":
            out = B.meet(self.value("sub", sigma, tau), self.value("sub", tau, sigma))
        else:
            raise ForcelabError(f"unknown atomic kind {kind!r}")
        self._memo[key] = out
        return out

    def derived_forces(self, p: int, kind: str, sigma: PName, tau: PName) -> bool:
        v = self._memo.get((kind, sigma, tau))  # embed(p) ≤ the value, read directly
        return not self.completion.images[p] & ~(self.value(kind, sigma, tau) if v is None else v)


def boolean_values(completion: BooleanCompletion) -> BooleanValues:
    return BooleanValues(completion)


# ---------------------------------------------------------------------------
# Generic extensions and the forced-iff-true oracle.

class GenericExtension(NamedTuple):
    representative: dict[PName, PName]         # the least member of its =_G class
    membership: frozenset[tuple[PName, PName]]  # on representatives
    class_extensions: dict[str, frozenset[PName]]  # representatives satisfying Γ
    evaluation: dict[PName, HFSet]
    structure: "truth_mod.FiniteStructure"
    class_values: dict[str, frozenset[HFSet]]  # each class name's value, by direct evaluation


class _DirectSide:
    """The direct side of `extension` along one filter mask, computed from
    the names and class names alone.

    `evaluation` gives each universe name's value.  Row i of `eq_rows` holds
    the positions j whose value is N[i]'s, and row i of `within_rows` those
    whose value has N[i]'s as a member: masks over universe positions, like
    the forced rows.  `domain` is the set of the values.  Every value is
    kept in one memo, which `class_value` shares.
    """

    def __init__(self, universe: Sequence[PName], g: int):
        self.g, self._memo = g, {}
        self.evaluation = {a: eval_name(a, g, self._memo) for a in universe}
        blocks: dict[HFSet, int] = {}  # a value ↦ the positions of the names evaluating to it
        for j, a in enumerate(universe):
            x = self.evaluation[a]
            blocks[x] = blocks.get(x, 0) | 1 << j
        holders = dict.fromkeys(blocks, 0)  # a value ↦ the positions of values holding it
        for y, positions in blocks.items():
            for x in y:
                if x in holders:
                    holders[x] |= positions
        self.eq_rows = [blocks[self.evaluation[a]] for a in universe]
        self.within_rows = [holders[self.evaluation[a]] for a in universe]
        self.domain = frozenset(blocks)

    def class_value(self, cls: ClassName) -> frozenset[HFSet]:
        return eval_class(cls, self.g, self._memo)


def extension(FR: ForcingRelation, g: int) -> GenericExtension:
    """Quotient the universe by forced equality along the filter mask g, and
    verify it is isomorphic to the direct-evaluation structure.

    Both sides are built afresh on every call: the forced rows are read from
    the atomic table in one pass, and the direct side (the names' values, the
    rows of = and ∈ between them, and each class name's value) is computed
    from the names alone; each forced row is compared with its direct row as
    one mask.
    """
    N = FR.universe

    # Row i of each relation is a mask over universe positions: eq_row[i]
    # holds the j with N[i] =_G N[j], has[i] the j with N[j] ∈_G N[i] and
    # within[i] the j with N[i] ∈_G N[j].  They are read in one pass over the
    # table, which holds every pair of the universe from the constructor on.
    position = {a: i for i, a in enumerate(N)}
    eq_row, has, within = [0] * len(N), [0] * len(N), [0] * len(N)
    for (kind, sigma, tau), V in FR._atomic.items():
        if V & g and kind != "sub":
            i, j = position.get(sigma), position.get(tau)
            if i is None or j is None:
                continue
            if kind == "eq":
                eq_row[i] |= 1 << j
            else:
                within[i] |= 1 << j
                has[j] |= 1 << i

    for i in range(len(N)):
        if not eq_row[i] >> i & 1:
            raise ForcelabError("forced equality is not reflexive; corrupted table")
        for j in bits(eq_row[i]):
            if eq_row[j] & ~eq_row[i]:
                raise ForcelabError("forced equality is not transitive; corrupted table")
            if has[i] != has[j] or within[i] != within[j]:
                raise ForcelabError("forced equality is not a membership congruence")

    # The universe is sorted by key, so a block's first member is its least.
    firsts = [i for i in range(len(N)) if not eq_row[i] & ((1 << i) - 1)]
    rep = {N[j]: N[i] for i in firsts for j in bits(eq_row[i])}
    reps = [N[i] for i in firsts]
    membership = frozenset((N[i], N[j]) for i in firsts for j in firsts if within[i] >> j & 1)

    class_ext: dict[str, frozenset[PName]] = {}
    for ident in FR.classes:
        class_ext[ident] = frozenset(
            a for a in reps if FR.value(atom_in_class(name_const(a), ident)) & g)

    # Quotient vs direct evaluation: same identifications, same membership,
    # same class extensions.  The first wrong bit of a row names the same
    # pair a walk over all pairs would.
    side = _DirectSide(N, g)
    evaluation = side.evaluation
    for i, a in enumerate(N):
        wrong_eq = eq_row[i] ^ side.eq_rows[i]
        wrong = wrong_eq | within[i] ^ side.within_rows[i]
        if wrong:
            j = (wrong & -wrong).bit_length() - 1
            if wrong_eq >> j & 1:
                raise ForcelabError(
                    "forced equality disagrees with direct evaluation "
                    f"at {a!r}, {N[j]!r}")
            raise ForcelabError("forced membership disagrees with direct evaluation")
    domain = side.domain
    predicates, class_values = {}, {}
    for ident, cls in FR.classes.items():
        direct = class_values[ident] = side.class_value(cls)
        quotient_values = {evaluation[a] for a in class_ext[ident]}
        if quotient_values != direct & domain:
            raise ForcelabError(f"class {ident!r} extension disagrees with evaluation")
        predicates[ident] = direct & domain
    structure = truth_mod.FiniteStructure(domain, predicates)

    return GenericExtension(rep, membership, class_ext, evaluation, structure, class_values)


def ground_formula(phi: Formula, ext: GenericExtension) -> Formula:
    """Replace name constants by their evaluated sets and filter atoms by the
    generic-filter predicate, yielding a truth-language formula."""
    def term(t: Term) -> Term:
        if isinstance(t, NameConst):
            return const(ext.evaluation[t.name])
        if isinstance(t, PairTerm):
            raise ForcelabError("unfilled pair slot in a closed formula")
        return t

    def atom_fn(atom: Formula) -> Formula:
        if isinstance(atom, AtomInG):
            return atom_in_class(term(atom.term), "G")
        if isinstance(atom, AtomTr):
            raise ForcelabError("cannot ground AtomTr")
        return map_atom(atom, term)

    return map_formula(phi, atom_fn)


def truth_lemma_check(FR: ForcingRelation, phis: Formula | Iterable[Formula]):
    """Forced iff true, over every generic filter of the notion.

    Truth is Tarskian satisfaction in the direct-evaluation structure (the
    quotient is verified isomorphic when the extension is built), with
    quantifiers ranging over the evaluations of the universe.
    """
    if isinstance(phis, Formula):
        phis = [phis]
    phis = list(phis)
    for g in generic_filters(FR.notion):
        ext = extension(FR, g)
        for phi in phis:
            truth = truth_mod.eval_formula(ext.structure, ground_formula(phi, ext), {})
            if truth != (FR.value(phi) & g != 0):
                return False, (g, phi)
    return True, None


# ---------------------------------------------------------------------------
# The truth-predicate name.

class TruthName(NamedTuple):
    relation: ForcingRelation
    pool: tuple[Formula, ...]
    tdot: ClassName
    ok: bool
    failures: list


def _pool_entry_name(phi: Formula) -> PName:
    return op_name(check_name(encode_formula(phi)), check_name(EMPTY))


def truth_name(FR: ForcingRelation, pool: Sequence[Formula]) -> TruthName:
    """The class name collecting ⟨coded sentence, condition⟩ pairs that are
    forced, verified to name a truth predicate for the pool in every
    generic extension, with the derived relation agreeing with forcing."""
    pool = canonical_pool(pool)
    for phi in pool:
        if phi.free:
            raise ForcelabError("truth-name pools contain closed formulas")
    closed_subs = {s for phi in pool for s in nodes(phi) if not s.free}
    if closed_subs - set(pool):
        raise ClosureError("truth-name pool must contain every closed subformula")

    entries = [(_pool_entry_name(phi), p) for phi in pool for p in bits(FR.value(phi))]
    tdot = ClassName.make("T", entries)
    FR.register_class(tdot)

    failures = []
    for phi in pool:
        derived = FR.value(atom_in_class(name_const(_pool_entry_name(phi)), "T"))
        for p in bits(derived ^ FR.value(phi)):
            failures.append(("derived-vs-forcing", p, phi))

    for g in generic_filters(FR.notion):
        ext = extension(FR, g)
        t_values = ext.class_values["T"]

        def declared(phi: Formula) -> bool:
            code = hf_pair(encode_formula(phi), EMPTY)
            return code in t_values

        for phi in pool:
            true = truth_mod.eval_formula(ext.structure, ground_formula(phi, ext), {})
            if declared(phi) != true:
                failures.append(("extension-truth", g, phi))
            if isinstance(phi, Not) and phi.sub in pool:
                if declared(phi) == declared(phi.sub):
                    failures.append(("negation-clause", g, phi))
            if isinstance(phi, And) and all(s in pool for s in phi.subs):
                if declared(phi) != all(declared(s) for s in phi.subs):
                    failures.append(("conjunction-clause", g, phi))
            if isinstance(phi, Forall) and len(phi.vars) == 1:
                insts = [substitute(phi.body, {phi.vars[0]: name_const(n)})
                         for n in FR.universe]
                if all(i in pool for i in insts):
                    if declared(phi) != all(declared(i) for i in insts):
                        failures.append(("quantifier-clause", g, phi))

    return TruthName(FR, pool, tdot, not failures, failures)


# ---------------------------------------------------------------------------
# The atomic relation re-derived as a staged recursion instance.

def atomic_recursion_instance(P: ForcingNotion, universe: Sequence[PName]):
    """The forcing recursion as an explicit instance: pairs of names staged by
    (max rank, rank pair), with the subset clause unfolded into membership.

    The statement that p forces σ ∈ τ (kind 0) or σ = τ (kind 1) is coded as
    the doubleton {p̄, c}: p̄ = nat_encode(p), and c = ⟨kind, ⟨⌜σ⌝, ⌜τ⌝⟩⟩ is
    a Kuratowski pair of the kind's ordinal and the names' codes.  The code
    is injective: the members of a pair are nonempty, while every nonzero
    von Neumann natural has ∅ as a member and 0 = ∅ is no pair, so c is no
    natural; p̄ is the doubleton's one natural member, and c the other.
    Each code is one new set, with no entry in `hf_pair`'s table.
    The codec lists the codes condition by condition, each in the order of
    the pairs (kind, σ, τ); that is the domain order in which
    `verify_solution` reports a failure."""
    N = tuple(sorted(set(universe), key=lambda n: n.key))
    if not is_subname_closed(N):
        raise ClosureError("name universe must be subname-closed")
    stages = sorted({(max(s.rank, t.rank), s.rank, t.rank) for s in N for t in N})
    stage_index = {st: i for i, st in enumerate(stages)}

    def stage_of(s: PName, t: PName) -> int:
        return stage_index[(max(s.rank, t.rank), s.rank, t.rank)]

    code = {s: name_to_hf(s) for s in N}
    pair_codes = {(kind, s, t): hf_pair(nat_encode(k), hf_pair(code[s], code[t]))
                  for k, kind in enumerate(("in", "eq")) for s in N for t in N}
    encodings: dict[tuple[str, PName, PName], list[HFSet]] = {pair: [] for pair in pair_codes}
    codec: dict[HFSet, tuple[int, str, PName, PName]] = {}
    for p in P.conditions():
        p_code = nat_encode(p)
        for pair, c in pair_codes.items():
            enc = hf_make((p_code, c))
            codec[enc] = (p, *pair)
            encodings[pair].append(enc)  # indexed by condition
    if len(codec) != 2 * len(P.conditions()) * len(N) ** 2:
        raise ForcelabError(f"atomic codes collide: {len(codec)} codes for "
                            f"{len(P.conditions())} conditions and {len(N)} names")

    down = [P.down(p) for p in P.conditions()]
    # Every condition of a pair (kind, σ, τ) reads the same earlier slices, so
    # the step decides the whole pair at once: its *rejection mask* holds the
    # conditions q1 below which no witness lies, and p is forced iff no q1 ≤ p
    # is rejected.  The masks, and the *held* masks they are built from (the
    # conditions whose encoding of an earlier pair lies in its slice), are
    # derived from one view, so they live in its memo: a rejection mask under
    # (kind, σ, τ), a held mask under ("held", kind, σ, τ).

    def held(view, kind: str, s: PName, t: PName) -> int:
        key = ("held", kind, s, t)
        got = view.memo.get(key)
        if got is None:
            stage = stage_of(s, t)
            got = view.memo[key] = sum(
                1 << q for q, enc in enumerate(encodings[(kind, s, t)]) if view(stage, enc))
        return got

    @functools.cache
    def unwitnessed(witnesses: int) -> int:
        # the conditions q1 with no witness q ≤ q1; a function of the notion
        return sum(1 << q1 for q1, below in enumerate(down) if not below & witnesses)

    def rejected(view, kind: str, sigma: PName, tau: PName) -> int:
        if kind == "in":
            # a witness lies below an entry's r and forces σ = ρ by an
            # earlier slice
            witnesses = 0
            for rho, r in tau.entries:
                witnesses |= down[r] & held(view, "eq", sigma, rho)
            return unwitnessed(witnesses)
        # equality, with both subset directions unfolded into membership: a
        # q1 ≤ r is rejected when no q ≤ q1 forces ρ ∈ b
        out = 0
        for a, b in ((sigma, tau), (tau, sigma)):
            for rho, r in a.entries:
                out |= down[r] & unwitnessed(held(view, "in", rho, b))
        return out

    def step(x: HFSet, alpha: int, view) -> bool:
        p, kind, sigma, tau = codec[x]
        mask = view.memo.get((kind, sigma, tau))
        if mask is None:
            mask = view.memo[(kind, sigma, tau)] = rejected(view, kind, sigma, tau)
        return not down[p] & mask

    inst = etr_mod.staged_instance(codec, len(stages), lambda x: (stage_of(*codec[x][2:]),),
                                   step, "atomic-forcing")
    return inst, codec, stage_of


def compare_atomic_table(FR: ForcingRelation, solution, codec) -> bool:
    """Bit-identical agreement between the staged solution and the direct table."""
    staged = frozenset().union(*solution.slices)
    return all((enc in staged) == FR.decide(kind, p, sigma, tau)
               for enc, (p, kind, sigma, tau) in codec.items())
