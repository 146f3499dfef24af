"""The acceptance comparisons, each written once: the CLI suites, which the
acceptance gate runs, and the fault-injection tests call these functions,
so a fault the tests inject meets the check the gate and the CLI run.  Each
function compares two sides point by point.  A side is given or built with
its own public constructor, never computed here, so the two stay
independent.  Checks that are one library call are called directly.
"""

import functools
import itertools
from typing import NamedTuple

from .etr import etr_solve, verify_solution
from .forcing import forces, star_translate
from .formulas import (And, AtomTr, Forall, Formula, Not, Or, encode_formula,
                       encode_valuation, formula_to_sexp)
from .games import (extract_verdicts, label_fixpoint_violation, truth_telling_game,
                    verify_strategy, zermelo_solve)
from .hfset import nat_encode
from .truth import (CODED_VALUATION_CAP, eval_formula, instances, iterated_truth,
                    iterated_truth_instance, valuation_key)


class Verdict(NamedTuple):
    failures: int  # points where the two sides disagree
    first: object  # where the first disagreement is, or None
    checked: int   # points compared


def _shown(x):
    if isinstance(x, Formula):
        return formula_to_sexp(x)
    if isinstance(x, dict):
        return sorted(x.items())
    return x


def _criterion(points):
    """Turn a generator of (agree, where) pairs into a function returning
    their Verdict; the first disagreement's `where` is kept, its formulas
    and valuations shown as text."""
    @functools.wraps(points)
    def tally(*args) -> Verdict:
        failures, first, checked = 0, None, 0
        for agree, where in points(*args):
            checked += 1
            if not agree:
                failures += 1
                if first is None:
                    first = tuple(map(_shown, where)) if isinstance(where, tuple) else _shown(where)
        return Verdict(failures, first, checked)
    return tally


# --- forcing, its translation and its Boolean values (criteria 2, 3) ---------

@_criterion
def star_translation(FR, sentences):
    """Each quantifier-free sentence against the atomic equality it
    translates to, at every condition."""
    P = FR.notion
    for sentence in sentences:
        left, right = star_translate(sentence, P)
        for p in P.conditions():
            yield (forces(FR, p, sentence, check_universe=False)
                   == FR.decide("eq", p, left, right)), (p, sentence)


@_criterion
def value_coherence(FR, bv):
    """The Boolean values against the table: whether the embedded condition
    lies below a value, against the kernel's decision."""
    N = FR.universe
    for kind, s, t, p in itertools.product(("in", "sub", "eq"), N, N, FR.notion.conditions()):
        yield bv.derived_forces(p, kind, s, t) == FR.decide(kind, p, s, t), (kind, p)


@_criterion
def dense_embedding(P, completion):
    """The order and the compatibility of the notion against those of the
    embedded conditions, and density: every nonzero element lies above an
    embedded condition."""
    B, embed, conditions = completion.algebra, completion.embed, P.conditions()
    for p, q in itertools.product(conditions, repeat=2):
        yield B.le(embed(p), embed(q)) == P.le(p, q), ("order", p, q)
        yield P.compatible(p, q) == (B.meet(embed(p), embed(q)) != B.zero), ("compatibility", p, q)
    for u in B.elements:
        if u != B.zero:
            yield (any(B.le(embed(p), u) for p in conditions),
                   ("density", [p for p in conditions if u >> p & 1]))


# --- truth (criteria 4, 6, 7) -------------------------------------------------

@_criterion
def collapse_truth(ft, tp):
    """Truth read off the collapse against Tarskian truth, at every instance
    of the collapse's pool."""
    for phi in ft.pool:
        for v in instances(tp.structure, phi):
            yield ft.holds(phi, v) == tp.holds(phi, v), (phi, v)


def _encodings(atom, base, psis, stages):
    """(β, α, ψ, a, v) for stages α, β and instances a of ψ over the base: v
    is the valuation of the truth atom that codes α, ψ and a."""
    xv, yv, zv = atom.free_sorted
    for beta, alpha in itertools.product(range(stages), repeat=2):
        for psi in psis:
            for av in instances(base, psi):
                yield beta, alpha, psi, av, {xv: nat_encode(alpha), yv: encode_formula(psi),
                                             zv: encode_valuation(av)}


@_criterion
def iterated_atoms(it):
    """Clause (a): at every stage the predicate judges the atoms other than
    truth atoms as `eval_formula` does."""
    for beta in range(it.beta_max):
        for phi in it.pool:
            if phi.rank == 0 and not isinstance(phi, AtomTr):
                for v in instances(it.structure, phi):
                    yield it.holds(beta, phi, v) == eval_formula(it.structure, phi, v), (beta, phi)


@_criterion
def self_coherence(it):
    """Clause (b): the truth atom at stage β, at the encoding point of (α, ψ,
    a), holds exactly when α < β and ψ holds of a at stage α."""
    atom = next(f for f in it.pool if isinstance(f, AtomTr))
    for beta, alpha, psi, av, v in _encodings(atom, it.structure, it.pool, it.beta_max):
        yield (it._query(beta, atom, v) == (alpha < beta and it._query(alpha, psi, av)),
               (beta, alpha, psi))


@_criterion
def iterated_logic(it):
    """Clauses (c) and (d): each ¬, ∧, ∨ and ∀ against the votes of its
    subformulas at the same stage."""
    for beta in range(it.beta_max):
        for phi in it.pool:
            for v in instances(it.structure, phi):
                if isinstance(phi, Not):
                    want = not it._query(beta, phi.sub, v)
                elif isinstance(phi, (And, Or)):
                    votes = [it._query(beta, s, v) for s in phi.subs]
                    want = all(votes) if isinstance(phi, And) else any(votes)
                elif isinstance(phi, Forall):
                    want = all(it._query(beta, phi.body, {**v, **dict(zip(phi.vars, values))})
                               for values in itertools.product(it.structure.domain,
                                                               repeat=len(phi.vars)))
                else:
                    continue
                yield it.holds(beta, phi, v) == want, (beta, phi)


def instance_points(base, pool, stages):
    """(β, φ, a) for every stage β < stages and instance a of φ over the base."""
    return [(beta, phi, v) for beta in range(stages) for phi in pool for v in instances(base, phi)]


def encoding_points(base, pool, stages):
    """(β, truth atom, v) at the encoding point v of (α, ψ, a) for α, β <
    stages and each ψ whose coded valuations the comparison structure holds."""
    atom = next(f for f in pool if isinstance(f, AtomTr))
    coded = [psi for psi in pool if len(psi.free) <= CODED_VALUATION_CAP]
    return [(beta, atom, v) for beta, _, _, _, v in _encodings(atom, base, coded, stages)]


@_criterion
def dual_path(derived, direct, points):
    """The predicate derived from the stage translations against the
    iterated predicate, at (β, φ, valuation) points."""
    for beta, phi, v in points:
        yield derived.holds(beta, phi, v) == direct.holds(beta, phi, v), (beta, phi)


@_criterion
def staged_iterated(inputs, stages):
    """Per structure and pool, the iterated predicate's staged instance, solved
    and verified, against the predicate: the stages each instance holds at."""
    for M, pool in inputs:
        inst, codec, _ = iterated_truth_instance(M, stages, pool)
        solution = etr_solve(inst)
        yield verify_solution(inst, solution)
        direct = iterated_truth(M, stages, pool)
        span = max(f.rank for f in pool) + 1  # slices are stage-major, then by rank
        for enc, (phi, v) in codec.items():
            staged = sorted(i // span for i, sl in enumerate(solution.slices) if enc in sl)
            yield staged == [b for b in range(stages) if direct.holds(b, phi, v)], phi


@_criterion
def solves_verify(named):
    """Each named recursion instance's solution against its own equations:
    one point per instance."""
    for name, inst in named:
        yield verify_solution(inst, etr_solve(inst))[0], name


# --- games (criterion 8) ------------------------------------------------------

@_criterion
def zermelo_games(trees):
    """Each tree's backward-induction labels against the fixpoint equations,
    and the winner's strategy played out against every opposing move."""
    for i, T in enumerate(trees):
        result = zermelo_solve(T)
        nid = label_fixpoint_violation(T, result.labels)
        yield nid is None, ("fixpoint", i, nid)
        winner = result.labels[T.root]
        ok, line = verify_strategy(T, result.strategy(winner), winner)
        yield ok, ("strategy", i, line)


@_criterion
def truth_telling(M, pool, clocks):
    """The truth-telling game at each clock: the truth-teller wins, her
    strategy verifies, and her verdicts on the instances of rank below the
    clock agree with `eval_formula`."""
    pool_instances = [(phi, v) for phi in pool for v in instances(M, phi)]
    for clock in clocks:
        T = truth_telling_game(M, pool, clock)
        result = zermelo_solve(T)
        yield result.labels[T.root] == "II", ("interrogator-wins", clock)
        yield verify_strategy(T, result.strategy_II, "II")[0], ("strategy", clock)
        verdicts = extract_verdicts(T, result.strategy_II, pool_instances)
        for phi, v in pool_instances:
            if phi.rank <= clock - 1:
                yield (verdicts[(phi, valuation_key(phi, v))] == eval_formula(M, phi, v),
                       ("verdict", clock, phi))
