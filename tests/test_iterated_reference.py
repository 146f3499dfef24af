"""The iterated truth predicate keys its memo by the values of a formula's
free variables and passes the caller's valuation down unrestricted, and the
stage translation builds each (ξ, ψ) disjunct once.  Copies of the code
they replaced are kept here as references: a predicate that restricts the
valuation to each subformula's free variables and keys its memo by
(variable, value) pairs, and a translator that rebuilds every disjunct for
every stage above it."""

import itertools

import pytest

from forcelab import (EMPTY, And, AtomEq, AtomIn, AtomTr, Exists, FiniteStructure, Forall,
                      IteratedTruthPredicate, Not, Or, StageTranslator, Var, and_, atom_eq,
                      atom_in, atom_in_class, atom_tr, corpus, decode_formula,
                      decode_valuation, encode_formula, encode_valuation, exists, forall, iff,
                      instances, nat_decode, nat_encode, not_, or_, subformula_closure,
                      theta_formula, v_stage, valuation_key, var)
from forcelab import formulas

STAGES = 5  # stages 0..4


# Atoms, terms and codes read off the sets and the public codecs.

def _value(t, v):
    return v[t.name] if isinstance(t, Var) else t.value  # a variable or a ground constant


def _atom_holds(M, phi, v) -> bool:
    """An atom other than a truth atom, read off the members of the sets."""
    if isinstance(phi, AtomIn):
        return _value(phi.left, v) in _value(phi.right, v).children
    if isinstance(phi, AtomEq):
        return _value(phi.left, v) is _value(phi.right, v)
    return _value(phi.term, v) in M.predicates[phi.ident]


def _decoded_tr(phi, v):
    """(stage, formula, valuation) a truth atom's arguments code, or None."""
    stage, psi, val = (nat_decode(_value(phi.stage, v)), decode_formula(_value(phi.code, v)),
                       decode_valuation(_value(phi.valuation, v)))
    return None if None in (stage, psi, val) else (stage, psi, val)


def _identifier_code(name):
    """The code of a variable identifier: the first member of the one pair
    that codes {name ↦ ∅}."""
    (pair,) = encode_valuation({name: EMPTY}).children
    return next(c for c in pair.children if len(c.children) == 1).children[0]


def _valuation_description(z_var, entries):
    """z is exactly the coded map {code ↦ value variable} of the entries."""
    pair_formulas = []
    for code, a in entries:
        sing = forall(("t",), iff(atom_in(var("t"), var("u")), theta_formula(code, "t")))
        doub = forall(("t",), iff(atom_in(var("t"), var("u")),
                                  or_([theta_formula(code, "t"), atom_eq(var("t"), var(a))])))
        pair_formulas.append(and_([
            forall(("u",), iff(atom_in(var("u"), var("w")), or_([sing, doub]))),
            exists(("u",), and_([atom_in(var("u"), var("w")), doub]))]))
    return forall(("w",), iff(atom_in(var("w"), var(z_var)), or_(pair_formulas)))


class ReferencePredicate(IteratedTruthPredicate):
    def _query(self, beta, phi, v):
        key = (beta, phi, valuation_key(phi, v))
        got = self._memo.get(key)
        if got is not None:
            return got
        out = self._eval(beta, phi, v)
        self._memo[key] = out
        return out

    def _eval(self, beta, phi, v):
        M = self.structure
        if isinstance(phi, AtomTr):
            decoded = _decoded_tr(phi, v)
            if decoded is None:
                return False
            alpha, psi, val = decoded
            if alpha >= beta or psi not in self._pool_set:
                return False
            if set(val) != set(psi.free) or not all(x in M for x in val.values()):
                return False
            return self._query(alpha, psi, val)
        if phi.rank == 0:
            return _atom_holds(M, phi, v)
        if isinstance(phi, Not):
            return not self._query(beta, phi.sub, {x: v[x] for x in phi.sub.free})
        if isinstance(phi, And):
            return all(self._query(beta, s, {x: v[x] for x in s.free}) for s in phi.subs)
        if isinstance(phi, Or):
            return any(self._query(beta, s, {x: v[x] for x in s.free}) for s in phi.subs)
        assert isinstance(phi, (Forall, Exists))
        want_all = isinstance(phi, Forall)
        for values in itertools.product(M.domain, repeat=len(phi.vars)):
            ext = dict(v)
            ext.update(zip(phi.vars, values))
            if self._query(beta, phi.body, {x: ext[x] for x in phi.body.free}) != want_all:
                return not want_all
        return want_all


def _base():
    stage = v_stage(3)
    return FiniteStructure(stage, {"d": [EMPTY, stage[2]]})


def _rebinding_pool():
    # Each quantifier binds a variable that is free elsewhere in its formula,
    # so a quantifier that wrote into the valuation it was given would leave a
    # stale value for the conjunct or disjunct beside it.
    a, b, c = var("a"), var("b"), var("c")
    seeds = [
        and_([exists(("a",), atom_in(a, b)), atom_in(a, b)]),
        and_([atom_in(b, a), exists(("a",), atom_in(a, b))]),
        or_([forall(("a",), not_(atom_eq(a, b))), atom_eq(a, b)]),
        exists(("b",), and_([atom_in(a, b),
                             forall(("a",), or_([atom_in(a, b), atom_in_class(a, "d")])),
                             not_(atom_eq(a, b))])),
        forall(("c",), or_([exists(("a", "c"), and_([atom_in(a, c), atom_in(c, b)])),
                            atom_in(c, a)])),
        and_([exists(("a",), atom_tr(a, b, c)), not_(atom_tr(a, b, c))]),
        atom_tr(b, c, a),  # the same disjuncts over other argument variables
    ]
    return list(subformula_closure(seeds))


def _every_query(M, pool):
    """Every stage and pool formula at every valuation over the domain, then
    the truth atom at every coded (stage, formula, valuation) point."""
    for beta in range(STAGES):
        for phi in pool:
            for v in instances(M, phi):
                yield beta, phi, v
    atoms = [f for f in pool if isinstance(f, AtomTr)]
    for atom in atoms:
        xv, yv, zv = atom.free_sorted
        for beta in range(STAGES):
            for alpha in range(STAGES):
                for psi in pool:
                    for av in instances(M, psi):
                        yield beta, atom, {xv: nat_encode(alpha), yv: encode_formula(psi),
                                           zv: encode_valuation(av)}


def _disagreements(M, pool, queries) -> int:
    pred = IteratedTruthPredicate(M, STAGES, pool)
    ref = ReferencePredicate(M, STAGES, pool)
    return sum(pred.holds(beta, phi, dict(v)) != ref.holds(beta, phi, dict(v))
               for beta, phi, v in queries)


@pytest.mark.parametrize("pool", [corpus.iterated_pool, _rebinding_pool],
                         ids=["iterated-pool", "rebinding-pool"])
def test_predicate_matches_the_restricting_reference(pool):
    M, pool = _base(), pool()
    queries = list(_every_query(M, pool))
    assert _disagreements(M, pool, queries) == 0
    # largest formulas first, so that composites are judged before their
    # subformulas are in the memo
    assert _disagreements(M, pool, queries[::-1]) == 0


def test_the_rebinding_pool_has_true_and_false_answers():
    M, pool = _base(), _rebinding_pool()
    pred = IteratedTruthPredicate(M, STAGES, pool)
    answers = {pred.holds(beta, phi, v) for beta, phi, v in _every_query(M, pool)
               if isinstance(phi, (Forall, Exists)) or phi.rank > 1}
    assert answers == {True, False}


def test_a_query_leaves_the_callers_valuation_as_it_was():
    M, pool = _base(), _rebinding_pool()
    pred = IteratedTruthPredicate(M, STAGES, pool)
    for beta, phi, v in _every_query(M, pool):
        before = dict(v)
        pred.holds(beta, phi, v)
        assert v == before


class ReferenceTranslator(StageTranslator):
    def _translate_tr(self, beta, phi):
        x, y, z = phi.stage.name, phi.code.name, phi.valuation.name
        disjuncts = []
        for xi in range(beta):
            stage_code = nat_encode(xi)
            for psi in self.pool:
                fv = tuple(sorted(psi.free))
                psi_star = self.translate(xi, psi)
                taken = formulas.variables(psi_star, self._variables) | {x, y, z}
                fresh = []
                i = 0
                while len(fresh) < len(fv):
                    if f"h{i}" not in taken:
                        fresh.append(f"h{i}")
                    i += 1
                renamed = formulas.rename_free(psi_star, dict(zip(fv, fresh)))
                desc = _valuation_description(
                    z, [(_identifier_code(v), a) for v, a in zip(fv, fresh)])
                inner = and_([desc, renamed])
                ex = exists(tuple(fresh), inner) if fresh else inner
                disjuncts.append(and_([
                    theta_formula(stage_code, x),
                    theta_formula(encode_formula(psi), y),
                    ex,
                ]))
        return or_(disjuncts)


@pytest.mark.parametrize("pool", [corpus.iterated_pool, _rebinding_pool],
                         ids=["iterated-pool", "rebinding-pool"])
def test_every_translation_is_the_rebuilding_references(pool):
    tr = StageTranslator(pool(), STAGES)
    ref = ReferenceTranslator(pool(), STAGES)
    for beta in range(STAGES):
        for phi in tr.pool:
            assert tr.translate(beta, phi) is ref.translate(beta, phi)
