"""Walkthrough: staged truth and the stage translation.

An iterated truth predicate judges truth-atoms about earlier stages only.
Compiling the truth-atom away yields, for each stage, an infinitary
formula that mentions stages and pool formulas solely through their
defining formulas; evaluating those translations recovers the very same
predicate.
"""

from forcelab import (EMPTY, AtomTr, DerivedIteratedTruth, FiniteStructure,
                      StageTranslator, corpus, encode_formula,
                      encode_valuation, forall, formula_to_sexp,
                      iterated_truth, nat_encode,
                      stage_comparison_structure, v_stage, var)
from forcelab.formulas import atom_eq

stage = v_stage(3)
base = FiniteStructure(stage, {"d": [EMPTY]})
pool = corpus.iterated_pool()
BETA = 5
predicate = iterated_truth(base, BETA, pool)

atom = next(f for f in pool if isinstance(f, AtomTr))
xv, yv, zv = atom.free_sorted
taut = forall(("a",), atom_eq(var("a"), var("a")))
point = {xv: nat_encode(0), yv: encode_formula(taut), zv: encode_valuation({})}
print("the truth-atom about the stage-0 tautology:")
for beta in range(BETA):
    print(f"  stage {beta}: {predicate._query(beta, atom, point)}"
          + ("   (no earlier stage exists)" if beta == 0 else ""))

translator = StageTranslator(pool, BETA)
print(f"\nstage-0 translation of the truth-atom: {formula_to_sexp(translator.translate(0, atom))}"
      "   (the empty disjunction)")
t1 = translator.translate(1, atom)
print(f"stage-1 translation: a disjunction over {len(t1.subs)} "
      f"(stage, pool formula) pairs, no constants: "
      f"{not t1.const_kinds}")

comparison = stage_comparison_structure(base, pool, BETA)
print(f"\ncomparison structure: {len(comparison.domain)} sets "
      "(the stage plus every code the translations must pin down)")
derived = DerivedIteratedTruth(comparison, pool, BETA)
direct = iterated_truth(comparison, BETA, pool)
from forcelab.truth import instances
agreements = 0
for beta in range(BETA):
    for phi in pool:
        for v in instances(base, phi):
            assert derived.holds(beta, phi, v) == direct.holds(beta, phi, v)
            agreements += 1
print(f"evaluated translations match the staged recursion on {agreements} instances")
