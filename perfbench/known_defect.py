"""Reproduce the program defect that the iterated-etr-games inputs leave out.

    PYTHONPATH=src python3 perfbench/known_defect.py

Run from the root of a forcelab checkout.  The stage translation describes
a coded valuation {a ↦ v} by the Kuratowski pair ⟨code of a, v⟩, and
`DerivedIteratedTruth` evaluates that description over the domain of
`stage_comparison_structure`.  When v is the code of `a` itself ({{∅}}), the
pair degenerates to {{code}}, and for every other value h whose set
{code, h} is not in that domain the description holds as well.  So with
d ∋ {{∅}} the derived predicate finds a witness for tr(α, ⌜¬(a ∈ d)⌝,
{a ↦ {{∅}}}), while direct iterated truth, correctly, says it is false.

The benchmark draws `d` from the elements of V₃ that are not codes of the
pool's variables, so that its answer check passes on every seed; this
script keeps the defect in view.  It runs the benchmark's dual-path check
on truth atoms with d = V₃, prints every disagreement and exits 1 while
there is one, 0 once the program is fixed.  Then the exclusion in
perfbench/workloads.py can go, and perfbench/record.py must be run again.
"""

from __future__ import annotations

import sys

import forcelab as fl

from workloads import ITERATED_STAGES, valuations


def main() -> int:
    stage = fl.v_stage(3)
    base = fl.FiniteStructure(stage, {"d": stage})
    pool = fl.corpus.iterated_pool()
    atom = next(f for f in pool if isinstance(f, fl.AtomTr))
    xv, yv, zv = atom.free_sorted
    D = fl.stage_comparison_structure(base, pool, ITERATED_STAGES)
    derived = fl.DerivedIteratedTruth(D, pool, ITERATED_STAGES)
    direct = fl.iterated_truth(D, ITERATED_STAGES, pool)
    wrong = 0
    for beta in (1, ITERATED_STAGES - 1):
        for alpha in range(beta):
            for psi in pool:
                if len(psi.free) > 1:
                    continue
                for av in valuations(base.domain, psi):
                    v = {xv: fl.nat_encode(alpha), yv: fl.encode_formula(psi),
                         zv: fl.encode_valuation(av)}
                    got, want = derived.holds(beta, atom, v), direct.holds(beta, atom, v)
                    if got != want:
                        wrong += 1
                        shown = {k: str(x) for k, x in av.items()}
                        print(f"stage {beta}: tr({alpha}, {fl.formula_to_sexp(psi)}, {shown}) "
                              f"derived {got}, direct {want}")
    print(f"{wrong} disagreements with d = V3")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
