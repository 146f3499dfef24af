"""Walkthrough: reading truth off the augmented collapse forcing.

The collapse notion maps a clock onto a cumulative stage; supremum tokens
let small names describe the whole induced copy of membership.  A
first-order statement about the stage translates to a quantifier-free
statement about the clock copy, and the top condition forces the
translation exactly when the statement is true.  No condition knows more
than the top does (the invariance below is the whole point).
"""

from forcelab import (EMPTY, FiniteStructure, bits, build_collapse, corpus,
                      eval_name, formula_to_sexp, forcing_truth,
                      generic_filters, invariance_check, n_dot, tarski_truth,
                      v_stage)
from forcelab.truth import instances

stage = v_stage(2)
A = [EMPTY]
fa = build_collapse(2, A)
print(f"collapse of stage 2 (targets {stage}): {len(fa)} conditions, clock {fa.clock}")
print(f"generic filters = total bijections: {len(generic_filters(fa))}")

nd = n_dot(fa, EMPTY)
for G in generic_filters(fa):
    print(f"  slot name for ∅ evaluates to {eval_name(nd, G)} under {list(bits(G))}")

pool = corpus.first_order_pool()
derived = forcing_truth(2, A, pool)
direct = tarski_truth(FiniteStructure(stage, {"A": A}), pool)

agreements = 0
for phi in derived.pool:
    for v in instances(FiniteStructure(stage), phi):
        assert derived.holds(phi, v) == direct.holds(phi, v)
        agreements += 1
print(f"\nforcing-derived truth equals direct truth on {agreements} instances")

sample = derived.pool[12]
print("e.g.", formula_to_sexp(sample), "→ translation",
      formula_to_sexp(derived._stars[sample], fa)[:100], "…")

ok, _ = invariance_check(2, A, pool, derived)
print(f"every condition forces a translation iff the top does: {ok}")
