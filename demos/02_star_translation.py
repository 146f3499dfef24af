"""Walkthrough: compiling sentences down to single atomic equalities.

Any quantifier-free sentence in the forcing language, however deep its
conjunctions and disjunctions, has the same forcing behaviour as one
equality between two purpose-built names.  The pipeline eliminates
filter atoms, pushes negations to the leaves, rewrites the negated atoms
away along a descending rank measure, and then folds the connectives
into names (disjunction via a pair of names that agree exactly when some
disjunct introduces a redundancy).
"""

import random

from forcelab import (atomic_forcing, corpus, forces, formula_to_sexp,
                      name_universe, star_translate, subnames)

fork = corpus.fork()
universe = name_universe(fork, 1)
FR = atomic_forcing(fork, universe)
names = corpus.sample_names(fork, universe)

rng = random.Random(4)
sentence = corpus.random_qf_sentence(rng, fork, names)
print("a random sentence:")
print(" ", formula_to_sexp(sentence, fork))

left, right = star_translate(sentence, fork)
print(f"\nits terminal equality has names of {len(subnames(left))} and "
      f"{len(subnames(right))} hereditary entries")

print("\ncondition by condition, both routes agree:")
for p in fork.conditions():
    composite = forces(FR, p, sentence, check_universe=False)
    atomic = FR.decide("eq", p, left, right)
    print(f"  {fork.elements[p]}: composite={composite}  atomic={atomic}")
    assert composite == atomic

checks = 0
for _ in range(200):
    s = corpus.random_qf_sentence(rng, fork, names)
    a, b = star_translate(s, fork)
    for p in fork.conditions():
        assert forces(FR, p, s, check_universe=False) == FR.decide("eq", p, a, b)
        checks += 1
print(f"\n…and on 200 more random sentences ({checks} condition checks): all agree")
