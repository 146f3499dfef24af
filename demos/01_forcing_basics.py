"""Walkthrough: conditions, names, and the atomic forcing relation.

The simplest interesting notion is the fork: a top condition with two
incompatible strengthenings.  A name whose sole entry rides on one tooth
evaluates differently depending on which tooth the generic filter picks,
and the forcing relation knows this before any filter is chosen.
"""

from forcelab import (EMPTY, EMPTY_NAME, atomic_forcing, bits, check_name,
                      corpus, eval_name, generic_filters, hf_make, name_make,
                      truth_lemma_check)

fork = corpus.fork()
a, b = fork.index("a"), fork.index("b")
print(f"the fork: conditions {fork.elements}, a ⊥ b below the top")

filters = generic_filters(fork)
print(f"generic filters: {[list(bits(G)) for G in filters]}  (one per tooth)")

# σ = {(∅̌, a)}: "the empty set joins, provided a is in the filter"
sigma = name_make([(EMPTY_NAME, a)])
for G in filters:
    print(f"  eval(σ, up{list(bits(G))}) = {eval_name(sigma, G)}")

universe = corpus.oracle_universe(fork)  # every rank-≤1 name plus condition checks
FR = atomic_forcing(fork, universe)
one_check = check_name(hf_make([EMPTY]))
print("\nthe relation decides σ before any filter exists:")
print(f"  a ⊩ σ = {{∅}}̌  : {FR.decide('eq', a, sigma, one_check)}")
print(f"  b ⊩ σ = ∅̌    : {FR.decide('eq', b, sigma, EMPTY_NAME)}")
print(f"  1 ⊩ σ = {{∅}}̌  : {FR.decide('eq', 0, sigma, one_check)}  (the top cannot decide)")

pool = corpus.oracle_pool(fork, universe)
ok, failure = truth_lemma_check(FR, pool)
print(f"\nforced iff true, over {len(pool)} sentences and both filters: {ok}")
