"""Walkthrough: the regular-open completion and Boolean values.

A separative finite preorder embeds densely into the algebra of its
regular-open downsets, and atomic statements acquire Boolean values by a
recursion on names.  A condition forces an atomic statement exactly when
its embedded image sits below the statement's value.
"""

from forcelab import (EMPTY_NAME, atomic_forcing, audit_boolean_algebra,
                      boolean_completion, boolean_values, corpus,
                      name_make, name_universe)

fork = corpus.fork()
completion = boolean_completion(fork)
B = completion.algebra


def conditions(mask: int) -> list[str]:
    return sorted(fork.elements[q] for q in fork.conditions() if mask >> q & 1)


print(f"the fork completes to a {len(B)}-element algebra")
for p in fork.conditions():
    print(f"  i({fork.elements[p]}) = {conditions(completion.embed(p))}")

print(f"\nalgebra laws audited: {audit_boolean_algebra(B).ok}")

a = fork.index("a")
sigma = name_make([(EMPTY_NAME, a)])
values = boolean_values(completion)
v = values.value("eq", EMPTY_NAME, sigma)
print(f"\n⟦∅-name = σ⟧ = {conditions(v)}"
      f"  (the complement of i(a): σ is empty exactly off the a-tooth)")
assert v == B.neg(completion.embed(a))

FR = atomic_forcing(fork, name_universe(fork, 1))
agreements = 0
for kind in ("in", "sub", "eq"):
    for s in FR.universe:
        for t in FR.universe:
            for p in fork.conditions():
                assert values.derived_forces(p, kind, s, t) == FR.decide(kind, p, s, t)
                agreements += 1
print(f"\nvalue-route and recursion-route agree on {agreements} atomic decisions")
