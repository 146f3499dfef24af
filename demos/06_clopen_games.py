"""Walkthrough: solving clopen games and interrogating a truth-teller.

Back-propagation labels every node of a finite game tree with the player
who can force a win from it, and the labels certify themselves: staying
on one's own label is a winning strategy.  In the truth-telling game the
interrogator burns a clock with every challenge, so she can never win —
and the surviving truth-teller strategies encode Tarskian truth.
"""

import random

from forcelab import (FiniteStructure, atom_eq, atom_in, continuous_rank,
                      eval_formula, extract_verdicts, formula_to_sexp, not_,
                      random_game_tree, truth_telling_game, v_stage, var,
                      verify_strategy, zermelo_solve)
from forcelab.truth import instances, valuation_key

rng = random.Random(9)
tree = random_game_tree(rng, 60)
ranks = continuous_rank(tree)
result = zermelo_solve(tree)
winner = result.labels[tree.root]
print(f"a random {len(tree)}-node tree of rank {ranks[tree.root]}: "
      f"player {winner} wins from the root")
ok, _ = verify_strategy(tree, result.strategy(winner), winner)
print(f"the extracted strategy survives every opposing line: {ok}")
loser = "II" if winner == "I" else "I"
ok_loser, line = verify_strategy(tree, result.strategy(loser), loser)
print(f"the loser's best effort is refuted: {not ok_loser}"
      + (f" (losing line {line})" if line else ""))

print("\nthe truth-telling game over the two-set stage:")
M = FiniteStructure(v_stage(2))
x, y = var("x"), var("y")
pool = [atom_in(x, y), not_(atom_in(x, y)), atom_eq(x, y), not_(atom_eq(x, y))]
for clock in (1, 2, 3):
    game = truth_telling_game(M, pool, clock)
    solved = zermelo_solve(game)
    print(f"  clock {clock}: {len(game)} nodes, root labeled {solved.labels[game.root]}")
    assert solved.labels[game.root] == "II"

game = truth_telling_game(M, pool, 3)
solved = zermelo_solve(game)
pool_instances = [(phi, v) for phi in pool for v in instances(M, phi)]
verdicts = extract_verdicts(game, solved.strategy_II, pool_instances)
print("\nverdicts the winning truth-teller commits to (clock 3):")
for phi, v in pool_instances[:6]:
    verdict = verdicts[(phi, valuation_key(phi, v))]
    truth = eval_formula(M, phi, v)
    binding = ", ".join(f"{k}={val}" for k, val in sorted(v.items()))
    print(f"  {formula_to_sexp(phi):28s} [{binding}] → {verdict} (truth: {truth})")
    assert verdict == truth
