"""Finite-scale forcing machinery, exhaustively checkable.

Everything is instantiated over finite preorders and hereditarily finite
sets, so the classical equivalences between forcing relations, truth
predicates, Boolean completions, staged recursions and clopen-game
determinacy become statements a test suite can sweep in full.
"""

from .errors import (BudgetError, ClosureError, EncodingError, ForcelabError,
                     ParseError, SeparativityError)
from .hfset import (EMPTY, HFSet, hf_make, hf_pair, hf_rank, nat_decode,
                    nat_encode, transitive_closure, v_stage)
from .poset import (CollapseNotion, ForcingNotion, bits, build_collapse,
                    generic_filters, is_dense, is_separative,
                    make_notion, minimal_classes, parse_poset)
from .names import (ClassName, EMPTY_NAME, PName, a_dot, check_name, eps_dot,
                    eval_class, eval_name, g_dot, n_dot, name_make,
                    name_to_hf, name_to_sexp, name_universe, op_name,
                    parse_name, subname_closure, subnames)
from .formulas import (Formula, Term, Var, GroundConst, NameConst, PairTerm,
                       AtomEq, AtomIn, AtomInClass, AtomInG, AtomTr, Not, And,
                       Or, Forall, Exists, and_, atom_eq, atom_in,
                       atom_in_class, atom_in_g, atom_tr, canonical_pool, const,
                       decode_formula, decode_valuation, encode_formula,
                       encode_valuation, exists, fold, forall, formula_to_sexp,
                       iff, implies, map_formula, name_const, nodes, not_, or_,
                       parse_formula, parse_hf, subformula_closure,
                       subformulas, substitute, theta_formula, var)
from .etr import (PartialSolution, RecursionInstance, Solution, etr_solve,
                  perturb, verify_solution)
from .truth import (DerivedIteratedTruth, FiniteStructure, ForcingTruth,
                    IteratedTruthPredicate, StageTranslator, TruthPredicate,
                    eval_formula, forcing_truth, formula_step, instances,
                    invariance_check, iterated_truth,
                    iterated_truth_instance, stage_comparison_structure,
                    star8_translate, tarski_truth, tarski_truth_instance,
                    valuation_key)
from .forcing import (AuditReport, BooleanAlgebra, BooleanCompletion,
                      BooleanValues, ForcingRelation, GenericExtension,
                      TruthName, atomic_forcing, atomic_recursion_instance,
                      audit_boolean_algebra, audit_forcing_relation,
                      boolean_completion, boolean_values,
                      compare_atomic_table, extension, forces,
                      ground_formula, star_translate, truth_lemma_check,
                      truth_name)
from .games import (GameNode, GameTree, ZermeloResult, continuous_rank,
                    extract_verdicts, label_fixpoint_violation, parse_game,
                    random_game_tree, truth_telling_game, verify_strategy,
                    zermelo_solve, zermelo_recursion_instance)
from . import corpus

__all__ = [name for name in dir() if not name.startswith("_")]
