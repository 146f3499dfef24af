"""Batch verification harness.

Each suite runs a family of checks and emits a JSON report with one row
per claim; a run exits zero exactly when no row failed.  Reports are
deterministic for a fixed configuration and seed (timings are included
only on request, since they would break byte-for-byte reproducibility).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from . import corpus
from .errors import BudgetError, ForcelabError, ParseError
from .formulas import formula_to_sexp, parse_formula, parse_hf
from .forcing import (atomic_forcing, atomic_recursion_instance,
                      audit_boolean_algebra, audit_forcing_relation,
                      boolean_completion, boolean_values, compare_atomic_table,
                      forces, star_translate,
                      truth_lemma_check, truth_name)
from .games import (extract_verdicts, random_game_tree, truth_telling_game,
                    verify_strategy, zermelo_solve)
from .hfset import EMPTY, v_stage
from .names import name_universe
from .poset import ForcingNotion, is_separative, parse_poset
from .truth import (DerivedIteratedTruth, FiniteStructure, eval_formula,
                    forcing_truth, instances, invariance_check,
                    iterated_truth, iterated_truth_instance,
                    stage_comparison_structure, tarski_truth, valuation_key)
from .etr import etr_solve, verify_solution
from . import sexpr

SCHEMA = "forcelab-report/1"


class Reporter:
    def __init__(self, timings: bool):
        self.rows = []
        self.timings = timings

    def run(self, claim: str, thunk):
        started = time.monotonic()
        row = {"claim": claim}
        try:
            ok, counterexample = thunk()
            row["status"] = "pass" if ok else "fail"
            if not ok and counterexample is not None:
                row["counterexample"] = str(counterexample)
        except BudgetError as e:
            row["status"] = "skipped-budget"
            row["reason"] = str(e)
        if self.timings:
            row["runtime_ms"] = round(1000 * (time.monotonic() - started), 1)
        self.rows.append(row)

    def skip(self, claim: str, error: BudgetError):
        self.rows.append({"claim": claim, "status": "skipped-budget", "reason": str(error)})

    def report(self, suite: str, config: dict) -> dict:
        rows = sorted(self.rows, key=lambda r: r["claim"])
        failures = sum(r["status"] == "fail" for r in rows)
        return {"schema": SCHEMA, "suite": suite, "config": config,
                "rows": rows, "failures": failures}


def _notions(config) -> list[tuple[str, ForcingNotion]]:
    if config.get("poset"):
        with open(config["poset"]) as fh:
            label = Path(config["poset"]).stem
            return [(label, parse_poset(fh.read()))]
    cap = config.get("max_poset", 5)
    return [(name, P) for name, P in corpus.corpus_notions() if len(P) <= cap]


def _per_notion(suite: str):
    """Run a suite body once per notion; a budget overrun while the body
    builds a notion's inputs becomes that notion's `inputs` row."""
    def decorate(body):
        def run(config, rep: Reporter):
            for name, P in _notions(config):
                try:
                    body(config, rep, name, P)
                except BudgetError as e:
                    rep.skip(f"{suite}/{name}/inputs", e)
        return run
    return decorate


def _load_pool(config, notion=None):
    with open(config["pool"]) as fh:
        return [  # one formula per s-expression
            parse_formula(sexpr.show(form), notion) for form in sexpr.read_all(fh.read())]


@_per_notion("force")
def suite_force(config, rep: Reporter, name: str, P: ForcingNotion):
    N = _force_universe(P, config)
    FR = atomic_forcing(P, N)
    audit = audit_forcing_relation(FR)
    for law, (ok, cx) in sorted(audit.laws.items()):
        rep.run(f"force/{name}/{law}", lambda ok=ok, cx=cx: (ok, cx))
    pool = corpus.oracle_pool(P, N)
    rep.run(f"force/{name}/forced-iff-true", lambda: truth_lemma_check(FR, pool))
    inst, codec, _ = atomic_recursion_instance(P, name_universe(P, 1))
    sol = etr_solve(inst)
    rep.run(f"force/{name}/staged-recursion-identical",
            lambda: (verify_solution(inst, sol)[0] and compare_atomic_table(FR, sol, codec), None))
    if config.get("formula"):
        phi = parse_formula(config["formula"], P)
        rep.run(f"force/{name}/given-formula-forced-iff-true",
                lambda: truth_lemma_check(FR, phi))
        if config.get("condition"):
            p = P.index(config["condition"])
            verdict = forces(FR, p, phi, check_universe=False)
            rep.rows.append({"claim": f"force/{name}/given-formula-verdict",
                             "status": "pass", "verdict": verdict})


def _force_universe(P, config):
    base = list(corpus.oracle_universe(P))
    if config.get("names"):
        from .names import parse_name, subname_closure
        with open(config["names"]) as fh:
            for form in sexpr.read_all(fh.read()):
                base.append(parse_name(form, P))
        return subname_closure(base)
    return tuple(base)


@_per_notion("translate")
def suite_translate(config, rep: Reporter, name: str, P: ForcingNotion):
    count = config.get("count", 50)
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    names = corpus._sample_names(P, N)
    rng = random.Random(config["seed"])

    def check():
        for _ in range(count):
            s = corpus.random_qf_sentence(rng, P, names)
            a, b = star_translate(s, P)
            for p in P.conditions():
                if forces(FR, p, s, check_universe=False) != FR.decide("eq", p, a, b):
                    return False, (p, formula_to_sexp(s))
        return True, None

    rep.run(f"translate/{name}/atomic-equality-soundness", check)


@_per_notion("complete")
def suite_complete(config, rep: Reporter, name: str, P: ForcingNotion):
    try:
        bc = boolean_completion(P)
    except ForcelabError as e:
        rep.run(f"complete/{name}/separative", lambda: (False, str(e)))
        return
    audit = audit_boolean_algebra(bc.algebra)
    for law, (ok, cx) in sorted(audit.laws.items()):
        rep.run(f"complete/{name}/{law}", lambda ok=ok, cx=cx: (ok, cx))
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    bv = boolean_values(bc)

    def coherent():
        for kind in ("in", "sub", "eq"):
            for s in N:
                for t in N:
                    for p in P.conditions():
                        if bv.derived_forces(p, kind, s, t) != FR.decide(kind, p, s, t):
                            return False, (kind, p)
        return True, None

    rep.run(f"complete/{name}/value-coherence", coherent)

    def embedding():
        B = bc.algebra
        for p in P.conditions():
            for q in P.conditions():
                if P.le(p, q) and not B.le(bc.embed(p), bc.embed(q)):
                    return False, ("order", p, q)
                if P.compatible(p, q) == (B.meet(bc.embed(p), bc.embed(q)) == B.zero):
                    return False, ("compatibility", p, q)
        for u in B.elements:
            if u != B.zero and not any(B.le(bc.embed(p), u) for p in P.conditions()):
                return False, ("density", sorted(u))
        return True, None

    rep.run(f"complete/{name}/dense-embedding", embedding)


def suite_truth(config, rep: Reporter):
    from .formulas import subformula_closure
    n = config.get("stage", 2)
    A = config.get("A") or []
    pool = (list(subformula_closure(_load_pool(config))) if config.get("pool")
            else corpus.first_order_pool())
    M = FiniteStructure(v_stage(n), {"A": A})
    ft = forcing_truth(n, A, pool)
    tp = tarski_truth(M, pool)

    def agree():
        for phi in ft.pool:
            for v in instances(M, phi):
                if ft.holds(phi, v) != tp.holds(phi, v):
                    return False, (formula_to_sexp(phi), sorted(v.items()))
        return True, None

    rep.run(f"truth/stage-{n}/collapse-vs-direct", agree)
    rep.run(f"truth/stage-{n}/condition-invariance",
            lambda: invariance_check(n, A, pool, ft))


def suite_iterated(config, rep: Reporter):
    beta_max = config.get("clock", 5)
    pool = corpus.iterated_pool()
    stage3 = v_stage(3)
    A = [x for x in (config.get("A") or [EMPTY]) if x in set(stage3)]
    base = FiniteStructure(stage3, {"d": A})
    it = iterated_truth(base, beta_max, pool)

    from .formulas import AtomTr, encode_formula, encode_valuation
    from .hfset import nat_encode
    tr_atoms = [f for f in pool if isinstance(f, AtomTr)]

    def clause_b():
        xv, yv, zv = tr_atoms[0].free_sorted
        for beta in range(beta_max):
            for alpha in range(beta_max):
                for psi in pool:
                    for av in instances(base, psi):
                        v = {xv: nat_encode(alpha), yv: encode_formula(psi),
                             zv: encode_valuation(av)}
                        got = it._query(beta, tr_atoms[0], v)
                        want = alpha < beta and it._query(alpha, psi, av)
                        if got != want:
                            return False, (beta, alpha, formula_to_sexp(psi))
        return True, None

    rep.run("iterated/self-coherence", clause_b)

    def etr_same():
        small = [f for f in pool if f.rank <= 1]
        from .formulas import subformula_closure
        small = list(subformula_closure(small))
        M2 = FiniteStructure(v_stage(2), {"d": [EMPTY]})
        inst, codec, stage_index = iterated_truth_instance(M2, 3, small)
        sol = etr_solve(inst)
        ok, where = verify_solution(inst, sol)
        if not ok:
            return False, where
        it2 = iterated_truth(M2, 3, small)
        span = max(f.rank for f in small) + 1
        for enc, (phi, v) in codec.items():
            staged = sorted(i // span for i, sl in enumerate(sol.slices) if enc in sl)
            direct = [b for b in range(3) if it2.holds(b, phi, v)]
            if staged != direct:
                return False, formula_to_sexp(phi)
        return True, None

    rep.run("iterated/staged-recursion-identical", etr_same)

    D = stage_comparison_structure(base, pool, beta_max)
    derived = DerivedIteratedTruth(D, pool, beta_max)
    itD = iterated_truth(D, beta_max, pool)

    def dual_path():
        for beta in range(beta_max):
            for phi in pool:
                for v in instances(base, phi):
                    if derived.holds(beta, phi, v) != itD.holds(beta, phi, v):
                        return False, (beta, formula_to_sexp(phi))
        return True, None

    rep.run("iterated/translation-dual-path", dual_path)


def suite_game(config, rep: Reporter):
    trees = config.get("count", 200)
    rng = random.Random(config["seed"])

    def zermelo_all():
        for i in range(trees):
            T = random_game_tree(rng, 200)
            res = zermelo_solve(T)
            for nid in T._reachable:
                node = T.nodes[nid]
                if node.children:
                    mine = [c for c in node.children if res.labels[c] == node.mover]
                    want = node.mover if mine else ("II" if node.mover == "I" else "I")
                    if res.labels[nid] != want:
                        return False, ("fixpoint", i, nid)
            winner = res.labels[T.root]
            ok, line = verify_strategy(T, res.strategy(winner), winner)
            if not ok:
                return False, ("strategy", i, line)
        return True, None

    rep.run("game/back-propagation", zermelo_all)

    def truth_telling():
        from .formulas import atom_eq, atom_in, not_, var
        M = FiniteStructure(v_stage(2))
        pool = [atom_in(var("x"), var("y")), not_(atom_in(var("x"), var("y"))),
                atom_eq(var("x"), var("y")), not_(atom_eq(var("x"), var("y")))]
        for clock in range(1, config.get("clock", 3) + 1):
            T = truth_telling_game(M, pool, clock)
            res = zermelo_solve(T)
            if res.labels[T.root] != "II":
                return False, ("interrogator-wins", clock)
            ok, line = verify_strategy(T, res.strategy_II, "II")
            if not ok:
                return False, ("strategy", clock)
            pool_instances = [(phi, v) for phi in pool for v in instances(M, phi)]
            verdicts = extract_verdicts(T, res.strategy_II, pool_instances)
            for phi, v in pool_instances:
                if phi.rank <= clock - 1:
                    if verdicts[(phi, valuation_key(phi, v))] != eval_formula(M, phi, v):
                        return False, ("verdict", clock, formula_to_sexp(phi))
        return True, None

    rep.run("game/truth-telling", truth_telling)


def _oracle_universe(P, config):
    rank = config.get("max_name_rank", 1)
    if rank == 1:
        return corpus.oracle_universe(P)
    from .names import check_name, subname_closure
    from .hfset import nat_encode
    base = list(name_universe(P, rank))
    base.extend(check_name(nat_encode(i)) for i in P.conditions())
    return subname_closure(base)


@_per_notion("oracle")
def suite_oracle(config, rep: Reporter, name: str, P: ForcingNotion):
    rep.run(f"oracle/{name}/separative", lambda: is_separative(P))
    N = _oracle_universe(P, config)
    FR = atomic_forcing(P, N)
    pool = corpus.oracle_pool(P, N)
    rep.run(f"oracle/{name}/forced-iff-true", lambda: truth_lemma_check(FR, pool))
    tn_pool = corpus.truth_name_pool(P, N)
    rep.run(f"oracle/{name}/truth-predicate-name",
            lambda: (lambda tn: (tn.ok, tn.failures[:1] or None))(truth_name(FR, tn_pool)))


SUITES = {
    "force": suite_force,
    "translate": suite_translate,
    "complete": suite_complete,
    "truth": suite_truth,
    "iterated": suite_iterated,
    "game": suite_game,
    "oracle": suite_oracle,
}


def run_suite(suite: str, config: dict) -> dict:
    rep = Reporter(bool(config.get("timings")))
    try:
        SUITES[suite](config, rep)
    except BudgetError as e:
        rep.skip(f"{suite}/inputs", e)
    shown = {k: v for k, v in config.items() if k != "A"}
    if config.get("A") is not None:
        shown["A"] = [x.to_sexp() for x in config["A"]]
    return rep.report(suite, shown)


def _clock(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forcelab",
        description="finite forcing laboratory: batch verification suites")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        p = sub.add_parser(name)
        p.add_argument("--poset", help="s-expression file with one (poset ...)")
        p.add_argument("--names", help="s-expression file of extra universe names")
        p.add_argument("--formula", help="one formula s-expression")
        p.add_argument("--condition", help="condition token to report a verdict for")
        p.add_argument("--max-poset", type=int, default=5, dest="max_poset")
        p.add_argument("--max-name-rank", type=int, default=1, dest="max_name_rank")
        p.add_argument("--stage", type=int, default=2)
        p.add_argument("--A", dest="A", help="(hf ...) literals, one per element",
                       nargs="*")
        p.add_argument("--pool", help="s-expression file of formulas")
        p.add_argument("--clock", type=_clock, default=3)
        p.add_argument("--count", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timings", action="store_true")
        p.add_argument("--out", help="write the JSON report here (default stdout)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k not in ("suite", "out")}
    if config.get("A") is not None:
        try:
            config["A"] = [parse_hf(sexpr.read(text)) for text in config["A"]]
        except ParseError as e:
            print(f"error: bad --A literal: {e}", file=sys.stderr)
            return 2
    try:
        report = run_suite(args.suite, config)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
