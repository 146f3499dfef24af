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
from typing import Callable, NamedTuple

from . import corpus, criteria, sexpr
from .errors import BudgetError, ForcelabError, ParseError
from .etr import etr_solve, verify_solution
from .formulas import (AtomInClass, AtomInG, AtomTr, Formula, Var, atom_terms, nodes,
                       parse_formula, parse_hf, subformula_closure)
from .forcing import (atomic_forcing, atomic_recursion_instance, audit_boolean_algebra,
                      audit_forcing_relation, boolean_completion, boolean_values,
                      collect_names, compare_atomic_table, forces, truth_lemma_check,
                      truth_name)
from .games import random_game_tree
from .hfset import EMPTY, v_stage
from .names import name_universe, parse_name, subname_closure
from .poset import ForcingNotion, is_separative, parse_poset
from .truth import (DerivedIteratedTruth, FiniteStructure, forcing_truth,
                    invariance_check, iterated_truth, stage_comparison_structure,
                    tarski_truth)

SCHEMA = "forcelab-report/2"


class Reporter:
    def __init__(self, timings: bool):
        self.rows = []
        self.timings = timings

    def run(self, claim: str, thunk):
        """Record the claim's verdict and the points it compared.  The check
        returns a `criteria.Verdict`, or an (ok, counterexample) pair: a
        one-call check, one point.  A row that compared nothing fails.  An
        error raised by the check other than a budget overrun is a detected
        fault: the row fails with the error as its counterexample."""
        started = time.monotonic()
        row = {"claim": claim}
        try:
            verdict = thunk()
            if not isinstance(verdict, criteria.Verdict):
                ok, first = verdict
                verdict = criteria.Verdict(0 if ok else 1, first, 1)
            ok = verdict.failures == 0 and verdict.checked > 0
            row["status"], row["checked"] = "pass" if ok else "fail", verdict.checked
            if not ok and verdict.first is not None:
                row["counterexample"] = str(verdict.first)
        except BudgetError as e:
            row["status"] = "skipped-budget"
            row["reason"] = str(e)
        except ForcelabError as e:
            row["status"] = "fail"
            row["counterexample"] = str(e)
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
    if config["poset"]:
        with open(config["poset"]) as fh:
            label = Path(config["poset"]).stem
            return [(label, parse_poset(fh.read()))]
    cap = config["max_poset"]
    return [(name, P) for name, P in corpus.corpus_notions() if len(P) <= cap]


def suite_force(config, rep: Reporter, name: str, P: ForcingNotion):
    if config["condition"] and not (config["poset"] and config["formula"]):
        raise ParseError("--condition needs --poset and --formula")
    p = P.index(config["condition"]) if config["condition"] else None
    N = _force_universe(P, config)
    phi = _given_sentence(config["formula"], P, N) if config["formula"] else None
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
    if phi is not None:
        rep.run(f"force/{name}/given-formula-forced-iff-true",
                lambda: truth_lemma_check(FR, phi))
        if p is not None:
            claim = f"force/{name}/given-formula-verdict"
            try:
                verdict = forces(FR, p, phi, check_universe=False)
            except BudgetError as e:
                rep.skip(claim, e)
            else:
                rep.rows.append(dict(claim=claim, status="pass", checked=1, verdict=verdict))


def _given_sentence(text: str, P: ForcingNotion, N) -> Formula:
    """The --formula sentence, refused unless forcing over N can judge it."""
    phi = parse_formula(text, P)
    if phi.free:
        raise ParseError(f"--formula has free variables {sorted(phi.free)}")
    if "ground" in phi.const_kinds or any(
            isinstance(f, AtomTr) or isinstance(f, AtomInClass) and f.ident != "G"
            for f in nodes(phi)):
        raise ParseError("--formula is outside the forcing language: it has a ground "
                         "constant, a truth atom or a class atom other than G")
    if collect_names(phi) - set(N):
        raise ParseError("--formula mentions names outside the universe; add them with --names")
    return phi


def _force_universe(P, config):
    N = corpus.oracle_universe(P)
    if not config["names"]:
        return N
    with open(config["names"]) as fh:
        return subname_closure([*N, *(parse_name(form, P) for form in sexpr.read_all(fh.read()))])


def suite_translate(config, rep: Reporter, name: str, P: ForcingNotion):
    N = name_universe(P, 1)
    FR = atomic_forcing(P, N)
    names = corpus.sample_names(P, N)
    rng = random.Random(config["seed"])
    rep.run(f"translate/{name}/atomic-equality-soundness",
            lambda: criteria.star_translation(
                FR, (corpus.random_qf_sentence(rng, P, names) for _ in range(config["count"]))))


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
    rep.run(f"complete/{name}/value-coherence", lambda: criteria.value_coherence(FR, bv))
    rep.run(f"complete/{name}/dense-embedding", lambda: criteria.dense_embedding(P, bc))


def suite_truth(config, rep: Reporter):
    n = config["stage"]
    A = config["A"] or []
    if config["pool"]:
        with open(config["pool"]) as fh:  # one formula per s-expression
            pool = list(subformula_closure(
                parse_formula(sexpr.show(form)) for form in sexpr.read_all(fh.read())))
        if not pool:
            raise ParseError("--pool holds no formula")
        if any(isinstance(f, (AtomInG, AtomTr)) or isinstance(f, AtomInClass) and f.ident != "A"
               or not all(isinstance(t, Var) for t in atom_terms(f))
               for f in pool if f.rank == 0):
            raise ParseError("--pool is outside the first-order language: it has a constant, "
                             "a pair term, a truth or filter atom, or a class atom other than A")
    else:
        pool = corpus.first_order_pool()
    stage = v_stage(n)
    if not set(A) <= set(stage):
        raise ParseError(f"--A elements must lie in V_{n}")
    M = FiniteStructure(stage, {"A": A})
    ft = forcing_truth(n, A, pool)
    tp = tarski_truth(M, pool)
    rep.run(f"truth/stage-{n}/collapse-vs-direct", lambda: criteria.collapse_truth(ft, tp))
    rep.run(f"truth/stage-{n}/condition-invariance",
            lambda: invariance_check(n, A, pool, ft))


def suite_iterated(config, rep: Reporter):
    beta_max = config["clock"]
    pool = corpus.iterated_pool()
    stage3 = v_stage(3)
    A = config["A"] or [EMPTY]
    if not set(A) <= set(stage3):
        raise ParseError("--A elements must lie in V_3")
    base = FiniteStructure(stage3, {"d": A})
    it = iterated_truth(base, beta_max, pool)
    rep.run("iterated/atom-clause", lambda: criteria.iterated_atoms(it))
    rep.run("iterated/self-coherence", lambda: criteria.self_coherence(it))
    rep.run("iterated/connective-clauses", lambda: criteria.iterated_logic(it))
    rep.run("iterated/staged-recursion-identical",
            lambda: criteria.staged_iterated(corpus.staged_truth_inputs(), 3))
    rep.run("iterated/builtin-instances-verify",
            lambda: criteria.solves_verify(corpus.builtin_instances()))
    D = stage_comparison_structure(base, pool, beta_max)
    derived = DerivedIteratedTruth(D, pool, beta_max)
    itD = iterated_truth(D, beta_max, pool)
    rep.run("iterated/translation-dual-path", lambda: criteria.dual_path(
        derived, itD, criteria.instance_points(base, pool, beta_max)
        + criteria.encoding_points(base, pool, beta_max)))


def suite_game(config, rep: Reporter):
    rng = random.Random(config["seed"])
    rep.run("game/back-propagation", lambda: criteria.zermelo_games(
        random_game_tree(rng, 200) for _ in range(config["count"])))
    rep.run("game/truth-telling", lambda: criteria.truth_telling(
        FiniteStructure(v_stage(2)), corpus.atomic_game_pool(),
        range(1, config["clock"] + 1)))


def suite_oracle(config, rep: Reporter, name: str, P: ForcingNotion):
    rep.run(f"oracle/{name}/separative", lambda: is_separative(P))
    N = corpus.oracle_universe(P, config["max_name_rank"])
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


class Setting(NamedTuple):
    type: Callable | None  # None for an on/off flag
    default: object
    least: int | None
    help: str


SETTINGS = {
    "poset": Setting(str, None, None, "s-expression file with one (poset ...)"),
    "max_poset": Setting(int, 5, 1, "run the corpus notions with at most this many conditions"),
    "names": Setting(str, None, None, "s-expression file of extra universe names"),
    "formula": Setting(str, None, None, "one closed formula s-expression"),
    "condition": Setting(str, None, None, "condition of --poset to report --formula's verdict at"),
    "count": Setting(int, 50, 1, "random sentences per notion, or random game trees"),
    "seed": Setting(int, 0, None, "seed of the random sentences or game trees"),
    "stage": Setting(int, 2, 1, "the stage V_n to collapse"),
    "A": Setting(lambda text: parse_hf(sexpr.read(text)), None, None,
                 "(hf ...) literals, one per parameter element"),
    "pool": Setting(str, None, None, "s-expression file of formulas"),
    "clock": Setting(int, 3, 1, "iterated-truth stages, or the largest truth-telling clock"),
    "max_name_rank": Setting(int, 1, 1, "rank of the exhaustive name universe"),
    "timings": Setting(None, False, None, "add per-row runtimes (breaks reproducibility)"),
}

# The settings each suite reads; every suite also takes --timings and --out.
SUITE_SETTINGS = {
    "force": ("poset", "max_poset", "names", "formula", "condition"),
    "translate": ("poset", "max_poset", "count", "seed"),
    "complete": ("poset", "max_poset"),
    "truth": ("stage", "A", "pool"),
    "iterated": ("clock", "A"),
    "game": ("count", "seed", "clock"),
    "oracle": ("poset", "max_poset", "max_name_rank"),
}


def _checked(key: str, value):
    least = SETTINGS[key].least
    if least is not None and value < least:
        raise ValueError(f"{key} must be at least {least}, got {value}")
    return value


def run_suite(suite: str, config: dict) -> dict:
    """Run one suite; settings missing from `config` take their defaults."""
    declared = (*SUITE_SETTINGS[suite], "timings")
    unread = sorted(set(config) - set(declared))
    if unread:
        raise ValueError(f"suite {suite!r} does not read {unread}")
    if config.get("poset") is not None and "max_poset" in config:
        raise ParseError("--max-poset selects corpus notions; it does not apply with --poset")
    config = {key: _checked(key, config.get(key, SETTINGS[key].default)) for key in declared}
    rep = Reporter(config["timings"])
    try:
        if "poset" in SUITE_SETTINGS[suite]:
            # A suite that reads --poset runs once per notion; a budget
            # overrun while it builds a notion's inputs is that notion's row.
            for name, P in _notions(config):
                try:
                    SUITES[suite](config, rep, name, P)
                except BudgetError as e:
                    rep.skip(f"{suite}/{name}/inputs", e)
        else:
            SUITES[suite](config, rep)
    except BudgetError as e:
        rep.skip(f"{suite}/inputs", e)
    if config.get("A") is not None:
        config["A"] = [x.to_sexp() for x in config["A"]]
    return rep.report(suite, {k: v for k, v in config.items() if v is not None or k != "A"})


def _argument_type(key: str):
    kind = SETTINGS[key].type

    def convert(text: str):
        try:
            return _checked(key, kind(text))
        except (ValueError, ParseError) as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forcelab",
        description="finite forcing laboratory: batch verification suites")
    sub = parser.add_subparsers(dest="suite", required=True)
    for suite in SUITES:
        p = sub.add_parser(suite)
        for key in (*SUITE_SETTINGS[suite], "timings"):
            setting = SETTINGS[key]
            flag = "--" + key.replace("_", "-")
            # a flag left out is absent, so run_suite sees what was given
            if setting.type is None:
                p.add_argument(flag, dest=key, action="store_true",
                               default=argparse.SUPPRESS, help=setting.help)
            else:
                p.add_argument(flag, dest=key, type=_argument_type(key),
                               default=argparse.SUPPRESS, help=setting.help,
                               nargs="*" if key == "A" else None)
        p.add_argument("--out", help="write the JSON report here (default stdout)")
    return parser


def main(argv=None) -> int:
    config = vars(_build_parser().parse_args(argv))
    suite, out = config.pop("suite"), config.pop("out")
    try:
        report = run_suite(suite, config)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
