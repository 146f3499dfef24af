"""The three forcelab workloads.

Each workload has two halves.  `inputs(fl, seed_class)` builds everything
a round needs from the seed class: notions, universes, pools, sentences,
parameter sets and game trees, plus the number of instances the round must
compare (`expected`), derived from those inputs by the benchmark's own
arithmetic.  `verify(fl, inp, r)` runs the cross-checks through forcelab's
public API and records, on the round `r`:

- `r.record(claim, ok)`: one verdict per claim;
- `r.checked`: the instances actually compared;
- `r.answer(label, value)`: counts, keyed by pool position or formula text,
  that go into the answer digest, so that two sides agreeing on a wrong
  answer still shows.

Valuations and name samples are made here, not by forcelab's private
helpers.  `fl` is the imported forcelab package; nothing here imports it,
so that importing forcelab stays inside the timed set-up.
"""

from __future__ import annotations

import itertools
import random

# Seeds map onto this many input sets; perfbench/digests.json records the
# answer digest of each.
SEED_CLASSES = 16

# The six five-condition corpus notions cost several seconds each, the
# others about a second or less; all of them in one round would leave room
# for a single round per run.  A round takes every smaller notion and one of
# these pairs, matched so that the pairs cost about the same; the seed picks
# the pair.
LARGE_PAIRS = (("four-fork", "double-tooth"), ("tree-right", "diamond"),
               ("tree-left", "wide-equivalent"))
SENTENCES_PER_NOTION = 100   # random quantifier-free sentences (criterion 2)
COLLAPSE_SETS = 6            # parameter sets A ⊆ V₃ per round (criterion 4)
ITERATED_STAGES = 5          # stages 0..4 (criterion 6)
RANDOM_GAMES = 1000          # random game trees of ≤200 nodes (criterion 8)
TT_CLOCKS = (1, 2, 3)        # truth-telling game clocks (criterion 8)


def valuations(domain, phi) -> list[dict]:
    fv = sorted(phi.free)
    return [dict(zip(fv, values)) for values in itertools.product(domain, repeat=len(fv))]


def generic_filter_count(P) -> int:
    """The generic filters of a finite notion are the up-sets of its minimal
    conditions, one per equivalence class of minimal conditions."""
    conds = list(P.conditions())
    minimal = [p for p in conds if all(P.le(p, q) for q in conds if P.le(q, p))]
    return len({frozenset(q for q in conds if P.le(p, q)) for p in minimal})


# ---------------------------------------------------------------------------
# corpus-oracle: criteria 1, 2, 3, 5 and 9 over the corpus notions.

def corpus_oracle_inputs(fl, seed_class: int) -> dict:
    corpus = fl.corpus
    notions, small = [], []
    expected = 0
    pair = LARGE_PAIRS[seed_class % len(LARGE_PAIRS)]
    large = {label for labels in LARGE_PAIRS for label in labels}
    for label, P in corpus.corpus_notions():
        if label in large and label not in pair:
            continue
        U = corpus.oracle_universe(P)
        N1 = fl.name_universe(P, 1)
        rng = random.Random(f"corpus-oracle/{seed_class}/{label}")
        names = rng.sample(N1, min(4, len(N1)))
        item = {"label": label, "P": P, "U": U, "N1": N1,
                "pool": corpus.oracle_pool(P, U),
                "tn_pool": list(dict.fromkeys(corpus.truth_name_pool(P, U))),
                "sentences": [corpus.random_qf_sentence(rng, P, names)
                              for _ in range(SENTENCES_PER_NOTION)]}
        notions.append(item)
        n, g = len(P), generic_filter_count(P)
        expected += g * len(item["pool"])                      # truth lemma
        expected += (n + g) * len(item["tn_pool"])             # truth name
        expected += len(item["sentences"]) * n                 # star translation
        expected += 2 * n * n + 3 * len(N1) ** 2 * n           # Boolean completion
        expected += len(LAWS)                                  # law audit
    for size in (1, 2, 3):
        for i, P in enumerate(corpus.all_topped_preorders(size)):
            if fl.is_separative(P)[0]:
                U = corpus.oracle_universe(P)
                item = {"label": f"topped-{size}.{i}", "P": P, "U": U,
                        "pool": corpus.oracle_pool(P, U)}
                small.append(item)
                expected += generic_filter_count(P) * len(item["pool"])
    return {"notions": notions, "small": small, "expected": expected}


LAWS = ("downward-closure", "density", "modus-ponens", "eq-reflexive",
        "eq-symmetric", "eq-transitive", "eq-congruence", "dense-decided")


def _truth_lemma(fl, r, it):
    P, label = it["P"], it["label"]
    conds = list(P.conditions())
    FR = fl.atomic_forcing(P, it["U"])
    filters = fl.generic_filters(P)
    pool = it["pool"]
    r.record(f"truth-lemma/{label}", fl.truth_lemma_check(FR, pool)[0])
    r.checked += len(filters) * len(pool)
    r.answer(f"oracle-forced/{label}",
             [i * len(conds) + p for i, phi in enumerate(pool) for p in conds
              if fl.forces(FR, p, phi, check_universe=False)])
    return FR, filters


def _truth_name(fl, r, it, FR, filters):
    P, label = it["P"], it["label"]
    conds = list(P.conditions())
    tn = fl.truth_name(FR, it["tn_pool"])
    r.record(f"truth-name/{label}", tn.ok)
    r.checked += (len(P) + len(filters)) * len(tn.pool)
    # The class holds one ⟨coded formula, p⟩ entry per forced pair.
    r.answer(f"truth-name-entries/{label}",
             [sum(1 for _, q in tn.tdot.entries if q == p) for p in conds])
    r.answer(f"truth-name-forced/{label}",
             [i * len(conds) + p for i, phi in enumerate(it["tn_pool"]) for p in conds
              if fl.forces(FR, p, phi, check_universe=False)])


def _star_translation(fl, r, it, FR1):
    P, label = it["P"], it["label"]
    ok, forced = True, []
    for i, sentence in enumerate(it["sentences"]):
        left, right = fl.star_translate(sentence, P)
        for p in P.conditions():
            verdict = fl.forces(FR1, p, sentence, check_universe=False)
            ok &= verdict == FR1.decide("eq", p, left, right)
            r.checked += 1
            if verdict:
                forced.append(i * len(P) + p)
    r.record(f"star-translation/{label}", ok)
    r.answer(f"star-forced/{label}", forced)


def _boolean(fl, r, it, FR1):
    P, label, N1 = it["P"], it["label"], it["N1"]
    bc = fl.boolean_completion(P)
    B = bc.algebra
    ok = fl.audit_boolean_algebra(B).ok
    for p in P.conditions():
        for q in P.conditions():
            ok &= B.le(bc.embed(p), bc.embed(q)) == P.le(p, q)
            ok &= P.compatible(p, q) != (B.meet(bc.embed(p), bc.embed(q)) == B.zero)
            r.checked += 2
    ok &= all(u == B.zero or any(B.le(bc.embed(p), u) for p in P.conditions())
              for u in B.elements)
    bv = fl.boolean_values(bc)
    true = {"in": 0, "sub": 0, "eq": 0}
    for kind in true:
        for s in N1:
            for t in N1:
                for p in P.conditions():
                    value = r.call("forcing.boolean", bv.derived_forces, p, kind, s, t)
                    ok &= value == FR1.decide(kind, p, s, t)
                    true[kind] += value
                    r.checked += 1
    r.record(f"boolean-completion/{label}", ok)
    r.answer(f"boolean-true/{label}", [len(B.elements), true["in"], true["sub"], true["eq"]])


def corpus_oracle_verify(fl, inp, r):
    for it in inp["notions"]:
        label = it["label"]
        with r.guard(f"truth-lemma/{label}"):
            FR, filters = _truth_lemma(fl, r, it)
        with r.guard(f"truth-name/{label}"):
            _truth_name(fl, r, it, FR, filters)
        with r.guard(f"rank-1/{label}"):
            FR1 = fl.atomic_forcing(it["P"], it["N1"])
            _star_translation(fl, r, it, FR1)
            _boolean(fl, r, it, FR1)
            report = fl.audit_forcing_relation(FR1)
            r.record(f"law-audit/{label}", report.ok and set(LAWS) <= set(report.laws))
            r.checked += len(set(LAWS) & set(report.laws))
    with r.guard("truth-lemma/topped"):
        for it in inp["small"]:
            _truth_lemma(fl, r, it)


# ---------------------------------------------------------------------------
# collapse-truth: criterion 4 at stage 3 over seed-chosen parameter sets.

def collapse_truth_inputs(fl, seed_class: int) -> dict:
    base = fl.v_stage(3)
    pool = fl.corpus.first_order_pool()
    rng = random.Random(f"collapse-truth/{seed_class}")
    masks = sorted(rng.sample(range(1 << len(base)), COLLAPSE_SETS))
    instances = [(phi, valuations(base, phi)) for phi in pool]
    n_instances = sum(len(vs) for _, vs in instances)
    sets, expected = [], 0
    for mask in masks:
        A = [base[i] for i in range(len(base)) if mask >> i & 1]
        conditions = len(fl.build_collapse(3, A))
        sets.append({"mask": mask, "A": A, "M": fl.FiniteStructure(base, {"A": A})})
        # collapse-derived vs direct truth, then invariance at every condition
        expected += n_instances * (1 + conditions)
    return {"pool": pool, "instances": instances, "sets": sets, "expected": expected}


def collapse_truth_verify(fl, inp, r):
    pool, instances = inp["pool"], inp["instances"]
    n_instances = sum(len(vs) for _, vs in instances)
    for s in inp["sets"]:
        with r.guard(f"tarski/{s['mask']}"):
            tp = fl.tarski_truth(s["M"], pool)
            r.counts["truth.tarski_instances"] += n_instances
        with r.guard(f"collapse/{s['mask']}"):
            ft = fl.forcing_truth(3, s["A"], pool)
            ok, true_counts = True, []
            for phi, vs in instances:
                true = 0
                for v in vs:
                    direct = tp.holds(phi, v)
                    ok &= r.call("truth.forcing_truth_holds", ft.holds, phi, v) == direct
                    true += direct
                true_counts.append([fl.formula_to_sexp(phi), true])
            r.checked += n_instances
            r.record(f"collapse-vs-direct/{s['mask']}", ok)
            r.answer(f"tarski-true/{s['mask']}", sorted(true_counts))
        with r.guard(f"invariance/{s['mask']}"):
            r.record(f"condition-invariance/{s['mask']}",
                     fl.invariance_check(3, s["A"], pool, ft)[0])
            r.checked += n_instances * len(ft.fa)


# ---------------------------------------------------------------------------
# iterated-etr-games: criteria 6, 7 and 8.

def _tt_pool(fl):
    x, y = fl.var("x"), fl.var("y")
    return [fl.atom_in(x, y), fl.not_(fl.atom_in(x, y)),
            fl.atom_eq(x, y), fl.not_(fl.atom_eq(x, y))]


def _codes_a_variable(fl, x, names) -> bool:
    """x is the code of one of the variable names: {n ↦ x} is {⟨x, x⟩}."""
    return any(fl.encode_valuation({n: x}) == fl.hf_make([fl.hf_pair(x, x)]) for n in names)


def iterated_etr_games_inputs(fl, seed_class: int) -> dict:
    stage = fl.v_stage(3)
    pool = fl.corpus.iterated_pool()
    # d leaves out the codes of the pool's variables ({{∅}} codes `a`): with
    # one of them in d the stage translation gives wrong answers, a program
    # defect that perfbench/known_defect.py reproduces.
    names = {v for phi in pool for v in phi.free}
    allowed = [x for x in stage if not _codes_a_variable(fl, x, names)]
    d = [allowed[i] for i in range(len(allowed)) if seed_class >> i & 1]
    base = fl.FiniteStructure(stage, {"d": d})
    instances = [(phi, valuations(base.domain, phi)) for phi in pool]
    comparison = fl.stage_comparison_structure(base, pool, ITERATED_STAGES)
    atom = next(f for f in pool if isinstance(f, fl.AtomTr))
    unary = [(psi, vs) for psi, vs in instances if len(psi.free) <= 1]

    small_M = fl.FiniteStructure(fl.v_stage(2), {"d": [fl.EMPTY]})
    a, b, c = fl.var("a"), fl.var("b"), fl.var("c")
    small_pool = list(fl.subformula_closure(
        [fl.atom_in(a, b), fl.not_(fl.atom_in(a, b)), fl.atom_tr(a, b, c)]))
    notions = [(label, P, fl.name_universe(P, 1)) for label, P in fl.corpus.corpus_notions()[:6]]

    rng = random.Random(f"iterated-etr-games/{seed_class}")
    trees = [fl.random_game_tree(rng, 200) for _ in range(RANDOM_GAMES)]
    tt_M = fl.FiniteStructure(fl.v_stage(2))
    tt_instances = [(phi, v) for phi in _tt_pool(fl) for v in valuations(tt_M.domain, phi)]

    n_inst = sum(len(vs) for _, vs in instances)
    atoms = sum(len(vs) for phi, vs in instances if phi.rank == 0 and not isinstance(phi, fl.AtomTr))
    composite = sum(len(vs) for phi, vs in instances
                    if isinstance(phi, (fl.Not, fl.And, fl.Or, fl.Forall)))
    builtin = fl.corpus.builtin_instances()
    expected = ITERATED_STAGES * (atoms + ITERATED_STAGES * n_inst + composite + n_inst)
    expected += 2 * ITERATED_STAGES * sum(len(vs) for _, vs in unary)
    expected += sum(len(inst.domain) for _, inst in builtin)
    # (condition, in|eq, σ, τ) entries, verified as a solution and against the table
    expected += sum(2 * 2 * len(P) * len(N) ** 2 for _, P, N in notions)
    expected += sum(len(valuations(small_M.domain, phi)) for phi in small_pool)
    expected += sum(_internal_nodes(T) for T in trees)
    expected += sum(1 for clock in TT_CLOCKS for phi, _ in tt_instances if phi.rank <= clock - 1)
    return {"base": base, "pool": pool, "instances": instances, "atom": atom,
            "unary": unary, "comparison": comparison, "builtin": builtin,
            "notions": notions, "small_M": small_M, "small_pool": small_pool,
            "trees": trees, "tt_M": tt_M, "tt_instances": tt_instances,
            "expected": expected}


def _nodes(T):
    stack = [T.root]
    while stack:
        node = T.nodes[stack.pop()]
        yield node
        stack.extend(node.children)


def _internal_nodes(T) -> int:
    return sum(1 for node in _nodes(T) if node.children)


def _iterated(fl, r, inp):
    """Criterion 6: the four clauses of iterated truth, then the stage
    translation's derived predicate against the direct one."""
    base, pool, instances, atom = inp["base"], inp["pool"], inp["instances"], inp["atom"]
    xv, yv, zv = atom.free_sorted
    pred = fl.iterated_truth(base, ITERATED_STAGES, pool)

    def holds(beta, phi, v):
        return r.call("truth.iterated_holds", pred.holds, beta, phi, v)

    def sub(phi, v):
        return {k: v[k] for k in phi.free}

    def coded(alpha, psi, av):
        return {xv: fl.nat_encode(alpha), yv: fl.encode_formula(psi), zv: fl.encode_valuation(av)}

    with r.guard("iterated/clauses"):
        ok, true_counts = True, []
        for beta in range(ITERATED_STAGES):
            for phi, vs in instances:
                true = 0
                for v in vs:
                    got = holds(beta, phi, v)
                    true += got
                    if phi.rank == 0 and not isinstance(phi, fl.AtomTr):
                        ok &= got == fl.eval_formula(base, phi, v)
                    elif isinstance(phi, fl.Not):
                        ok &= got != holds(beta, phi.sub, sub(phi.sub, v))
                    elif isinstance(phi, (fl.And, fl.Or)):
                        votes = [holds(beta, s, sub(s, v)) for s in phi.subs]
                        ok &= got == (all(votes) if isinstance(phi, fl.And) else any(votes))
                    elif isinstance(phi, fl.Forall):
                        ok &= got == all(
                            holds(beta, phi.body, sub(phi.body, {**v, **dict(zip(phi.vars, values))}))
                            for values in itertools.product(base.domain, repeat=len(phi.vars)))
                    else:
                        continue
                    r.checked += 1
                true_counts.append([beta, fl.formula_to_sexp(phi), true])
        r.record("iterated/clauses-a-c-d", ok)
        r.answer("iterated-true", sorted(true_counts))

    with r.guard("iterated/self-coherence"):
        ok = True
        for beta in range(ITERATED_STAGES):
            for alpha in range(ITERATED_STAGES):
                for psi, vs in instances:
                    for av in vs:
                        want = alpha < beta and holds(alpha, psi, av)
                        ok &= holds(beta, atom, coded(alpha, psi, av)) == want
                        r.checked += 1
        r.record("iterated/self-coherence", ok)

    D = inp["comparison"]
    derived = fl.DerivedIteratedTruth(D, pool, ITERATED_STAGES)
    direct = fl.iterated_truth(D, ITERATED_STAGES, pool)

    def dual(beta, phi, v):
        translated = r.call("truth.stage_translate", derived.translator.translate, beta, phi)
        r.counts["truth.stage_queries"] += 1
        got = r.call("truth.eval_formula", fl.eval_formula, D, translated, v)
        r.checked += 1
        return got == r.call("truth.iterated_holds", direct.holds, beta, phi, v)

    with r.guard("iterated/dual-path"):
        r.record("iterated/dual-path", all([dual(beta, phi, v) for beta in range(ITERATED_STAGES)
                                            for phi, vs in instances for v in vs]))
    with r.guard("iterated/dual-path-atoms"):
        r.record("iterated/dual-path-atoms", all([
            dual(beta, atom, coded(alpha, psi, av)) for beta in (1, ITERATED_STAGES - 1)
            for alpha in range(ITERATED_STAGES) for psi, vs in inp["unary"] for av in vs]))


def _slice_sizes(sol) -> list[int]:
    return [len(sl) for sl in sol.slices]


def _true_entries(sol) -> int:
    return len(frozenset().union(*sol.slices))


def _etr(fl, r, inp):
    """Criterion 7: the engine on the built-in instances, the staged atomic
    forcing relation and the staged iterated truth predicate."""
    with r.guard("etr/builtin"):
        for label, inst in inp["builtin"]:
            sol = fl.etr_solve(inst)
            r.record(f"etr/{label}", fl.verify_solution(inst, sol)[0])
            r.checked += len(inst.domain)
            r.answer(f"etr-slices/{label}", _slice_sizes(sol))
    for label, P, N in inp["notions"]:
        with r.guard(f"etr/atomic/{label}"):
            FR = fl.atomic_forcing(P, N)
            inst, codec, _ = fl.atomic_recursion_instance(P, N)
            sol = fl.etr_solve(inst)
            if r.inject == "etr" and label == inp["notions"][-1][0]:
                sol = fl.perturb(sol, inst.length - 1, inst.domain[0])
            r.record(f"etr/atomic/{label}", fl.verify_solution(inst, sol)[0])
            r.record(f"etr/atomic-table/{label}", fl.compare_atomic_table(FR, sol, codec))
            r.checked += len(inst.domain) + len(codec)
            r.answer(f"etr-true/atomic/{label}", _true_entries(sol))

    with r.guard("etr/iterated-truth"):
        M, small_pool = inp["small_M"], inp["small_pool"]
        inst, codec, _ = fl.iterated_truth_instance(M, 3, small_pool)
        sol = fl.etr_solve(inst)
        ok = fl.verify_solution(inst, sol)[0]
        span = max(f.rank for f in small_pool) + 1
        direct = fl.iterated_truth(M, 3, small_pool)
        true = 0
        for enc, (phi, v) in codec.items():
            staged = sorted(i // span for i, sl in enumerate(sol.slices) if enc in sl)
            ok &= staged == [b for b in range(3)
                             if r.call("truth.iterated_holds", direct.holds, b, phi, v)]
            true += len(staged)
            r.checked += 1
        r.record("etr/iterated-truth", ok)
        r.answer("etr-true/iterated-truth", true)


def _games(fl, r, inp):
    """Criterion 8: random trees by back-propagation with strategy play-out,
    then truth-telling games that the truth-teller must win."""
    with r.guard("games/random-trees"):
        ok, winners = True, {"I": 0, "II": 0}
        for T in inp["trees"]:
            result = fl.zermelo_solve(T)
            for node in _nodes(T):
                if node.children:
                    mine = any(result.labels[c] == node.mover for c in node.children)
                    want = node.mover if mine else ("II" if node.mover == "I" else "I")
                    ok &= result.labels[node.ident] == want
                    r.checked += 1
            winner = result.labels[T.root]
            winners[winner] += 1
            ok &= fl.verify_strategy(T, result.strategy(winner), winner)[0]
        r.record("games/back-propagation", ok)
        r.answer("games-root-winners", [winners["I"], winners["II"]])

    with r.guard("games/truth-telling"):
        M, instances = inp["tt_M"], inp["tt_instances"]
        sizes = []
        for clock in TT_CLOCKS:
            T = fl.truth_telling_game(M, _tt_pool(fl), clock)
            result = fl.zermelo_solve(T)
            ok = result.labels[T.root] == "II"
            ok &= fl.verify_strategy(T, result.strategy_II, "II")[0]
            verdicts = fl.extract_verdicts(T, result.strategy_II, instances)
            for (phi, key), verdict in verdicts.items():
                if phi.rank <= clock - 1:
                    ok &= verdict == fl.eval_formula(M, phi, dict(key))
                    r.checked += 1
            r.record(f"games/truth-telling/{clock}", ok)
            sizes.append(len(T))
        r.answer("games-tt-nodes", sizes)


def iterated_etr_games_verify(fl, inp, r):
    _iterated(fl, r, inp)
    _etr(fl, r, inp)
    _games(fl, r, inp)


# name -> (inputs, verify, seconds one round takes on the machine in
# perfbench/provenance.json, which sets how many rounds a run makes)
WORKLOADS = {
    "corpus-oracle": (corpus_oracle_inputs, corpus_oracle_verify, 14.0),
    "collapse-truth": (collapse_truth_inputs, collapse_truth_verify, 7.0),
    "iterated-etr-games": (iterated_etr_games_inputs, iterated_etr_games_verify, 20.0),
}
