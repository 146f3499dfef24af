import ast
import random
import textwrap
from pathlib import Path

import pytest

import forcelab
from forcelab import (EMPTY, BudgetError, FiniteStructure, ForcelabError,
                      RecursionInstance, Solution, and_, atom_in, atom_in_class,
                      atomic_recursion_instance, corpus, etr_solve, exists, hf_pair,
                      hf_rank, name_universe, nat_encode, not_, or_, perturb,
                      random_game_tree, subformula_closure, tarski_truth_instance,
                      v_stage, var, verify_solution, zermelo_recursion_instance)
from forcelab.etr import STEP_BUDGET, PartialSolution, staged_instance
from forcelab.truth import formula_step


def whole(length, step, label="anonymous", domain=tuple(v_stage(3))):
    """The instance whose every stage decides the whole domain."""
    return staged_instance(domain, length, lambda x: range(length), step, label)


def constant_instance(A):
    A = frozenset(A)
    return whole(3, lambda x, alpha, view: x in A, "constant")


def test_constant_recursion():
    A = [EMPTY, v_stage(3)[2]]
    sol = etr_solve(constant_instance(A))
    assert all(s == frozenset(A) for s in sol.slices)
    assert verify_solution(constant_instance(A), sol) == (True, None)


def cumulative_instance():
    domain = tuple(v_stage(3))

    def step(x, alpha, view):
        return all(any(view(beta, y) for beta in range(alpha)) for y in x.children)

    return whole(4, step, "cumulative", domain)


def test_cumulative_hierarchy_recursion():
    sol = etr_solve(cumulative_instance())
    for alpha, slice_ in enumerate(sol.slices):
        assert slice_ == {x for x in v_stage(3) if hf_rank(x) <= alpha}


def test_verify_rejects_perturbations():
    inst = cumulative_instance()
    sol = etr_solve(inst)
    for alpha in range(inst.length):
        for x in inst.domain[:3]:
            ok, where = verify_solution(inst, perturb(sol, alpha, x))
            assert not ok and where is not None


def test_uniqueness_by_exhaustive_perturbation():
    inst = constant_instance([EMPTY])
    sol = etr_solve(inst)
    for alpha in range(inst.length):
        for x in inst.domain:
            assert not verify_solution(inst, perturb(sol, alpha, x))[0]


def test_budget():
    # one stage more than the budget allows over the whole domain
    domain = tuple(v_stage(3))
    length = STEP_BUDGET // len(domain) + 1
    inst = RecursionInstance(length=length, domain=domain, step=lambda *a: False,
                             support=(domain,) * length)
    with pytest.raises(BudgetError):
        etr_solve(inst)


def test_future_slice_read_is_refused():
    def nosy(x, alpha, view):
        return view(alpha, x)

    inst = whole(2, nosy, domain=(EMPTY,))
    with pytest.raises(ForcelabError):
        etr_solve(inst)


def test_formula_driven_step():
    base = FiniteStructure(v_stage(3), {"A": [EMPTY]})
    step = formula_step(base, atom_in_class(var("x"), "A"), length=3)
    inst = whole(3, step, "formula-constant")
    sol = etr_solve(inst)
    assert all(s == frozenset([EMPTY]) for s in sol.slices)


def test_a_formula_step_that_reads_the_earlier_slices():
    # φ(x) = A(x) ∨ ∃p (S(p) ∧ x ∈ p): S_α is A together with the members of
    # the tagged pairs ⟨β̄, y⟩, y ∈ S_β, for β < α
    domain = tuple(v_stage(3))
    base = FiniteStructure(domain, {"A": [EMPTY]})
    x, p = var("x"), var("p")
    reads_s = exists(("p",), and_([atom_in_class(p, "S"), atom_in(x, p)]))
    phi = or_([atom_in_class(x, "A"), reads_s])
    inst = whole(4, formula_step(base, phi, length=4), "formula-reads-S", domain)
    sol = etr_solve(inst)
    slices = []
    for alpha in range(4):
        pairs = [hf_pair(nat_encode(beta), y) for beta in range(alpha) for y in slices[beta]]
        slices.append(frozenset(x for x in domain if x is EMPTY or any(x in q for q in pairs)))
    assert sol.slices == tuple(slices)
    assert [len(sl) for sl in slices] == [1, 2, 4, 4]
    assert verify_solution(inst, sol) == (True, None)


def test_monotone_instances_grow():
    domain = tuple(v_stage(3))

    def step(x, alpha, view):
        if hf_rank(x) == 0:
            return True
        return any(view(beta, x) for beta in range(alpha)) or hf_rank(x) <= alpha

    inst = whole(4, step, "monotone", domain)
    sol = etr_solve(inst)
    for earlier, later in zip(sol.slices, sol.slices[1:]):
        assert earlier <= later


def test_verify_checks_the_budget_before_any_step(monkeypatch):
    calls = []

    def step(x, alpha, view):
        calls.append((alpha, x))
        return False

    inst = whole(4, step)
    monkeypatch.setattr("forcelab.etr.STEP_BUDGET", 4 * len(inst.domain) - 1)
    with pytest.raises(BudgetError):
        verify_solution(inst, Solution(inst, (frozenset(),) * 4))
    assert calls == []


def test_budget_counts_the_steps_of_the_support(monkeypatch):
    domain = tuple(v_stage(3))
    inst = RecursionInstance(length=len(domain), domain=domain,
                             step=lambda x, alpha, view: True,
                             support=tuple((x,) for x in domain))
    monkeypatch.setattr("forcelab.etr.STEP_BUDGET", len(domain))
    sol = etr_solve(inst)
    assert sol.slices == tuple(frozenset([x]) for x in domain)
    assert verify_solution(inst, sol) == (True, None)
    with pytest.raises(BudgetError):
        etr_solve(inst._replace(support=(domain,) * len(domain)))


def test_an_instance_needs_a_stage_map():
    with pytest.raises(TypeError):
        RecursionInstance(length=1, domain=(EMPTY,), step=lambda *a: True)


def test_support_needs_one_entry_per_stage():
    with pytest.raises(ForcelabError):
        RecursionInstance(length=3, domain=(EMPTY,), step=lambda *a: True,
                          support=((EMPTY,), (EMPTY,)))


def test_support_names_only_domain_elements():
    with pytest.raises(ForcelabError):
        RecursionInstance(length=1, domain=(EMPTY,), step=lambda *a: True,
                          support=((v_stage(2)[1],),))


def test_replace_checks_the_support_as_construction_does():
    inst = constant_instance([EMPTY])
    with pytest.raises(ForcelabError, match="support needs"):
        inst._replace(support=inst.support[:-1])
    outsider = v_stage(4)[-1]
    assert outsider not in inst.domain
    with pytest.raises(ForcelabError, match="support needs"):
        inst._replace(support=((outsider,),) * inst.length)
    with pytest.raises(ForcelabError, match="support needs"):
        inst._replace(length=inst.length + 1)
    assert inst._replace(label="renamed").support == inst.support


def test_verify_rejects_a_member_outside_the_domain():
    inst = constant_instance([EMPTY])
    outsider = v_stage(4)[-1]
    assert outsider not in inst.domain
    sol = perturb(etr_solve(inst), 1, outsider)
    assert verify_solution(inst, sol) == (False, (1, outsider))


def _fork_atomic_instance():
    P = corpus.fork()
    return atomic_recursion_instance(P, name_universe(P, 1))[0]


MAPPED = {
    "atomic-fork": _fork_atomic_instance,
    "zermelo-40": lambda: dict(corpus.builtin_instances())["zermelo-labels"],
    "tarski-truth": lambda: dict(corpus.builtin_instances())["tarski-truth"],
}


@pytest.fixture(scope="module", params=sorted(MAPPED))
def mapped(request):
    inst = MAPPED[request.param]()
    assert inst.support is not None
    return inst


def test_solve_calls_the_step_only_on_the_support(mapped):
    seen = []

    def counting(x, alpha, view):
        seen.append((alpha, x))
        return mapped.step(x, alpha, view)

    sol = etr_solve(mapped._replace(step=counting))
    expected = [(alpha, x) for alpha, xs in enumerate(mapped.support) for x in xs]
    assert len(seen) == len(expected) < mapped.length * len(mapped.domain)
    assert set(seen) == set(expected)
    assert verify_solution(mapped, sol) == (True, None)


def test_verify_rejects_a_member_outside_the_support(mapped):
    sol = etr_solve(mapped)
    for alpha, decided in enumerate(mapped.support):
        inside = set(decided)
        outside = [x for x in mapped.domain if x not in inside]
        first, last = outside[0], outside[-1]
        assert verify_solution(mapped, perturb(sol, alpha, last)) == (False, (alpha, last))
        both = perturb(perturb(sol, alpha, last), alpha, first)
        assert verify_solution(mapped, both) == (False, (alpha, first))



# The staged atomic step decides a whole pair (kind, σ, τ) at once and keeps
# the result in the view's memo.  A view of a solution with one encoding of an
# earlier slice flipped must get the verdicts a freshly built instance gives
# a view of its own over the same slices, even when the step has just
# answered from a view of the unflipped solution.

@pytest.mark.parametrize("label", ["fork", "four-fork"])
def test_the_staged_atomic_step_keeps_nothing_across_views(label):
    P = dict(corpus.corpus_notions())[label]
    N = name_universe(P, 1)
    inst, _, _ = atomic_recursion_instance(P, N)
    sol = etr_solve(inst)
    alpha = inst.length - 1
    later = inst.support[alpha]
    plain_verdicts = [inst.step(x, alpha, PartialSolution(sol.slices, alpha)) for x in later]
    assert plain_verdicts == [x in sol.slices[alpha] for x in later]

    def first_flip_that_matters():
        for beta in range(alpha):
            for y in inst.support[beta]:
                slices = perturb(sol, beta, y).slices
                view = PartialSolution(slices, alpha)
                if [inst.step(x, alpha, view) for x in later] != plain_verdicts:
                    return slices
        return None

    flipped = first_flip_that_matters()
    assert flipped is not None
    fresh = atomic_recursion_instance(P, N)[0]
    fresh_view = PartialSolution(flipped, alpha)
    fresh_verdicts = [fresh.step(x, alpha, fresh_view) for x in later]
    assert fresh_verdicts != plain_verdicts
    # alternating views, each new with an empty memo: nothing the step
    # derived from one view may answer for the next
    for x, want, was in zip(later, fresh_verdicts, plain_verdicts):
        assert inst.step(x, alpha, PartialSolution(sol.slices, alpha)) == was
        assert inst.step(x, alpha, PartialSolution(flipped, alpha)) == want


def _key(x):
    return x.key


def test_staged_instance_keeps_the_callers_order():
    elements = sorted(v_stage(3), key=_key, reverse=True)
    inst = staged_instance(elements, 3, lambda x: (hf_rank(x) % 3,),
                           lambda *a: True, "reversed")
    assert inst.domain == tuple(elements)
    assert inst.support == tuple(tuple(x for x in elements if hf_rank(x) % 3 == alpha)
                                 for alpha in range(3))


def test_verify_reports_the_first_undecided_member_in_domain_order():
    elements = sorted(v_stage(3), key=_key, reverse=True)
    inst = staged_instance(elements, 2, lambda x: (0,), lambda *a: False, "reversed")
    sol = etr_solve(inst)
    first, later = elements[0], elements[-1]
    assert first.key > later.key
    assert verify_solution(inst, perturb(perturb(sol, 1, later), 1, first)) == (False, (1, first))
    # a member outside the domain comes after every domain element
    outsider = v_stage(4)[-1]
    assert outsider not in inst.domain
    assert verify_solution(inst, perturb(perturb(sol, 1, outsider), 1, later)) == (False, (1, later))


def _builders():
    P = corpus.fork()
    atomic, codec, _ = atomic_recursion_instance(P, name_universe(P, 1))
    yield atomic, codec
    yield zermelo_recursion_instance(random_game_tree(random.Random(40), 40))
    M = FiniteStructure(v_stage(2))
    yield tarski_truth_instance(M, subformula_closure([not_(atom_in(var("a"), var("b")))]))


def test_builders_keep_their_codec_order_and_solve_as_a_key_sorted_rebuild():
    reordered = []
    for inst, codec in _builders():
        assert inst.domain == tuple(codec)
        rebuilt = inst._replace(domain=tuple(sorted(inst.domain, key=_key)),
                                support=tuple(tuple(sorted(s, key=_key)) for s in inst.support))
        reordered.append(rebuilt.domain != inst.domain)
        assert etr_solve(inst).slices == etr_solve(rebuilt).slices
        assert verify_solution(inst, etr_solve(rebuilt)) == (True, None)
    assert any(reordered)


# The view contract: a step rule reads the earlier slices one point at a
# time, and keeps what it derives from them in `view.memo` only.  Every
# function in forcelab with a parameter named `view` (a *reader*) may call
# it, pass it on to a reader of the same module, or read and write entries of
# its memo; any other use, such as comparing it, handing it or its memo to
# any other function, or binding it to another name, fails here.

def _view_misuses(source: str) -> tuple[list, list]:
    """The readers of the source, and each use of `view` in them that is
    none of the allowed ones."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    fns = [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.Lambda))
           and "view" in {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}]
    readers = [getattr(fn, "name", "<lambda>") for fn in fns]
    misuses = set()
    for fn in fns:
        for n in ast.walk(fn):
            if not (isinstance(n, ast.Name) and n.id == "view"):
                continue
            up = parent[n]
            if isinstance(up, ast.keyword):
                up = parent[up]
            called = isinstance(up, ast.Call) and (
                up.func is n or isinstance(up.func, ast.Name) and up.func.id in readers)
            memo_entry = (isinstance(up, ast.Attribute) and up.attr == "memo"
                          and isinstance(parent[up], (ast.Subscript, ast.Attribute))
                          and parent[up].value is up)
            if not (called or memo_entry):
                misuses.add((n.lineno, type(up).__name__))
    return readers, sorted(misuses)


def test_step_rules_read_their_view_one_point_at_a_time():
    readers, misuses = {}, {}
    for path in sorted(Path(forcelab.__file__).parent.glob("*.py")):
        found, misused = _view_misuses(path.read_text())
        readers[path.stem] = set(found)
        if misused:
            misuses[path.name] = misused
    assert misuses == {}
    assert "held" in readers["forcing"] and "step" in readers["truth"]


def test_the_view_guard_catches_a_slice_read_and_a_kept_view():
    source = textwrap.dedent('''
        def lookup(view, y):
            return view(0, y) or view.memo.get(y)

        def step(x, alpha, view):
            nonlocal memo_view
            if view is not memo_view:
                memo_view = id(view)
            kept.append(view)
            memo = view.memo
            view.memo[x] = lookup(view, x)
            return x in view.slice(alpha - 1) or f(view)
    ''')
    assert _view_misuses(source) == (["lookup", "step"], [
        (7, "Compare"), (8, "Call"), (9, "Call"), (10, "Attribute"), (12, "Attribute"),
        (12, "Call")])
