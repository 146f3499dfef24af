import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forcelab
from forcelab import atomic_forcing, cli, corpus, criteria, poset
from forcelab import forcing as forcing_mod
from forcelab.cli import main, run_suite


def test_truth_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["truth", "--stage", "2", "--A", "(hf)", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "forcelab-report/2"
    assert report["failures"] == 0
    assert {r["claim"] for r in report["rows"]} == {
        "truth/stage-2/collapse-vs-direct", "truth/stage-2/condition-invariance"}


def test_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["translate", "--max-poset", "3", "--seed", "5",
                     "--count", "10", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_timings_are_opt_in(tmp_path):
    out = tmp_path / "t.json"
    main(["game", "--count", "5", "--out", str(out)])
    assert "runtime_ms" not in out.read_text()
    main(["game", "--count", "5", "--timings", "--out", str(out)])
    assert "runtime_ms" in out.read_text()


def test_malformed_input_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(poset (elems")
    code = main(["force", "--poset", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_suite_rows_are_sorted():
    report = run_suite("complete", {"max_poset": 3})
    claims = [r["claim"] for r in report["rows"]]
    assert claims == sorted(claims)
    assert report["failures"] == 0


def test_oracle_suite_small():
    report = run_suite("oracle", {"max_poset": 3})
    assert report["failures"] == 0
    assert any("forced-iff-true" in r["claim"] for r in report["rows"])


def test_custom_poset_file(tmp_path):
    poset = tmp_path / "fork.sexp"
    poset.write_text("(poset (elems one a b) (one one) (le))")
    report = run_suite("force", {"poset": str(poset)})
    assert report["failures"] == 0


def test_custom_pool_file(tmp_path):
    pool = tmp_path / "pool.sexp"
    pool.write_text("""
        ; equality is reflexive on the stage
        (forall (x) (= x x))
        (in x y)
        (in-class x A)
    """)
    out = tmp_path / "report.json"
    code = main(["truth", "--stage", "2", "--A", "(hf)",
                 "--pool", str(pool), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["failures"] == 0


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ["complete", "--max-poset", "3"],
    ["game", "--count", "20"],
    ["truth", "--stage", "2"],
    ["translate", "--count", "20", "--max-poset", "3"],
    ["force", "--max-poset", "2"],
    ["oracle", "--max-poset", "2"],
    ["iterated"],
], ids=lambda argv: argv[0])
def test_reports_match_golden(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"{argv[0]}.json").read_text()


@pytest.mark.parametrize("argv", [["oracle", "--max-poset", "2"], ["truth", "--stage", "2"]],
                         ids=lambda argv: argv[0])
def test_fresh_interpreters_print_the_golden_report(tmp_path, argv):
    # Sets, names and formulas hash by identity, so set orders differ from
    # one interpreter to the next; the reports must not.
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
        out = tmp_path / f"report-{seed}.json"
        done = subprocess.run([sys.executable, "-m", "forcelab.cli", *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert out.read_bytes() == (GOLDEN / f"{argv[0]}.json").read_bytes()


def test_importing_the_package_loads_neither_the_cli_nor_the_criteria():
    # The benchmark times its set-up from a fresh import of the package, so
    # the modules only the CLI and the tests use stay out of it, and so do
    # `dataclasses` and the `inspect` it imports.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    code = "import json, sys, forcelab; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    loaded = json.loads(done.stdout)
    assert "forcelab.truth" in loaded
    assert "forcelab.cli" not in loaded and "forcelab.criteria" not in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_budget_overrun_while_building_inputs_is_a_skipped_row(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["oracle", "--max-poset", "3", "--max-name-rank", "2", "--out", str(out)])
    assert code == 0
    rows = {r["claim"]: r for r in json.loads(out.read_text())["rows"]}
    skipped = rows["oracle/fork/inputs"]
    assert skipped["status"] == "skipped-budget" and "budget" in skipped["reason"]
    # the notion's other rows are kept, and notions within budget still run
    assert rows["oracle/fork/separative"]["status"] == "pass"
    assert rows["oracle/trivial/forced-iff-true"]["status"] == "pass"
    assert "Traceback" not in capsys.readouterr().err


def test_budget_overrun_in_a_suite_without_notions(tmp_path):
    out = tmp_path / "report.json"
    assert main(["truth", "--stage", "4", "--A", "(hf)", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["claim"], r["status"]) for r in rows] == [("truth/inputs", "skipped-budget")]


@pytest.mark.parametrize("suite", ["iterated", "game"])
@pytest.mark.parametrize("clock", ["0", "-1"])
def test_clock_below_one_is_a_usage_error(suite, clock, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([suite, "--clock", clock])
    assert exit_info.value.code == 2
    assert "--clock" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "(poset (elems a) (one a) (le (a b)))",
    "(poset (elems a a) (one a))",
])
def test_bad_poset_file_exits_2_with_one_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.sexp"
    bad.write_text(text)
    assert main(["force", "--poset", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


ALL_FLAGS = {key for keys in cli.SUITE_SETTINGS.values() for key in keys}


def _flag(key):
    return "--" + key.replace("_", "-")


def _subparsers():
    action = next(a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_suite_offers_exactly_the_flags_it_reads():
    offered = {suite: {opt for action in p._actions for opt in action.option_strings
                       if opt not in ("-h", "--help")}
               for suite, p in _subparsers().items()}
    assert offered == {suite: {*map(_flag, keys), "--timings", "--out"}
                       for suite, keys in cli.SUITE_SETTINGS.items()}
    assert sum(map(len, offered.values())) == 36


@pytest.mark.parametrize("suite,key", [
    (suite, key) for suite, keys in cli.SUITE_SETTINGS.items()
    for key in sorted(ALL_FLAGS - set(keys))])
def test_a_flag_the_suite_does_not_read_is_a_usage_error(suite, key, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([suite, _flag(key), "(hf)" if key == "A" else "1"])
    assert exit_info.value.code == 2
    assert _flag(key) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["translate", "--count", "0"],
    ["game", "--count", "0"],
    ["oracle", "--max-poset", "0"],
    ["force", "--max-poset", "-1"],
    ["oracle", "--max-name-rank", "0"],
    ["truth", "--stage", "0"],
], ids=" ".join)
def test_a_setting_below_its_least_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_run_suite_and_the_command_line_apply_the_same_defaults(suite, monkeypatch, capsys):
    calls = []  # the config of each call of the suite body
    monkeypatch.setitem(cli.SUITES, suite, lambda config, *_: calls.append(dict(config)))
    assert main([suite]) == 0
    shown = json.loads(capsys.readouterr().out)["config"]
    from_main = len(calls)
    assert run_suite(suite, {})["config"] == shown
    assert calls[:from_main] == calls[from_main:]
    defaults = {key: cli.SETTINGS[key].default
                for key in (*cli.SUITE_SETTINGS[suite], "timings")}
    assert calls and all(config == defaults for config in calls)


def test_defaults_of_the_game_and_iterated_suites():
    assert cli.SETTINGS["count"].default == 50
    assert cli.SETTINGS["clock"].default == 3


@pytest.mark.parametrize("suite,config", [
    ("game", {"poset": "x"}),
    ("complete", {"seed": 0}),
    ("translate", {"count": 0}),
    ("iterated", {"clock": 0}),
])
def test_run_suite_rejects_an_unread_key_or_a_value_below_the_least(suite, config):
    with pytest.raises(ValueError):
        run_suite(suite, config)


@pytest.fixture
def fork_file(tmp_path):
    path = tmp_path / "fork.sexp"
    path.write_text("(poset (elems one a b) (one one) (le))")
    return str(path)


@pytest.mark.parametrize("suite", ["force", "translate", "complete", "oracle"])
def test_max_poset_with_poset_is_a_usage_error(suite, fork_file, capsys):
    assert main([suite, "--poset", fork_file, "--max-poset", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    with pytest.raises(forcelab.ParseError):
        run_suite(suite, {"poset": fork_file, "max_poset": 5})


def test_poset_alone_still_reports_the_default_max_poset(fork_file):
    report = run_suite("complete", {"poset": fork_file})
    assert report["config"]["max_poset"] == cli.SETTINGS["max_poset"].default
    assert {row["claim"].split("/")[1] for row in report["rows"]} == {"fork"}


@pytest.mark.parametrize("extra", [
    ["--max-poset", "2", "--formula", "(= (name) (name))", "--condition", "a"],
    ["--poset", "FORK", "--condition", "a"],
    ["--poset", "FORK", "--formula", "(= (name) (name))", "--condition", "zz"],
    ["--poset", "FORK", "--formula", "(= x x)"],
    ["--poset", "FORK", "--formula", "(= (name (pair (name (pair (name) a)) a)) (name))"],
    ["--poset", "FORK", "--names", "NAMES"],
    ["--poset", "FORK", "--formula", "(in-class (name) A)"],
    ["--poset", "FORK", "--formula", "(= (const (hf)) (const (hf)))"],
    ["--poset", "FORK", "--formula", "(tr (name) (name) (name))"],
], ids=["condition-without-poset", "condition-without-formula", "unknown-condition",
        "free-variable", "name-outside-universe", "unknown-token-in-names-file",
        "class-atom", "ground-constant", "truth-atom"])
def test_bad_force_input_exits_2_with_one_line(extra, fork_file, tmp_path, capsys):
    names = tmp_path / "names.sexp"
    names.write_text("(name (pair (name) zz))")
    argv = [{"FORK": fork_file, "NAMES": str(names)}.get(a, a) for a in extra]
    assert main(["force", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["truth", "--stage", "1", "--A", "(hf (hf))"],
    ["iterated", "--A", "(hf (hf (hf (hf))))"],
], ids=["truth", "iterated"])
def test_a_parameter_outside_the_stage_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --A") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "(not (in-class x B))", "(not (tr x y z))", "(not (in-G x))", "(not (in x (const (hf))))",
    "(not (= (opterm x y) x))", "; no formula",
], ids=["class-atom", "truth-atom", "filter-atom", "ground-constant", "pair-term", "empty"])
def test_a_bad_truth_pool_exits_2_with_one_line(text, tmp_path, capsys):
    # a formula outside the first-order language of (V_n, ∈, A), or none
    pool = tmp_path / "pool.sexp"
    pool.write_text(f"{text}\n")
    assert main(["truth", "--stage", "2", "--pool", str(pool)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --pool") and err.count("\n") == 1


def test_a_notion_without_a_completion_is_one_failed_row(tmp_path):
    # the two-element chain is not separative: its row fails without raising
    poset = tmp_path / "chain2.sexp"
    poset.write_text(corpus.chain2().to_sexp())
    out = tmp_path / "report.json"
    assert main(["complete", "--poset", str(poset), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["rows"] == [{
        "claim": "complete/chain2/separative", "status": "fail", "checked": 1,
        "counterexample": "notion is not separative: no extension of 1 is incompatible with a"}]
    assert report["failures"] == 1


def test_a_row_that_compared_nothing_fails(monkeypatch, tmp_path):
    # with no instance to range over, the collapse is compared with truth nowhere
    monkeypatch.setattr(criteria, "instances", lambda M, phi: iter(()))
    out = tmp_path / "report.json"
    assert main(["truth", "--stage", "2", "--out", str(out)]) == 1
    rows = {r["claim"]: r for r in json.loads(out.read_text())["rows"]}
    assert rows["truth/stage-2/collapse-vs-direct"] == {
        "claim": "truth/stage-2/collapse-vs-direct", "status": "fail", "checked": 0}
    assert rows["truth/stage-2/condition-invariance"]["status"] == "pass"


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_every_row_of_a_default_report_counts_what_it_compared(suite):
    rows = run_suite(suite, {})["rows"]
    assert rows and all(row["status"] == "pass" and row["checked"] >= 1 for row in rows)


def test_every_criteria_comparison_runs_in_some_suite():
    named = {n.attr for suite in cli.SUITES.values()
             for n in ast.walk(ast.parse(inspect.getsource(suite)))
             if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "criteria"}
    public = {name for name, value in vars(criteria).items()
              if inspect.isfunction(value) and value.__module__ == criteria.__name__
              and not name.startswith("_")}
    assert public and public <= named, sorted(public - named)


def test_verdict_at_a_given_condition(fork_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["force", "--poset", fork_file, "--formula", "(in-G (check (hf (hf))))",
                 "--condition", "a", "--out", str(out)]) == 0
    rows = {r["claim"]: r for r in json.loads(out.read_text())["rows"]}
    assert rows["force/fork/given-formula-verdict"]["verdict"] is True
    assert rows["force/fork/given-formula-forced-iff-true"]["status"] == "pass"


def test_a_nested_block_over_the_budget_is_a_skipped_row(fork_file, tmp_path, monkeypatch):
    # FORK's universe has 9 names: each block alone is within a budget of 9,
    # but the body of ∃y is valued at every x too
    monkeypatch.setattr(forcing_mod, "QUANTIFIER_BUDGET", 9)
    out = tmp_path / "report.json"
    assert main(["force", "--poset", fork_file, "--formula", "(forall (x) (exists (y) (in x y)))",
                 "--condition", "a", "--out", str(out)]) == 0
    rows = {r["claim"]: r for r in json.loads(out.read_text())["rows"]}
    for claim in ("force/fork/given-formula-forced-iff-true", "force/fork/given-formula-verdict"):
        assert rows[claim] == {"claim": claim, "status": "skipped-budget",
                               "reason": "quantifier block over 9^2 names"}
    assert rows["force/fork/forced-iff-true"]["status"] == "pass"
    # the verdict's overrun is its own row, not one for the notion's inputs
    assert "force/fork/inputs" not in rows


def test_an_atomic_table_over_the_budget_is_the_notions_inputs_row(fork_file, tmp_path,
                                                                   monkeypatch):
    monkeypatch.setattr(forcing_mod, "ATOMIC_BUDGET", 242)  # FORK: 3 conditions x 9^2 pairs
    out = tmp_path / "report.json"
    assert main(["force", "--poset", fork_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == [{
        "claim": "force/fork/inputs", "status": "skipped-budget",
        "reason": "3 conditions x 9^2 pairs exceeds budget 242"}]


def test_a_checker_error_is_a_failed_row(monkeypatch, tmp_path):
    """Clearing the one bit of a name's self-equality over the trivial notion
    makes extension() raise; that row fails and every other row still runs."""
    def corrupted(P, N, *args, **kwargs):
        FR = atomic_forcing(P, N, *args, **kwargs)
        if len(P) == 1:
            sigma = FR.universe[-1]
            FR._atomic[("eq", sigma, sigma)] ^= 1 << P.one
            FR._values.clear()
        return FR

    monkeypatch.setattr(cli, "atomic_forcing", corrupted)
    out = tmp_path / "report.json"
    assert main(["oracle", "--max-poset", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    rows = {r["claim"]: r for r in report["rows"]}
    failed = rows["oracle/trivial/forced-iff-true"]
    assert failed["status"] == "fail"
    assert failed["counterexample"] == "forced equality is not reflexive; corrupted table"
    assert rows["oracle/trivial/truth-predicate-name"]["status"] == "fail"
    assert rows["oracle/trivial/separative"]["status"] == "pass"
    assert report["failures"] == 2
    assert all(r["status"] == "pass" for claim, r in rows.items()
               if not claim.startswith("oracle/trivial/"))


REMOVED_PARAMETERS = [
    (forcelab.generic_filters, {"verify", "sample_count", "seed"}),
    (forcelab.ForcingRelation, {"atomic_budget", "quantifier_budget", "eager", "classes"}),
    (forcelab.atomic_forcing, {"atomic_budget", "eager", "classes"}),
    (forcelab.audit_forcing_relation, {"triple_cap", "pool"}),
    (forcelab.audit_boolean_algebra, {"pair_cap"}),
    (forcelab.extension, {"class_names"}),
    (forcelab.truth_lemma_check, {"class_names"}),
    (forcelab.etr_solve, {"budget"}),
    (forcelab.instances, {"budget"}),
    (forcelab.name_universe, {"budget", "seeds"}),
    (forcelab.CollapseNotion, {"budget", "include_degenerate_tokens"}),
    (forcelab.build_collapse, {"budget", "include_degenerate_tokens"}),
    (poset._collapse_skeleton, {"include_degenerate_tokens"}),
    (forcelab.ForcingTruth, {"include_degenerate_tokens"}),
    (forcelab.forcing_truth, {"include_degenerate_tokens"}),
    (forcelab.v_stage, {"cap"}),
    (forcelab.formula_step, {"x_var", "solution_ident"}),
    (forcelab.stage_comparison_structure, {"valuation_arity_cap"}),
    (corpus.iterated_pool, {"param_ident"}),
    (forcelab.star_translate, {"budget"}),
    (forcelab.truth_telling_game, {"budget"}),
    (corpus.random_qf_sentence, {"depth"}),
    (forcelab.star8_translate, {"memo"}),
    (forcelab.eval_name, {"_top"}),
    (forcelab.eval_class, {"_top"}),
]


@pytest.mark.parametrize("function,removed", REMOVED_PARAMETERS,
                         ids=[function.__name__ for function, _ in REMOVED_PARAMETERS])
def test_library_options_no_caller_sets_are_not_parameters(function, removed):
    assert not removed & set(inspect.signature(function).parameters)


def test_a_step_rule_reads_no_instance_parameter():
    # a step rule is (x, α, view) and closes over anything else it reads
    assert "parameter" not in forcelab.RecursionInstance._fields
