import json
from pathlib import Path

import pytest

from forcelab.cli import main, run_suite


def test_truth_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["truth", "--stage", "2", "--A", "(hf)", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "forcelab-report/1"
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
    report = run_suite("complete", {"seed": 0, "max_poset": 3})
    claims = [r["claim"] for r in report["rows"]]
    assert claims == sorted(claims)
    assert report["failures"] == 0


def test_oracle_suite_small():
    report = run_suite("oracle", {"seed": 0, "max_poset": 3})
    assert report["failures"] == 0
    assert any("forced-iff-true" in r["claim"] for r in report["rows"])


def test_custom_poset_file(tmp_path):
    poset = tmp_path / "fork.sexp"
    poset.write_text("(poset (elems one a b) (one one) (le))")
    report = run_suite("force", {"seed": 0, "poset": str(poset)})
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
], ids=lambda argv: argv[0])
def test_reports_match_golden(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"{argv[0]}.json").read_text()


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
