import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chevlab import cli
from chevlab.cli import PARAMS, TASKS, TaskError, _args_to_task, build_parser, main, run_campaign, validate_task
from chevlab.factorize import FactorizationError


def test_empty_campaign(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "tasks": []}))
    out = tmp_path / "r.json"
    assert main(["campaign", "run", str(path), "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tasks"] == [] and report["exit_code"] == 0


def test_invalid_ring_rejected_before_running(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {
                "tasks": [
                    {
                        "command": "bruteforce",
                        "params": {
                            "stmt": "T1",
                            "type": "A2",
                            "ring": "Z/1",
                            "ideal_i": "0",
                        },
                    }
                ]
            }
        )
    )
    assert main(["campaign", "run", str(path)]) == 2


def test_validate_task_rejects_g2_bruteforce():
    with pytest.raises(TaskError):
        validate_task(
            "bruteforce",
            {"stmt": "T1", "type": "G2", "ring": "Z/9", "ideal_i": "3"},
        )


def test_unknown_case_is_a_usage_error(capsys):
    assert main(["verify", "main-lemma", "--case", "G2"]) == 2
    assert "case='G2'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "main-lemma", "--case", "A2", "--ideal-i", "2", "--ideal-j", "3"],
        ["dump-generators", "--type", "A2"],
    ],
)
def test_unbounded_finite_ring_tasks_refused(argv, capsys):
    # each would list about 10^12 ring elements or more before finishing
    start = time.perf_counter()
    assert main(argv + ["--ring", "Z/1099511627791"]) == 2
    assert time.perf_counter() - start < 1
    assert "(> 1000000)" in capsys.readouterr().err


def test_steinberg_cli(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "steinberg", "--type", "A2", "--report", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tasks"][0]["result"]["passed"] is True


def test_dump_generators_shape(tmp_path):
    out = tmp_path / "r.json"
    assert main(["dump-generators", "--type", "C2", "--ring", "Z/9", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    gens = report["tasks"][0]["result"]["generators"]
    assert len(gens) == 8 * 9
    assert len(gens[0]["blocks"][0]) == 4


def test_factorize_main_lemma_cli(tmp_path):
    out = tmp_path / "r.json"
    assert main(["factorize", "main-lemma", "--case", "A2", "--report", str(out)]) == 0
    result = json.loads(out.read_text())["tasks"][0]["result"]
    assert result["verdict"] is True
    assert result["factors"]
    assert result["factors"][0]["certificate"]["tag"] == "ConjugateOf"


def test_reports_byte_identical_for_fixed_seed(tmp_path):
    tasks = [
        {"command": "verify-chevalley", "params": {"type": "C2"}},
        {
            "command": "verify-levi",
            "params": {
                "type": "A2",
                "ring": "Z/8",
                "ideal_i": "2",
                "ideal_j": "2",
                "samples": 20,
            },
        },
    ]
    report = run_campaign(tasks, seed=5, with_timings=False)
    a = json.dumps(report, sort_keys=True)
    b = json.dumps(run_campaign(tasks, seed=5, with_timings=False), sort_keys=True)
    assert a == b
    # the report names no setting that does not exist
    assert "threads" not in report


# A fixed, fast campaign over the finite and symbolic paths.  Its default
# report is pinned: a change that alters it on purpose updates the digest
# and names the change.
PINNED_TASKS = [
    {"command": "verify-main-lemma", "params": {"case": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "4"}},
    {"command": "verify-long-root", "params": {"type": "C2", "ring": "Z/27", "ideal": "3"}},
    {"command": "bruteforce", "params": {"stmt": "O1", "type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "2"}},
    {"command": "verify-long-root", "params": {"type": "C2"}},
    {"command": "verify-chevalley", "params": {"type": "A2"}},
]
PINNED_SHA256 = "afb035ab1784357f245c49c47feed422d95f8998655b958ba2cfa6f078bd832e"


def test_default_report_pinned():
    report = run_campaign(PINNED_TASKS, seed=1, with_timings=False)
    assert [entry["status"] for entry in report["tasks"]] == ["ok"] * len(PINNED_TASKS)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# The factorization path: symbolic main lemma checks (word evaluation and
# certificate validation) and a finite Levi sample, pinned the same way.
PINNED_FACTORIZATION_TASKS = [
    {"command": "verify-main-lemma", "params": {"case": "C2Short"}},
    {"command": "factorize-main-lemma", "params": {"case": "C2Long"}},
    {"command": "verify-levi", "params": {"type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "2", "samples": 20}},
]
PINNED_FACTORIZATION_SHA256 = "d1b6ab57fd9731428594d94eddc3042daae6c2b249b53e6850fcb4c65bf69e63"


def test_factorization_report_pinned():
    report = run_campaign(PINNED_FACTORIZATION_TASKS, seed=1, with_timings=False)
    assert [entry["status"] for entry in report["tasks"]] == ["ok"] * len(PINNED_FACTORIZATION_TASKS)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_FACTORIZATION_SHA256


# The identity layer of G2: the Steinberg relations, the structure
# constants and the symbolic main lemma, pinned the same way.
PINNED_G2_IDENTITY_TASKS = [
    {"command": "verify-steinberg", "params": {"type": "G2"}},
    {"command": "verify-chevalley", "params": {"type": "G2"}},
    {"command": "verify-main-lemma", "params": {"case": "G2Short"}},
]
PINNED_G2_IDENTITY_SHA256 = "4c47719501fa4acfe0eac40b474adb8d7813ebe1bf118bf965246f0a26639bc0"


def test_g2_identity_report_pinned():
    report = run_campaign(PINNED_G2_IDENTITY_TASKS, seed=1, with_timings=False)
    assert [entry["status"] for entry in report["tasks"]] == ["ok"] * len(PINNED_G2_IDENTITY_TASKS)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_G2_IDENTITY_SHA256


# Levi sampling at the size of the benchmark's tasks, over C2 and both
# blocks of G2, pinned the same way.
PINNED_LEVI_TASKS = [
    {"command": "verify-levi", "params": {"type": "C2", "ring": "Z/27", "ideal_i": "3", "ideal_j": "3", "samples": 300}},
    {"command": "verify-levi", "params": {"type": "G2", "ring": "Z/9", "ideal_i": "3", "ideal_j": "3", "samples": 300}},
]
PINNED_LEVI_SHA256 = "db3b95954f450c859b872f5fd5efacc043401492948fd40e1e911bc5ae3db3e3"


def test_levi_report_pinned():
    report = run_campaign(PINNED_LEVI_TASKS, seed=1, with_timings=False)
    assert [entry["status"] for entry in report["tasks"]] == ["ok"] * len(PINNED_LEVI_TASKS)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LEVI_SHA256


# The finite main lemma over C2: the benchmark's two cases over Z/27 and two
# cases with nonzero residues, pinned the same way.
PINNED_MAIN_LEMMA_TASKS = [
    {"command": "verify-main-lemma", "params": {"case": "C2Long", "ring": "Z/27", "ideal_i": "9", "ideal_j": "9"}},
    {"command": "verify-main-lemma", "params": {"case": "C2Short", "ring": "Z/27", "ideal_i": "9", "ideal_j": "9"}},
    {"command": "verify-main-lemma", "params": {"case": "C2Short", "ring": "Z/9", "ideal_i": "3", "ideal_j": "1"}},
    {"command": "verify-main-lemma", "params": {"case": "C2Long", "ring": "Z/25", "ideal_i": "5", "ideal_j": "5"}},
]
PINNED_MAIN_LEMMA_SHA256 = "ca3ffad641b083641a4b50f460d430c30c33687313358cfec20e88baa3a8310c"


def test_finite_main_lemma_report_pinned():
    report = run_campaign(PINNED_MAIN_LEMMA_TASKS, seed=1, with_timings=False)
    assert [entry["status"] for entry in report["tasks"]] == ["ok"] * len(PINNED_MAIN_LEMMA_TASKS)
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MAIN_LEMMA_SHA256


def _count_main_lemma_words(monkeypatch) -> dict:
    """Calls of ``main_lemma_word`` from the CLI, by case."""
    calls: dict[str, int] = {}
    word = cli.main_lemma_word

    def counting(case, *args):
        calls[case.value] = calls.get(case.value, 0) + 1
        return word(case, *args)

    monkeypatch.setattr(cli, "main_lemma_word", counting)
    return calls


def _memo_size() -> int:
    return cli._symbolic_main_lemma.cache_info().currsize


@pytest.mark.parametrize("case", ["A2", "C2Long", "G2Short"])
def test_campaign_builds_each_symbolic_case_once(case, monkeypatch):
    calls = _count_main_lemma_words(monkeypatch)
    tasks = [
        {"command": "verify-main-lemma", "params": {"case": case}},
        {"command": "factorize-main-lemma", "params": {"case": case}},
    ]
    report = run_campaign(tasks, seed=1, with_timings=False)
    assert calls == {case: 1} and _memo_size() == 0
    # each task's entry is the one a campaign of that task alone reports,
    # and each of those campaigns builds the case again
    for task, entry in zip(tasks, report["tasks"]):
        (alone,) = run_campaign([task], seed=1, with_timings=False)["tasks"]
        assert entry["status"] == "ok"
        assert json.dumps(entry, sort_keys=True) == json.dumps(alone, sort_keys=True)
        assert _memo_size() == 0
    assert calls == {case: 3}


def test_campaigns_in_a_row_build_each_case_again(monkeypatch):
    calls = _count_main_lemma_words(monkeypatch)
    tasks = [
        {"command": "verify-main-lemma", "params": {"case": "A2"}},
        {"command": "factorize-main-lemma", "params": {"case": "C2Long"}},
        {"command": "factorize-main-lemma", "params": {"case": "A2"}},
        {"command": "verify-main-lemma", "params": {"case": "C2Long"}},
    ]
    first = json.dumps(run_campaign(tasks, seed=1, with_timings=False), sort_keys=True)
    assert calls == {"A2": 1, "C2Long": 1} and _memo_size() == 0
    second = json.dumps(run_campaign(tasks, seed=1, with_timings=False), sort_keys=True)
    assert calls == {"A2": 2, "C2Long": 2} and _memo_size() == 0
    assert first == second


def test_memo_is_cleared_when_a_task_raises(monkeypatch):
    calls = _count_main_lemma_words(monkeypatch)

    class Stop(BaseException):
        """Not an Exception, so it leaves the campaign's task loop."""

    def stop(args):
        raise Stop

    monkeypatch.setitem(TASKS, "verify-chevalley", stop)
    tasks = [
        {"command": "verify-main-lemma", "params": {"case": "A2"}},
        {"command": "verify-chevalley", "params": {"type": "A2"}},
    ]
    with pytest.raises(Stop):
        run_campaign(tasks, seed=1, with_timings=False)
    assert calls == {"A2": 1} and _memo_size() == 0


def test_a_case_that_raises_is_not_memoized(monkeypatch):
    calls = _count_main_lemma_words(monkeypatch)
    word = cli.main_lemma_word

    def failing(case, *args):
        word(case, *args)
        raise FactorizationError(f"no word for {case.value}")

    monkeypatch.setattr(cli, "main_lemma_word", failing)
    tasks = [
        {"command": "verify-main-lemma", "params": {"case": "A2"}},
        {"command": "factorize-main-lemma", "params": {"case": "A2"}},
    ]
    report = run_campaign(tasks, seed=1, with_timings=False)
    # the error is reported by both tasks, each having built the case
    assert calls == {"A2": 2} and _memo_size() == 0
    assert [entry["result"] for entry in report["tasks"]] == [
        {"error": "FactorizationError: no word for A2"}
    ] * 2
    assert report["exit_code"] == 2


def test_bound_exceeded_is_an_error_result():
    from chevlab import cli

    report = cli.run_campaign(
        [{"command": "bruteforce", "params": {
            "stmt": "T1", "type": "A2", "ring": "Z/8",
            "ideal_i": "2", "ideal_j": "2", "bound": 3}}],
        seed=0,
        with_timings=False,
    )
    assert report["exit_code"] == 2
    entry = report["tasks"][0]
    assert entry["status"] == "error"
    assert "BoundExceeded" in entry["result"]["error"]


@pytest.mark.parametrize(
    "stmt,ideal_i,ideal_j,level",
    [
        ("T2", "2", "0", "(0)"), ("T2", "2", "1", "(1)"), ("T3", "0", "2", "(0)"),
        # checked only after the closures of E(R) ran into the element bound
        ("T3", "1", "2", "(1)"), ("T2", "1", "1", "(1)"),
    ],
)
def test_level_refusal_names_subgroup_ring_and_ideal(stmt, ideal_i, ideal_j, level):
    # C(R, J) for T2 and C(R, I) for T3 need a proper nonzero level; the
    # message named neither the ring nor the level
    task = {"command": "bruteforce", "params": {
        "stmt": stmt, "type": "A2", "ring": "Z/8", "ideal_i": ideal_i, "ideal_j": ideal_j}}
    report = run_campaign([task], seed=0, with_timings=False)
    assert report["exit_code"] == 2
    assert report["tasks"][0]["result"]["error"] == (
        f"EnumerationError: C(Z/8, {level}) of A2: the level is not a proper nonzero ideal"
    )


@pytest.mark.parametrize(
    "command,params,key",
    [
        # the hyphenated keys were ignored, and (1),(1) checked under (2),(4)
        ("verify-main-lemma", {"case": "A2", "ring": "Z/8", "ideal-i": "2", "ideal-j": "4"}, "'ideal-i', 'ideal-j'"),
        ("bruteforce", {"stmt": "T2", "type": "C2", "ring": "Z/9", "ideal_i": "3", "candidate_bound": 5}, "'candidate_bound'"),
        # keys another command reads: the Levi task reads no bound or statement
        ("verify-levi", {"type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "2", "samples": 5, "bound": 3, "stmt": "T2"}, "'bound', 'stmt'"),
        # the report echoed a ring the Steinberg check never used
        ("verify-steinberg", {"type": "A2", "ring": "Z/8", "ideal": "2"}, "'ideal', 'ring'"),
        # the symbolic checks ran and echoed ideals they never read
        ("verify-main-lemma", {"case": "A2", "ideal_i": "2", "ideal_j": "4"}, "'ideal_i', 'ideal_j' without 'ring'"),
        ("verify-long-root", {"type": "C2", "ideal": "3"}, "'ideal' without 'ring'"),
    ],
)
def test_unread_params_refused(command, params, key):
    with pytest.raises(TaskError, match=f"{command} takes no parameter {key}"):
        validate_task(command, params)
    # a campaign validates every task before it runs any
    with pytest.raises(TaskError):
        run_campaign([{"command": command, "params": params}], seed=0, with_timings=False)


@pytest.mark.parametrize(
    "command,params,key",
    [
        ("verify-levi", {"type": "A2"}, "'ring', 'ideal_i', 'ideal_j'"),
        ("verify-long-root", {"type": "C2", "ring": "Z/9"}, "'ideal'"),
        ("dump-generators", {"type": "A2"}, "'ring'"),
        ("verify-steinberg", {}, "'type'"),
        ("bruteforce", {"stmt": "T1", "type": "A2", "ring": "Z/8"}, "'ideal_i'"),
    ],
)
def test_missing_required_params_refused(command, params, key):
    # these ran and ended in a bare KeyError from the task
    with pytest.raises(TaskError, match=f"{command} needs parameter {key}"):
        validate_task(command, params)
    with pytest.raises(TaskError):
        run_campaign([{"command": command, "params": params}], seed=0, with_timings=False)


def test_candidate_bound_flag_is_gone(capsys):
    argv = ["bruteforce", "--stmt", "T2", "--type", "C2", "--ring", "Z/9", "--ideal-i", "3", "--candidate-bound", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--candidate-bound" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [-5, 0])
def test_levi_without_samples_refused(samples, capsys):
    argv = ["verify", "levi", "--type", "A2", "--ring", "Z/8", "--ideal-i", "2", "--ideal-j", "2"]
    assert main(argv + ["--samples", str(samples)]) == 2
    assert f"needs an integer samples >= 1, got {samples}" in capsys.readouterr().err


def test_every_command_declares_its_params():
    assert set(PARAMS) == set(TASKS)


def _subcommands() -> dict:
    """The argv prefix and parser of every leaf subcommand of
    ``build_parser()``, by the prefix joined with "-"."""
    found = {}

    def walk(parser, prefix):
        children = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for action in children:
            for name, child in action.choices.items():
                walk(child, prefix + [name])
        if not children:
            found["-".join(prefix)] = (prefix, parser)

    walk(build_parser(), [])
    return found


def _options(parser) -> dict:
    return {a.dest: a.required for a in parser._actions if a.option_strings and a.dest != "help"}


def test_options_are_the_declared_params():
    # verify main-lemma lacked --ideal; --symbolic and campaign run --output
    # were declared nowhere else
    found = _subcommands()
    common = {"seed": False, "report": False, "timings": False}
    assert _options(found.pop("campaign-run")[1]) == common
    assert set(found) == set(PARAMS)
    for command, (_, parser) in found.items():
        required, optional = PARAMS[command]
        assert _options(parser) == common | {key: key in required for key in (*required, *optional)}


@pytest.mark.parametrize("argv", [prefix for prefix, _ in _subcommands().values()])
def test_every_subcommand_has_help(argv):
    done = subprocess.run(
        [sys.executable, "-m", "chevlab.cli", *argv, "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert done.returncode == 0 and done.stdout.startswith("usage: chevlab " + " ".join(argv))


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "main-lemma", "--case", "A2", "--symbolic"], "--symbolic"),
        (["verify", "long-root", "--type", "G2", "--symbolic"], "--symbolic"),
        (["factorize", "main-lemma", "--case", "A2", "--symbolic"], "--symbolic"),
        (["campaign", "run", "c.json", "--output", "r.json"], "--output"),
    ],
)
def test_removed_flags_are_usage_errors(argv, flag, capsys):
    # a task runs symbolically when it is given no ring, and a campaign
    # writes its report to --report
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# The task each subcommand's argv becomes, argparse defaults included
# (CLI reports echo them); the campaign seed is not a task parameter.
@pytest.mark.parametrize(
    "argv,command,params",
    [
        (["verify", "steinberg", "--type", "A2"], "verify-steinberg", {"type": "A2"}),
        (["verify", "chevalley", "--type", "G2", "--seed", "3"], "verify-chevalley", {"type": "G2"}),
        (["verify", "main-lemma", "--case", "A2", "--ring", "Z/8", "--ideal-i", "2", "--ideal-j", "4"],
         "verify-main-lemma", {"case": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "4"}),
        (["verify", "main-lemma", "--case", "C2Short"], "verify-main-lemma", {"case": "C2Short"}),
        (["verify", "long-root", "--type", "C2", "--ring", "Z/27", "--ideal", "3"],
         "verify-long-root", {"type": "C2", "ring": "Z/27", "ideal": "3"}),
        (["verify", "long-root", "--type", "G2"], "verify-long-root", {"type": "G2"}),
        (["verify", "levi", "--type", "A2", "--ring", "Z/8", "--ideal-i", "2", "--ideal-j", "2"],
         "verify-levi", {"type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "2", "samples": 1000}),
        (["bruteforce", "--stmt", "O1", "--type", "A2", "--ring", "Z/8", "--ideal-i", "2"],
         "bruteforce", {"stmt": "O1", "type": "A2", "ring": "Z/8", "ideal_i": "2", "bound": 1000000}),
        (["dump-constants", "--type", "C2"], "dump-constants", {"type": "C2"}),
        (["dump-generators", "--type", "A2", "--ring", "Z/8"], "dump-generators", {"type": "A2", "ring": "Z/8"}),
        (["factorize", "main-lemma", "--case", "G2Short"], "factorize-main-lemma", {"case": "G2Short"}),
        (["factorize", "long-root", "--type", "C2", "--ring", "Z/9", "--ideal", "3"],
         "factorize-long-root", {"type": "C2", "ring": "Z/9", "ideal": "3"}),
        # PARAMS lets the finite main lemma read one ideal for I and J
        (["verify", "main-lemma", "--case", "A2", "--ring", "Z/8", "--ideal", "2"],
         "verify-main-lemma", {"case": "A2", "ring": "Z/8", "ideal": "2"}),
    ],
)
def test_argv_maps_to_task(argv, command, params):
    assert _args_to_task(build_parser().parse_args(argv)) == {"command": command, "params": params}


@pytest.mark.parametrize(
    "command,params,message",
    [
        # null optionals were parsed as the name 'None' at run time
        ("bruteforce", {"stmt": "T1", "type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": None},
         "bruteforce: invalid parameter ideal_j=None"),
        ("verify-main-lemma", {"case": "A2", "ring": "Z/8", "ideal_i": None},
         "verify-main-lemma: invalid parameter ideal_i=None"),
        # these ran with 2, 1 and 2 samples or bound, and the seed went unused
        ("verify-levi", {"type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "2", "samples": 2.7},
         "verify-levi needs an integer samples >= 1, got 2.7"),
        ("verify-levi", {"type": "A2", "ring": "Z/8", "ideal_i": "2", "ideal_j": "2", "samples": True},
         "verify-levi needs an integer samples >= 1, got True"),
        ("bruteforce", {"stmt": "O1", "type": "A2", "ring": "Z/8", "ideal_i": "2", "bound": 2.5},
         "bruteforce needs an integer bound >= 1, got 2.5"),
        ("verify-steinberg", {"type": "A2", "seed": "q"}, "verify-steinberg needs an integer seed, got 'q'"),
        # the symbolic check ran and echoed the empty ring
        ("verify-main-lemma", {"case": "A2", "ring": ""}, "verify-main-lemma: invalid parameter ring=''"),
        # a ring other than Z/n failed at run time; parse errors named no parameter
        ("verify-long-root", {"type": "C2", "ring": "Z", "ideal": "2"},
         "verify-long-root: invalid parameter ring='Z': this task needs a finite ring Z/n"),
        ("dump-generators", {"type": "A2", "ring": "Z/9[t]"}, "dump-generators: invalid parameter ring='Z/9[t]'"),
        ("bruteforce", {"stmt": "T1", "type": "A2", "ring": "Z/8", "ideal_i": "x"},
         "bruteforce: invalid parameter ideal_i='x'"),
        # A2 has no short root to decompose
        ("verify-long-root", {"type": "A2"}, "verify-long-root: invalid parameter type='A2'"),
        # reported "words": [] with status ok, a vacuous verdict
        ("factorize-long-root", {"type": "A2", "ring": "Z/9", "ideal": "3"},
         "factorize-long-root: invalid parameter type='A2': A2 has no short roots"),
        # ended as a BoundExceeded error result, after the tasks ahead of it ran
        ("bruteforce", {"stmt": "T1", "type": "A2", "ring": "Z/8", "ideal_i": "2", "bound": 0},
         "bruteforce needs an integer bound >= 1, got 0"),
        # an IndexError from the parser, which validation let through
        ("bruteforce", {"stmt": "T1", "type": "A2", "ring": "Z/8", "ideal_i": "2^"},
         "bruteforce: invalid parameter ideal_i='2^'"),
    ],
)
def test_malformed_values_refused(command, params, message, tmp_path, capsys):
    with pytest.raises(TaskError, match=re.escape(message)):
        validate_task(command, params)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"tasks": [{"command": "verify-chevalley", "params": {"type": "A2"}},
                                          {"command": command, "params": params}]}))
    out = tmp_path / "r.json"
    assert main(["campaign", "run", str(path), "--report", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,key",
    [
        ({"seed": "x", "tasks": []}, "seed"),
        ([{"command": "verify-steinberg", "params": {"type": "A2"}}], "'tasks'"),
        ({"tasks": {"command": "verify-steinberg"}}, "'tasks'"),
        ({"tasks": [{"params": {"type": "A2"}}]}, "'command'"),
        ({"tasks": [{"command": "verify-steinberg", "params": ["type"]}]}, "'params'"),
    ],
)
def test_malformed_campaign_files_refused(spec, key, tmp_path, capsys):
    # each ended in a traceback and exit 1, which means a false verdict
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec))
    assert main(["campaign", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("campaign validation failed: ") and key in err
