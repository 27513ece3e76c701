"""Batch command-line interface: verification campaigns with JSON reports.

Exit codes: 0 = every verdict true, 1 = some verdict false, 2 = a task
errored or the input failed validation.  Reports are deterministic for a
fixed seed and input; wall-clock timings are only embedded on request so
that default reports are byte-identical across runs.

Tasks run on parsed arguments: ``validate_task`` is the one reader of a
task's raw parameters and parses each once, defaults filled in.
``run_campaign`` validates every task before it runs any, so every refusal
that depends only on the parameters happens before any task runs, exits 2
and names the command and the parameter.  Reports echo the raw parameters.
A campaign builds and verifies each symbolic main-lemma case once, for all
of its tasks, and nothing of it survives ``run_campaign``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache
from itertools import islice

from .constants import compute_table, constants_magnitudes
from .factorize import (
    STACK_BLOCK,
    CertifiedFactorization,
    ParabolicData,
    condition_star,
    levi_commutator_check,
    long_root_decomposition,
    long_word_factor_count,
    main_lemma_word,
    main_lemma_words,
    unit_decompose,
    verify_factorizations,
)
from .reps import get_representation, verify_steinberg
from .rings import Ideal, Ring, RingError, enumerate_elements, parse_ideal, parse_ring
from .roots import MainLemmaCase, RootSystemError, get_system
from .subgroups import DEFAULT_ELEMENT_BOUND, verify_theorem
from .words import certificate_to_json, evaluate_all, word_to_sexpr, x_word

SYSTEMS = ("A2", "C2", "G2")
STATEMENTS = ("T1", "T2", "T3", "O1", "O2")
# the task parameters each command needs, then those it may also read
# (verify-long-root over a ring needs its ideal); a campaign may set seed
PARAMS = {
    "verify-steinberg": (("type",), ()),
    "verify-chevalley": (("type",), ()),
    "verify-main-lemma": (("case",), ("ring", "ideal", "ideal_i", "ideal_j")),
    "verify-long-root": (("type",), ("ring", "ideal")),
    "verify-levi": (("type", "ring", "ideal_i", "ideal_j"), ("samples",)),
    "bruteforce": (("stmt", "type", "ring", "ideal_i"), ("ideal_j", "bound")),
    "dump-constants": (("type",), ()),
    "dump-generators": (("type", "ring"), ()),
    "factorize-main-lemma": (("case",), ()),
    "factorize-long-root": (("type", "ring", "ideal"), ()),
}


# the systems a command refuses, and why
UNSUPPORTED = {
    ("verify-long-root", "A2"): "A2 has no short roots; nothing to decompose",
    ("factorize-long-root", "A2"): "A2 has no short roots; nothing to decompose",
    ("bruteforce", "G2"): "G2 subgroup enumeration is out of desk scale",
}
IDEALS = ("ideal", "ideal_i", "ideal_j")
# the value an omitted optional parameter takes
DEFAULTS = {"samples": 1000, "bound": DEFAULT_ELEMENT_BOUND}


class TaskError(Exception):
    pass


# ---------------------------------------------------------------------------
# task implementations; each runs on the arguments validate_task parsed and
# returns (result-dict, verdict-bool)


def task_verify_steinberg(args: dict) -> tuple[dict, bool]:
    tag = args["type"]
    report = verify_steinberg(get_representation(tag))
    return (
        {
            "system": tag,
            "passed": report.passed,
            "counts": report.counts(),
        },
        report.passed,
    )


def task_verify_chevalley(args: dict) -> tuple[dict, bool]:
    tag = args["type"]
    rep = get_representation(tag)
    table = compute_table(rep)
    cases = [c for c in MainLemmaCase if c.system_tag == tag]
    displays = {}
    for case in cases:
        sn = table.signs(case)
        displays[case.value] = {
            "pair": [sn.pair[0].name, sn.pair[1].name],
            "constants": [
                {"i": i, "j": j, "root": r.name, "N": n} for i, j, r, n in sn.display
            ],
            "aux_constant": sn.aux_constant,
        }
    return (
        {
            "system": tag,
            "normalized_displays": displays,
            "constant_magnitudes": sorted(constants_magnitudes(table)),
        },
        True,
    )


@cache
def _symbolic_main_lemma(case: MainLemmaCase) -> tuple[CertifiedFactorization, bool]:
    """The case's word over Z[xi, zeta, eta] with ideals (xi), (zeta), verified.
    Memoized by case: ``run_campaign`` clears it when it ends, so a campaign
    builds each case once, nothing survives it, and a case that raises is
    not stored."""
    ring = Ring.polynomial(Ring.integers(), ("xi", "zeta", "eta"))
    xi, zeta, eta = ring.vars()
    ideal_i = Ideal.of(ring, [xi])
    ideal_j = Ideal.of(ring, [zeta])
    fact = main_lemma_word(case, xi, zeta, eta, ideal_i, ideal_j)
    return fact, fact.verify(get_representation(case.system_tag), ring, ideal_i, ideal_j)


def task_verify_main_lemma(args: dict) -> tuple[dict, bool]:
    """Over a ring Z/n, every triple (xi, zeta, eta) of I x J x R is
    factored and verified.  Each xi's pairs (zeta, eta) are taken in blocks
    of ``STACK_BLOCK``: ``main_lemma_words`` factors a block, and
    ``verify_factorizations`` checks it.  Failures are listed in the order
    of the triples.  Without a ring the case is checked symbolically."""
    case = args["case"]
    if "ring" in args:
        rep = get_representation(case.system_tag)
        ring, ideal_i, ideal_j = args["ring"], args["ideal_i"], args["ideal_j"]
        checked = 0
        failures = []
        for xi in ideal_i.element_values():
            pairs = (
                (zeta, eta) for zeta in ideal_j.element_values() for eta in enumerate_elements(ring)
            )
            while block := list(islice(pairs, STACK_BLOCK)):
                facts = main_lemma_words(case, xi, block, ideal_i, ideal_j)
                checked += len(block)
                verdicts = verify_factorizations(facts, rep, ring, ideal_i, ideal_j)
                for (zeta, eta), ok in zip(block, verdicts):
                    if not ok:
                        failures.append([str(xi), str(zeta), str(eta)])
        result = {
            "case": case.value,
            "mode": "finite",
            "ring": str(ring),
            "ideal_i": str(ideal_i),
            "ideal_j": str(ideal_j),
            "triples_checked": checked,
            "failures": failures,
            "condition_star": condition_star(case.system_tag, ring).to_json(),
        }
        return result, not failures
    fact, ok = _symbolic_main_lemma(case)
    return (
        {
            "case": case.value,
            "mode": "symbolic",
            "factors": len(fact.factors),
            "identity_and_certificates": ok,
        },
        ok,
    )


def _long_root_words(tag: str, ring: Ring, ideal: Ideal, values) -> list[tuple]:
    """(root, xi, word, verdict) for every short root and every xi in values:
    the long-root word of x_root(xi) and whether it evaluates to it."""
    rep = get_representation(tag)
    cells = [
        (beta, xi, long_root_decomposition(beta, xi, ideal, ring))
        for beta in get_system(tag).short_roots
        for xi in values
    ]
    words = [word for _, _, word in cells] + [x_word(beta, xi) for beta, xi, _ in cells]
    got = evaluate_all(words, rep, ring)
    return [
        (beta, xi, word, value == want)
        for (beta, xi, word), value, want in zip(cells, got, got[len(cells):])
    ]


def task_verify_long_root(args: dict) -> tuple[dict, bool]:
    tag = args["type"]
    if "ring" in args:
        ring, ideal = args["ring"], args["ideal"]
        rows = _long_root_words(tag, ring, ideal, ideal.element_values())
        failures = [[beta.name, str(xi)] for beta, xi, _, good in rows if not good]
        result = {
            "mode": "finite",
            "ring": str(ring),
            "ideal": str(ideal),
            "decompositions_checked": len(rows),
        }
        if tag == "G2":
            result["unit_decomposition"] = [
                [str(t), str(r)] for t, r in unit_decompose(ring)
            ]
    else:
        ring = Ring.polynomial(Ring.integers(), ("xi",))
        (xi,) = ring.vars()
        rows = _long_root_words(tag, ring, Ideal.of(ring, [xi]), [xi])
        failures = [beta.name for beta, _, _, good in rows if not good]
        result = {"mode": "symbolic", "short_roots_checked": len(rows)}
    result["system"] = tag
    result["max_factor_count"] = max(long_word_factor_count(w) for _, _, w, _ in rows)
    result["failures"] = failures
    return result, not failures


def task_verify_levi(args: dict) -> tuple[dict, bool]:
    tag, ring, ideal_i, ideal_j = args["type"], args["ring"], args["ideal_i"], args["ideal_j"]
    samples, seed = args["samples"], args["seed"]
    system = get_system(tag)
    sides = {}
    ok = True
    for r in (1, 2):
        parabolic = ParabolicData.for_simple(system, r)
        for minus in (False, True):
            rep = levi_commutator_check(
                parabolic, ideal_i, ideal_j, ring, samples, seed=seed, minus_side=minus
            )
            key = f"r={r}," + ("U-" if minus else "U+")
            sides[key] = {"samples": rep.samples, "violations": rep.violations}
            ok = ok and rep.passed
    return (
        {
            "system": tag,
            "ring": str(ring),
            "ideal_i": str(ideal_i),
            "ideal_j": str(ideal_j),
            "seed": seed,
            "sides": sides,
        },
        ok,
    )


def task_bruteforce(args: dict) -> tuple[dict, bool]:
    report = verify_theorem(
        args["stmt"], args["type"], args["ring"], args["ideal_i"], args["ideal_j"], args["bound"]
    )
    if report.error is not None:
        return report.to_json(), None
    return report.to_json(), report.verdict is True


def task_dump_constants(args: dict) -> tuple[dict, bool]:
    tag = args["type"]
    table = compute_table(get_representation(tag))
    return {"system": tag, "constants": table.to_records()}, True


def task_dump_generators(args: dict) -> tuple[dict, bool]:
    tag, ring = args["type"], args["ring"]
    rep = get_representation(tag)
    out = []
    for root in rep.system.roots:
        for t in enumerate_elements(ring):
            g = rep.x(root, t)
            out.append(
                {
                    "root": root.name,
                    "t": str(t),
                    "blocks": [b.tolist() for b in g.blocks],
                }
            )
    return {"system": tag, "ring": str(ring), "generators": out}, True


def task_factorize_main_lemma(args: dict) -> tuple[dict, bool]:
    case = args["case"]
    fact, ok = _symbolic_main_lemma(case)
    return (
        {
            "case": case.value,
            "target": word_to_sexpr(fact.target),
            "factors": [
                {"word": word_to_sexpr(w), "certificate": certificate_to_json(c)}
                for w, c in fact.factors
            ],
            "verdict": ok,
        },
        ok,
    )


def task_factorize_long_root(args: dict) -> tuple[dict, bool]:
    tag, ring, ideal = args["type"], args["ring"], args["ideal"]
    rows = _long_root_words(tag, ring, ideal, ideal.element_values())
    out = [
        {
            "root": beta.name,
            "xi": str(xi),
            "word": word_to_sexpr(word),
            "factors": long_word_factor_count(word),
            "verdict": good,
        }
        for beta, xi, word, good in rows
    ]
    ok = all(good for _, _, _, good in rows)
    return {"system": tag, "ring": str(ring), "ideal": str(ideal), "words": out}, ok


TASKS = {
    "verify-steinberg": task_verify_steinberg,
    "verify-chevalley": task_verify_chevalley,
    "verify-main-lemma": task_verify_main_lemma,
    "verify-long-root": task_verify_long_root,
    "verify-levi": task_verify_levi,
    "bruteforce": task_bruteforce,
    "dump-constants": task_dump_constants,
    "dump-generators": task_dump_generators,
    "factorize-main-lemma": task_factorize_main_lemma,
    "factorize-long-root": task_factorize_long_root,
}


def _listed_elements(command: str, args: dict) -> int:
    """What a finite-ring task lists before it can finish: |I| |J| n triples
    for the finite main lemma, |roots| n generators for dump-generators and
    |short roots| |I| words for the finite long-root tasks; 0 for others."""
    if "ring" not in args:
        return 0
    n = args["ring"].modulus

    def size(key: str) -> int:
        return n // args[key].gens[0]

    if command == "verify-main-lemma":
        return size("ideal_i") * size("ideal_j") * n
    if command == "dump-generators":
        return len(get_system(args["type"]).roots) * n
    if command in ("verify-long-root", "factorize-long-root"):
        return len(get_system(args["type"]).short_roots) * size("ideal")
    return 0


def _parse(command: str, key: str, value, ring: Ring | None):
    """One raw parameter as the value its task runs on."""
    if key in ("samples", "bound", "seed"):
        floor = " >= 1" if key in ("samples", "bound") else ""
        try:  # an int or a string of one; no bool or float
            number = int(value) if type(value) in (int, str) else None
        except ValueError:
            number = None
        if number is None or (floor and number < 1):
            raise TaskError(f"{command} needs an integer {key}{floor}, got {value!r}")
        return number
    invalid = f"{command}: invalid parameter {key}={value!r}: "
    if value is None:
        raise TaskError(invalid + "null")
    if key == "type" and value not in SYSTEMS:
        raise TaskError(invalid + f"expected one of {SYSTEMS}")
    if key == "type" and (command, value) in UNSUPPORTED:
        raise TaskError(invalid + UNSUPPORTED[command, value])
    if key == "stmt" and value not in STATEMENTS:
        raise TaskError(invalid + f"expected one of {STATEMENTS}")
    try:
        if key == "case":
            return MainLemmaCase.from_string(str(value))
        if key == "ring":
            ring = parse_ring(str(value))
            if ring.kind != "Zn":
                raise TaskError(invalid + f"this task needs a finite ring Z/n, got {ring}")
            return ring
        if key in IDEALS:
            return parse_ideal(ring, str(value))
    except (RingError, RootSystemError) as exc:
        raise TaskError(invalid + str(exc)) from exc
    return value


def validate_task(command: str, params: dict) -> dict:
    """The typed arguments a task runs on: each raw parameter parsed once,
    the defaults filled in.  Every refusal that depends only on the
    parameters is a TaskError from here naming the command and parameter."""
    if command not in TASKS:
        raise TaskError(f"unknown command {command!r}")
    required, optional = PARAMS[command]
    unknown = sorted(set(params) - {*required, *optional, "seed"})
    if unknown:
        raise TaskError(f"{command} takes no parameter {', '.join(map(repr, unknown))}")
    if command == "verify-long-root" and "ring" in params:
        required += ("ideal",)
    missing = [key for key in required if params.get(key) is None]
    if missing:
        raise TaskError(f"{command} needs parameter {', '.join(map(repr, missing))}")
    unread = [key for key in IDEALS if key in params and "ring" not in params]
    if unread:  # the symbolic checks fix their own ideals
        keys = ", ".join(map(repr, unread))
        raise TaskError(f"{command} takes no parameter {keys} without 'ring'")
    args = {"seed": 0} | {key: DEFAULTS[key] for key in optional if key in DEFAULTS}
    for key in sorted(params, key=lambda key: key != "ring"):  # the ideals need the ring
        args[key] = _parse(command, key, params[key], args.get("ring"))
    if command == "bruteforce":
        args.setdefault("ideal_j", args["ideal_i"])
    if command == "verify-main-lemma" and "ring" in args:
        default = args["ideal"] if "ideal" in args else parse_ideal(args["ring"], "1")
        args.setdefault("ideal_i", default)
        args.setdefault("ideal_j", default)
    work = _listed_elements(command, args)
    if work > DEFAULT_ELEMENT_BOUND:
        raise TaskError(
            f"{command} over {args['ring']} would check {work} elements (> {DEFAULT_ELEMENT_BOUND})"
        )
    return args


def run_campaign(tasks: list[dict], seed: int, with_timings: bool) -> dict:
    """Validate every task, then run them in order on the parsed arguments;
    the symbolic main-lemma memo is cleared when the campaign ends."""
    parsed = []
    for index, entry in enumerate(tasks):
        params = entry.get("params", {}) if isinstance(entry, dict) else None
        if not isinstance(params, dict) or not isinstance(entry.get("command"), str):
            raise TaskError(f"task {index} needs a string 'command' and object 'params': {entry!r}")
        params = {"seed": seed, **params}
        parsed.append((entry["command"], params, validate_task(entry["command"], params)))
    results = []
    timings = []
    any_false = False
    any_error = False
    try:
        for command, params, args in parsed:
            start = time.monotonic()
            try:
                result, ok = TASKS[command](args)
                if ok is None:
                    status = "error"
                    any_error = True
                else:
                    status = "ok" if ok else "false"
                    any_false = any_false or not ok
            except Exception as exc:  # noqa: BLE001 - reported, exit code 2
                result = {"error": f"{type(exc).__name__}: {exc}"}
                status = "error"
                any_error = True
            timings.append(round(time.monotonic() - start, 3))
            results.append({"command": command, "params": params, "status": status, "result": result})
    finally:
        _symbolic_main_lemma.cache_clear()
    report = {
        "version": "0.1.0",
        "seed": seed,
        "tasks": results,
    }
    report["input_hash"] = hashlib.sha256(
        json.dumps(tasks, sort_keys=True).encode()
    ).hexdigest()
    if with_timings:
        report["timings_s"] = timings
    report["exit_code"] = 2 if any_error else (1 if any_false else 0)
    return report


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    for entry in report["tasks"]:
        marker = {"ok": "ok  ", "false": "FALSE", "error": "ERROR"}[entry["status"]]
        print(f"[{marker}] {entry['command']} {json.dumps(entry['params'], sort_keys=True)}")
    print(f"exit_code={report['exit_code']} tasks={len(report['tasks'])}")
    if not path:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--report", help="write the JSON report to this path")
    common.add_argument(
        "--timings", action="store_true", help="embed wall-clock timings in the report"
    )
    parser = argparse.ArgumentParser(
        prog="chevlab",
        description="exact-arithmetic lab for rank-2 elementary Chevalley groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="identity-layer verification")
    verify_sub = verify.add_subparsers(dest="what", required=True)
    for what in ("steinberg", "chevalley"):
        p = verify_sub.add_parser(what, parents=[common])
        p.add_argument("--type", required=True, choices=SYSTEMS)
    p = verify_sub.add_parser("main-lemma", parents=[common])
    p.add_argument("--case", required=True)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--ring")
    p.add_argument("--ideal-i", dest="ideal_i")
    p.add_argument("--ideal-j", dest="ideal_j")
    p = verify_sub.add_parser("long-root", parents=[common])
    p.add_argument("--type", required=True, choices=SYSTEMS)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--ring")
    p.add_argument("--ideal")
    p = verify_sub.add_parser("levi", parents=[common])
    p.add_argument("--type", required=True, choices=SYSTEMS)
    p.add_argument("--ring", required=True)
    p.add_argument("--ideal-i", dest="ideal_i", required=True)
    p.add_argument("--ideal-j", dest="ideal_j", required=True)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("bruteforce", parents=[common], help="brute-force subgroup statements")
    p.add_argument("--stmt", required=True, choices=STATEMENTS)
    p.add_argument("--type", required=True, choices=SYSTEMS)
    p.add_argument("--ring", required=True)
    p.add_argument("--ideal-i", dest="ideal_i", required=True)
    p.add_argument("--ideal-j", dest="ideal_j")
    p.add_argument("--bound", type=int, default=DEFAULT_ELEMENT_BOUND)

    p = sub.add_parser("dump-constants", parents=[common])
    p.add_argument("--type", required=True, choices=SYSTEMS)
    p = sub.add_parser("dump-generators", parents=[common])
    p.add_argument("--type", required=True, choices=SYSTEMS)
    p.add_argument("--ring", required=True)

    fact = sub.add_parser("factorize", help="emit certified factorizations")
    fact_sub = fact.add_subparsers(dest="what", required=True)
    p = fact_sub.add_parser("main-lemma", parents=[common])
    p.add_argument("--case", required=True)
    p.add_argument("--symbolic", action="store_true")
    p = fact_sub.add_parser("long-root", parents=[common])
    p.add_argument("--type", required=True, choices=SYSTEMS)
    p.add_argument("--ring", required=True)
    p.add_argument("--ideal", required=True)

    p = sub.add_parser("campaign", help="run a JSON campaign file")
    camp_sub = p.add_subparsers(dest="what", required=True)
    runp = camp_sub.add_parser("run", parents=[common])
    runp.add_argument("file", help="campaign JSON file")
    runp.add_argument("--output", help="report output path")
    return parser


def _args_to_task(args: argparse.Namespace) -> dict:
    command = args.command
    if command in ("verify", "factorize"):
        command = f"{command}-{args.what}"
    params = {}
    for key in sorted(set().union(*(a + b for a, b in PARAMS.values()))):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "symbolic", False):
        params.pop("ring", None)
    return {"command": command, "params": params}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "campaign":
        try:
            with open(args.file) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read campaign: {exc}", file=sys.stderr)
            return 2
        try:
            if not isinstance(spec, dict) or not isinstance(spec.get("tasks", []), list):
                raise TaskError(f"{args.file} is not an object with a list 'tasks'")
            seed = _parse(args.file, "seed", spec.get("seed", args.seed), None)
            report = run_campaign(spec.get("tasks", []), seed, args.timings)
        except TaskError as exc:
            print(f"campaign validation failed: {exc}", file=sys.stderr)
            return 2
        _emit(report, args.output or args.report)
        return report["exit_code"]
    task = _args_to_task(args)
    try:
        report = run_campaign([task], args.seed, args.timings)
    except TaskError as exc:
        print(f"invalid task: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.report)
    return report["exit_code"]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
