"""The measured process of one benchmark run (started by ``run.py``).

A fresh single-threaded interpreter: it imports chevlab from the checkout's
``src``, then repeats rounds of (clear the representation, table and
congruence caches; cold build; ``cli.run_campaign`` on the workload) for the
run's measuring time.  It prints one JSON object on its last stdout line.

    setup_s        = process start -> chevlab imported -> first cold build done
    campaign_s     = median wall time of run_campaign over the rounds
    slowest_task_s = median over rounds of the longest task
    peak_rss_mb    = this process's peak resident set (getrusage)

With ``--setup-only`` the process stops after its set-up and prints only
``setup_s``; ``run.py`` starts four such processes per run and reports
the median (see its docstring).
"""
import time

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = f"{args.root}/src"
    sys.path.insert(0, src)
    from chevlab import cli, constants, reps, subgroups

    import_s = time.monotonic() - args.spawned_at
    if not cli.__file__.startswith(src):
        raise SystemExit(f"chevlab was imported from {cli.__file__}, not {src}")

    # what the benchmark itself needs is imported after the set-up clock
    import hashlib
    import json
    import os
    import resource
    import statistics

    from checks import check_task
    from workloads import WORKLOADS

    tasks, built = WORKLOADS[args.workload]
    # the caches are cleared through the original functions, which tracing
    # replaces by wrappers under the same names
    rep_cache, table_cache = reps.get_representation, constants.compute_table

    def cold_build() -> float:
        rep_cache.cache_clear()
        table_cache.cache_clear()
        subgroups._CONGRUENCE_CACHE.clear()
        start = time.perf_counter()
        for tag in built["reps"]:
            reps.get_representation(tag)
        for tag in built["tables"]:
            constants.compute_table(reps.get_representation(tag))
        return time.perf_counter() - start

    if args.setup_only:
        print(json.dumps({"setup_s": import_s + cold_build()}))
        return 0

    stats = {"attempted": 0, "failed": 0, "wrong": 0, "digests": set()}

    def campaign_round() -> tuple[float, float, float]:
        build_s = cold_build()
        sizes = (rep_cache.cache_info().currsize, table_cache.cache_info().currsize)
        start = time.perf_counter()
        report = cli.run_campaign(tasks, args.seed, True)
        campaign_s = time.perf_counter() - start
        if (rep_cache.cache_info().currsize, table_cache.cache_info().currsize) != sizes:
            raise SystemExit("the campaign built a representation or table the set-up did not")
        slowest = max(report.pop("timings_s"))
        stats["digests"].add(
            hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        )
        for entry in report["tasks"]:
            stats["attempted"] += 1
            problems = check_task(entry)
            if problems:
                stats["failed"] += 1
                stats["wrong"] += entry["status"] == "ok"
                print(f"FAILED {entry['command']} {entry['params']}: {problems}", file=sys.stderr)
        return build_s, campaign_s, slowest

    rounds = []
    measure_start = time.perf_counter()
    longest = 0.0
    while not rounds or (
        not args.trace and time.perf_counter() - measure_start + longest <= args.seconds
    ):
        round_start = time.perf_counter()
        rounds.append(campaign_round())
        longest = max(longest, time.perf_counter() - round_start)
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        traced_campaign_s = campaign_round()[1]
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in spans.layer_metrics(tracer).items()
        }
        metrics["trace.overhead_s"] = {
            "value": traced_campaign_s - statistics.median(r[1] for r in rounds),
            "unit": "s",
        }
        out = f"{args.root}/perfbench/out"
        os.makedirs(out, exist_ok=True)
        tracer.write(f"{out}/spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "setup_s": {"value": import_s + rounds[0][0], "unit": "s"},
            "campaign_s": {"value": statistics.median(r[1] for r in rounds), "unit": "s"},
            "slowest_task_s": {"value": statistics.median(r[2] for r in rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    digests = sorted(stats["digests"])
    print(json.dumps({
        "correct": stats["wrong"] == 0 and len(digests) == 1,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
        "rounds": len(rounds),
        "report_sha256": digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
