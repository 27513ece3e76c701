"""Steadiness and determinism check for the benchmark.

    python3 perfbench/steady.py

Runs ``run.py`` (untraced) for every workload in BENCHMARK.json, with seeds
1-10 and the file's ``run_seconds``, in two sets over the same seeds: each
workload's ten seeds back to back, then the whole pass again.  For each
end-to-end metric it prints per set the median, the quartiles and the
quartile spread as a share of the median, and how far the second set's
median moved from the first's, next to the metric's bound.  Every spread,
``setup_s``'s too, and every move between the sets, in either direction,
must stay within the bound.  It also checks that every run is correct, that
the share of failed tasks is the same in every run, and that every run with
the same workload and seed printed the same sha256 of its default report
(the report without ``timings_s``).  The raw results go to
``perfbench/out/steady-<time>.json``.  Exits 1 when a check or a bound
fails.  On the reference machine it takes about 40 minutes.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(l for l in lines if l.startswith("report_sha256=")).split("=", 1)[1]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3



def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    for set_no in range(SETS):
        for workload in workloads:
            for seed in SEEDS:
                start = time.monotonic()
                result = run_once(workload, seed, bench["run_seconds"])
                result.update(set=set_no, seed=seed, workload=workload,
                              wall_s=time.monotonic() - start)
                runs.append(result)
                print(f"set {set_no} {workload} seed {seed}: {result['wall_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(runs, indent=1))

    ok = True
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        shares = {r["failed"] / r["attempted"] for r in mine}
        digests = {}
        for r in mine:
            digests.setdefault(r["seed"], set()).add(r["digest"])
        # one digest per run (all its rounds agreed), and one per seed
        same = all("," not in r["digest"] for r in mine) and all(
            len(d) == 1 for d in digests.values()
        )
        correct = all(r["correct"] for r in mine)
        ok = ok and same and correct and len(shares) == 1
        print(f"\n{workload}: {len(mine)} runs, wall {sum(r['wall_s'] for r in mine):.0f} s, "
              f"correct={correct}, failed share={sorted(shares)}, "
              f"digest per seed identical={same}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in mine if r["set"] == s]
                    for s in range(SETS)]
            line = []
            for values in sets:
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                line.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
                ok = ok and spread <= bound
            first, second = (statistics.median(v) for v in sets)
            moved = (second - first) / first
            line.append(f"second set moved by {moved:+.3f}")
            ok = ok and abs(moved) <= bound
            print(f"  {name:15s} bound {bound:.2f}: " + "; ".join(line))
    print(f"\nraw results: {path}\n{'STEADY' if ok else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
