"""The benchmark's workloads: fixed campaign task lists for ``cli.run_campaign``.

Every task list is fixed; the run's ``--seed`` becomes the campaign seed,
which only ``verify-levi`` reads (it seeds the Levi sample streams).  Each
workload lets one group of layers do most of the work:

* ``symbolic`` -- polynomial arithmetic over Z[xi,zeta,eta] and exact sparse
  matrix products (rings, linalg, words, factorize); no numpy, no enumeration.
* ``kernel`` -- numpy arithmetic over Z/n.  Nearly all of it is the
  congruence-subgroup statements for C2 over Z/9 at level (3): exactly one
  3^16-candidate sweep, shared by T2, T3 and T1 through the module cache,
  then the closure work on top of it.  Ahead of them run the A2 and C2
  finite-ring tasks that need no sweep of that size: per-element products
  (Levi sampling, finite main lemma, long-root words, generator dumps) and
  brute-force T1/O1/O2 over A2/Z8, whose congruence sweep is 4^9.

Brute-force T1/O1/O2 over C2/Z27 and the G2 finite-ring tasks are left
out: as a third workload they took about 35 s a run, and the evaluation
budget could not hold it next to a symbolic workload long enough to be
steady (see README.md).
"""
from __future__ import annotations


def _task(command: str, **params) -> dict:
    return {"command": command, "params": params}


SYMBOLIC = (
    [_task("verify-steinberg", type=t) for t in ("A2", "C2", "G2")]
    + [_task("verify-chevalley", type=t) for t in ("A2", "C2", "G2")]
    + [_task("verify-main-lemma", case=c) for c in ("A2", "C2Long", "C2Short", "G2Short")]
    + [
        _task("factorize-main-lemma", case="G2Short"),
        _task("verify-long-root", type="C2"),
    ]
)

KERNEL = [
    _task("verify-levi", type="A2", ring="Z/8", ideal_i="2", ideal_j="2", samples=300),
    _task("verify-levi", type="C2", ring="Z/27", ideal_i="3", ideal_j="3", samples=300),
    _task("verify-main-lemma", case="A2", ring="Z/8", ideal_i="2", ideal_j="4"),
    _task("verify-main-lemma", case="C2Long", ring="Z/27", ideal_i="9", ideal_j="9"),
    _task("verify-main-lemma", case="C2Short", ring="Z/27", ideal_i="9", ideal_j="9"),
    _task("verify-long-root", type="C2", ring="Z/27", ideal="3"),
    _task("dump-generators", type="A2", ring="Z/8"),
    _task("dump-generators", type="C2", ring="Z/9"),
] + [
    _task("bruteforce", stmt=s, type="A2", ring="Z/8", ideal_i="2", ideal_j="2")
    for s in ("T1", "O1", "O2")
] + [
    _task("bruteforce", stmt=s, type="C2", ring="Z/9", ideal_i="3", ideal_j="3")
    for s in ("T2", "T3", "T1")
]

# name -> (task list, systems whose representation and structure-constant
# table the set-up builds).  The set-up builds exactly what the campaign
# uses; the run checks that no campaign builds anything further.
WORKLOADS = {
    "symbolic": (SYMBOLIC, {"reps": ("A2", "C2", "G2"), "tables": ("A2", "C2", "G2")}),
    "kernel": (KERNEL, {"reps": ("A2", "C2"), "tables": ("A2", "C2")}),
}
