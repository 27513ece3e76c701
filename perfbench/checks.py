"""Checks of campaign results against facts computed apart from chevlab.

Nothing here imports chevlab or stores a copy of an earlier report.  The
facts are the paper's statements (every brute-force verdict is a theorem),
closed forms for group orders, counts recomputed from the task's inputs,
the structure constants the paper displays, and generator additivity
recomputed with plain Python integers.
"""
from __future__ import annotations

from math import gcd

# root counts of the rank-2 systems, the order of the centre of the simply
# connected group over F_q (SL3, Sp4), and the long-factor limit of the C2
# long-root decompositions
ROOTS = {"A2": 6, "C2": 8, "G2": 12}
SHORT_ROOTS = {"A2": 0, "C2": 4, "G2": 6}
CENTRE = {"A2": lambda q: gcd(3, q - 1), "C2": lambda q: gcd(2, q - 1)}
LONG_ROOT_FACTOR_LIMIT = {"C2": 3}
RANK = 2


def _ideal_size(n: int, d: int) -> int:
    """|dZ/nZ|."""
    return n // gcd(d, n)


def _ring_modulus(spec: str) -> int:
    if not spec.startswith("Z/"):
        raise ValueError(f"not a finite ring: {spec!r}")
    return int(spec[2:])


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % k for k in range(2, int(p**0.5) + 1))


def _prime_power(n: int) -> tuple[int, int] | None:
    for p in range(2, n + 1):
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    return None


def expected_cardinalities(stmt: str, tag: str, n: int, d_i: int, d_j: int) -> dict:
    """Closed forms for the cardinalities a brute-force report lists.

    * Over Z/p^k with level (p^a), the principal congruence subgroup is the
      kernel of G(Z/p^k) -> G(Z/p^a); for a smooth group scheme of
      dimension D its order is p^((k-a) D) = (n/d)^D, D = #roots + rank.
    * When the level is prime, the full congruence subgroup is the centre
      of G(Z/d) lifted: |Z(G(F_d))| times the kernel above.
    * When I*J = 0, every commutator [1 + X, 1 + Y] with X = 0 mod I and
      Y = 0 mod J is 1 + (XY - YX)(...) = 1, so each mixed commutator
      subgroup is trivial.
    * When I^2 = 0, x_a(s) = 1 + s e_a for s in I and these commute, so
      E(I) is the direct product of the root subgroups: |I|^#roots.
    """
    out = {}
    dim = ROOTS[tag] + RANK
    pp = _prime_power(n)

    def kernel(d: int) -> int | None:
        if pp is None or d % n == 0 or n % d or _prime_power(d) is None:
            return None
        if _prime_power(d)[0] != pp[0]:
            return None
        return (n // d) ** dim

    if stmt == "T1" and kernel(d_i) is not None:
        out["G(R,I)"] = kernel(d_i)
    if stmt in ("T2", "T3"):
        d = d_j if stmt == "T2" else d_i
        if kernel(d) is not None and _is_prime(d) and tag in CENTRE:
            out["C(R,J)" if stmt == "T2" else "C(R,I)"] = CENTRE[tag](d) * kernel(d)
    if (d_i * d_j) % n == 0:
        commutators = {
            "T1": ("[E(I),E(J)]", "[E(R,I),E(R,J)]"),
            "T2": ("[E(I),E(J)]", "[E(I),C(R,J)]"),
            "O1": ("[E(I),E(J)]",),
            "O2": ("[E(I),E(J)]",),
        }
        for key in commutators.get(stmt, ()):
            out[key] = 1
    if stmt == "T3" and (d_i * d_i) % n == 0:
        out["E(I)"] = _ideal_size(n, d_i) ** ROOTS[tag]
    if stmt == "O2":
        out["conjugators"] = ROOTS[tag] * (n - 1)
    return out


def _matmul_mod(a: list, b: list, n: int) -> list:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % n for col in cols] for row in a]


def _check_generators(params: dict, res: dict) -> list[str]:
    tag, n = params["type"], _ring_modulus(params["ring"])
    bad = []
    gens = res["generators"]
    if len(gens) != ROOTS[tag] * n:
        bad.append(f"{len(gens)} generators, expected {ROOTS[tag]} roots x {n}")
    by_root: dict = {}
    for g in gens:
        by_root.setdefault(g["root"], {})[int(g["t"]) % n] = g["blocks"]
    if len(by_root) != ROOTS[tag]:
        bad.append(f"{len(by_root)} roots dumped, expected {ROOTS[tag]}")
    for root, table in by_root.items():
        if sorted(table) != list(range(n)):
            bad.append(f"x_{root}: coefficients are not Z/{n}")
            continue
        for blocks in table[0]:
            if blocks != [[int(i == j) for j in range(len(blocks))] for i in range(len(blocks))]:
                bad.append(f"x_{root}(0) is not the identity")
        for s in range(n):
            for t in range(s, n):
                lhs = [_matmul_mod(a, b, n) for a, b in zip(table[s], table[t])]
                if lhs != table[(s + t) % n]:
                    bad.append(f"x_{root}({s}) x_{root}({t}) != x_{root}({(s + t) % n})")
    return bad


def _check_chevalley(params: dict, res: dict) -> list[str]:
    tag = params["type"]
    displays = res["normalized_displays"]
    bad = []

    def shown(case):
        return [(c["i"], c["j"], c["N"]) for c in displays[case]["constants"]]

    if tag == "A2" and [c[2] for c in shown("A2")] != [1]:
        bad.append(f"A2 display {shown('A2')}, expected (1)")
    if tag == "C2":
        for case in ("C2Long", "C2Short"):
            if shown(case) != [(1, 1, 1), (2, 1, 1)]:
                bad.append(f"{case} display {shown(case)}, expected (1,1)")
    if tag == "G2":
        if [c[2] for c in shown("G2Short")] != [1, 1, 1, 2]:
            bad.append(f"G2 display {shown('G2Short')}, expected (1,1,1,2)")
        if displays["G2Short"]["aux_constant"] != 3:
            bad.append("G2 auxiliary constant is not 3")
    mags = {"A2": [1], "C2": [1, 2], "G2": [1, 2, 3]}[tag]
    if res["constant_magnitudes"] != mags:
        bad.append(f"{tag} constant magnitudes {res['constant_magnitudes']}, expected {mags}")
    return bad


def _check_long_root(params: dict, res: dict) -> list[str]:
    tag = params["type"]
    limit = LONG_ROOT_FACTOR_LIMIT[tag]
    bad = []
    if "ring" not in params:
        if res["short_roots_checked"] != SHORT_ROOTS[tag] or res["failures"]:
            bad.append(f"symbolic long-root: {res['short_roots_checked']} checked, {res['failures']}")
        if res["max_factor_count"] > limit:
            bad.append(f"{res['max_factor_count']} long factors (> {limit})")
        return bad
    n = _ring_modulus(params["ring"])
    expected = SHORT_ROOTS[tag] * _ideal_size(n, int(params["ideal"]))
    if res["decompositions_checked"] != expected or res["failures"]:
        bad.append(f"{res['decompositions_checked']} decompositions (expected {expected}), "
                   f"failures {res['failures']}")
    if res["max_factor_count"] > limit:
        bad.append(f"{res['max_factor_count']} long factors (> {limit})")
    return bad


def _check_main_lemma(params: dict, res: dict) -> list[str]:
    if "ring" not in params:
        ok = res["mode"] == "symbolic" and res["identity_and_certificates"] is True
        return [] if ok and res["factors"] > 0 else ["symbolic main lemma not verified"]
    n = _ring_modulus(params["ring"])
    expected = _ideal_size(n, int(params["ideal_i"])) * _ideal_size(n, int(params["ideal_j"])) * n
    if res["triples_checked"] != expected or res["failures"]:
        return [f"{res['triples_checked']} triples (expected |I||J|n = {expected}), "
                f"failures {res['failures'][:3]}"]
    return []


def _check_levi(params: dict, res: dict) -> list[str]:
    sides = res["sides"]
    want = {f"r={r},{s}" for r in (1, 2) for s in ("U+", "U-")}
    bad = [] if set(sides) == want else [f"Levi sides {sorted(sides)}"]
    for key, side in sides.items():
        if side["samples"] != params["samples"] or side["violations"]:
            bad.append(f"Levi {key}: {side['samples']} samples, "
                       f"{len(side['violations'])} violations")
    return bad


def _check_bruteforce(params: dict, res: dict) -> list[str]:
    if res["error"] is not None or res["verdict"] is not True:
        return [f"{params['stmt']} verdict {res['verdict']}, error {res['error']}"]
    n = _ring_modulus(params["ring"])
    d_i = int(params["ideal_i"])
    d_j = int(params.get("ideal_j", d_i))
    bad = []
    cards = res["cardinalities"]
    for key, value in expected_cardinalities(params["stmt"], params["type"], n, d_i, d_j).items():
        if key == "G(R,I)" and key not in cards:
            continue  # side data that T1 lists only when the sweep is affordable
        if cards.get(key) != value:
            bad.append(f"|{key}| = {cards.get(key)}, expected {value}")
    return bad


def check_task(entry: dict) -> list[str]:
    """Failures of one report entry; empty when status and result are right."""
    if entry["status"] != "ok":
        return [f"status {entry['status']}: {entry['result'].get('error')}"]
    command, params, res = entry["command"], entry["params"], entry["result"]
    if command == "verify-steinberg":
        roots = ROOTS[params["type"]]
        counts = res["counts"]
        if not res["passed"] or counts["failures"] or counts["additivity"] != roots \
                or counts["pairs"] != roots * (roots - 2):
            return [f"Steinberg {params['type']}: {counts}"]
        return []
    if command == "verify-chevalley":
        return _check_chevalley(params, res)
    if command == "verify-main-lemma":
        return _check_main_lemma(params, res)
    if command == "factorize-main-lemma":
        ok = res["verdict"] is True and res["factors"] and all(f["certificate"].get("tag") for f in res["factors"])
        return [] if ok else ["factorized main lemma not verified"]
    if command == "verify-long-root":
        return _check_long_root(params, res)
    if command == "verify-levi":
        return _check_levi(params, res)
    if command == "dump-generators":
        return _check_generators(params, res)
    if command == "bruteforce":
        return _check_bruteforce(params, res)
    return [f"no check for {command}"]
