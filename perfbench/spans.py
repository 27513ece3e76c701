"""Outside-in layer tracing for the traced benchmark run.

The wrappers are installed from here, around chevlab's public functions,
and replace every name under which the program looks a function up (for
example ``evaluate`` is imported by name into ``cli``, ``factorize`` and
``subgroups``).  Each call records a span -- name, start, end, parent and
the campaign task it belongs to -- in flat in-memory arrays; counts are
taken at the same boundaries.  Nothing is written until ``write``.
Untraced runs never import this module.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_task = -1
        self.tasks_started = -1
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; before(args) -> state, after(args, state, result)."""
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, task, start, end, stack = (
            self.name_id, self.parent, self.task, self.start, self.end, self.stack
        )
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            task.append(tracer.current_task)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after:
                after(args, state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive time of the outermost spans (a
        recursive call is not counted twice), and self time (span time minus
        the time of its direct children)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        # a span is outermost for its name when it starts after every
        # earlier span of that name has ended (spans of one name nest)
        outer = np.zeros(len(dur), dtype=bool)
        for nid in range(len(self.names)):
            idx = np.flatnonzero(a["name_id"] == nid)
            idx = idx[np.argsort(a["start"][idx], kind="stable")]
            ends = np.maximum.accumulate(a["end"][idx])
            outer[idx] = np.concatenate(([True], a["start"][idx][1:] >= ends[:-1]))
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask & outer].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **a)


def _replace_everywhere(package: str, original, wrapper) -> int:
    """Rebind every module-level name of the package that holds original."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of chevlab named in the benchmark README."""
    from chevlab import cli, constants, factorize, linalg, reps, rings, subgroups, words

    def function(name, module, attr, before=None, after=None):
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, before, after)
        if not _replace_everywhere("chevlab", original, wrapper):
            raise RuntimeError(f"{module.__name__}.{attr} was not found")

    def method(name, cls, attrs, before=None, after=None):
        original = getattr(cls, attrs[0])
        wrapper = tracer.wrap(name, original, before, after)
        for attr in attrs:
            if getattr(cls, attr) is not original:
                raise RuntimeError(f"{cls.__name__}.{attr} is not an alias of {attrs[0]}")
            setattr(cls, attr, wrapper)

    # rings
    method("rings.mul", rings.RingElement, ("__mul__", "__rmul__"))
    method("rings.add", rings.RingElement, ("__add__", "__radd__"))
    method("rings.element", rings.Ring, ("element",))
    # linalg
    method("linalg.matmul", linalg.ExactMatrix, ("__mul__",))
    # reps: group products split by backend
    group_mul = reps.GroupElement.__mul__
    np_mul = tracer.wrap("reps.np_mul", group_mul)
    exact_mul = tracer.wrap("reps.exact_mul", group_mul)

    def group_mul_by_backend(self, other):
        return np_mul(self, other) if self.backend == "np" else exact_mul(self, other)

    reps.GroupElement.__mul__ = group_mul_by_backend
    function("reps.build", reps, "get_representation")
    method("reps.x", reps.Representation, ("x",))
    function("reps.coordinates", reps, "unipotent_coordinates")
    function("constants.table", constants, "compute_table")
    # words
    function(
        "words.evaluate", words, "evaluate",
        before=lambda args: tracer.count("words.letters", len(args[0].letters)),
    )
    function("words.certificate", words, "validate_certificate")
    # factorize
    method("factorize.verify", factorize.CertifiedFactorization, ("verify",))
    function("factorize.main_lemma_word", factorize, "main_lemma_word")
    function("factorize.levi", factorize, "levi_commutator_check")
    function("factorize.long_root", factorize, "long_root_decomposition")

    # subgroups
    def congruence_before(args):
        rep, ring, ideal = args[:3]
        return (rep.name, ring, ideal) in subgroups._CONGRUENCE_CACHE

    def congruence_after(args, hit, result):
        if hit:
            tracer.count("subgroups.congruence_cache_hits", 1)
            return
        rep, ring, ideal = args[:3]
        n, (d,) = ring.modulus, ideal.gens
        dim = rep.block_dims[0]
        if d % n:
            tracer.count("subgroups.congruence_candidates", (n // d) ** (dim * dim))
            tracer.count("subgroups.congruence_kept", result.cardinality)

    function(
        "subgroups.congruence", subgroups, "enumerate_congruence_subgroup",
        before=congruence_before, after=congruence_after,
    )
    function("subgroups.full_congruence", subgroups, "enumerate_full_congruence")
    method(
        "subgroups.close_over", subgroups.EnumeratedSubgroup, ("close_over",),
        before=lambda args: args[0].cardinality,
        after=lambda args, size, _: tracer.count(
            "subgroups.close_over_elements", args[0].cardinality - size
        ),
    )
    method(
        "subgroups.contains", subgroups.EnumeratedSubgroup, ("contains_batch",),
        before=lambda args: tracer.count("subgroups.contains_keys", len(args[1])),
    )
    method("subgroups.audit", subgroups.EnumeratedSubgroup, ("audit_closure",))
    method("subgroups.audit", subgroups.EnumeratedSubgroup, ("audit_direct",))
    function("subgroups.theorem", subgroups, "verify_theorem")
    # cli
    function("cli.validate", cli, "validate_task")

    def task_before(args):
        tracer.tasks_started += 1
        tracer.current_task = tracer.tasks_started

    def task_after(args, state, result):
        tracer.current_task = -1

    for command, task_fn in list(cli.TASKS.items()):
        cli.TASKS[command] = tracer.wrap("cli.task", task_fn, task_before, task_after)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> (value, unit), read from spans and counts."""
    s = tracer.summary()
    c = tracer.counts

    def get(name, key):
        return s.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[key]

    return {
        "rings.mul_calls": (get("rings.mul", "calls"), "count"),
        "rings.mul_s": (get("rings.mul", "s"), "s"),
        "rings.add_calls": (get("rings.add", "calls"), "count"),
        "rings.add_s": (get("rings.add", "s"), "s"),
        "rings.element_calls": (get("rings.element", "calls"), "count"),
        "linalg.matmul_calls": (get("linalg.matmul", "calls"), "count"),
        "linalg.matmul_self_s": (get("linalg.matmul", "self_s"), "s"),
        "reps.build_s": (get("reps.build", "s"), "s"),
        "constants.table_s": (get("constants.table", "s"), "s"),
        "reps.x_calls": (get("reps.x", "calls"), "count"),
        "reps.x_self_s": (get("reps.x", "self_s"), "s"),
        "reps.np_mul_calls": (get("reps.np_mul", "calls"), "count"),
        "reps.np_mul_s": (get("reps.np_mul", "s"), "s"),
        "reps.exact_mul_calls": (get("reps.exact_mul", "calls"), "count"),
        "reps.coordinates_s": (get("reps.coordinates", "s"), "s"),
        "words.evaluate_calls": (get("words.evaluate", "calls"), "count"),
        "words.letters": (c.get("words.letters", 0), "count"),
        "words.evaluate_self_s": (get("words.evaluate", "self_s"), "s"),
        "words.certificate_s": (get("words.certificate", "s"), "s"),
        "factorize.verify_s": (get("factorize.verify", "s"), "s"),
        "factorize.main_lemma_word_s": (get("factorize.main_lemma_word", "s"), "s"),
        "factorize.levi_s": (get("factorize.levi", "s"), "s"),
        "factorize.levi_self_s": (get("factorize.levi", "self_s"), "s"),
        "factorize.long_root_s": (get("factorize.long_root", "s"), "s"),
        "subgroups.congruence_s": (get("subgroups.congruence", "s"), "s"),
        "subgroups.congruence_candidates": (c.get("subgroups.congruence_candidates", 0), "count"),
        "subgroups.congruence_yield": (
            _ratio(c.get("subgroups.congruence_kept", 0), c.get("subgroups.congruence_candidates", 0)),
            "ratio",
        ),
        "subgroups.congruence_cache_hits": (c.get("subgroups.congruence_cache_hits", 0), "count"),
        "subgroups.full_congruence_s": (get("subgroups.full_congruence", "s"), "s"),
        "subgroups.close_over_calls": (get("subgroups.close_over", "calls"), "count"),
        "subgroups.close_over_s": (get("subgroups.close_over", "s"), "s"),
        "subgroups.elements_per_s": (
            _ratio(c.get("subgroups.close_over_elements", 0), get("subgroups.close_over", "s")),
            "1/s",
        ),
        "subgroups.contains_keys": (c.get("subgroups.contains_keys", 0), "count"),
        "subgroups.contains_s": (get("subgroups.contains", "s"), "s"),
        "subgroups.keys_per_s": (
            _ratio(c.get("subgroups.contains_keys", 0), get("subgroups.contains", "s")), "1/s"
        ),
        "subgroups.audit_s": (get("subgroups.audit", "s"), "s"),
        "subgroups.theorem_s": (get("subgroups.theorem", "s"), "s"),
        "cli.validate_s": (get("cli.validate", "s"), "s"),
        "cli.task_self_s": (get("cli.task", "self_s"), "s"),
    }
