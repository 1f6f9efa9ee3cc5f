"""Spans around the package's public functions, recorded in memory.

``Tracer.install`` replaces each listed function by a timing wrapper at every
site that holds it: the defining module and every ``toyfield`` module that
imported it by name (``circuits.gate_table`` and ``montecarlo.gate_table``
are the same function, bound twice).  Each call records a span (id, parent
span, op id, name, start, end) and adds its duration minus its children's to
the function's self time.  Self times and counts cover every call; span
records stop at ``capacity`` to bound memory, and the rest are counted as
dropped.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

# (module, function) pairs that get a span.  The per-layer metrics read a
# subset; the rest give the spans their parents.
TARGETS = (
    ("phase_space", "is_valid"),
    ("phase_space", "enumerate_valid_states"),
    ("toy_dynamics", "gate_table"),
    ("toy_dynamics", "push_forward"),
    ("toy_measurement", "measure_occupation"),
    ("toy_measurement", "measure_ancilla"),
    ("toy_measurement", "sample_measurement_index"),
    ("first_quantized", "check_commutation"),
    ("quantum", "apply_gate"),
    ("quantum", "measure_subsystem"),
    ("circuits", "parse"),
    ("circuits", "compile_toy"),
    ("circuits", "compile_quantum"),
    ("circuits", "run_toy_exact"),
    ("circuits", "run_quantum_exact"),
    ("circuits", "joint_to_labeled"),
    ("scenarios", "run_scenario"),
    ("scenarios", "equivalence_sweep"),
    ("montecarlo", "derive_seed"),
    ("montecarlo", "sample_run"),
    ("montecarlo", "estimate"),
    ("montecarlo", "locality_audit"),
    ("montecarlo", "audit_records"),
    ("automaton", "plan_from_program"),
    ("automaton", "run_experiment"),
    ("cli", "main"),
)

# Counts read from a function's return value at its boundary.
RESULT_COUNTS = {
    "montecarlo.audit_records": ("events_checked", lambda report: report.events_checked),
}


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self, capacity: int = 200_000):
        self.capacity = capacity
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.op = -1
        self.next_id = 0
        self.dropped = 0
        self._stack: list[list] = []  # [span id, children's time]
        self._patched: list[tuple] = []  # (module, attribute, original, wrapper)
        # Span columns: id, parent id, op id, name index, start, end.
        self._span = (array("q"), array("q"), array("q"), array("H"),
                      array("d"), array("d"))

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        name_id = len(self.names)
        self.names.append(name)
        count = RESULT_COUNTS.get(name)
        stack = self._stack
        ids, parents, ops, names, starts, ends = self._span

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(ids) < self.capacity:
                    ids.append(span_id)
                    parents.append(parent)
                    ops.append(self.op)
                    names.append(name_id)
                    starts.append(start)
                    ends.append(end)
                else:
                    self.dropped += 1
            if count is not None:
                key = f"{name}.{count[0]}"
                self.counts[key] = self.counts.get(key, 0) + count[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every ``toyfield`` module that binds it.

        The wrappers are made on the first call; later calls put the same
        wrappers back after ``uninstall``.  Modules not imported by the first
        call are skipped: their functions cannot have run.
        """
        if not self._patched:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "toyfield" or n.startswith("toyfield.")]
            for module_name, function in TARGETS:
                home = sys.modules.get(f"toyfield.{module_name}")
                if home is None:
                    continue
                original = getattr(home, function)
                wrapper = self.wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for module, attr, original, _ in reversed(self._patched):
            setattr(module, attr, original)

    @contextmanager
    def tracing(self):
        """Installed for the body; adds the body's gate-table cache hits and
        misses to the counts."""
        before = gate_table_counts()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            for key, value in gate_table_counts().items():
                self.counts[key] = self.counts.get(key, 0) + value - before[key]

    def merge(self, other: dict) -> None:
        """Add a child process's exported stats, counts and spans."""
        for name, (calls, self_s, errors) in other["stats"].items():
            stat = self.stats.setdefault(name, Stat())
            stat.calls += calls
            stat.self_s += self_s
            stat.errors += errors
        for key, value in other["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        offset = self.next_id
        self.next_id += other["next_id"]
        ids, parents, ops, names, starts, ends = self._span
        for span_id, parent, name, start, end in other["spans"]:
            if len(ids) >= self.capacity:
                self.dropped += 1
                continue
            if name not in self.names:
                self.names.append(name)
            ids.append(span_id + offset)
            parents.append(parent + offset if parent >= 0 else -1)
            ops.append(self.op)
            names.append(self.names.index(name))
            starts.append(start)
            ends.append(end)
        self.dropped += other["dropped"]

    def export(self) -> dict:
        ids, parents, _, names, starts, ends = self._span
        return {
            "stats": {n: (s.calls, s.self_s, s.errors) for n, s in self.stats.items()},
            "counts": self.counts,
            "next_id": self.next_id,
            "dropped": self.dropped,
            "spans": [(i, p, self.names[n], s, e)
                      for i, p, n, s, e in zip(ids, parents, names, starts, ends)],
        }

    def write_spans(self, path) -> int:
        """Write the recorded spans as tab-separated text; returns the count."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i, p, o, n, s, e in zip(*self._span):
                out.write(f"{i}\t{p}\t{o}\t{self.names[n]}\t{s!r}\t{e!r}\n")
        return len(self._span[0])


def gate_table_counts() -> dict[str, int]:
    """Hits and misses of the gate-table cache so far, from ``cache_info``."""
    from toyfield import toy_dynamics

    table = toy_dynamics.gate_table
    while not hasattr(table, "cache_info"):  # under the tracer's wrapper
        table = table.__wrapped__
    info = table.cache_info()
    return {"toy_dynamics.gate_table.hits": info.hits,
            "toy_dynamics.gate_table.misses": info.misses}
