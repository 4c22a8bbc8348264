"""Span tracing of the rok layers from outside the package.

``Tracer.install`` replaces the public functions at the points where the
integrator looks them up, so nothing in ``src/rok`` changes:

* ``rok.integrate.rok_step`` (imported there by name) -> span ``step``
* ``rok.arnoldi.build_fixed`` / ``build_adaptive`` -> ``arnoldi.build``,
  ``rok.arnoldi.extend`` -> ``arnoldi.extend`` (called through the module)
* ``rok.linalg.lu_factor`` / ``lu_solve`` / ``lu_append_column`` ->
  ``linalg.lu_factor`` / ``linalg.lu_solve`` / ``linalg.lu_append``
* ``problem.f`` / ``problem.jv`` of the problem instance ->
  ``problems.f`` / ``problems.jv``; the wrapped bound methods still count
  ``n_rhs`` / ``n_jvp``
* the benchmark's own call of ``rok.integrate.integrate`` -> ``integrate``

Each span records its name, start, end, parent span and cell id in
memory; ``write`` saves them when the run ends.  A layer's self time is
its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import Counter

LAYERS = ("integrate", "step", "arnoldi.build", "arnoldi.extend", "linalg.lu_factor",
          "linalg.lu_solve", "linalg.lu_append", "problems.f", "problems.jv")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.cells: list[int] = []
        self.cell = -1
        self.counts: Counter = Counter()  # per-pass outcome counters, see take_counts
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn, on_result=None):
        names, starts, ends, parents, cells, stack = (
            self.names, self.starts, self.ends, self.parents, self.cells, self._stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            cells.append(self.cell)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _patch(self, owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self, rok_integrate, rok_arnoldi, rok_linalg, problem):
        """Wrap the layer entry points; ``uninstall`` puts the originals back."""
        counts = self.counts

        def built(args, basis):
            counts["build.basis_sum"] += basis.core_size
            counts["build.hit_cap"] += int(basis.hit_cap)
            m = basis.core_size
            # One Gram-Schmidt pass per Arnoldi vector against the i columns
            # before it: sum_{i=1..m} i columns of 8*n bytes.
            counts["build.ortho_bytes"] += 8 * basis.dim * m * (m + 1) // 2

        def extended(args, basis):
            counts["extend.grew"] += int(basis.size > args[0].size)

        def stepped(args, result):
            if result.stats.extensions:
                counts["step.extended"] += 1
                counts["step.refactorized"] += int(result.stats.refactorized)

        self._patch(rok_integrate, "rok_step", "step", stepped)
        self._patch(rok_arnoldi, "build_fixed", "arnoldi.build", built)
        self._patch(rok_arnoldi, "build_adaptive", "arnoldi.build", built)
        self._patch(rok_arnoldi, "extend", "arnoldi.extend", extended)
        self._patch(rok_linalg, "lu_factor", "linalg.lu_factor")
        self._patch(rok_linalg, "lu_solve", "linalg.lu_solve")
        self._patch(rok_linalg, "lu_append_column", "linalg.lu_append")
        self._patch(problem, "f", "problems.f")
        self._patch(problem, "jv", "problems.jv")

    def uninstall(self):
        for owner, attr, original, own_attr in reversed(self._restore):
            if own_attr:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the instance falls back to the class method
        self._restore.clear()

    def take_counts(self) -> Counter:
        taken = self.counts.copy()
        self.counts.clear()
        return taken

    def layer_totals(self, cell_ids) -> dict:
        """Calls and self seconds per layer over the spans of the given cells,
        plus the number of ``lu_factor`` calls made directly by a build."""
        cell_ids = set(cell_ids)
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        calls = Counter()
        self_ns = Counter()
        factor_in_build = 0
        for i, name in enumerate(self.names):
            if self.cells[i] not in cell_ids:
                continue
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child_ns[i]
            parent = self.parents[i]
            if name == "linalg.lu_factor" and parent >= 0 and self.names[parent] == "arnoldi.build":
                factor_in_build += 1
        return {
            "calls": {layer: calls[layer] for layer in LAYERS},
            "self_s": {layer: self_ns[layer] * 1e-9 for layer in LAYERS},
            "lu_factor_in_build": factor_in_build,
        }

    def write(self, path):
        """Save every span as gzipped CSV: index, name, start/end ns, parent, cell."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "cell"])
            for i, name in enumerate(self.names):
                out.writerow([i, name, self.starts[i] - origin, self.ends[i] - origin,
                              self.parents[i], self.cells[i]])
