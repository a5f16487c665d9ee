"""Span tracing of hybridfem's public functions from outside the library.

The library is not edited.  :class:`Tracer` wraps each covered function
and installs the wrapper *by identity*: every binding of the original
function object in every loaded ``hybridfem`` module namespace (and the
package ``__init__``) is replaced.  Modules hold their own copies of
imported names (``expressions`` does ``from .forms import
assemble_form``, ``study`` imports ``scpc_setup``), so patching only the
defining module would miss most calls.  :func:`self_check` proves the
installation complete by comparing the wrapper call counts with
cProfile's counts of the original code objects.

Spans (name, start, end, parent, unit) are kept in memory and written
out once by the caller.  A span's self time is its duration minus the
durations of its direct children; serial code nests spans strictly, so
the children cover disjoint parts of the parent.
"""

from __future__ import annotations

import cProfile
import collections
import importlib
import sys
import time

# Covered functions, named "<module>.<function>" after hybridfem's modules.
FUNCTIONS = (
    "mesh.build_unit_square",
    "problems.hybridized_mixed_system",
    "problems.conforming_mixed_system",
    "problems.primal_cg_system",
    "reference.rt_element",
    "reference.scalar_element",
    "reference.line_element",
    "spaces.create_space",
    "spaces.transfer_residual",
    "spaces.project_div",
    "forms.assemble_form",
    "expressions.compile_expr",
    "expressions.evaluate_all",
    "expressions.assemble_global",
    "expressions.constrain_matrix",
    "solvers.krylov_solve",
    "solvers.apply_bcs",
    "solvers.make_preconditioner",
    "condensation.scpc_setup",
    "condensation.scpc_apply",
    "condensation.hybridization_setup",
    "condensation.hybridization_apply",
    "postprocess.scalar_pp",
    "study.solve_hybridizable",
    "study.solve_primal",
    "study.l2_error",
)

# Plan kernel ops counted from the plans compile_expr returns.
KERNEL_OPS = ("assemble", "gather", "mul", "inverse", "solve", "blocks")


def _hybridfem_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hybridfem" or name.startswith("hybridfem."))]


class Tracer:
    """Records spans and exact counts for the covered functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, unit]
        self.unit = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.originals = {name: getattr(importlib.import_module("hybridfem." + name.split(".")[0]),
                                        name.split(".")[1])
                          for name in FUNCTIONS}
        # per unit: "krylov.iterations", "kernels.<op>" and the assembled forms
        self.counts: dict = collections.defaultdict(collections.Counter)
        self.forms: dict = collections.defaultdict(list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {id(orig): self._wrap(name, orig) for name, orig in self.originals.items()}
        for mod in _hybridfem_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in self._installed:
            setattr(mod, attr, value)
        self._installed.clear()

    def _wrap(self, name: str, orig):
        spans, stack = self.spans, self._stack
        observe = {
            "forms.assemble_form": self._observe_form,
            "expressions.compile_expr": self._observe_plan,
            "solvers.krylov_solve": self._observe_solve,
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.unit])
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = orig
        return traced

    # -- exact counts ------------------------------------------------------

    def _observe_form(self, args, result) -> None:
        # Holding the form keeps its id from being reused within the unit.
        self.forms[self.unit].append(args[0])

    def _observe_plan(self, args, plan) -> None:
        ops = collections.Counter(k.op for k in plan.kernels)
        for op in KERNEL_OPS:
            self.counts[self.unit]["kernels." + op] += ops[op]

    def _observe_solve(self, args, result) -> None:
        self.counts[self.unit]["krylov.iterations"] += result[1].iterations

    def unit_counts(self, unit) -> dict:
        """Exact counts of one finished unit: calls per function,
        iterations, distinct-form ratio and plan kernels.  Releases the
        forms the unit held, so call it once, right after the unit."""
        calls = collections.Counter(s[0] for s in self.spans if s[4] == unit)
        out = {f"{name}.calls": calls[name] for name in FUNCTIONS}
        out["solvers.krylov_solve.iterations"] = self.counts[unit]["krylov.iterations"]
        forms = self.forms.pop(unit, [])
        out["forms.assemble_form.distinct_ratio"] = (
            len({id(f) for f in forms}) / len(forms) if forms else 0.0)
        for op in KERNEL_OPS:
            out["expressions.kernels." + op] = self.counts[unit]["kernels." + op]
        return out

    # -- times -------------------------------------------------------------

    def self_times(self) -> dict:
        """Sum of self seconds per (unit, function name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = collections.Counter()
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            out[unit, name] += (end - start) - child[i]
        return out


def self_check(run_cases) -> list[str]:
    """Run ``run_cases()`` traced and under cProfile; return mismatches.

    For an lru-cached function cProfile sees only cache misses, so its
    expected count is the cache's own hits + misses instead.
    """
    tracer = Tracer()
    cached = {name: orig.cache_info() for name, orig in tracer.originals.items()
              if hasattr(orig, "cache_info")}
    prof = cProfile.Profile()
    tracer.install()
    try:
        prof.enable()
        try:
            run_cases()
        finally:
            prof.disable()
    finally:
        tracer.uninstall()
    profiled = {e.code: e.callcount for e in prof.getstats() if not isinstance(e.code, str)}
    got = collections.Counter(s[0] for s in tracer.spans)
    mismatches = []
    for name, orig in tracer.originals.items():
        if name in cached:
            after = orig.cache_info()
            want = (after.hits + after.misses) - (cached[name].hits + cached[name].misses)
        else:
            want = profiled.get(orig.__code__, 0)
        if got[name] != want:
            mismatches.append(f"{name}: wrapper saw {got[name]} calls, expected {want}")
        elif want == 0:
            mismatches.append(f"{name}: not exercised by the self-check")
    return mismatches
