"""In-memory spans around calls into sylq's layers.

The tracer wraps public functions at the name each caller looks up (for
example `sylq.inference.compile_syllogism` and `sylq.cli.compile_syllogism`
are two names for one function), records a span per call and a few counts
taken from the arguments and results, and puts the originals back when the
`with` block ends.  `simplex.maximize` calls `simplex.minimize`, so wrapping
`minimize` alone counts every LP once.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# (module, attribute, span name): every name a caller looks a layer up by
TARGETS = (
    ("sylq.cli", "main", "cli.main"),
    ("sylq.cli", "parse", "dsl.parse"),
    ("sylq.cli", "infer", "inference.infer"),
    ("sylq.cli", "compile_syllogism", "compiler.compile_syllogism"),
    ("sylq.inference", "compile_syllogism", "compiler.compile_syllogism"),
    ("sylq.inference", "fit_trapezoid", "quantifiers.fit_trapezoid"),
    ("sylq.optimizer", "solve", "optimizer.solve"),
    ("sylq.optimizer", "rewrite_strict", "optimizer.rewrite_strict"),
    ("sylq.simplex", "minimize", "simplex.minimize"),
    ("sylq.cli", "enumerate_range", "oracle.enumerate_range"),
)

# span names whose time is reported as self time (they have traced children)
PARENTS = ("cli.main", "inference.infer", "optimizer.solve")


def _count_minimize(counts: Counter, args, kwargs, result) -> None:
    costs, rows = args
    counts["simplex.pivots"] += result.pivots
    counts["simplex.cells"] += len(rows) * len(costs)


def _count_compile(counts: Counter, args, kwargs, result) -> None:
    counts["compiler.rows"] += len(result.constraints)
    counts["compiler.atoms"] += result.k


def _count_solve(counts: Counter, args, kwargs, result) -> None:
    counts["solves"] += 1
    counts["feasible_solves"] += result.status != "infeasible"


def _count_enumerate(counts: Counter, args, kwargs, result) -> None:
    # computed, not counted: compositions of every total 0..cap into K atoms
    syl, cap = args[0], args[1]
    k = 1 << syl.s
    if syl.universe_size is not None:
        n = int(syl.universe_size)
        counts["oracle.populations"] += math.comb(n + k - 1, k - 1)
    else:
        counts["oracle.populations"] += math.comb(cap + k, k)


COUNTERS = {
    "simplex.minimize": _count_minimize,
    "compiler.compile_syllogism": _count_compile,
    "optimizer.solve": _count_solve,
    "oracle.enumerate_range": _count_enumerate,
}


class Tracer:
    """Records spans (op, name, start, end, parent index) while entered.

    Set `op` to the current operation's id before each traced call; `counts`
    accumulates until the caller replaces it.  Targets a module does not
    have are listed in `missing` and skipped.
    """

    def __init__(self, modules: Dict[str, object]):
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.targets = []
        self.missing = []
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            if hasattr(module, attr):
                self.targets.append((module, attr, name))
            else:
                self.missing.append("%s.%s" % (module_name, attr))

    def __enter__(self) -> "Tracer":
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._stack.clear()
        return False

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.op, name, start, end, parent)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans, first: int, last: int) -> Dict[str, Tuple[float, int]]:
    """Per span name: (self seconds, calls) over spans[first:last].

    Self time is a span's duration minus its direct children's durations.
    """
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index in range(first, last):
        _, name, start, end, parent = spans[index]
        own[name] += end - start
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][1]] -= end - start
    return {name: (own[name], calls[name]) for name in own}
