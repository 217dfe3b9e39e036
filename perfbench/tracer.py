"""Spans and counters recorded from outside the package.

`instrument` replaces functions of the lcflat modules by wrappers, in every
module namespace that holds them, because a name imported with
`from .wjet import implicit_solve` is looked up in the importing module and
would escape a wrapper installed only in `wjet`.  Nothing under src/ is
edited; the originals are put back when the context ends.

Spans are kept in memory as [name, start_ns, end_ns, parent, check_id] and
written out by the caller.  A span's self time is its duration minus the
durations of its direct children (spans nest strictly: one thread).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, function) pairs that get a span: the layer boundaries.
SPANNED = {
    "verify": ("sample_points", "run_check"),
    "metrics": ("phi_value", "phi_field", "build_metric", "hessian_forms",
                "deck_invariance_residual"),
    "wjet": ("implicit_solve", "solve_scalar_root"),
    "geometry": ("christoffels", "lc_curvature", "chern_ricci", "d_del_star_parts",
                 "del_star", "torsion", "scalars", "riemannian_scalar"),
}
# Jet operations are too fine-grained for spans; they are only counted.
COUNTED = {"wjet": ("mul", "div")}
# Solvers whose first argument is the function they evaluate.
EVAL_COUNTED = ("wjet.implicit_solve", "wjet.solve_scalar_root")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.check_id = -1
        self._stack: list[int] = []
        self._sampling = 0  # depth of open sample_points spans

    def spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_evals = name in EVAL_COUNTED
        is_sampler = name == "verify.sample_points"
        is_phi_value = name == "metrics.phi_value"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_evals:
                args = (self.counting(name + ".evals", args[0]),) + args[1:]
            if is_sampler:
                self._sampling += 1
            elif is_phi_value and self._sampling:
                counts["verify.sample_points.phi_value"] += 1
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.check_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                if is_sampler:
                    self._sampling -= 1

        return wrapper

    def counting(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def open(self, name: str) -> int:
        """Start a span around a call the harness makes itself."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.check_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - child[idx]) * 1e-9
        return dict(out)

    def call_counts(self) -> dict:
        """Exact counts: span calls by name plus the counters."""
        calls = Counter(name for name, *_ in self.spans)
        calls.update(self.counts)
        return dict(sorted(calls.items()))


@contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Wrap the SPANNED and COUNTED functions wherever `modules` reference them.

    `modules` maps short names ("wjet", "metrics", ...) to module objects.
    """
    wrappers = {}
    for home, names in SPANNED.items():
        for fname in names:
            orig = getattr(modules[home], fname)
            wrappers[id(orig)] = (orig, tracer.spanned(f"{home}.{fname}", orig))
    for home, names in COUNTED.items():
        for fname in names:
            orig = getattr(modules[home], fname)
            wrappers[id(orig)] = (orig, tracer.counting(f"{home}.{fname}", orig))

    patched = []
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))

    jet_cls = modules["wjet"].WJet
    orig_init = jet_cls.__init__
    jet_cls.__init__ = tracer.counting("wjet.WJet", orig_init)
    try:
        yield tracer
    finally:
        jet_cls.__init__ = orig_init
        for mod, attr, val in patched:
            setattr(mod, attr, val)
