"""Per-layer tracing of colstab from outside the package.

The tracer replaces the public functions and methods of each colstab module
with timing wrappers, and restores the originals on ``uninstall``.  Nothing
under ``src/`` is edited.  Calls are aggregated into one row per operation
group (``ring.mul``, ``matrix.det``, ...) so memory stays bounded; only the
benchmark's own item spans are kept individually.

Self time is a call's duration minus the time of wrapped calls made inside
it, computed with a stack of child-time accumulators.  The tracer's own
bookkeeping after a call, the term counting of ``ring.mul`` included, is
charged to neither the call nor its caller.  What a wrapper adds to the
call's own self time and, by entering and leaving it, to its caller's, the
clock readings cannot exclude; both are measured once at ``install``
(``calibrate``) and taken off per call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from contextlib import contextmanager

LAYERS = ("ring", "localize", "matrix", "stab", "tame")

# Operation groups named by the benchmark.  A wrapped callable not listed here
# is counted under "<layer>.other".
GROUPS = {
    "ring": {
        "RingElement.__mul__": "mul",
        "RingElement.__rmul__": "mul",
        "RingElement.__add__": "add",
        "RingElement.__radd__": "add",
        "RingElement.__sub__": "add",
        "RingElement.__rsub__": "add",
        "RingElement.__neg__": "add",
        "RingElement.divide_exact": "divide_exact",
        "c_adic_decompose": "c_adic",
        "CAdicDecomposition.reconstruct": "c_adic",
        "RingElement.specialize": "specialize",
        "RingElement.specialize_all": "specialize",
        "in_delta": "delta",
        "delta_split_linear": "delta",
        "delta_split_quadratic": "delta",
        "parse_element": "codec",
        "format_element": "codec",
        "RingDescriptor.parse": "codec",
        "RingElement.__eq__": "eq_hash",
        "RingElement.__hash__": "eq_hash",
        "RingDescriptor.__hash__": "eq_hash",
        "RingDescriptor.__eq__": "descriptor_eq",
    },
    "localize": {
        "LocalizedElement.__init__": "new",
        "LocalizedElement.__add__": "arith",
        "LocalizedElement.__radd__": "arith",
        "LocalizedElement.__sub__": "arith",
        "LocalizedElement.__rsub__": "arith",
        "LocalizedElement.__neg__": "arith",
        "LocalizedElement.__mul__": "arith",
        "LocalizedElement.__rmul__": "arith",
        "loc_decompose": "loc_decompose",
        "LocDecomposition.reconstruct": "loc_decompose",
    },
    "matrix": {
        "Mat.det": "det",
        "Mat.__mul__": "mul",
        "Mat.__rmul__": "mul",
        "Mat.scale": "mul",
        "Mat.apply_column": "mul",
        "Mat.inverse": "inverse",
        "Mat.adjugate": "inverse",
        "Mat.__eq__": "eq_hash",
        "Mat.__hash__": "eq_hash",
        "mat_to_document": "doc",
        "mat_from_document": "doc",
        "ring_to_document": "doc",
        "ring_from_document": "doc",
    },
    "stab": {
        name: name
        for name in (
            "check_stab",
            "reduce",
            "residues",
            "residues_closed_form",
            "rho",
            "in_scheme",
            "in_H",
            "preimage",
        )
    },
    "tame": {
        "eval_word": "eval_word",
        "gen_T": "gen",
        "gen_S": "gen",
        "sample_tame": "sample",
    },
}

# Operator methods wrapped besides public names; __init__ only where GROUPS
# names it.  __bool__, __str__, __getitem__ and properties stay unwrapped: they
# are attribute-like and their cost lands in the caller's self time.
DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__eq__", "__hash__",
}

# Operation groups reported per layer, in order: each reports calls and self_s.
REPORTED = {
    layer: (*dict.fromkeys(GROUPS[layer].values()), "other") for layer in LAYERS
}


def _size(x) -> int:
    """Term count of a ring element operand; scalars count as one term."""
    terms = getattr(x, "_terms", None)
    if terms is None:
        terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


def calibrate(calls=20000, repeats=5) -> tuple:
    """Seconds a wrapped call adds to its own and to its caller's self time.

    A wrapped parent calls a wrapped no-op ``calls`` times.  The no-op's self
    time per call is what the wrapper adds between its clock readings; the
    parent's self time, less that of the same loop over the bare no-op, is
    the cost of entering and leaving the wrapper that the readings cannot
    exclude.  Minima over ``repeats`` are taken, so noise rarely overstates
    either.
    """
    clock = time.perf_counter

    def noop():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    probe = Tracer()
    child = probe._timed("probe.child", "probe", noop)
    parent = probe._timed("probe.parent", "probe", lambda: loop(child))
    inner, outer, bare = [], [], []
    for _ in range(repeats):
        before = probe.stats["probe.parent"][1], probe.stats["probe.child"][1]
        parent()
        outer.append(probe.stats["probe.parent"][1] - before[0])
        inner.append(probe.stats["probe.child"][1] - before[1])
        start = clock()
        loop(noop)
        bare.append(clock() - start)
    return min(inner) / calls, max(0.0, (min(outer) - min(bare)) / calls)


class Tracer:
    """Wraps colstab callables and aggregates their calls and self times."""

    def __init__(self):
        self.stats = {}  # callable -> [calls, self_s]
        self.group = {}  # callable -> operation group
        self.term_products = 0
        self.out_terms_max = 0
        self.preimage_status = {"SUCCESS": 0, "OBSTRUCTED": 0}
        self.spans = []
        self._stack = [0.0]
        self.call_cost_s = (0.0, 0.0)  # (own, caller's) per wrapped call
        self._ids = itertools.count(1)
        self._open = [None]
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, group, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        self.group[name] = group
        stack = self._stack
        clock = time.perf_counter
        own, residue = self.call_cost_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stat[0] += 1
                stat[1] += end - start - stack.pop() - own
                stack[-1] += end - start + residue
                raise
            end = clock()
            stat[0] += 1
            stat[1] += end - start - stack.pop() - own
            if after is not None:
                after(args, result)
            # The caller's children include this call's bookkeeping, ``after``
            # and the calibrated cost of entering the wrapper, so that tracer
            # work is in no one's self time.
            stack[-1] += clock() - start + residue
            return result

        return wrapper

    def _after_mul(self, args, result):
        if result is NotImplemented:
            return
        self.term_products += _size(args[0]) * _size(args[1])
        self.out_terms_max = max(self.out_terms_max, _size(result))

    def _after_preimage(self, args, report):
        self.preimage_status[report.status] += 1

    def _wrapper_for(self, layer, qualname, fn):
        group = f"{layer}.{GROUPS[layer].get(qualname, 'other')}"
        after = None
        if group == "ring.mul":
            after = self._after_mul
        elif group == "stab.preimage":
            after = self._after_preimage
        return self._timed(f"{layer}.{qualname}", group, fn, after)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of the colstab layer modules and ``cli.main``.

        Module-level functions are rebound in every colstab namespace that
        holds them, since ``from .x import y`` copies the binding.  Methods
        are wrapped once per class attribute, aliases such as ``__radd__``
        included.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.call_cost_s = calibrate()
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"colstab.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrapper_for(layer, name, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        cli = sys.modules["colstab.cli"]
        replacements[id(cli.main)] = self._timed("cli.main", "cli.main", cli.main)
        for name, module in list(sys.modules.items()):
            if name != "colstab" and not name.startswith("colstab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def _wrap_class(self, layer, cls) -> None:
        for attr, value in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{attr}"
            public = not attr.startswith("_") or attr in DUNDERS
            if not (public or qualname in GROUPS[layer]):
                continue
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self._wrapper_for(layer, qualname, value.__func__))
            elif inspect.isfunction(value):
                wrapped = self._wrapper_for(layer, qualname, value)
            else:
                continue
            self._set(cls, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- spans ----------------------------------------------------------------

    def layer_self_times(self) -> dict:
        totals = {}
        for name, (_, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self_s
        return totals

    @contextmanager
    def span(self, name, **attrs):
        """A benchmark span with its parent, self time and per-layer self times."""
        span_id = next(self._ids)
        parent = self._open[-1]
        before = self.layer_self_times()
        self._open.append(span_id)
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            child = self._stack.pop()
            self._stack[-1] += end - start
            self._open.pop()
            after = self.layer_self_times()
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self_s": (end - start) - child,
                    "layer_self_s": {
                        k: round(after[k] - before.get(k, 0.0), 9) for k in after
                    },
                    **attrs,
                }
            )

    # -- report ---------------------------------------------------------------

    def groups(self) -> dict:
        """Calls and self time summed per operation group."""
        totals = {}
        for name, (calls, self_s) in self.stats.items():
            row = totals.setdefault(self.group[name], [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return totals

    def metrics(self) -> dict:
        """Per-layer values keyed by the metric names of BENCHMARK.json."""
        groups = self.groups()
        out = {}
        for layer in LAYERS:
            for group in REPORTED[layer]:
                calls, self_s = groups.get(f"{layer}.{group}", (0, 0.0))
                out[f"{layer}.{group}.calls"] = calls
                out[f"{layer}.{group}.self_s"] = self_s
        calls, self_s = groups.get("cli.main", (0, 0.0))
        out["cli.main.calls"] = calls
        out["cli.main.self_s"] = self_s
        out["ring.mul.term_products"] = self.term_products
        out["ring.mul.out_terms_max"] = self.out_terms_max
        out["stab.preimage.success"] = self.preimage_status["SUCCESS"]
        out["stab.preimage.obstructed"] = self.preimage_status["OBSTRUCTED"]
        return out
