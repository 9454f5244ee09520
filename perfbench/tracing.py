"""Span tracing of hwcsum from outside the package.

``Tracer.install`` wraps the public functions and methods of every
package module (the layers), in every module namespace that binds them,
so a ``from .x import f`` in the caller is traced too. Each call becomes
a span (name, start, end, parent, run id) kept in memory. MT19937
methods are too hot for one span per draw: only the outermost MT19937
call is timed, draws are counted at ``next_u32``, and each span records
the rng seconds that passed while it was open, so the rng time directly
under a span is subtracted from its self time like a child's.
``uninstall`` puts every original object back.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("rng", "corpus", "dedup", "tokenizer", "numerics", "model", "rouge", "harness", "cli")

# Tape primitives and Tensor methods run thousands of times per training
# pair; wrapping them would cost more than the work they do. Only the
# methods listed here are traced on these classes.
_ONLY_METHODS = {"numerics.Tape": {"backward"}, "numerics.Tensor": set()}
# private module functions traced because they mark a layer boundary
_PRIVATE = {"harness._run_seed"}


def _hook_stage(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# extra per-call values recorded in the span, keyed by span name
HOOKS = {
    "cli.main": _hook_stage,
    "tokenizer.word_segment": lambda a, k, r: len(a[0]) if a else len(k["text"]),
    "numerics.Tape.backward": lambda a, k, r: len(getattr(a[0], "nodes", ())),
    "corpus.parse_lcsts": lambda a, k, r: len(r[1]),
    "dedup.clean_part1": lambda a, k, r: len(r.removed),
    "rouge.evaluate_corpus": lambda a, k, r: len(a[0]) if a else len(k["candidates"]),
}

# span fields
# RNG: seconds spent in MT19937 methods while the span was open
NAME, START, END, PARENT, RUN, RNG, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        # rng wrappers: [nesting depth, draws, outermost calls, seconds]
        self.rng = [0, 0, 0, 0.0]
        self._patches: list[tuple[object, str, object]] = []

    # ---- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, rng, hook = self.spans, self.stack, self.rng, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, rng[3], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[RNG] = rng[3] - rec[RNG]
                stack.pop()
            if hook is not None:
                rec[EXTRA] = hook(args, kwargs, result)
            return result

        return wrapper

    def _rng(self, fn, counts_draw):
        state = self.rng
        clock = time.perf_counter

        if counts_draw:
            outer = self._rng(fn, counts_draw=False)

            @functools.wraps(fn)
            def draw(generator):
                state[1] += 1
                return fn(generator) if state[0] else outer(generator)

            return draw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if state[0]:
                return fn(*args, **kwargs)
            state[0] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                state[3] += clock() - t0
                state[0] = 0
                state[2] += 1

        return wrapper

    # ---- install / uninstall ---------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "hwcsum"):
        """Wrap every public function and method of the package's layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package or name.startswith(package + "."))}
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and (not attr.startswith("_") or name in _PRIVATE):
                    replaced[id(obj)] = (obj, self._span(name, obj))
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_class(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, layer, cls):
        only = _ONLY_METHODS.get(f"{layer}.{cls.__name__}")
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or (only is not None and attr not in only):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if layer == "rng":
                if inspect.isfunction(raw):
                    self._set(cls, attr, self._rng(raw, counts_draw=attr == "next_u32"))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._span(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span(name, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- output -----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "run": s[RUN]}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the part of it covered by child spans.

    Child intervals are merged before measuring, so overlapping children
    are not subtracted twice. The rng time directly under the span (its
    RNG minus its children's) is subtracted as well.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append(s)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        kids = children.get(i, ())
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted((c[START], c[END]) for c in kids):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        direct_rng = s[RNG] - sum(c[RNG] for c in kids)
        out.append(max(0.0, (hi - lo) - covered - direct_rng))
    return out


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending list (q in 0..100)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least 10 of n samples beyond it; 50 if none."""
    for q in TAIL_LADDER:
        if round(n * (100.0 - q), 6) >= 1000:  # n * (1 - q/100) >= 10 samples beyond q
            return q
    return 50.0


def timing_stats(values, scale: float = 1.0) -> tuple[float, float, int]:
    """(p50, tail percentile, sample count) of per-call timings."""
    v = sorted(x * scale for x in values)
    return percentile(v, 50.0), percentile(v, tail_level(len(v))), len(v)
