"""In-memory span recorder and per-layer aggregation for traced benchmark runs.

The recorder replaces module attributes that framebench looks up at call time
(its own public functions, the numpy/scipy kernels it calls, the input
callable the benchmark passes in) with wrappers that record one span per call:
name, layer, start, end, parent span and call id.  Spans stay in memory until
the run ends.  Nothing inside the package is edited; the wrappers are removed
again by ``Tracer.restore``.
"""

import inspect
import time

#: numpy/scipy entry points whose calls count as dense kernels, by short name.
KERNELS = ("eigh", "eigh_gen", "svd", "inv", "solve")

#: Package modules whose public functions are traced; each is one layer.
MODULES = ("linalg", "frames", "localization", "rdual", "equivalence",
           "sampling", "cli")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "call", "work")

    def __init__(self, name, layer, start, end, parent, call, work=0):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.call = call
        self.work = work

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return [getattr(self, slot) for slot in self.__slots__]

    @classmethod
    def from_json(cls, fields):
        return cls(*fields)


def _factor_work(args, kwargs):
    # rows * cols * min(rows, cols) of the matrix being factorized.
    shape = getattr(args[0], "shape", ())
    if len(shape) != 2:
        return 0
    rows, cols = shape
    return rows * cols * min(rows, cols)


def _points(args, kwargs):
    return int(getattr(args[1], "size", 1))


class Tracer:
    """Records spans around patched callables; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.call = None
        self._stack = []
        self._patches = []

    def wrap(self, fn, name, layer, work=None, rename=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``work(args, kwargs)`` gives the span's work count; ``rename`` may
        pick a different span name from the arguments.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(rename(args, kwargs) if rename else name, layer,
                        time.perf_counter(), None,
                        stack[-1] if stack else None, self.call,
                        work(args, kwargs) if work else 0)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, layer, **kw):
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, layer, **kw))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch every layer boundary the benchmark traces."""
        import numpy as np
        import scipy.integrate
        import scipy.linalg

        import framebench
        from framebench import sampling

        for mod_name in MODULES:
            module = getattr(framebench, mod_name, None)
            if module is None:  # framebench.cli is only loaded by CLI runs
                continue
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    self.patch(module, attr, f"{mod_name}.{attr}", mod_name,
                               work=_points if attr == "generator_eval" else None)
        self.patch(sampling.SamplingSet, "deltas", "sampling.SamplingSet.deltas",
                   "sampling")
        self.patch(np.linalg, "eigh", "eigh", "kernel", work=_factor_work)
        self.patch(scipy.linalg, "svdvals", "svd", "kernel", work=_factor_work)
        self.patch(scipy.linalg, "inv", "inv", "kernel", work=_factor_work)
        self.patch(scipy.linalg, "solve", "solve", "kernel", work=_factor_work)
        self.patch(scipy.linalg, "eigh", "eigh", "kernel", work=_factor_work,
                   rename=lambda a, k: "eigh_gen" if len(a) > 1 and a[1] is not None
                   or k.get("b") is not None else "eigh")
        self.patch(scipy.integrate, "quad", "quad", "quad")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per span: its duration minus the part its children cover.

    ``span.parent`` indexes into ``spans``.  Child intervals are clipped to the
    parent's interval before their union is taken.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    picked = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            picked.append(span)
    return picked


def layer_metrics(spans, calls):
    """Per-layer counts and times per top-level call, as {name: (value, unit)}.

    ``spans`` holds the spans of ``calls`` whole top-level calls.  Times are
    seconds per call; counts are per call and repeat exactly between runs
    that make the same calls.
    """
    selfs = self_times(spans)
    out = {}

    def put(name, total, unit):
        out[name] = (total / calls, unit)

    def count(names):
        return len(_outermost(spans, names))

    def inclusive(names):
        return sum(s.duration for s in _outermost(spans, names))

    def self_of(layer):
        return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    kernels = [s for s in spans if s.layer == "kernel"]
    put("linalg.kernel_s", sum(s.duration for s in kernels), "s")
    for kernel in KERNELS:
        put(f"linalg.{kernel}.count", sum(s.name == kernel for s in kernels), "count")
    put("linalg.factor_work", sum(s.work for s in kernels), "count")
    put("linalg.self_s", self_of("linalg"), "s")
    put("linalg.pnorm.count", count({"linalg.pnorm_operator"}), "count")
    put("linalg.pnorm_s", inclusive({"linalg.pnorm_operator"}), "s")

    gram = {"frames.cross_gram", "frames.gram", "frames.frame_operator"}
    dual = {"frames.canonical_dual", "frames.power_transform"}
    put("frames.self_s", self_of("frames"), "s")
    put("frames.gram.count", count(gram), "count")
    put("frames.gram_s", inclusive(gram), "s")
    put("frames.dual.count", count(dual), "count")
    put("frames.dual_s", inclusive(dual), "s")
    put("frames.bounds.count", count({"frames.frame_bounds", "frames.riesz_bounds"}),
        "count")

    put("rdual.self_s", self_of("rdual"), "s")
    put("rdual.rdual.count", sum(s.name == "rdual.rdual" for s in spans), "count")
    put("localization.self_s", self_of("localization"), "s")
    put("localization.norm.count",
        count({"localization.jaffard_norm", "localization.schur_norm"}), "count")

    put("equivalence.self_s", self_of("equivalence"), "s")
    put("equivalence.family_gen.count", count({"equivalence.family_gen"}), "count")
    put("equivalence.family_gen_s", inclusive({"equivalence.family_gen"}), "s")

    put("sampling.self_s", self_of("sampling"), "s")
    put("sampling.matrix_s", inclusive({"sampling.sampling_matrix"}), "s")
    put("sampling.points_evaluated",
        sum(s.work for s in spans if s.name == "sampling.generator_eval"), "count")
    put("sampling.deltas_s", inclusive({"sampling.SamplingSet.deltas"}), "s")
    put("sampling.shift_gram.count", count({"sampling.shift_gram"}), "count")
    put("sampling.shift_gram_s", inclusive({"sampling.shift_gram"}), "s")
    put("sampling.quad.count", sum(s.name == "quad" for s in spans), "count")
    return out
