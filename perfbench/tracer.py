"""Span tracing for the benchmark's traced runs.

The tracer wraps public callables of `pne` from the outside, at the names
their callers resolve (`pne.network.knn`, not only `pne.geometry.knn`,
because `network` imports it by name). Wrappers are installed only for the
traced part of a run and removed afterwards, so untraced measurements run
the unmodified program.

A span is recorded as [name, tag, start, end, parent index, op id]. Spans
of one optimizer step or one inference request share the op id. Spans are
kept in memory; `write_jsonl` writes them out when the run ends.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name) of free functions; each is wrapped in every
# loaded pne module that holds the original function under that name
FUNCTIONS = (
    ("pne.geometry", "knn", "geometry.knn"),
    ("pne.geometry", "ball_query", "geometry.ball_query"),
    ("pne.geometry", "cell_average_subsample", "geometry.subsample"),
    ("pne.pointconv", "make_site", "pointconv.make_site"),
    ("pne.training", "cross_entropy", "training.cross_entropy"),
    ("pne.training", "clip_grad_norm", "training.clip"),
    ("pne.training", "adamw_step", "training.adamw"),
)

# (module, class, method, span name, tag the span with the site name)
METHODS = (
    ("pne.network", "ConvModule", "forward", "pointconv.fwd", True),
    ("pne.network", "ConvModule", "backward", "pointconv.bwd", True),
    ("pne.network", "Linear", "forward", "network.linear", False),
    ("pne.network", "Linear", "backward", "network.linear", False),
    ("pne.network", "LayerNorm", "forward", "network.layernorm", False),
    ("pne.network", "LayerNorm", "backward", "network.layernorm", False),
    ("pne.embeddings", "Embedding", "gradient_params", "embeddings.grad_params", False),
    ("pne.embeddings", "MlpEmbedding", "gradient_params", "embeddings.grad_params", False),
    ("pne.embeddings", "KernelPointEmbedding", "embed", "embeddings.embed", False),
    ("pne.embeddings", "MlpEmbedding", "embed", "embeddings.embed", False),
    ("pne.embeddings", "IdentityEmbedding", "embed", "embeddings.embed", False),
)

NAME, TAG, START, END, PARENT, OP = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def span(self, name, tag=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, tag)

    def _open(self, name, tag):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, tag, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, tag_self):
        tracer = self

        if tag_self:
            def wrapper(obj, *args, **kwargs):
                rec = tracer._open(name, getattr(obj, "site_name", None))
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    tracer._close(rec)
        else:
            def wrapper(*args, **kwargs):
                rec = tracer._open(name, None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(rec)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(original, name, False)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "pne" and getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for modname, clsname, attr, name, tag_self in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            if attr not in cls.__dict__:
                continue
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, tag_self))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def self_times(self):
        """Self time of every span: duration minus the time its children
        cover. Children of one span never overlap (one thread)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def totals(self, ops=None):
        """{(name, tag): [count, self seconds]} over spans whose op id is in
        `ops` (all spans when None)."""
        out = defaultdict(lambda: [0, 0.0])
        for rec, own in zip(self.spans, self.self_times()):
            if ops is not None and rec[OP] not in ops:
                continue
            acc = out[(rec[NAME], rec[TAG])]
            acc[0] += 1
            acc[1] += own
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "tag": rec[TAG], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "op": rec[OP],
                }) + "\n")


class _Span:
    def __init__(self, tracer, name, tag):
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self):
        self.rec = self.tracer._open(self.name, self.tag)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call."""

    op = None

    def span(self, name, tag=None):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
