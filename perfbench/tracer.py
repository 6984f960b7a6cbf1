"""Span tracing of toomlab's layers from outside, by wrapping its functions.

:func:`install` replaces the public functions of the layer modules (and a few
named methods) with wrappers that record a span per call: name, start, end,
parent span, job id and thread.  :meth:`Tracer.uninstall` puts every original
back, so a pass run after it is untraced.  Spans stay in memory until the
pass writes them out.

Every span carries a self-time *bucket*, the per-layer metric its self time
counts towards.  Named functions have a fixed bucket (``engine.rng_s`` for
``step_uniforms``, ...).  Any other function takes its caller's bucket when
the caller is in the same layer (so ``rules.load_s`` covers everything
``load_rule`` calls inside ``rules``), and ``<layer>.misc_s`` (or the layer's
own self bucket) otherwise.

Hot calls are aggregated: past ``EXPLICIT_LIMIT`` explicit spans of one name
under one parent span, further calls in the parent's thread only add to a
(count, total) node hung on that parent, and calls nested inside an
aggregated call aggregate under it.  An *opaque* span (``ExactKernel.apply``)
hides the wrapped calls inside it, except those marked ``pierce``.

Counts are derived from call arguments and array sizes, never from timing:
site updates, uniform draws, stepper table bytes, LP tableau cells, artifact
bytes.  Calls from worker threads are parented to the main thread's current
span and always kept as explicit spans, so overlap can be resolved later.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

LAYERS = ("engine", "stats", "oracle", "certify", "rules", "bounds", "cli")

EXPLICIT_LIMIT = 256

# layer -> bucket for functions without a named one
_DEFAULT_BUCKET = {
    "engine": "engine.misc_s",
    "stats": "stats.self_s",
    "oracle": "oracle.self_s",
    "certify": "certify.misc_s",
    "rules": "rules.misc_s",
    "bounds": "bounds.misc_s",
    "cli": "cli.self_s",
}


def _prod(values) -> int:
    return math.prod(int(v) for v in values)


# Count functions: (bound arguments, result) -> {counter: value}.

def _count_draws(bound: dict, result: Any) -> dict:
    return {"engine.rng_draws": int(bound["count"])}


def _count_build(bound: dict, result: Any) -> dict:
    nbr = getattr(bound["self"], "nbr", None)
    return {
        "engine.stepper_builds": 1,
        "engine.table_bytes": int(nbr.nbytes) if nbr is not None else 0,
    }


def _count_lp(bound: dict, result: Any) -> dict:
    A = bound["A"]
    m = len(A)
    n = len(A[0]) if m else 0
    # phase-one tableau: n columns, m artificials, one right-hand side
    return {"certify.lp_solves": 1, "certify.lp_cells": m * (n + m + 1)}


def _count_written(bound: dict, result: Any) -> dict:
    return {"cli.bytes_written": os.path.getsize(bound["path"])}


# Site updates performed, from call arguments: counted at the outermost
# stepping call only, so a stepping function built on another is not
# counted twice.

def _updates_evolve(bound: dict, result: Any) -> int:
    return int(bound["steps"]) * _prod(bound["state"].dims)


def _updates_batch(bound: dict, result: Any) -> int:
    return int(bound["steps"]) * int(bound["bits"].size)


def _updates_erosion(bound: dict, result: Any) -> int:
    return int(result.steps) * _prod(bound["dims"])


def _updates_divergence(bound: dict, result: Any) -> int:
    if not len(result.mag_plus):
        return 0  # inapplicable: nothing was stepped
    return 2 * int(bound["steps"]) * _prod(bound["dims"])


def _dense_not_built(args: tuple, kwargs: dict) -> bool:
    return getattr(args[0], "_dense", None) is None


@dataclass(frozen=True)
class Target:
    """One function to wrap, as (module, dotted attribute) with its tracing rules."""

    module: str
    attr: str
    bucket: Optional[str] = None
    opaque: bool = False
    pierce: bool = False
    when: Optional[Callable[[tuple, dict], bool]] = None
    count: Optional[Callable[[dict, Any], dict]] = None
    site_updates: Optional[Callable[[dict, Any], int]] = None
    callback_arg: Optional[str] = None

    @property
    def layer(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


_NAMED = {
    ("engine", "step_uniforms"): dict(bucket="engine.rng_s", count=_count_draws),
    ("engine", "TorusStepper.local_index"): dict(bucket="engine.gather_s"),
    ("engine", "TorusStepper.__init__"): dict(bucket="engine.build_s", count=_count_build),
    ("engine", "evolve"): dict(
        bucket="engine.step_self_s", site_updates=_updates_evolve, callback_arg="on_step"),
    ("engine", "evolve_batch"): dict(bucket="engine.step_self_s", site_updates=_updates_batch),
    ("engine", "erosion_time"): dict(bucket="engine.step_self_s", site_updates=_updates_erosion),
    ("stats", "two_phase_divergence"): dict(site_updates=_updates_divergence),
    ("oracle", "ExactKernel.apply"): dict(bucket="oracle.apply_s", opaque=True),
    ("oracle", "ExactKernel.dense_matrix"): dict(
        bucket="oracle.dense_build_s", opaque=True, pierce=True, when=_dense_not_built),
    ("certify", "solve_feasibility"): dict(bucket="certify.lp_s", count=_count_lp),
    ("certify", "check_eroder"): dict(bucket="certify.check_self_s"),
    ("certify", "verify_certificate"): dict(bucket="certify.verify_s"),
    ("rules", "load_rule"): dict(bucket="rules.load_s"),
    ("rules", "minimal_plus_sets"): dict(bucket="rules.plus_sets_s"),
    ("bounds", "bounds_report"): dict(bucket="bounds.report_s"),
    ("cli", "write_json"): dict(bucket="cli.write_s", count=_count_written),
    ("cli", "write_csv"): dict(bucket="cli.write_s", count=_count_written),
    ("cli", "write_ppm"): dict(bucket="cli.write_s", count=_count_written),
}


def default_targets() -> list[Target]:
    """Every public function of each layer module, plus the named methods.

    A named function that a later version of toomlab no longer has is
    skipped, so its metrics read 0 rather than the benchmark failing.
    """
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"toomlab.{layer}")
        names = sorted(
            name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__
        )
        names += sorted(
            attr for (lay, attr) in _NAMED
            if lay == layer and attr not in names and _resolve(module, attr) is not None
        )
        targets.extend(
            Target(module.__name__, name, **_NAMED.get((layer, name), {})) for name in names
        )
    return targets


def _resolve(module: Any, attr: str) -> Optional[Any]:
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner.__dict__.get(last) if inspect.isclass(owner) else getattr(owner, last, None)


def _current(owner: Any, last: str) -> Any:
    return owner.__dict__[last] if inspect.isclass(owner) else getattr(owner, last)


def _owner(module: Any, attr: str) -> Any:
    owner = module
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner


class _Frame:
    """A live call on a thread's stack: an explicit span or an aggregate node."""

    __slots__ = ("name", "layer", "bucket", "opaque", "steps", "span_id", "agg_key", "thread",
                 "node")

    def __init__(self, name, layer, bucket, opaque, steps, span_id, agg_key, thread):
        self.name = name
        self.layer = layer
        self.bucket = bucket
        self.opaque = opaque
        self.steps = steps
        self.span_id = span_id
        self.agg_key = agg_key  # (host span id, path of names) when aggregated
        self.thread = thread
        self.node = None  # the aggregate's [bucket, count, total_s] record


class Tracer:
    """Records spans, aggregate nodes and counters for one traced pass."""

    def __init__(self) -> None:
        self.job: Optional[str] = None
        self.spans: list[tuple] = []  # (id, name, bucket, parent, job, thread, t0, t1)
        self.aggs: dict[tuple, list] = {}  # (host, path) -> [bucket, count, total_s]
        self.counters: dict[str, Counter] = defaultdict(Counter)  # job -> counts
        self._span_jobs: dict[int, Optional[str]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[_Frame] = []
        self._explicit: Counter = Counter()  # (parent span, name) -> explicit spans
        self._agg_frames: dict[tuple, _Frame] = {}  # (parent, name) -> reused frame
        self._count_lock = threading.Lock()  # worker threads count too
        self._saved: list[tuple[Any, str, Any]] = []
        self._active = False

    # -- installation ------------------------------------------------------

    def install(self, targets: Optional[list[Target]] = None) -> "Tracer":
        if self._active:
            raise RuntimeError("tracer already installed")
        self._main = threading.get_ident()
        self._local.stack = self._main_stack
        self._saved = []
        for target in targets if targets is not None else default_targets():
            module = importlib.import_module(target.module)
            owner = _owner(module, target.attr)
            last = target.attr.rsplit(".", 1)[-1]
            original = _current(owner, last)
            self._saved.append((owner, last, original))
            setattr(owner, last, self._wrap(target, original))
        self._active = True
        return self

    def uninstall(self) -> None:
        for owner, last, original in reversed(self._saved):
            setattr(owner, last, original)
        self._active = False

    def restored(self) -> bool:
        """Whether every wrapped attribute holds its original object again."""
        return all(_current(owner, last) is original for owner, last, original in self._saved)

    # -- recording ---------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        sig = inspect.signature(fn) if (
            target.count or target.site_updates or target.callback_arg) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(target, sig, fn, args, kwargs)

        return wrapper

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, target: Target, sig, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            top = stack[-1]
        else:
            # a worker thread: parent it to the main thread's current span
            top = self._main_stack[-1] if self._main_stack and thread != self._main else None
        if top is not None and top.opaque and not target.pierce:
            return fn(*args, **kwargs)
        if target.when is not None and not target.when(args, kwargs):
            return fn(*args, **kwargs)
        bound = None
        if sig is not None:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            bound = ba.arguments
            if target.callback_arg and bound.get(target.callback_arg) is not None:
                bound[target.callback_arg] = self._wrap_callback(bound[target.callback_arg])
                args, kwargs = ba.args, ba.kwargs
        bucket = target.bucket
        if bucket is None:
            same = top is not None and top.layer == target.layer
            bucket = top.bucket if same else _DEFAULT_BUCKET[target.layer]
        frame = self._enter(target.name, target.layer, bucket, target.opaque,
                            target.site_updates is not None, top, thread)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._exit(frame, top, t0, t1)
        if target.count is not None or target.site_updates is not None:
            self._count(target, bound, result, frame, top, stack)
        return result

    def _count(self, target, bound, result, frame, top, stack) -> None:
        counts = {} if target.count is None else target.count(bound, result)
        outermost = not any(f.steps for f in stack) and not (top is not None and top.steps)
        if target.site_updates is not None and outermost:
            counts["engine.site_updates"] = target.site_updates(bound, result)
        job = self.job if frame.span_id is None else self._span_jobs[frame.span_id]
        with self._count_lock:
            self.counters[job].update(counts)

    def _wrap_callback(self, callback: Callable) -> Callable:
        module = getattr(callback, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("toomlab.") else "cli"
        layer = layer if layer in _DEFAULT_BUCKET else "cli"
        bucket = "stats.callback_s" if layer == "stats" else _DEFAULT_BUCKET[layer]
        name = getattr(callback, "__qualname__", "callback")
        target = Target(f"toomlab.{layer}", f"callback.{name}", bucket=bucket)

        @functools.wraps(callback)
        def traced(*args, **kwargs):
            return self._call(target, None, callback, args, kwargs)

        return traced

    def _enter(self, name, layer, bucket, opaque, steps, top, thread) -> _Frame:
        if top is not None and (top.agg_key is not None or top.thread == thread):
            key = (top.agg_key or top.span_id, name)
            frame = self._agg_frames.get(key)
            if frame is not None:
                return frame
            if top.agg_key is not None:
                host, path = top.agg_key
                return self._aggregate(key, (host, path + (name,)),
                                       name, layer, bucket, opaque, steps, thread)
            if self._explicit[key] >= EXPLICIT_LIMIT:
                return self._aggregate(key, (top.span_id, (name,)),
                                       name, layer, bucket, opaque, steps, thread)
            self._explicit[key] += 1
        span_id = next(self._ids)
        self._span_jobs[span_id] = self.job
        return _Frame(name, layer, bucket, opaque, steps, span_id, None, thread)

    def _aggregate(self, key, agg_key, name, layer, bucket, opaque, steps, thread) -> _Frame:
        """The frame every further call under `key` reuses; it only adds to a node."""
        frame = _Frame(name, layer, bucket, opaque, steps, None, agg_key, thread)
        frame.node = self.aggs.setdefault(agg_key, [bucket, 0, 0.0])
        self._agg_frames[key] = frame
        return frame

    def _exit(self, frame: _Frame, top: Optional[_Frame], t0: float, t1: float) -> None:
        if frame.node is not None:
            frame.node[1] += 1
            frame.node[2] += t1 - t0
            return
        parent = top.span_id if top is not None else None
        self.spans.append((
            frame.span_id, frame.name, frame.bucket, parent,
            self._span_jobs[frame.span_id], 0 if frame.thread == self._main else 1, t0, t1,
        ))

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        """JSON-ready record of everything traced."""
        return {
            "spans": [list(s) for s in self.spans],
            "aggs": [
                [host, list(path), bucket, count, total]
                for (host, path), (bucket, count, total) in self.aggs.items()
            ],
            "counters": {job or "": dict(c) for job, c in self.counters.items()},
        }


def install(targets: Optional[list[Target]] = None) -> Tracer:
    """Wrap the layer functions and return the tracer that records them."""
    return Tracer().install(targets)
