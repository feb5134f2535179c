"""Span tracing of lasergrating from outside the package.

install() wraps the public functions and methods of each layer module and
rebinds every name under which a lasergrating module looks one up (for
example `talbot.exp_bessel_coeff`, imported by name from `specfun`, and the
values of `cli.COMMANDS`).  It also wraps what the package builds at run
time and calls later: the B(j, xi) coefficient sources returned by the
`*_source` factories and the pair evaluators of two-point kernels, plus
`solve_ivp` where `rabi` and `dynamics` call it.

Each span records its name, the span that caused it, start and end
(time.perf_counter) and a work count.  Spans stay in memory; dump() writes
them once, when the process ends.  `run_pool` workers return their spans
with their results, so worker processes are traced as well.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

_SPAN_FIELDS = ("name", "parent", "start", "end", "work", "proc", "extra", "stack")
# format_float runs once per table cell inside the writers' own spans; a span
# per cell would cost more than the formatting it measures
UNTRACED = {"output.format_float"}
LAYERS = ("specfun", "talbot", "nearfield", "dynamics", "rabi", "farfield",
          "output", "cli")
_RECORDER = None


class Recorder:
    """Spans of one process: parallel lists, one entry per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name = []       # name id
        self.parent = []     # index of the causing span, -1 for none
        self.start = []
        self.end = []
        self.work = []       # work count of the span (elements, pairs, bytes...)
        self.proc = []       # 0: this process, k > 0: k-th pool task
        self.extra = []      # (span index, key, value)
        self.stack = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def snapshot(self):
        return {"names": list(self.names), "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "work": self.work,
                "proc": self.proc, "extra": self.extra}

    def merge(self, snap, proc: int, parent: int):
        """Append spans recorded in another process under `parent`."""
        base = len(self.name)
        remap = [self.name_id(n) for n in snap["names"]]
        self.name += [remap[i] for i in snap["name"]]
        self.parent += [parent if p < 0 else p + base for p in snap["parent"]]
        self.start += snap["start"]
        self.end += snap["end"]
        self.work += snap["work"]
        self.proc += [proc] * len(snap["name"])
        self.extra += [(i + base, k, v) for i, k, v in snap["extra"]]


def _span(rec: Recorder, name: str, fn, measure=None, post=None):
    nid = rec.name_id(name)
    clock = time.perf_counter
    before_fn = getattr(measure, "before", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack
        idx = len(rec.name)
        rec.name.append(nid)
        rec.parent.append(stack[-1] if stack else -1)
        rec.start.append(0.0)
        rec.end.append(0.0)
        rec.work.append(0)
        rec.proc.append(0)
        before = before_fn(args) if before_fn is not None else None
        stack.append(idx)
        rec.start[idx] = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end[idx] = clock()
            stack.pop()
        if measure is not None:
            rec.work[idx] = measure(rec, idx, args, kwargs, out, before)
        return post(out) if post is not None else out

    wrapper.__traced__ = True
    return wrapper


# ---------------------------------------------------------------------------
# work counts measured at the span boundaries
# ---------------------------------------------------------------------------

def _elements(rec, idx, args, kwargs, out, before):
    return int(np.size(out))


def _pairs(rec, idx, args, kwargs, out, before):
    return int(np.size(args[0])) if args else 0


def _one(rec, idx, args, kwargs, out, before):
    return 1


def _file_bytes(rec, idx, args, kwargs, out, before):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _ode_work(rec, idx, args, kwargs, out, before):
    y = getattr(out, "y", None)
    t = getattr(out, "t", None)
    rec.extra.append((idx, "nfev", int(getattr(out, "nfev", 0))))
    rec.extra.append((idx, "steps", max(len(t) - 1, 0) if t is not None else 0))
    rec.extra.append((idx, "stored_bytes", int(y.nbytes) if y is not None else 0))
    return int(getattr(out, "nfev", 0))


def _density_matrix(rec, idx, args, kwargs, out, before):
    config = args[0] if args else kwargs.get("config")
    screen = np.size(getattr(config, "screen", ()))
    ratio = getattr(config, "collimator_ratio", 0.0)
    per_unit = getattr(config, "q_points_per_unit", 0)
    # screen x q phase matrix of the dense screen sum, 16 bytes per entry
    rec.extra.append((idx, "matrix_bytes", screen * (int(2 * ratio * per_unit) + 1) * 16))
    return 1


class _LineCache:
    """TwoPointKernel.line: a call that adds no cached line is a hit."""

    @staticmethod
    def before(args):
        return len(getattr(args[0], "_lines", ()))

    def __call__(self, rec, idx, args, kwargs, out, before):
        hit = len(getattr(args[0], "_lines", ())) == before
        rec.extra.append((idx, "line_hit", int(hit)))
        return 1


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _measure_for(qualname: str):
    layer, _, rest = qualname.partition(".")
    if layer == "specfun":
        return _elements
    if qualname == "rabi.solve_pairs":
        return _pairs
    if qualname == "farfield.farfield_density":
        return _density_matrix
    if qualname == "dynamics.TwoPointKernel.line":
        return _LineCache()
    if layer == "output" and rest.startswith("write_"):
        return _file_bytes
    return _one


def _wrap_source(rec, source):
    if not callable(source) or getattr(source, "__traced__", False):
        return source
    return _span(rec, "talbot.source", source)


def _wrap_kernel(rec, obj):
    kernel = obj if hasattr(obj, "evaluator") else getattr(obj, "kernel", None)
    evaluator = getattr(kernel, "evaluator", None)
    if callable(evaluator) and not getattr(evaluator, "__traced__", False):
        kernel.evaluator = _span(rec, "dynamics.evaluator", evaluator, _pairs)
    return obj


def _post_for(rec, layer: str, name: str):
    if name.endswith("_source"):
        return lambda out: _wrap_source(rec, out)
    if layer in ("dynamics", "rabi"):
        return lambda out: _wrap_kernel(rec, out)
    return None


def _public_callables(module):
    """(qualified name, owner, attribute, function) of every public function
    and public plain method defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if meth.startswith("_") or not inspect.isfunction(fn) \
                        or inspect.isgeneratorfunction(fn):
                    continue
                yield f"{layer}.{name}.{meth}", obj, meth, fn


def install() -> Recorder:
    """Wrap every layer of the imported lasergrating package; idempotent."""
    global _RECORDER
    if _RECORDER is not None:
        return _RECORDER
    import importlib
    rec = Recorder()
    modules = {layer: importlib.import_module(f"lasergrating.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for qualname, owner, attr, fn in _public_callables(module):
            if qualname in UNTRACED:
                continue
            post = _post_for(rec, layer, attr)
            if qualname == "cli.run_pool":
                wrapped = _span(rec, qualname, _traced_pool(rec, fn))
            else:
                wrapped = _span(rec, qualname, fn, _measure_for(qualname), post)
            setattr(owner, attr, wrapped)
            replaced[id(fn)] = wrapped
    import scipy.integrate
    ode = _span(rec, "ode.solve_ivp", scipy.integrate.solve_ivp, _ode_work)
    replaced[id(scipy.integrate.solve_ivp)] = ode
    # rebind names imported elsewhere: `from .specfun import sinc`, dict values
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("lasergrating") or module is None:
            continue
        for attr, val in list(vars(module).items()):
            if id(val) in replaced:
                setattr(module, attr, replaced[id(val)])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in replaced:
                        val[key] = replaced[id(item)]
    _RECORDER = rec
    return rec


# ---------------------------------------------------------------------------
# pool workers
# ---------------------------------------------------------------------------

class PoolTask:
    """Picklable wrapper of a `run_pool` worker that returns the worker's
    spans with its result."""

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, task):
        rec = install()
        saved = {k: getattr(rec, k) for k in _SPAN_FIELDS}
        rec.reset()
        try:
            out = _span(rec, "cli.worker", self.worker)(task)
            return out, rec.snapshot()
        finally:
            for k, v in saved.items():
                setattr(rec, k, v)


def _traced_pool(rec, run_pool):
    def pool(worker, tasks, jobs):
        parent = rec.stack[-1] if rec.stack else -1
        results = run_pool(PoolTask(worker), tasks, jobs)
        out = []
        for k, (value, snap) in enumerate(results, start=1):
            rec.merge(snap, k, parent)
            out.append(value)
        return out

    return pool


def dump(path) -> None:
    """Write the spans of this process to `path` (.npz)."""
    rec = _RECORDER
    if rec is None:
        return
    extra = rec.extra
    np.savez(path,
             names=np.array(rec.names, dtype=str),
             name=np.array(rec.name, dtype=np.int32),
             parent=np.array(rec.parent, dtype=np.int64),
             start=np.array(rec.start, dtype=float),
             end=np.array(rec.end, dtype=float),
             work=np.array(rec.work, dtype=np.int64),
             proc=np.array(rec.proc, dtype=np.int32),
             extra_span=np.array([e[0] for e in extra], dtype=np.int64),
             extra_key=np.array([e[1] for e in extra], dtype=str),
             extra_value=np.array([e[2] for e in extra], dtype=np.int64))
