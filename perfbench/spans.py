"""Outside-in span tracer for the mcland layers.

The tracer replaces public functions of the `instance`, `objective`,
`solvers` and `certify` modules, and the public methods of
`ObjectiveConfig`, with wrappers that record one span per call: name,
parent span, start and duration.  The library itself is not modified;
calls between modules go through module attributes (`obj.objective`,
`solvers.solve`, ...) and therefore hit the wrappers.  A name that a later
version of the library no longer defines is recorded as absent instead of
failing.

Spans are kept in flat arrays while the traced work runs and are
aggregated (and optionally written out) afterwards.  Spans are only
recorded inside an open root span, so work outside the timed region costs
one extra function call and nothing else.
"""

import functools
import gzip
import inspect
import sys
import time
from array import array

TRACED_MODULES = ("instance", "objective", "solvers", "certify")

# The functions and methods the per-layer metrics are computed from; each
# missing one is reported as absent.
EXPECTED = (
    "instance.regenerate",
    "objective.pair_gram",
    "objective.masked_matmul",
    "objective.objective",
    "objective.gradient",
    "objective.hessian_vecprod",
    "objective.min_hessian_eig",
    "objective.operator_norm_estimate",
    "solvers.solve",
    "solvers.gradient_descent",
    "solvers.stochastic_gradient",
    "certify.certify_point",
    "certify.recovery_error",
    "certify.landscape_scan",
)


def _solve_attrs(args, kwargs, out):
    scfg = args[1] if len(args) > 1 else kwargs["scfg"]
    return {
        "method": getattr(scfg.method, "value", scfg.method),
        "iterations": int(out.iterations),
        "entry_grads": int(out.entry_grads),
    }


def _eig_attrs(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


def _pair_gram_attrs(args, kwargs, out):
    # computed traffic of one call, not measured: two int64 index arrays,
    # two gathered d x r row blocks read from X, and one float64 per pair out
    cfg, X = args[0], args[1]
    n, r = int(cfg.n_pairs), int(X.shape[1])
    return {"bytes": n * (2 * 8 + 2 * 8 * r + 8)}


ATTRS = {
    "solvers.solve": _solve_attrs,
    "solvers.gradient_descent": _solve_attrs,
    "objective.min_hessian_eig": _eig_attrs,
    "objective.pair_gram": _pair_gram_attrs,
}


class Tracer:
    """Records spans for wrapped library calls made inside a root span."""

    def __init__(self):
        self.names = []          # span name table; spans store an index into it
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.child = array("d")  # time covered by direct children
        self.attrs = {}          # span index -> dict, for the few spans that carry data
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.wrapped = []
        self.absent = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        i = len(self.dur)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.dur.append(0.0)
        self.child.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        dt = time.perf_counter() - self.start[i]
        self._stack.pop()
        self.dur[i] = dt
        p = self.parent[i]
        if p >= 0:
            self.child[p] += dt

    def span(self, name):
        """Context manager for a span opened by the benchmark itself.

        Opened while no span is open, it is a root: only calls made inside a
        root are recorded.
        """
        return _Span(self, self._nid(name))

    def wrap(self, name, fn):
        nid = self._nid(name)
        on_result = ATTRS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                self.attrs[i] = on_result(args, kwargs, out)
            return out

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap the public functions of the traced modules and ObjectiveConfig."""
        for layer in TRACED_MODULES:
            mod = sys.modules.get(f"mcland.{layer}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue  # re-exported from another module
                self._patch(mod, attr, f"{layer}.{attr}", value)
        objective = sys.modules.get("mcland.objective")
        cls = getattr(objective, "ObjectiveConfig", None)
        if cls is not None:
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    self._patch(cls, attr, f"objective.{attr}", value)
        have = set(self.wrapped) | {"instance.regenerate"}  # timed by the benchmark itself
        self.absent = [name for name in EXPECTED if name not in have]

    def _patch(self, owner, attr, name, fn):
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn))
        self.wrapped.append(name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        self.wrapped.clear()

    # -- reading -----------------------------------------------------------

    def subtree(self, root):
        """Indices of the spans recorded under `root`, root included, in start order."""
        end = root + 1
        while end < len(self.dur) and self.parent[end] != -1:
            end += 1
        return range(root, end)

    def name(self, i):
        return self.names[self.name_id[i]]

    def self_time(self, i):
        return self.dur[i] - self.child[i]

    def write(self, path, spans):
        """Gzipped CSV of the given spans: index, name, parent, start, duration, self."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span,name,parent,start_s,dur_s,self_s\n")
            t0 = self.start[spans[0]]
            for i in spans:
                fh.write(
                    f"{i},{self.name(i)},{self.parent[i]},"
                    f"{self.start[i] - t0!r},{self.dur[i]!r},{self.self_time(i)!r}\n"
                )

    def clear(self):
        for buf in (self.name_id, self.parent, self.start, self.dur, self.child):
            del buf[:]
        self.attrs.clear()


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.index = self.tracer._open(self.nid)
        return self.index

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False
