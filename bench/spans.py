"""Span tracing of the weakhopf modules, from outside the package.

Inside ``with Tracer():`` every public function of the traced modules is
replaced by a wrapper that records a span (name, start, end, parent) per
call, in every ``weakhopf`` namespace that binds the function, so calls
through names imported with ``from .x import f`` are seen too; leaving the
block puts the original functions back.  Spans stay in memory and are
written out by ``dump`` when the run ends.

For the kernel functions the wrapper also records exact work counts: the
entries and nonzeros of each ``mul``/``kron`` product, the entries of each
``lift``, and the entries and largest numerator or denominator bit length of
each ``rref``.  Counting happens after the span is closed and is itself
recorded as a ``trace.count`` span; ``summary`` takes its time out of the
self and total time of every enclosing span, so no traced function is
charged for it.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "weakhopf"
MODULES = ("exactmat", "tensorexpr", "bimonad", "entwining", "baseobject",
           "galois", "hopf", "hopfmodules", "instances", "cli")
# called once per matrix entry: a span there would time the tracer, not the
# program
UNTRACED = {"exactmat.is_zero"}


def _nnz(mat):
    cols = mat.cols
    return sum(cols - row.count(0) for row in mat.data)


def _count_product(mat, args):
    return mat.rows * mat.cols, _nnz(mat), 0


def _count_lift(f, args):
    return f.mat.rows * f.mat.cols, 0, 0


def _count_rref(result, args):
    m, (reduced, _) = args[0], result
    bits = 0
    for row in reduced.data:
        for v in row:
            if v:
                bits = max(bits, v.numerator.bit_length(),
                           v.denominator.bit_length())
    return m.rows * m.cols, 0, bits


# (entries, nonzeros, largest bit length) of one call, from result and args
COUNTERS = {
    "exactmat.mul": _count_product,
    "exactmat.kron": _count_product,
    "exactmat.rref": _count_rref,
    "tensorexpr.lift": _count_lift,
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = bytearray()   # 1 when no enclosing span has the same name
        self.entries = {}
        self.nnz = {}
        self.max_bits = {}
        self._stack = [-1]
        self._depth = []
        self._saved = []
        self._count_id = self._name_id("trace.count")

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.entries[name] = self.nnz[name] = self.max_bits[name] = 0
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, nid, start, end):
        self._stack.pop()
        self._depth[nid] -= 1
        self.start[idx] = start
        self.end[idx] = end

    def _count(self, name, counter, result, args):
        idx = self._open(self._count_id)
        start = perf_counter()
        entries, nnz, bits = counter(result, args)
        self.entries[name] += entries
        self.nnz[name] += nnz
        self.max_bits[name] = max(self.max_bits[name], bits)
        self._close(idx, self._count_id, start, perf_counter())

    def wrap(self, name, fn):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid, start, perf_counter())
            if counter is not None:
                tracer._count(name, counter, return_value, args)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        """Wrap the public functions of MODULES in every package namespace."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__
                        and f"{short}.{attr}" not in UNTRACED):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        namespaces = [m for key, m in sys.modules.items()
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)][1])
        return self

    def __exit__(self, *exc):
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()
        return False

    # -- aggregation ---------------------------------------------------------

    def summary(self):
        """{name: {calls, self_s, total_s, entries, nnz, max_bits}}.

        Self time is a span's duration minus the time its direct children
        cover; total time sums only the outermost span of each name, so a
        function that reaches itself again is not counted twice.  The time of
        the ``trace.count`` spans below a span is left out of its total time,
        as it is left out of its self time by being a child.
        """
        count = len(self.name)
        child = [0.0] * count
        counting = [0.0] * count   # trace.count time inside each span
        for idx in reversed(range(count)):   # a child comes after its parent
            dur = self.end[idx] - self.start[idx]
            if self.name[idx] == self._count_id:
                counting[idx] = dur
            p = self.parent[idx]
            if p >= 0:
                child[p] += dur
                counting[p] += counting[idx]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                      "entries": self.entries[name], "nnz": self.nnz[name],
                      "max_bits": self.max_bits[name]}
               for name in self.names}
        for idx in range(count):
            rec = out[self.names[self.name[idx]]]
            dur = self.end[idx] - self.start[idx]
            rec["calls"] += 1
            rec["self_s"] += dur - child[idx]
            if self.outer[idx]:
                rec["total_s"] += dur - counting[idx]
        return out

    def dump(self, path):
        """Write the spans as JSON: names, then [name, start, end, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": ' + json.dumps(self.names) + ', "spans": [\n')
            last = len(self.name) - 1
            for idx in range(len(self.name)):
                fh.write(f"[{self.name[idx]}, {self.start[idx]:.9f}, "
                         f"{self.end[idx]:.9f}, {self.parent[idx]}]"
                         + (",\n" if idx < last else "\n"))
            fh.write("]}\n")
