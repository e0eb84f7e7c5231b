"""Span tracer that wraps the hog layers from outside the package.

Spans live in memory as parallel arrays (name id, start, end, parent span,
op id) and are written out when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their direct children.

Wrapping works by replacing module attributes: every public function defined
in a layer module is replaced, in every layer module that names it, by a
wrapper named after the defining module.  So ``hog.homotopy.scc_decompose``
becomes a span of layer ``scc`` even though homotopy imported it by name.
Dataclass constructors and ``validate`` methods are wrapped on the class.
Nothing under src/ is edited; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

WRAPPED_MODULES = ("io", "core", "scc", "homotopy", "reflexive", "euler", "homology", "pagerank")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self.active = False
        self._restore: list[tuple[object, str, object]] = []
        self.scc_cache_info = None

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, nid: int | None = None) -> None:
        self.end[idx] = perf_counter()
        if nid is not None:
            self.name_id[idx] = nid
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self.open(self.intern(OP_SPAN))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI process."""
        if not self.active:
            yield
            return
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping -------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _wrap_scc(self, fn, name: str):
        """Split scc_decompose spans into cache hits and misses."""
        info = getattr(fn, "cache_info", None)
        if info is None:
            return self._wrap_function(fn, name)
        self.scc_cache_info = info
        hit, miss = self.intern(name + ":hit"), self.intern(name + ":miss")
        tracer = self

        @functools.wraps(fn)
        def traced(g):
            if not tracer.active:
                return fn(g)
            before = info().hits
            idx = tracer.open(miss)
            try:
                return fn(g)
            finally:
                tracer.close(idx, hit if info().hits != before else miss)

        return traced

    def _wrapper_for(self, obj, name: str):
        if name == "scc.scc_decompose":
            return self._wrap_scc(obj, name)
        return self._wrap_function(obj, name)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"hog.{m}") for m in WRAPPED_MODULES}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                layer = home[4:] if home.startswith("hog.") else ""
                if attr.startswith("_") or layer not in modules:
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(obj, layer)
                    continue
                if not callable(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrapper_for(obj, f"{layer}.{obj.__name__}")
                self._set(mod, attr, wrappers[id(obj)])

    def _wrap_class(self, cls: type, layer: str) -> None:
        if "__init__" in vars(cls) and "__dataclass_fields__" in vars(cls):
            self._set(cls, "__init__", self._wrap_function(cls.__init__, f"{layer}.{cls.__name__}"))
        if "validate" in vars(cls):
            self._set(cls, "validate", self._wrap_function(cls.validate, f"{layer}.{cls.__name__}.validate"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis -------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def dump(self, path: str) -> None:
        """One JSON header line, then the five arrays as raw machine bytes."""
        columns = [("name_id", self.name_id), ("start", self.start), ("end", self.end),
                   ("parent", self.parent), ("op", self.op)]
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(handle)


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        cols = {}
        for col, typecode, _ in header["columns"]:
            arr = array(typecode)
            arr.fromfile(handle, header["spans"])
            cols[col] = arr
    return header["names"], cols
