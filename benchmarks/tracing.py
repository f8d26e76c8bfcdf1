"""Per-layer instruments for the traced run: timing spans and line counts.

`Spans` wraps gral's public functions in timing wrappers.  A wrapper is
bound in place of the original at every place the original is bound: the
defining module, every gral module that imported it under any name, and
class attributes for methods.  Imports made inside functions read the
defining module at call time, so they see the wrapper too.  Spans are kept
in memory (flat arrays) and written out once, at the end.

`LineCounter` counts the Python line events executed in each gral module
with `sys.settrace`.  The count is exact and depends only on the inputs.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

MODULES = ("groupoids", "interval", "assemblies", "pathcat", "depprod",
           "combalg", "generators", "suites", "textfmt", "cli", "errors")

# (module, qualified name) of every wrapped function; a dotted name is a
# method on a class of that module.
TARGETS = (
    ("groupoids", "product"), ("groupoids", "pullback"),
    ("groupoids", "iso_comma"), ("groupoids", "exponential"),
    ("groupoids", "functors_between"), ("groupoids", "nat_isos_between"),
    ("groupoids", "compose_functors"), ("groupoids", "validate_groupoid"),
    ("groupoids", "FinGroupoid.__init__"),
    ("interval", "check_cogroupoid"), ("interval", "RealizerCategory.pi"),
    ("interval", "GpdRealizer.transpose"), ("interval", "GpdRealizer.copair3"),
    ("assemblies", "weak_exponential"), ("assemblies", "product_assembly"),
    ("assemblies", "realize"),
    ("pathcat", "path_object"), ("pathcat", "pc8_pseudoinverse"),
    ("pathcat", "pseudopullback_assembly"), ("pathcat", "is_fibration"),
    ("depprod", "dependent_product"), ("depprod", "is_modest_fibration"),
    ("combalg", "normalize"), ("combalg", "enumerate_normal_forms"),
    ("textfmt", "parse_groupoid"), ("textfmt", "serialize_groupoid"),
    ("textfmt", "parse_bundle"), ("textfmt", "serialize_bundle"),
    ("textfmt", "groupoid_to_json"),
    ("cli", "main"),
)


def span_name(module: str, qualname: str) -> str:
    """Metric stem of a target: `groupoids.FinGroupoid`, `interval.pi`."""
    if qualname.endswith(".__init__"):
        return f"{module}.{qualname[:-len('.__init__')]}"
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Spans:
    """Timing wrappers around gral's layers, with self time per name."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.morphisms_built = 0
        # one entry per span: name index, parent span (-1 at top), times
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # [span id, child time]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int, count_morphisms: bool = False):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            s_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s_end[sid] = t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if count_morphisms:
                    self.morphisms_built += len(getattr(args[0], "morphisms", ()))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _rebind(self, old, new) -> None:
        """Replace every module-level binding of `old` in gral by `new`."""
        for mname, mod in list(sys.modules.items()):
            if mname != "gral" and not mname.startswith("gral."):
                continue
            for key, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self, gral_modules: dict) -> None:
        for module, qualname in TARGETS:
            mod = gral_modules[module]
            nid = self._name_id(span_name(module, qualname))
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                old = vars(cls)[meth]
                self._undo.append((cls, meth, old))
                setattr(cls, meth, self._wrap(old, nid,
                                              count_morphisms=meth == "__init__"))
            else:
                old = getattr(mod, qualname)
                self._rebind(old, self._wrap(old, nid))
        gen_cls = gral_modules["generators"].Gen
        nid = self._name_id("generators")
        for meth, fn in list(vars(gen_cls).items()):
            if callable(fn) and not meth.startswith("__"):
                self._undo.append((gen_cls, meth, fn))
                setattr(gen_cls, meth, self._wrap(fn, nid))

    def stale_bindings(self) -> list[str]:
        """Module-level names in gral that still hold an unwrapped target."""
        originals = {id(old) for _owner, _key, old in self._undo}
        stale = []
        for mname, mod in sys.modules.items():
            if mname != "gral" and not mname.startswith("gral."):
                continue
            for key, val in vars(mod).items():
                if id(val) in originals:
                    stale.append(f"{mname}.{key}")
        return stale

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            if name == "generators":
                out["generators.self_s"] = (self_s, "s")
                continue
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out["groupoids.FinGroupoid.morphisms"] = (self.morphisms_built, "count")
        return out

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated rows: id, parent, name, start, end."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid] - t0:.9f}\t"
                         f"{self.span_end[sid] - t0:.9f}\n")


class LineCounter:
    """Count line events per gral module while active."""

    def __init__(self, package_dir: Path):
        self._cells = {str(package_dir / f"{m}.py"): [m, 0] for m in MODULES}

    def __enter__(self):
        # one closure per module, so a line event costs one comparison and
        # one increment; a local tracer that returns None stays installed
        def counter(cell):
            def local(frame, event, arg):
                if event == "line":
                    cell[1] += 1
            return local

        tracers = {path: counter(cell) for path, cell in self._cells.items()}
        lookup = tracers.get

        def on_call(frame, event, arg):
            return lookup(frame.f_code.co_filename)

        sys.settrace(on_call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {f"{m}.lines": (n, "count") for m, n in self._cells.values()}
