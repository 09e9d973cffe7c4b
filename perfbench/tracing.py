"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps the public functions of each measured module and
rebinds every module-level name in the package that refers to one of them,
so that calls made between modules (``families`` calls ``certify`` through
its own imported name, for instance) pass through the wrapper.  A few methods
are wrapped on their class.  `Tracer.uninstall()` puts the originals back.

Spans are kept in memory as flat arrays (name, parent span, operation,
start, end) and written out by `Tracer.dump()` when the run ends.  Calls,
busy time and self time per name are accumulated as spans close: busy time
counts only the outermost span of a name, so recursion is not counted twice,
and self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "hypercycles"

# (module, attribute, span name).  Modules are package-relative.
FUNCTIONS = (
    ("rootclass", "count_roots", "rootclass.count_roots"),
    ("rootclass", "discriminant_sequence", "rootclass.discriminant_sequence"),
    ("rootclass", "isolate_real_roots", "rootclass.isolate_real_roots"),
    ("rootclass", "sturm_count", "rootclass.sturm_count"),
    ("rootclass", "sign_on_interval", "rootclass.sign_on_interval"),
    ("polyx", "poly_gcd", "polyx.poly_gcd"),
    ("polyx", "squarefree_part", "polyx.squarefree_part"),
    ("lienard", "certify", "lienard.certify"),
    ("lienard", "derive_system", "lienard.derive_system"),
    ("lienard", "invariance_residual", "lienard.invariance_residual"),
    ("recover", "recover_curve", "recover.recover_curve"),
    ("families", "construct", "families.construct"),
    ("families", "lift", "families.lift"),
    ("families", "perturb_lemma7", "families.perturb_lemma7"),
    ("families", "perturb_lemma8", "families.perturb_lemma8"),
)

# (module, class, method, span name)
METHODS = (
    ("polyx", "Poly", "divrem", "polyx.divrem"),
    ("polyx", "Poly", "__mul__", "polyx.mul"),
    ("rootclass", "SturmChain", "__init__", "rootclass.sturm_chain"),
    ("rootclass", "RealRoot", "refine", "rootclass.refine"),
)

SPAN_NAMES = tuple(s for *_, s in FUNCTIONS) + tuple(s for *_, s in METHODS)
LAYERS = ("families", "lienard", "recover", "rootclass", "polyx")
FAMILY_ERRORS = {"SearchExhausted": "families.search_exhausted",
                 "PatternNotAchieved": "families.pattern_not_achieved"}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.names = {name: i for i, name in enumerate(SPAN_NAMES)}
        # flat span store; end is filled in when the span closes
        self.s_name = array("H")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list[list] = []   # [span id, name, child seconds]
        self.depth = dict.fromkeys(SPAN_NAMES, 0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = {"families.certify_attempts": 0,
                       "families.constructions": 0,
                       "families.search_exhausted": 0,
                       "families.pattern_not_achieved": 0,
                       "recover.found": 0}
        self.sturm_polys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> None:
        sid = len(self.s_start)
        self.s_name.append(self.names[name])
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_op.append(self.op)
        self.s_end.append(0.0)
        self.depth[name] += 1
        self.stack.append([sid, name, 0.0])
        self.s_start.append(time.perf_counter())

    def _close(self) -> None:
        t = time.perf_counter()
        sid, name, child = self.stack.pop()
        self.s_end[sid] = t
        dur = t - self.s_start[sid]
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.busy[name] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def _note_error(self, exc: BaseException) -> None:
        key = FAMILY_ERRORS.get(type(exc).__name__)
        if key is not None and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts[key] += 1

    def _wrap(self, fn, name: str, site: str = ""):
        tracer = self
        counts = self.counts
        from_families = name == "lienard.certify" and site.endswith(".families")
        outermost_construct = name == "families.construct"
        is_recover = name == "recover.recover_curve"
        is_sturm = name == "rootclass.sturm_chain"

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if from_families:
                counts["families.certify_attempts"] += 1
            if is_sturm:
                tracer.sturm_polys.add(args[1])
            top = outermost_construct and tracer.depth[name] == 0
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if name.startswith("families."):
                    tracer._note_error(exc)
                raise
            finally:
                tracer._close()
            if top:
                counts["families.constructions"] += 1
            if is_recover and result.found:
                counts["recover.found"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each package name that refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, self._wrap(original, name, mod.__name__))
        for modname, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(v for k, v in self.self_s.items() if k.startswith(layer + ".")), "s")
        c = self.counts
        builds = self.calls["rootclass.sturm_chain"]
        out["rootclass.sturm_chain.distinct_ratio"] = (
            _ratio(len(self.sturm_polys), builds), "ratio")
        out["recover.found_ratio"] = (
            _ratio(c["recover.found"], self.calls["recover.recover_curve"]), "ratio")
        out["families.certify_attempts"] = (c["families.certify_attempts"], "count")
        out["families.accept_ratio"] = (
            _ratio(c["families.constructions"], c["families.certify_attempts"]), "ratio")
        out["families.search_exhausted"] = (c["families.search_exhausted"], "count")
        out["families.pattern_not_achieved"] = (c["families.pattern_not_achieved"], "count")
        return out

    def dominant_layer(self) -> tuple[str, float]:
        """The layer with the most self time, and its share of all span time."""
        per_layer = {layer: sum(v for k, v in self.self_s.items()
                                if k.startswith(layer + "."))
                     for layer in LAYERS}
        total = sum(per_layer.values())
        layer = max(per_layer, key=per_layer.get)
        return layer, _ratio(per_layer[layer], total)

    def dump(self, path: Path) -> int:
        """Write the spans as JSON columns; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": list(SPAN_NAMES),
            "columns": ["name", "parent", "op", "start", "end"],
            "name": self.s_name.tolist(),
            "parent": self.s_parent.tolist(),
            "op": self.s_op.tolist(),
            "start": self.s_start.tolist(),
            "end": self.s_end.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
        return len(self.s_start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
