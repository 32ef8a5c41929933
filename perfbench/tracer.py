"""Run-time tracing of the library's layers (the modules of ``gwdesc``).

``Tracer.install`` replaces public functions and methods by wrappers at run
time; no source file is edited, and ``uninstall`` puts the originals back.
Two kinds of wrapper exist:

* a span records name, start, end, parent span and run id, one record per
  call, kept in memory and written out by ``write`` when the run ends;
* a hot leaf (``Fraction.__new__``, the pairings, ``cup``, series ring
  operations) records only a call count and total time per parent frame.

A layer's self time is its time minus the part its children cover, where
children are nested spans and hot leaves alike.  A ``.s`` metric is the time
of the outermost calls of a span name (recursion is not counted twice).
A target that no longer exists is skipped, and its metrics read as missing
(``None``) instead of crashing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

ENGINE_ENTRIES = ("descendant", "generalized", "modified", "two_point_general", "one_point", "primary")
MEMO_TAGS = ("g", "2", "3", "1", "0")
SERIES_LEAVES = (
    "exact.series_mul",
    "exact.series_add",
    "exact.series_sub",
    "exact.series_neg",
    "exact.series_shift",
    "exact.antiderivative_q",
)

# (module, class or None, attribute, layer name, kind)
TARGETS = [
    *(("gwdesc.engine", "CorrelatorEngine", entry, f"engine.{entry}", "span") for entry in ENGINE_ENTRIES),
    ("gwdesc.geometry", "GeometryModel", "beta_pairing", "geometry.beta_pairing", "leaf"),
    ("gwdesc.geometry", "GeometryModel", "c1_pairing", "geometry.c1_pairing", "leaf"),
    ("gwdesc.geometry", "GeometryModel", "cup", "geometry.cup", "leaf"),
    ("fractions", "Fraction", "__new__", "exact.fraction_new", "leaf"),
    ("gwdesc.exact", "NovikovSeries", "__mul__", "exact.series_mul", "leaf"),
    ("gwdesc.exact", "NovikovSeries", "__rmul__", "exact.series_mul", "leaf"),
    ("gwdesc.exact", "NovikovSeries", "__add__", "exact.series_add", "leaf"),
    ("gwdesc.exact", "NovikovSeries", "__sub__", "exact.series_sub", "leaf"),
    ("gwdesc.exact", "NovikovSeries", "__neg__", "exact.series_neg", "leaf"),
    ("gwdesc.exact", "NovikovSeries", "shift", "exact.series_shift", "leaf"),
    ("gwdesc.exact", None, "antiderivative_q", "exact.antiderivative_q", "leaf"),
    ("gwdesc.exact", None, "beta_splittings", "exact.beta_splittings", "count"),
    ("gwdesc.moduli", None, "constant_map_correlator", "moduli.constant_map_correlator", "span"),
    ("gwdesc.moduli", None, "psi_integral_genus0", "moduli.psi_integral_genus0", "leaf"),
    ("gwdesc.phase", None, "transform_identity_report", "phase.transform_identity_report", "span"),
    ("gwdesc.phase", None, "potential_standard", "phase.potential_standard", "span"),
    ("gwdesc.phase", None, "potential_modified", "phase.potential_modified", "span"),
    ("gwdesc.phase", None, "_assemble", "phase.assemble", "assemble"),
    ("gwdesc.phase", None, "build_transform", "phase.build_transform", "span"),
    ("gwdesc.phase", "PhaseTransform", "inverse", "phase.inverse", "span"),
    ("gwdesc.phase", None, "compose_with_transform", "phase.compose", "span"),
    ("gwdesc.phase", None, "substitution_identity", "phase.substitution", "span"),
    ("gwdesc.phase", None, "quantum_product", "phase.quantum_product", "span"),
    ("gwdesc.phase", None, "two_point_from_primaries", "phase.two_point_from_primaries", "span"),
    ("gwdesc.verify", None, "suite_point_vanishing", "verify.point-vanishing", "span"),
    ("gwdesc.verify", None, "suite_point_oracle", "verify.point-oracle", "span"),
    ("gwdesc.verify", None, "suite_two_point_paths", "verify.two-point-paths", "span"),
    ("gwdesc.fixtures", None, "load_fixture", "fixtures.load", "span"),
]


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = perf_counter()
        self.spans: list[tuple] = []
        self.next_span = 0
        # a frame is [name, child seconds, id of the enclosing span]
        self.stack: list[list] = [["root", 0.0, None]]
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.calls: Counter = Counter()
        self.nonzero: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outer_s: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.engines: list = []
        self.installed: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name: str, func, count_nonzero: bool = False):
        tracer = self

        def span(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer.next_span
            tracer.next_span += 1
            parent = stack[-1][2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[name] -= 1
                elapsed = end - start
                stack[-1][1] += elapsed
                tracer.self_s[name] += elapsed - frame[1]
                if not tracer.active[name]:
                    tracer.outer_s[name] += elapsed
                tracer.calls[name] += 1
                tracer.spans.append((span_id, parent, name, start - tracer.origin, end - tracer.origin))
            if count_nonzero and result:
                tracer.nonzero[name] += 1
            return result

        return span

    def _leaf(self, name: str, func):
        tracer = self

        def leaf(*args, **kwargs):
            stack = tracer.stack
            owner = stack[-1]
            frame = [name, 0.0, owner[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                owner[1] += elapsed
                tracer.self_s[name] += elapsed - frame[1]
                tally = tracer.leaves[(owner[0], name)]
                tally[0] += 1
                tally[1] += elapsed

        return leaf

    def _count(self, name: str, func):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return counted

    def _assemble(self, name: str, func):
        calls = self.calls

        def assemble(policy, basis_rank, correlator):
            def counted(key):
                series = correlator(key)
                calls["phase.assemble.keys"] += 1
                if not series.is_zero():
                    calls["phase.assemble.kept"] += 1
                return series

            return func(policy, basis_rank, counted)

        return self._span(name, assemble)

    def _engine_init(self, func):
        engines = self.engines

        def init(engine, *args, **kwargs):
            func(engine, *args, **kwargs)
            engines.append(engine)

        return init

    # ------------------------------------------------------------------
    # installation

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, kind: str, func):
        if kind == "span":
            return self._span(name, func, count_nonzero=name in ("engine.descendant", "engine.generalized"))
        if kind == "leaf":
            return self._leaf(name, func)
        if kind == "count":
            return self._count(name, func)
        return self._assemble(name, func)

    def install(self, extra: tuple = ()) -> None:
        """Wrap every target; ``extra`` adds (module, attribute, span name)."""
        importlib.import_module("gwdesc.cli")  # binds every module-level name
        for module_name, class_name, attr, name, kind in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name, None)
                if owner is None or attr not in owner.__dict__:
                    continue
                self._set(owner, attr, self._wrap(name, kind, getattr(owner, attr)))
            else:
                func = getattr(module, attr, None)
                if func is None:
                    continue
                wrapped = self._wrap(name, kind, func)
                for loaded in [m for key, m in sys.modules.items() if key.split(".")[0] == "gwdesc"]:
                    for key, value in list(vars(loaded).items()):
                        if value is func:
                            self._set(loaded, key, wrapped)
            self.installed.add(name)
        engine_class = importlib.import_module("gwdesc.engine").CorrelatorEngine
        self._set(engine_class, "__init__", self._engine_init(engine_class.__init__))
        for module, attr, name in extra:
            self._set(module, attr, self._span(name, getattr(module, attr)))
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # results

    def memo_counts(self) -> dict[str, int | None]:
        """Memo entries per recursion tag, summed over the engines built."""
        counts: dict[str, int | None] = {tag: 0 for tag in MEMO_TAGS}
        for engine in self.engines:
            memo = getattr(engine, "_memo", None)
            if not isinstance(memo, dict):
                return {tag: None for tag in MEMO_TAGS}
            for key in memo:
                tag = key[0] if isinstance(key, tuple) and key else None
                if tag in counts:
                    counts[tag] += 1
        return counts

    def _calls(self, name: str) -> int | None:
        return self.calls[name] if name in self.installed else None

    def _time(self, table, name: str) -> float | None:
        return table[name] if name in self.installed else None

    def metrics(self) -> dict[str, int | float | None]:
        out: dict[str, int | float | None] = {}
        for tag, count in self.memo_counts().items():
            out[f"engine.memo.{tag}"] = count
        for entry in ("descendant", "generalized"):
            name = f"engine.{entry}"
            out[f"{name}.calls"] = self._calls(name)
            out[f"{name}.nonzero"] = self.nonzero[name] if name in self.installed else None
        for entry in ENGINE_ENTRIES:
            out[f"engine.{entry}.self_s"] = self._time(self.self_s, f"engine.{entry}")
        for leaf in ("beta_pairing", "c1_pairing", "cup"):
            name = f"geometry.{leaf}"
            out[f"{name}.calls"] = self._leaf_calls(name)
            out[f"{name}.self_s"] = self._time(self.self_s, name)
        out["exact.fraction_new.calls"] = self._leaf_calls("exact.fraction_new")
        out["exact.series_mul.calls"] = self._leaf_calls("exact.series_mul")
        out["exact.series_add.calls"] = self._leaf_calls("exact.series_add")
        series = [self.self_s[name] for name in SERIES_LEAVES if name in self.installed]
        out["exact.series.self_s"] = sum(series) if series else None
        out["exact.beta_splittings.calls"] = self._calls("exact.beta_splittings")
        out["moduli.constant_map_correlator.calls"] = self._calls("moduli.constant_map_correlator")
        out["moduli.constant_map_correlator.self_s"] = self._time(self.self_s, "moduli.constant_map_correlator")
        out["moduli.psi_integral_genus0.calls"] = self._leaf_calls("moduli.psi_integral_genus0")
        for name in (
            "phase.potential_standard",
            "phase.potential_modified",
            "phase.build_transform",
            "phase.inverse",
            "phase.compose",
            "phase.substitution",
            "phase.two_point_from_primaries",
        ):
            out[f"{name}.s"] = self._time(self.outer_s, name)
        assembled = "phase.assemble" in self.installed
        out["phase.assemble.keys"] = self.calls["phase.assemble.keys"] if assembled else None
        out["phase.assemble.kept"] = self.calls["phase.assemble.kept"] if assembled else None
        out["phase.quantum_product.calls"] = self._calls("phase.quantum_product")
        for suite in ("point-vanishing", "point-oracle", "two-point-paths"):
            out[f"verify.{suite}.s"] = self._time(self.outer_s, f"verify.{suite}")
        out["fixtures.load.s"] = self._time(self.outer_s, "fixtures.load")
        out["cli.render.s"] = self._time(self.outer_s, "cli.render")
        return out

    def _leaf_calls(self, name: str) -> int | None:
        if name not in self.installed:
            return None
        return sum(count for (_, leaf), (count, _) in self.leaves.items() if leaf == name)

    def write(self, path: str) -> None:
        """Spans, then per-parent hot-leaf tallies, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"run": self.run_id, "fields": ["id", "parent", "name", "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps([self.run_id, *span]) + "\n")
            for (parent, leaf), (count, total) in sorted(self.leaves.items()):
                out.write(json.dumps({"run": self.run_id, "parent": parent, "leaf": leaf, "calls": count, "total_s": total}) + "\n")
