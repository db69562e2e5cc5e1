"""Per-layer tracing from outside the program.

Tracer.install wraps each listed public function at every name the
program's modules bind it under (fixed_points, for example, is also bound
in attractor_classifier and bifurcation_atlas), so calls between modules
are seen too. Each call becomes a span (name, start, end, parent); a
layer's self time is its spans' time minus the time of its traced
children. Untraced runs never call install.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED = (
    ("atlas_cli", "main"),
    ("attractor_classifier", "sweep"),
    ("attractor_classifier", "classify"),
    ("attractor_classifier", "lyapunov_exponents"),
    ("attractor_classifier", "detect_period"),
    ("attractor_classifier", "fit_invariant_circle"),
    ("ghm_core", "fixed_points"),
    ("bifurcation_atlas", "in_stability_domain"),
    ("bifurcation_atlas", "trace_curves"),
    ("tangency_lab", "mount_window"),
    ("tangency_lab", "fit_ghm"),
    ("tangency_lab", "coexistence_search"),
)
VERDICTS = ("sink", "circle", "chaotic", "divergent", "undecided")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self.self_s = {name: 0.0 for name in self.calls}
        self.total_s = {name: 0.0 for name in self.calls}
        self.counts = {f"attractor_classifier.verdict.{v}": 0 for v in VERDICTS}
        self.counts.update({
            "attractor_classifier.sweep.cells": 0,
            "attractor_classifier.lyapunov_exponents.steps": 0,
            "tangency_lab.coexistence_search.probes": 0,
            "tangency_lab.coexistence_search.probes_rejected": 0,
        })
        self._stack: list[list] = []  # [span index, traced-children time]
        # work counters, taken from arguments and return values
        self._counters = {
            "attractor_classifier.sweep": self._count_cells,
            "attractor_classifier.classify": self._count_verdict,
            "attractor_classifier.lyapunov_exponents": self._count_steps,
            "tangency_lab.coexistence_search": self._count_probes,
        }

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "ghmlab" or k.startswith("ghmlab.")]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"ghmlab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            frame = [len(self.spans) - 1, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dt = t1 - t0
                if self._stack:
                    self._stack[-1][1] += dt
                self.spans[frame[0]] = (name, t0, t1, parent)
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(bound.arguments, out)
            return out

        return traced

    def _count_cells(self, args, grid):
        self.counts["attractor_classifier.sweep.cells"] += args["nx"] * args["ny"]
        for cell in grid.cells:
            self.counts[f"attractor_classifier.verdict.{cell.verdict}"] += 1

    def _count_verdict(self, args, cell):
        self.counts[f"attractor_classifier.verdict.{cell.verdict}"] += 1

    def _count_steps(self, args, out):
        self.counts["attractor_classifier.lyapunov_exponents.steps"] += args["burn_in"] + args["span"]

    def _count_probes(self, args, hit):
        log = args["probe_log"] or []
        self.counts["tangency_lab.coexistence_search.probes"] += len(log)
        self.counts["tangency_lab.coexistence_search.probes_rejected"] += sum("reject" in r for r in log)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round figures: calls, self time and rates, as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / rounds, "s")

        def rate(name, per, scale):
            return self.total_s[name] * scale / per if per else 0.0

        c = self.counts
        out["attractor_classifier.sweep.us_per_cell"] = (
            rate("attractor_classifier.sweep", c["attractor_classifier.sweep.cells"], 1e6), "us")
        out["attractor_classifier.classify.ms_per_call"] = (
            rate("attractor_classifier.classify", self.calls["attractor_classifier.classify"], 1e3), "ms")
        out["attractor_classifier.lyapunov_exponents.ns_per_step"] = (
            rate("attractor_classifier.lyapunov_exponents",
                 c["attractor_classifier.lyapunov_exponents.steps"], 1e9), "ns")
        out["tangency_lab.fit_ghm.ms_per_call"] = (
            rate("tangency_lab.fit_ghm", self.calls["tangency_lab.fit_ghm"], 1e3), "ms")
        for v in VERDICTS:
            key = f"attractor_classifier.verdict.{v}"
            out[key] = (c[key] / rounds, "count")
        for key in ("tangency_lab.coexistence_search.probes",
                    "tangency_lab.coexistence_search.probes_rejected"):
            out[key] = (c[key] / rounds, "count")
        return out
