"""Span tracing of spwt's layers from outside the package.

:class:`Tracer` wraps the public functions of each layer under every name a
spwt module binds them to (``spwt.cli.correlation_map`` as well as
``spwt.placement.correlation_map``), so calls made through a module's own
imports are seen and no file under ``src/`` changes.  Spans (name, start,
end, parent) are held in memory; counts are taken at the same boundaries.
A target that no longer exists is reported as absent, and one whose
arguments no longer fit its counter as uncounted, not as an error.
"""

import contextlib
import functools
import sys
import time

import numpy as np

# (layer, module that defines it, function).  The layer is the module name.
TARGETS = (
    ("cli", "spwt.cli", "main"),
    ("placement", "spwt.placement", "correlation_map"),
    ("placement", "spwt.placement", "solve_azimuth_scheme"),
    ("placement", "spwt.placement", "solve_pitch_scheme"),
    ("experiments", "spwt.experiments", "sweep_snr"),
    ("experiments", "spwt.experiments", "sweep_alpha"),
    ("signalmodel", "spwt.signalmodel", "evaluate_link"),
    ("arrays", "spwt.arrays", "steering_vector"),
    ("geometry", "spwt.geometry", "look_angles"),
    ("geometry", "spwt.geometry", "canonicalize_frame"),
    ("charts", "spwt.charts", "render_heatmap"),
    ("charts", "spwt.charts", "render_line_chart"),
)
LAYERS = ("cli", "placement", "experiments", "signalmodel", "arrays", "geometry", "charts")


_clock = time.perf_counter_ns


class Span:
    """One call.  ``t0``..``t1`` is the call itself; ``t_in`` is when the
    wrapper was entered, so a parent can be charged for its children's
    bookkeeping too and instrumentation lands in no layer's self time."""

    __slots__ = ("name", "layer", "parent", "t_in", "t0", "t1", "child_ns")

    def __init__(self, name, layer, parent, t_in):
        self.name, self.layer, self.parent, self.t_in = name, layer, parent, t_in
        self.t0 = self.t1 = t_in
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple] = []
        self.absent: list[str] = []
        self.uncounted: set = set()
        # Counts taken at the span boundaries.
        self.solutions = 0
        self.infeasible = 0
        self.map_points = 0
        self.map_terms = 0
        self.chart_bytes = {"render_heatmap": 0, "render_line_chart": 0}
        self.link_positions: set = set()
        self.frames: set = set()

    # -- spans ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span around the benchmark's own code, e.g. one library study."""
        s = self._open(name, layer)
        try:
            yield s
        finally:
            self._close(s)
            self._charge(s)

    def _open(self, name, layer):
        s = Span(name, layer, self._stack[-1] if self._stack else None, _clock())
        self.spans.append(s)
        self._stack.append(s)
        s.t0 = _clock()
        return s

    def _close(self, s):
        s.t1 = _clock()
        self._stack.pop()

    @staticmethod
    def _charge(s):
        if s.parent is not None:
            s.parent.child_ns += _clock() - s.t_in

    # -- counts taken at the span boundaries ---------------------------
    def _count_solutions(self, args, result):
        self.solutions += len(result) if isinstance(result, list) else 1

    def _count_map(self, args, result):
        scenario, xs, ys = args[:3]
        points = np.size(xs) * np.size(ys)
        self.map_points += points
        self.map_terms += points * scenario.array.m_rows * scenario.array.n_cols

    def _count_heatmap(self, args, result):
        self.chart_bytes["render_heatmap"] += len(result.encode())

    def _count_line_chart(self, args, result):
        self.chart_bytes["render_line_chart"] += len(result.encode())

    def _count_link(self, args, result):
        sc, uav = args[:2]
        # Power is left out: it does not change the correlation.
        self.link_positions.add((sc.array, sc.bob, sc.eve, sc.uav_height_m, sc.yaw, uav))

    def _count_frame(self, args, result):
        self.frames.add((args[0], args[1]))

    def _wrap(self, layer, name, fn):
        tracer = self
        count = {
            "solve_azimuth_scheme": self._count_solutions,
            "solve_pitch_scheme": self._count_solutions,
            "correlation_map": self._count_map,
            "render_heatmap": self._count_heatmap,
            "render_line_chart": self._count_line_chart,
            "evaluate_link": self._count_link,
            "canonicalize_frame": self._count_frame,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(s)
                if type(exc).__name__ == "InfeasibleGeometry":
                    tracer.infeasible += 1
                tracer._charge(s)
                raise
            tracer._close(s)
            if count is not None:
                try:
                    count(args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # The signature changed since these counts were written.
                    tracer.uncounted.add(name)
            tracer._charge(s)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of every target in loaded spwt modules."""
        modules = [m for k, m in sys.modules.items() if k == "spwt" or k.startswith("spwt.")]
        self.absent = []
        for layer, home, name in TARGETS:
            original = getattr(sys.modules.get(home), name, None)
            if original is None:
                self.absent.append(f"{home}.{name}")
                continue
            wrapper = self._wrap(layer, name, original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._patched.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- results -------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer figures over every span recorded so far."""
        calls: dict = {}
        total_ns: dict = {}
        self_ns = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            dur = s.t1 - s.t0
            calls[s.name] = calls.get(s.name, 0) + 1
            # Inclusive time, counted once for nested calls of one function.
            outer = s.parent
            while outer is not None and outer.name != s.name:
                outer = outer.parent
            if outer is None:
                total_ns[s.name] = total_ns.get(s.name, 0) + dur
            if s.layer in self_ns:
                self_ns[s.layer] += dur - s.child_ns
        ms = {k: v / 1e6 for k, v in total_ns.items()}

        def per(name):
            return calls.get(name, 0), ms.get(name, 0.0)

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6
        # TARGETS[0], cli.main, is the root of every CLI operation: its
        # figures are cli.self_ms above and cli.bytes_written (run.py).
        for layer, _, name in TARGETS[1:]:
            c, t = per(name)
            out[f"{layer}.{name}.calls"] = c
            out[f"{layer}.{name}.ms"] = t
        map_s = ms.get("correlation_map", 0.0) / 1e3
        out["placement.correlation_map.points_per_s"] = self.map_points / map_s if map_s else 0.0
        out["placement.correlation_map.element_terms"] = self.map_terms
        # Computed, not measured: one complex128 per element term.
        out["placement.correlation_map.computed_bytes"] = self.map_terms * 16
        solver_calls = calls.get("solve_azimuth_scheme", 0) + calls.get("solve_pitch_scheme", 0)
        out["placement.certified_per_call"] = self.solutions / solver_calls if solver_calls else 0.0
        out["placement.infeasible_outcomes"] = self.infeasible
        links = calls.get("evaluate_link", 0)
        out["signalmodel.evaluate_link.distinct_position_ratio"] = (
            len(self.link_positions) / links if links else 0.0
        )
        frames = calls.get("canonicalize_frame", 0)
        out["geometry.canonicalize_frame.calls_per_frame"] = (
            frames / len(self.frames) if self.frames else 0.0
        )
        for name, size in self.chart_bytes.items():
            out[f"charts.{name}.bytes"] = size
        return out

