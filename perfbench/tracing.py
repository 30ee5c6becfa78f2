"""Per-layer tracing from outside the program.

Wrappers are installed around the public functions of each susyinv module.
Modules that bind a name with ``from ... import`` keep their own reference,
so every wrapper is installed on every loaded susyinv module whose attribute
is the original function, not only on the defining module. Spans keep a
stack: a layer's self time is its span's duration minus the time covered by
the spans it caused.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Span name -> (module, qualified attribute) of every function it wraps.
SPANS = {
    "timefunc": [("timefunc", "TimeFunction.__call__")],
    "expm": [("operators", "expm_i_hermitian")],
    "eigh": [("operators", "eigh")],
    "polar": [("operators", "polar_unitary")],
    "representations": [("representations", "make_spin"),
                        ("representations", "make_oscillator")],
    "susy": [("susy", "build_supercharge"), ("susy", "build_invariant"),
             ("susy", "check_superalgebra"), ("susy", "pair_spectra")],
    "prescription": [("construction", "run_prescription")],
    "h_minus": [("construction", "hamiltonian_from_gauge")],
    "gauge_value": [("construction", "GaugeCurve.value")],
    "gauge_derivative": [("construction", "GaugeCurve.derivative")],
    "u_minus": [("construction", "evolution_from_gauge")],
    "closed_form": [("construction", "closed_form_spin_R"),
                    ("construction", "closed_form_osc_R"),
                    ("construction", "quadrupole_partner")],
    "mapped_solution": [("construction", "PartnerOutput.mapped_solution")],
    "propagate": [("dynamics", "propagate"), ("dynamics", "propagate_unitary")],
    "holonomy": [("dynamics", "berry_holonomy")],
    "residual": [("dynamics", "lvn_residual"), ("dynamics", "intertwining_residual")],
    "run_suites": [("suites", "run_suites")],
    "load_config": [("config", "load_config")],
    "cli": [("cli", "main")],
}

# Counts every traced pass must make non-zero, per workload. Together they
# cover every count metric, so an unpatched wrapper fails loudly.
REQUIRED_COUNTS = {
    "spin_grid": ("timefunc.calls", "operators.operator_inits", "operators.expm_calls",
                  "operators.eigh_calls", "operators.polar_calls",
                  "construction.h_minus_calls", "construction.gauge_value_calls",
                  "construction.u_minus_calls", "construction.closed_form_calls",
                  "construction.mapped_solution_calls", "dynamics.steps",
                  "dynamics.stored_bytes", "config.load_calls", "cli.bytes_written"),
    "osc_verify": ("timefunc.calls", "operators.expm_calls", "operators.eigh_calls",
                   "construction.h_minus_calls", "construction.closed_form_calls",
                   "dynamics.steps", "dynamics.stored_bytes", "config.load_calls"),
    "loop_sweep": ("operators.polar_calls", "construction.gauge_value_calls",
                   "dynamics.holonomy_frames", "config.load_calls", "cli.bytes_written"),
}


class Tracer:
    """Span stack, per-span totals and exact counts for one traced pass."""

    def __init__(self):
        self._stack: list[list] = []      # [name, start, child seconds]
        self._saved: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        for totals in (self.calls, self.self_s, self.total_s, self.counts):
            totals.clear()

    def _span(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                total_s[name] += duration
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def _special(self, name: str, fn):
        """Wrappers that also count what a call returns or is handed."""
        counts = self.counts
        if name == "propagate":
            def counting(*args, **kwargs):
                traj = fn(*args, **kwargs)
                counts["dynamics.steps"] += traj.times.size - 1
                counts["dynamics.stored_bytes"] += sum(
                    a.nbytes for a in (traj.states, traj.operators, traj.norm_drift,
                                       traj.unitarity_defect) if a is not None)
                return traj
            return counting
        if name == "holonomy":
            def counting(frame, *args, **kwargs):
                def counted_frame(s):
                    counts["dynamics.holonomy_frames"] += 1
                    return frame(s)
                return fn(counted_frame, *args, **kwargs)
            return counting
        return fn

    def install(self) -> None:
        """Wrap every target on every susyinv module that binds it."""
        import susyinv.cli  # noqa: F401  (loads every module the CLI reaches)
        from susyinv import operators

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "susyinv" or n.startswith("susyinv.")]
        for name, targets in SPANS.items():
            for module_name, qualname in targets:
                owner = sys.modules[f"susyinv.{module_name}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    self._replace(cls, attr, self._span(name, self._special(
                        name, cls.__dict__[attr])))
                    continue
                original = getattr(owner, qualname)
                wrapped = self._span(name, self._special(name, original))
                bound = [m for m in modules if getattr(m, qualname, None) is original]
                for module in bound:
                    self._replace(module, qualname, wrapped)

        counts = self.counts
        post_init = operators.Operator.__post_init__

        def counted_post_init(op):
            counts["operators.operator_inits"] += 1
            post_init(op)
        self._replace(operators.Operator, "__post_init__", counted_post_init)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the pass traced since reset()."""
        c, s = self.calls, self.self_s
        h_calls = c["h_minus"]
        return {
            "timefunc.calls": c["timefunc"], "timefunc.s": s["timefunc"],
            "operators.operator_inits": self.counts["operators.operator_inits"],
            "operators.expm_calls": c["expm"], "operators.expm_s": s["expm"],
            "operators.eigh_calls": c["eigh"], "operators.eigh_s": s["eigh"],
            "operators.polar_calls": c["polar"], "operators.polar_s": s["polar"],
            "representations.build_s": s["representations"],
            "susy.s": s["susy"],
            "construction.prescription_s": s["prescription"],
            "construction.h_minus_calls": h_calls,
            "construction.h_minus_s": s["h_minus"],
            "construction.h_minus_us_per_call":
                1e6 * self.total_s["h_minus"] / h_calls if h_calls else 0.0,
            "construction.gauge_value_calls": c["gauge_value"],
            "construction.gauge_value_s": s["gauge_value"],
            "construction.gauge_derivative_s": s["gauge_derivative"],
            "construction.u_minus_calls": c["u_minus"],
            "construction.u_minus_s": s["u_minus"],
            "construction.closed_form_calls": c["closed_form"],
            "construction.mapped_solution_calls": c["mapped_solution"],
            "construction.mapped_solution_s": s["mapped_solution"],
            "dynamics.steps": self.counts["dynamics.steps"],
            "dynamics.propagate_s": s["propagate"],
            "dynamics.stored_bytes": self.counts["dynamics.stored_bytes"],
            "dynamics.holonomy_s": s["holonomy"],
            "dynamics.holonomy_frames": self.counts["dynamics.holonomy_frames"],
            "dynamics.residual_s": s["residual"],
            "suites.run_s": s["run_suites"],
            "config.load_calls": c["load_config"], "config.load_s": s["load_config"],
            "cli.self_s": s["cli"],
        }
