"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions of each satcrb layer with wrappers
that record a span (name, start, end, parent) per call. A function is
replaced at every satcrb module attribute that holds it, so a call is traced
whichever module the program looks it up through. Nothing under src/ is
edited; `uninstall` puts every original back.

Spans stay in memory for one pass of a workload and are then folded into
per-name totals. A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

PACKAGE = "satcrb"

# Layer = satcrb module. `planar` is only reached through verify's oracle
# check, so it has no entry. signal_ml's `minimize` and `fftconvolve` are the
# scipy calls as signal_ml looks them up.
LAYERS: dict[str, tuple[str, ...]] = {
    "geometry": ("sample_constellation", "e_to_l_arrays", "constellation_rng"),
    "fim": ("fim_tdoa_arrays", "fim_tdoa_rss_arrays", "crb_from_fim"),
    "montecarlo": ("crb_distribution", "convergence_sweep"),
    "runtime": ("run_trials",),
    "closed_form": (
        "lcrb_tdoa",
        "lcrb_tdoa_rss",
        "acrb",
        "aacrb",
        "limit_coefficients",
        "moment_integrals",
        "quadrature_moments",
    ),
    "coverage": (
        "coverage_prob",
        "min_height_for_coverage",
        "min_angle_for_coverage",
    ),
    "signal_ml": (
        "simulate_measurements",
        "ml_localize",
        "make_pulse",
        "signal_crb",
        "decoupling_check",
        "minimize",
        "fftconvolve",
    ),
    "cli": ("render_rows", "run_verification"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
ML_MODES = ("fix_z", "full_3d")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for none


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        out[span.name] += (span.end - span.start) - covered_length(
            children.get(i, ()), span.start, span.end
        )
    return dict(out)


def child_times(spans: list[Span], parent_name: str) -> dict[str, float]:
    """Inclusive time of the direct children of every `parent_name` span,
    summed per child name."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0 and spans[span.parent].name == parent_name:
            out[span.name] += span.end - span.start
    return dict(out)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


@dataclass
class LayerTotals:
    """Per-name sums over the passes folded in so far (seconds)."""

    passes: int = 0
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    incl_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    ml_children_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Span recorder; `active` is False outside the timed region."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.totals = LayerTotals()
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.ml_ms: dict[str, list[float]] = {mode: [] for mode in ML_MODES}
        self.ml_converged: list[bool] = []
        self.nfev: list[int] = []
        self.singular_count = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, name, start, parent)
                self.raised[(name, type(exc).__name__)] += 1
                raise
            end = self._close(index, name, start, parent)
            if observe is not None:
                observe(self, args, kwargs, result, end - start)
            return result

        return traced

    def _close(self, index: int, name: str, start: float, parent: int) -> float:
        end = time.perf_counter()
        self.spans[index] = Span(name, start, end, parent)
        self._stack.pop()
        return end

    def install(self) -> None:
        """Wrap every function in LAYERS at each satcrb attribute holding it.

        A function that no longer exists is listed in `missing` and reports
        0 calls.
        """
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        ]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                factory = _OBSERVERS.get(name)
                wrapper = self.wrap(name, original, factory(original) if factory else None)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- passes -----------------------------------------------------------

    def start_pass(self) -> None:
        self.spans = []
        self._stack = []
        self.active = True

    def end_pass(self) -> None:
        self.active = False
        spans = self.spans
        t = self.totals
        t.passes += 1
        for span in spans:
            t.calls[span.name] += 1
            t.incl_s[span.name] += span.end - span.start
        for name, value in self_times(spans).items():
            t.self_s[name] += value
        for name, value in child_times(spans, "signal_ml.ml_localize").items():
            t.ml_children_s[name] += value
        self.spans = []

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced pass, as name -> (value, unit)."""
        t = self.totals
        per_pass = 1.0 / max(t.passes, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (t.calls.get(name, 0) * per_pass, "count")
            out[f"{name}.self_ms"] = (t.self_s.get(name, 0.0) * 1e3 * per_pass, "ms")
        out["fim.crb_from_fim.singular"] = (
            self.raised.get(("fim.crb_from_fim", "SingularInformation"), 0) * per_pass,
            "count",
        )
        out["montecarlo.crb_distribution.singular_count"] = (
            self.singular_count * per_pass,
            "count",
        )
        for mode in ML_MODES:
            values = sorted(self.ml_ms[mode])
            prefix = f"signal_ml.ml_localize.{mode}.ms"
            out[f"{prefix}.p50"] = (nearest_rank(values, 50.0), "ms")
            out[f"{prefix}.p95"] = (nearest_rank(values, 95.0), "ms")
        out["signal_ml.minimize.nfev.mean"] = (
            sum(self.nfev) / len(self.nfev) if self.nfev else 0.0,
            "count",
        )
        out["signal_ml.minimize.nfev.max"] = (float(max(self.nfev, default=0)), "count")
        out["signal_ml.ml_localize.converged_frac"] = (
            sum(self.ml_converged) / len(self.ml_converged) if self.ml_converged else 0.0,
            "ratio",
        )
        return out

    def table(self, pass_wall_s: float) -> list[str]:
        """Human-readable per-layer table plus the ml_localize breakdown."""
        t = self.totals
        per_pass = 1.0 / max(t.passes, 1)
        lines = [
            f"per-layer spans, per traced pass ({t.passes} passes):",
            f"  {'span':44s} {'calls':>10s} {'incl_ms':>11s} {'self_ms':>11s} {'self%':>6s}",
        ]
        for name in SPAN_NAMES:
            calls = t.calls.get(name, 0) * per_pass
            incl = t.incl_s.get(name, 0.0) * 1e3 * per_pass
            self_ms = t.self_s.get(name, 0.0) * 1e3 * per_pass
            share = 100.0 * self_ms / (pass_wall_s * 1e3) if pass_wall_s > 0 else 0.0
            note = "  (missing: 0 calls)" if name in self.missing else ""
            lines.append(
                f"  {name:44s} {calls:10.1f} {incl:11.2f} {self_ms:11.2f} {share:6.1f}{note}"
            )
        ml_total = t.incl_s.get("signal_ml.ml_localize", 0.0)
        if ml_total > 0.0:
            parts = [
                (c, t.ml_children_s.get(f"signal_ml.{c}", 0.0))
                for c in ("minimize", "fftconvolve", "make_pulse")
            ]
            rest = ml_total - sum(v for _, v in parts)
            calls = t.calls.get("signal_ml.ml_localize", 0)
            lines.append(
                f"ml_localize time ({calls} calls, {1e3 * ml_total / calls:.2f} ms each):"
            )
            for label, value in parts + [("remainder (coarse lattice, amplitude profile)", rest)]:
                lines.append(f"  {label:46s} {100.0 * value / ml_total:6.1f}%")
            m = self.metrics()
            for mode in ML_MODES:
                prefix = f"signal_ml.ml_localize.{mode}.ms"
                lines.append(
                    f"  {mode}: p50 {m[prefix + '.p50'][0]:.2f} ms, p95 "
                    f"{m[prefix + '.p95'][0]:.2f} ms over {len(self.ml_ms[mode])} calls"
                )
            lines.append(
                f"  minimize nfev mean {m['signal_ml.minimize.nfev.mean'][0]:.1f}, max "
                f"{m['signal_ml.minimize.nfev.max'][0]:.0f} over {len(self.nfev)} solves; "
                f"converged {m['signal_ml.ml_localize.converged_frac'][0]:.3f}"
            )
        return lines


def _observe_ml_localize(fn: Callable) -> Callable:
    signature = inspect.signature(fn)

    def observe(tracer: Tracer, args, kwargs, result, duration: float) -> None:
        mode = signature.bind(*args, **kwargs).arguments.get("mode", "full_3d")
        tracer.ml_ms.setdefault(mode, []).append(duration * 1e3)
        converged = getattr(result, "converged", None)
        if converged is not None:
            tracer.ml_converged.append(bool(converged))

    return observe


def _observe_minimize(fn: Callable) -> Callable:
    def observe(tracer: Tracer, args, kwargs, result, duration: float) -> None:
        nfev = getattr(result, "nfev", None)
        if nfev is not None:
            tracer.nfev.append(int(nfev))

    return observe


def _observe_crb_distribution(fn: Callable) -> Callable:
    def observe(tracer: Tracer, args, kwargs, result, duration: float) -> None:
        tracer.singular_count += int(getattr(result, "singular_count", 0))

    return observe


# span name -> factory(original function) -> observer(tracer, args, kwargs,
# result, duration), called after each traced call returns
_OBSERVERS: dict[str, Callable[[Callable], Callable]] = {
    "signal_ml.ml_localize": _observe_ml_localize,
    "signal_ml.minimize": _observe_minimize,
    "montecarlo.crb_distribution": _observe_crb_distribution,
}
