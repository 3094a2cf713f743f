"""Span recording around fracspec's public functions, from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``fracspec`` module that holds a reference to it (modules import
one another's functions by name, so patching only the defining module would
miss calls).  Each call records a span ``(name, start, end, parent, op)``
in memory; counters are kept at the same boundaries.  ``layer_metrics``
turns the spans of a set of ops into per-op layer times, self times and
counts.
"""

import functools
import sys
import time

# (module, function, span name).  Span names use "kernels" for the private
# fracspec._kernels module because metric names must start with a letter.
TRACED = (
    ("fracspec.cli", "main", "cli.main"),
    ("fracspec.cli", "parse_series_csv", "cli.parse_series_csv"),
    ("fracspec._kernels", "causal_apply", "kernels.causal_apply"),
    ("fracspec._kernels", "two_sided_apply_zero", "kernels.two_sided_apply_zero"),
    ("fracspec._kernels", "two_sided_apply_periodic", "kernels.two_sided_apply_periodic"),
    ("fracspec._kernels", "ar_recurse", "kernels.ar_recurse"),
    ("fracspec.exactops", "exact_kernel_window", "exactops.exact_kernel_window"),
    ("fracspec.exactops", "exact_difference", "exactops.exact_difference"),
    ("fracspec.specfun", "hyp1f2", "specfun.hyp1f2"),
    ("fracspec.glops", "gl_coefficients", "glops.gl_coefficients"),
    ("fracspec.glops", "gl_difference", "glops.gl_difference"),
    ("fracspec.arfima", "white_noise", "arfima.white_noise"),
    ("fracspec.arfima", "simulate_arfima", "arfima.simulate_arfima"),
    ("fracspec.arfima", "estimate_memory", "arfima.estimate_memory"),
    ("fracspec.arfima", "theoretical_acf", "arfima.theoretical_acf"),
    ("fracspec.spectral", "periodogram", "spectral.periodogram"),
    ("fracspec.spectral", "operator_response", "spectral.operator_response"),
    ("fracspec.spectral", "response_report", "spectral.response_report"),
)


def _size(a) -> int:
    return int(getattr(a, "size", len(a)))


def _count(tracer, name, args, result):
    """Work counts for one call, computed from argument sizes."""
    if name == "kernels.causal_apply":
        n, ncoef = _size(args[0]), _size(args[1])
        tracer.count("kernels.causal_apply_macs", n * min(n, ncoef))
    elif name in ("kernels.two_sided_apply_zero", "kernels.two_sided_apply_periodic"):
        n, nw = _size(args[0]), _size(args[1])
        if name.endswith("periodic"):
            # the tiled buffer a periodic convolution runs over
            wraps = ((nw - 1) // 2 + n - 1) // n
            n *= 2 * wraps + 1
        tracer.count(name + "_macs", n * nw)
    elif name == "exactops.exact_kernel_window":
        key = (round(float(args[0]), 12), int(args[1]))
        # a window object not returned before for this key was built cold
        if tracer.seen_windows.get(key) is not result:
            tracer.count("exactops.window_cold_calls")
            tracer.seen_windows[key] = result
    elif name == "cli.parse_series_csv":
        tracer.count("cli.rows_parsed", len(result[0]))


class Tracer:
    """In-memory span log and counters; ``op`` tags the spans of the current operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.op = 0
        self._stack = []
        self.seen_windows = {}
        self.counters = {}

    def span_start(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def span_end(self, index) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.span_start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end(index)
            _count(self, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED, in every loaded module that refers
        to it.  Functions of modules not imported yet are left alone."""
        modules = [m for k, m in sys.modules.items()
                   if k == "fracspec" or k.startswith("fracspec.")]
        for module_name, attr, name in TRACED:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# Layer metrics reported as a span's total time per op, and as self time
# (total minus the time its child spans cover).
TOTAL_TIME = {
    "cli.parse_series_csv_s": "cli.parse_series_csv",
    "kernels.causal_apply_s": "kernels.causal_apply",
    "kernels.two_sided_apply_zero_s": "kernels.two_sided_apply_zero",
    "kernels.two_sided_apply_periodic_s": "kernels.two_sided_apply_periodic",
    "kernels.ar_recurse_s": "kernels.ar_recurse",
    "exactops.exact_kernel_window_s": "exactops.exact_kernel_window",
    "glops.gl_coefficients_s": "glops.gl_coefficients",
    "arfima.white_noise_s": "arfima.white_noise",
    "arfima.theoretical_acf_s": "arfima.theoretical_acf",
    "spectral.periodogram_s": "spectral.periodogram",
    "spectral.operator_response_s": "spectral.operator_response",
}
SELF_TIME = {
    "cli.self_s": "cli.main",
    "exactops.exact_difference_self_s": "exactops.exact_difference",
    "glops.gl_difference_self_s": "glops.gl_difference",
    "arfima.simulate_arfima_self_s": "arfima.simulate_arfima",
    "arfima.estimate_memory_self_s": "arfima.estimate_memory",
    "spectral.response_report_self_s": "spectral.response_report",
}
CALLS = {
    "kernels.causal_apply_calls": "kernels.causal_apply",
    "exactops.window_calls": "exactops.exact_kernel_window",
    "specfun.hyp1f2_calls": "specfun.hyp1f2",
}
COUNTS = (
    "cli.rows_parsed",
    "kernels.causal_apply_macs",
    "kernels.two_sided_apply_zero_macs",
    "kernels.two_sided_apply_periodic_macs",
    "exactops.window_cold_calls",
)


def layer_metrics(traces, ops: int) -> dict:
    """Per-op layer times (s) and counts from a list of ``Tracer.to_json``
    records covering ``ops`` operations.  Span times are relative within
    each record, so records from different processes can be combined."""
    total = {}
    self_time = {}
    calls = {}
    counts = dict.fromkeys(COUNTS, 0)
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, _), inner in zip(spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        for key, value in trace["counters"].items():
            counts[key] += value
    out = {}
    for metric, span in TOTAL_TIME.items():
        out[metric] = total.get(span, 0.0) / ops
    for metric, span in SELF_TIME.items():
        out[metric] = self_time.get(span, 0.0) / ops
    for metric, span in CALLS.items():
        out[metric] = calls.get(span, 0) / ops
    for key, value in counts.items():
        out[key] = value / ops
    window_calls = calls.get("exactops.exact_kernel_window", 0)
    cold = counts["exactops.window_cold_calls"]
    out["exactops.window_hit_ratio"] = (window_calls - cold) / window_calls if window_calls else 0.0
    return out
