"""Per-layer tracing from outside the library.

`Tracer.install(modules)` rebinds every public module-level function of
each layer module to a wrapper that records a span (layer, start, end,
parent) in memory, and counts work at the same boundary.  Names that
other modules imported directly (`incidence.kreweras`) are rebound too.
Iterators returned by the partition enumerators are wrapped so that the
time spent producing each partition is a span of its own.  Nothing under
src/ is edited, and a module imported afresh is untraced again.

Self time of a span is its duration minus its children's durations and
minus the time the tracer's own hooks spent inside it.
"""

from __future__ import annotations

import types
from time import perf_counter

LAYERS = ("ncpart", "incidence", "series", "transforms", "ksym", "matmodel")

# Enumerators that produce partitions themselves; the iter_* wrappers
# above them only pass items through and must not count them again.
PARTITION_SOURCES = {"ncpart.iter_nc_blocks", "ncpart.iter_kdivisible_blocks",
                     "ncpart.iter_kequal"}
COUNTS = {
    "ncpart.kreweras": "ncpart.kreweras_calls",
    "incidence.conv": "incidence.conv_calls",
    "series.mul": "series.mul_calls",
    "series.puiseux_mul": "series.mul_calls",
    "series.compose": "series.compose_calls",
    "series.comp_inverse": "series.inverse_calls",
    "series.frac_inverse": "series.inverse_calls",
    "series.solve_A_given_B": "series.solve_calls",
    "series.solve_B_given_A": "series.solve_calls",
    "matmodel.sample_kcycle": "matmodel.perms_sampled",
}
INCLUSIVE = {
    "transforms.moments_to_cumulants": "transforms.m2c_s",
    "transforms.cumulants_to_moments": "transforms.c2m_s",
    "transforms.s_transform": "transforms.s_transform_s",
    "transforms.hankel_check": "transforms.hankel_s",
}

COUNT_METRICS = (
    "ncpart.partitions_enumerated", "ncpart.kreweras_calls",
    "incidence.pair_stats_requests", "incidence.pair_stats_fills",
    "incidence.conv_calls", "incidence.pair_types_walked",
    "series.mul_calls", "series.compose_calls", "series.inverse_calls",
    "series.solve_calls", "series.max_order", "series.coeff_bits_max",
    "transforms.route_both_calls", "ksym.calls", "ksym.validity_checks",
    "matmodel.perms_sampled", "matmodel.points_moved",
)
TIME_METRICS = ("incidence.fill_s",) + tuple(INCLUSIVE.values())


class Tracer:
    def __init__(self):
        self.spans = []   # [layer, t0, t1, parent, hook_s]
        self.stack = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.times = dict.fromkeys(TIME_METRICS, 0.0)

    # -- installation -------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions of modules[layer] for every layer."""
        originals = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped = self._wrap(layer, f"{layer}.{name}", fn, mod)
                    setattr(mod, name, wrapped)
                    originals[id(fn)] = wrapped
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and isinstance(obj, types.FunctionType):
                    setattr(mod, name, originals[id(obj)])

    def _wrap(self, layer, qual, fn, mod):
        spans, stack, counts, times = self.spans, self.stack, self.counts, self.times
        count_key = COUNTS.get(qual)
        incl_key = INCLUSIVE.get(qual)
        is_iter = qual.startswith("ncpart.iter_")
        counts_items = qual in PARTITION_SOURCES
        is_ksym = layer == "ksym"
        route_pos, route_default = _route_param(fn)
        pair_stats = qual == "incidence.kdivisible_pair_stats"
        series_out = layer == "series"
        hankel = qual == "transforms.hankel_check"
        trace_word = qual == "matmodel.normalized_trace"
        tracer = self

        def traced(*args, **kwargs):
            h0 = perf_counter()
            parent = stack[-1] if stack else -1
            fill = pair_stats and tuple(args[:2]) not in mod._pair_stats
            idx = len(spans)
            span = [layer, 0.0, 0.0, parent, 0.0]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
            if count_key:
                counts[count_key] += 1
            if incl_key:
                times[incl_key] += t1 - t0
            if is_ksym:
                counts["ksym.calls"] += 1
            if hankel and parent >= 0 and spans[parent][0] == "ksym":
                counts["ksym.validity_checks"] += 1
            if route_pos is not None and kwargs.get(
                    "route", args[route_pos] if route_pos < len(args) else route_default) == "both":
                counts["transforms.route_both_calls"] += 1
            if pair_stats:
                counts["incidence.pair_stats_requests"] += 1
                counts["incidence.pair_types_walked"] += len(out)
                if fill:
                    counts["incidence.pair_stats_fills"] += 1
                    times["incidence.fill_s"] += t1 - t0
            if series_out and hasattr(out, "coeffs"):
                tracer._series_stats(out.coeffs)
            if trace_word:
                counts["matmodel.points_moved"] += args[0][0].size * _word_steps(args[1])
            if is_iter:
                out = _TracedIter(tracer, out, counts_items)
            if parent >= 0:
                spans[parent][4] += (t0 - h0) + (perf_counter() - t1)
            return out

        return traced

    def _series_stats(self, coeffs) -> None:
        c = self.counts
        c["series.max_order"] = max(c["series.max_order"], len(coeffs) - 1)
        bits = max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in coeffs)
        c["series.coeff_bits_max"] = max(c["series.coeff_bits_max"], bits)

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent, _h in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, t0, t1, _p, hook), c in zip(self.spans, child):
            out[layer] += (t1 - t0) - c - hook
        return out

    def root_time(self, since: int = 0) -> float:
        """Time covered by top-level spans recorded from index `since` on."""
        return sum(t1 - t0 for _l, t0, t1, parent, _h in self.spans[since:] if parent < 0)

    def summary(self) -> dict:
        out = dict(self.counts)
        out.update(self.times)
        for layer, s in self.self_times().items():
            out[f"{layer}.self_s"] = s
        return out


def _route_param(fn):
    """(position, default) of fn's `route` parameter, or (None, None)."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    if "route" not in names:
        return None, None
    pos = names.index("route")
    defaults = fn.__defaults__ or ()
    first_default = len(names) - len(defaults)
    return pos, defaults[pos - first_default] if pos >= first_default else None


def _word_steps(word) -> int:
    """Permutation applications in a word after merging adjacent letters."""
    merged = []
    for idx, exp in word:
        if merged and merged[-1][0] == idx:
            exp += merged.pop()[1]
        if exp:
            merged.append((idx, exp))
    return sum(abs(e) for _i, e in merged)


class _TracedIter:
    """Records one ncpart span per item an enumerator produces."""

    __slots__ = ("tracer", "it", "count")

    def __init__(self, tracer, it, count):
        self.tracer, self.it, self.count = tracer, iter(it), count

    def __iter__(self):
        return self

    def __next__(self):
        h0 = perf_counter()
        spans, stack = self.tracer.spans, self.tracer.stack
        parent = stack[-1] if stack else -1
        span = ["ncpart", 0.0, 0.0, parent, 0.0]
        spans.append(span)
        stack.append(len(spans) - 1)
        t0 = perf_counter()
        try:
            item = next(self.it)
        finally:
            t1 = perf_counter()
            stack.pop()
            span[1], span[2] = t0, t1
            if parent >= 0:
                spans[parent][4] += (t0 - h0) + (perf_counter() - t1)
        if self.count:
            self.tracer.counts["ncpart.partitions_enumerated"] += 1
        return item
