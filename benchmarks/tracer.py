"""Span tracer for the benchmark's traced run.

The tracer wraps the public module functions of each qtanner layer at
run time, records one span per call (name, start, end, parent span,
trace id) plus a few decoder and classifier counts, and puts every
original function back when its ``installed()`` block exits.  Nothing in
``src/`` knows about it, so the untraced runs execute the program as
shipped.

The trace id of a span is the stream id of the trial it belongs to,
which is the ``seed`` column of the CSV.  Every trial starts with
``noise.make_rng(master_seed, stream)``, so that call sets the current
id; spans outside any trial (the root, the build and the CSV write) get
no id.

Layer map: each span, the end-to-end metric a change to it should move,
and the workload where it weighs most.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, layer, end-to-end metric it should move, workload where it weighs most)
LAYER_MAP = (
    ("cli.main", "cli", "decodes_per_s", "ref-sweep"),
    ("cli.build_instance", "cayley/codes/tanner", "setup_s, peak_rss_mb", "ref-*"),
    ("decoder.get_cache", "decoder", "setup_s, peak_rss_mb", "ref-*"),
    ("noise.run_single_shot_trial", "noise", "decodes_per_s", "ref-sweep"),
    ("noise.run_multiround", "noise", "decodes_per_s", "z8-multiround, ref-multiround"),
    ("noise.sample_errors", "noise", "decodes_per_s", "z8-multiround"),
    ("tanner.syndrome_bits_z", "tanner", "decodes_per_s", "z8-multiround"),
    ("decoder.sequential_decode", "decoder", "decodes_per_s", "z8-multiround"),
    ("decoder.parallel_decode", "decoder", "decodes_per_s", "ref-multiround"),
    ("decoder.initial_mismatch", "decoder", "decodes_per_s", "z8-multiround"),
    ("decoder.sequential_mismatch_decomposition", "decoder", "decodes_per_s",
     "z8-multiround, ref-sweep"),
    ("decoder.parallel_mismatch_decomposition", "decoder", "decodes_per_s",
     "ref-multiround, ref-sweep"),
    ("tanner.classify_residual", "tanner", "decodes_per_s",
     "ref-sweep (no change predicted on multiround)"),
    ("gf2.rowspace_contains", "gf2", "decodes_per_s",
     "ref-sweep (no change predicted on multiround)"),
    ("tanner.reduced_weight", "tanner", "decodes_per_s", "ref-sweep"),
    ("noise.write_csv", "noise", "decodes_per_s", "z8-multiround"),
)
SPAN_NAMES = tuple(row[0] for row in LAYER_MAP)

# spans that are not part of any one trial
UNSCOPED = frozenset({"cli.main", "cli.build_instance", "noise.write_csv"})

COUNTERS = (
    "decoder.decodes",
    "decoder.steps_applied",
    "decoder.worklist_initial",
    "decoder.zhat_initial_weight",
    "decoder.zhat_final_weight",
    "decoder.cleared_ratio",
    "tanner.class.corrected",
    "tanner.class.detected",
    "tanner.class.logical",
)

# what the hooks count; decoder.cleared_ratio is derived from decoder.cleared
_RAW_COUNTS = tuple(c for c in COUNTERS if c != "decoder.cleared_ratio") + ("decoder.cleared",)

TRACE_ID_SOURCE = "noise.make_rng"


@dataclass(frozen=True, slots=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: int  # -1 for a root span
    trace_id: int | None
    self_ns: int


@dataclass
class Tracer:
    """Records spans and counts for the calls made while installed.

    ``modules`` maps the short layer names used in span names
    (``cli``, ``noise``, ``decoder``, ``tanner``, ``gf2``) to the
    imported modules.
    """

    modules: dict
    spans: list[Span] = field(default_factory=list, init=False)
    counts: dict = field(default_factory=lambda: dict.fromkeys(_RAW_COUNTS, 0), init=False)
    _stack: list = field(default_factory=list, init=False, repr=False)
    _trace_id: int | None = field(default=None, init=False)

    def targets(self):
        for name in SPAN_NAMES + (TRACE_ID_SOURCE,):
            mod_name, attr = name.split(".", 1)
            yield name, self.modules[mod_name], attr

    @contextmanager
    def installed(self):
        """Wrap every traced function; always restore the originals."""
        originals = []
        try:
            for name, mod, attr in self.targets():
                fn = getattr(mod, attr)
                if is_wrapper(fn):
                    raise RuntimeError(f"{name} is already wrapped")
                originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def wrapped_names(self) -> list[str]:
        """Traced functions currently replaced by a wrapper (any tracer's)."""
        return [name for name, mod, attr in self.targets() if is_wrapper(getattr(mod, attr))]

    def _wrap(self, name: str, fn):
        if name == TRACE_ID_SOURCE:
            def set_trace_id(*args, **kwargs):
                self._trace_id = args[1] if len(args) > 1 else kwargs["stream"]
                return fn(*args, **kwargs)

            set_trace_id._bench_span = name
            return set_trace_id

        hook = _HOOKS.get(name)
        scoped = name not in UNSCOPED
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            # every span started so far is either open or finished
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            trace_id = self._trace_id if scoped else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans.append(Span(span_id, name, start, end, parent, trace_id, dur - frame[1]))
            if hook is not None:
                hook(self.counts, result, args, kwargs)
            return result

        wrapper._bench_span = name
        wrapper.__wrapped__ = fn
        return wrapper

    def exact_counts(self) -> dict:
        """Call counts per span and the decoder/classifier counts; these
        repeat exactly for a fixed workload and seed."""
        calls = {name: 0 for name in SPAN_NAMES}
        for s in self.spans:
            calls[s.name] += 1
        out = {f"{name}.calls": calls[name] for name in SPAN_NAMES}
        c = self.counts
        for key in COUNTERS:
            if key == "decoder.cleared_ratio":
                out[key] = c["decoder.cleared"] / c["decoder.decodes"] if c["decoder.decodes"] else 0.0
            else:
                out[key] = c[key]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,name,start_ns,end_ns,parent_id,trace_id,self_ns\n")
            for s in sorted(self.spans, key=lambda s: s.span_id):
                tid = "" if s.trace_id is None else s.trace_id
                fh.write(
                    f"{s.span_id},{s.name},{s.start_ns},{s.end_ns},{s.parent_id},{tid},{s.self_ns}\n"
                )


def is_wrapper(fn) -> bool:
    return hasattr(fn, "_bench_span")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_decode(counts, result, args, kwargs):
    counts["decoder.decodes"] += 1


def _count_initial(counts, state, args, kwargs):
    counts["decoder.zhat_initial_weight"] += state.zhat.bit_count()
    counts["decoder.worklist_initial"] += len(state.worklist)


def _count_decomposition(counts, result, args, kwargs):
    state = _arg(args, kwargs, 0, "state")
    counts["decoder.steps_applied"] += len(state.steps)
    counts["decoder.zhat_final_weight"] += state.zhat.bit_count()
    counts["decoder.cleared"] += state.zhat == 0


def _count_class(counts, result, args, kwargs):
    counts[f"tanner.class.{result}"] += 1


_HOOKS = {
    "decoder.sequential_decode": _count_decode,
    "decoder.parallel_decode": _count_decode,
    "decoder.initial_mismatch": _count_initial,
    "decoder.sequential_mismatch_decomposition": _count_decomposition,
    "decoder.parallel_mismatch_decomposition": _count_decomposition,
    "tanner.classify_residual": _count_class,
}


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class LayerStats:
    """Span durations and self times pooled over traced jobs, plus the
    exact counts, which every job of a run must repeat."""

    def __init__(self):
        self.durations = {name: array("q") for name in SPAN_NAMES}
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counts: dict | None = None
        self.jobs = 0

    def add(self, tracer: Tracer) -> bool:
        """Pool one traced job; False (and nothing pooled) if its exact
        counts differ from the first job's."""
        counts = tracer.exact_counts()
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            return False
        for s in tracer.spans:
            self.durations[s.name].append(s.end_ns - s.start_ns)
            self.self_ns[s.name] += s.self_ns
        self.jobs += 1
        return True

    def metrics(self) -> dict:
        """Exact counts, per-span p50/p99 latency in microseconds and
        self time as a share of the root span's time."""
        root_ns = sum(self.durations["cli.main"])
        out = dict(self.counts)
        for name in SPAN_NAMES:
            d = sorted(self.durations[name])
            out[f"{name}.us_p50"] = percentile(d, 50) / 1000.0
            out[f"{name}.us_p99"] = percentile(d, 99) / 1000.0
            out[f"{name}.self_share"] = self.self_ns[name] / root_ns if root_ns else 0.0
        return out
