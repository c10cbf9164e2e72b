"""Outside-in span recorder for the traced run.

The traced run replaces public functions at the module attributes through
which the package calls them, so every call between layers passes through a
wrapper that records a span (layer, name, parent, start, end) and the counts
visible at that boundary.  Nothing under ``src/`` changes: the wrappers are
installed in the traced process only, after its untraced reference job, and
removed again by the function ``install`` returns.

Counts are taken from arguments and results after the wrapped call returns,
so they cost the enclosing span (and show in ``trace.overhead_s``), never the
span they describe.  Byte counts are derived from array shapes and labelled
"computed": they are what the layer reads and writes at its boundary, not
what the memory system moved.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from summary import self_times

LAYERS = ("cli", "estimators", "distributions", "pseudosample", "kernels", "lstat")

_F8 = 8  # bytes per float64 / int64


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _kernel_counts(args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    k = int(_arg(args, kwargs, 1, "k"))
    return {
        "calls": 1,
        "tuples": int(x.shape[0]),
        f"tuples.k{k}": int(x.shape[0]),
        "order": k,
        "bytes": int(x.size + out.size) * _F8,
    }


def _pseudosample_counts(args, kwargs, out):
    # arrays the layer materializes per item: k int64 indices, the k gathered
    # values handed to the kernel, and one pseudo-sample value
    k = int(_arg(args, kwargs, 1, "k"))
    return {"bytes": int(out.size) * (2 * k + 1) * _F8}


def _lstat_counts(lstat, at):
    # ``at`` is the position of the sorted values; the trim follows them
    def counts(args, kwargs, out):
        values = _arg(args, kwargs, at, "sorted_values")
        lo, hi = lstat.retained_window(len(values), _arg(args, kwargs, at + 1, "trim"))
        return {"items": len(values), "window": hi - lo}

    return counts


def _estimate_counts(args, kwargs, out):
    return {"items": int(out.pseudo_n)}


def _draw_counts(args, kwargs, out):
    return {"draws": int(_arg(args, kwargs, 1, "n"))}


def targets():
    """(owner, attribute, layer, counts) for every boundary the traced run wraps.

    ``hl_central_moment`` and ``trimmed_sd_pairwise`` each build exactly one
    pseudo-sample, so their ``pseudo_n`` is the item count; the standardized
    moment is wrapped without counts because its two inner central-moment
    calls (through the ``estimators`` module global) are counted already.
    """
    from hlmoments import cli, distributions, estimators, lstat, pseudosample

    return [
        (pseudosample, "kernel_values", "kernels", _kernel_counts),
        (estimators, "build_pseudosample", "pseudosample", _pseudosample_counts),
        (estimators, "apply_lestimator", "lstat", _lstat_counts(lstat, 1)),
        (estimators, "trimmed_mean", "lstat", _lstat_counts(lstat, 0)),
        (estimators, "hl_central_moment", "estimators", _estimate_counts),
        (cli, "hl_central_moment", "estimators", _estimate_counts),
        (cli, "hl_standardized_moment", "estimators", None),
        (cli, "trimmed_sd_pairwise", "estimators", _estimate_counts),
        (cli, "trimmed_sd_symmetric", "estimators", None),
        (distributions.Family, "sample", "distributions", _draw_counts),
        (cli, "main", "cli", None),
    ]


class Recorder:
    """Spans of one traced process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []  # [job, parent, layer, name, start, end, counts]
        self.job = None
        self._stack = []

    def wrap(self, layer, name, fn, counts):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [self.job, stack[-1] if stack else None, layer, name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[4] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if counts is not None:
                span[6] = counts(args, kwargs, out)
            return out

        return traced

    def install(self, boundaries):
        """Wrap every boundary; returns a function that restores the originals."""
        saved = []
        for owner, attr, layer, counts in boundaries:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(layer, f"{getattr(owner, '__name__', owner)}.{attr}", fn, counts))

        def restore():
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

        return restore

    def per_job(self):
        """{job: Counter}: per-layer self time and summed counts of each job.

        A span whose counts carry an ``order`` also adds its self time to
        ``<layer>.self_s.k<order>``.
        """
        selfs = self_times([(s[1], s[4], s[5]) for s in self.spans])
        jobs = defaultdict(Counter)
        for span, dt in zip(self.spans, selfs):
            job, _, layer, _, _, _, counts = span
            acc = jobs[job]
            acc[f"{layer}.self_s"] += dt
            for key, value in (counts or {}).items():
                if key == "order":
                    acc[f"{layer}.self_s.k{value}"] += dt
                else:
                    acc[f"{layer}.{key}"] += value
        return jobs

    def write(self, path):
        """Write the spans as JSON lines; ``parent`` is the line index of the enclosing span."""
        keys = ("job", "parent", "layer", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
