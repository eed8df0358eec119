"""Span tracer installed over cramerwold module attributes.

The traced run swaps selected module attributes for wrappers that record one
span per call (name, start, end, parent) and add work counters read from the
call's arguments and return value. Spans stay in memory until the run ends.
No file of the package is edited; ``remove`` puts the originals back.

Each wrapped attribute is the binding its caller actually looks up: for
example ``cli.cw2_sample_sample`` (imported by name into ``cli``) rather than
``distance.cw2_sample_sample``, and ``kernels.sum_phi_cross`` (looked up
through the ``kernels`` module by ``distance``).
"""

import importlib
import math
import time
from collections import Counter

# A span's layer is the part of its name before the first dot.
LAYERS = ("cli", "data", "distance", "phi", "kernels", "oracle", "normality", "mlp", "training")


def _cells(args, kwargs, result):
    return {"data.load_csv.cells": result.points.size}


def _pre_clamp(args, kwargs, result):
    return {"distance.pre_clamp_negative": int(result.pre_clamp < 0.0)}


def _cross_pairs(args, kwargs, result):
    return {"kernels.sum_phi_cross.pairs": args[0].shape[0] * args[1].shape[0]}


def _pair_d2(args, kwargs, result):
    # _pair_d2_chunk(xc, y, nxc, ny): Gram product (2*r*k*dim) plus the
    # add, scale, subtract and clamp per element. Counted, not measured.
    rows, dim = args[0].shape
    cols = args[1].shape[0]
    return {
        "kernels.pair_d2.pairs": rows * cols,
        "kernels.pair_d2.flops_computed": rows * cols * (2 * dim + 4),
    }


def _self_pairs(key):
    def count(args, kwargs, result):
        return {key: args[0].shape[0] ** 2}
    return count


def _elems(key, pos):
    def count(args, kwargs, result):
        return {key: args[pos].size}
    return count


def _mc_pair_terms(args, kwargs, result):
    ndir, n = args[0].shape
    k = args[1].shape[1]
    return {"oracle.mc.terms": ndir * (n * (n - 1) // 2 + k * (k - 1) // 2 + n * k)}


def _mc_normal_terms(args, kwargs, result):
    ndir, n = args[0].shape
    return {"oracle.mc.terms": ndir * (n * (n - 1) // 2 + n)}


def _step(args, kwargs, result):
    cost = result[1]
    eps_log = kwargs.get("eps_log", 1e-12)
    return {
        "training.steps": 1,
        "training.eps_log_floor_hits": int(not cost.cw_squared > eps_log),
        "training.nonfinite_loss": int(not math.isfinite(cost.total)),
    }


def _clip(args, kwargs, result):
    # _clip_grads hands back its input list unless it rescaled it.
    return {"training.clip_events": int(result is not args[0])}


def _record(args, kwargs, result):
    return {"training.eps_log_floor_hits": int(not result.cw_pre_log > args[3].eps_log)}


def _phi_values(module):
    # phi_values(dim, s, mode) evaluates the asymptotic form inline and
    # dispatches every other mode to the branch functions wrapped below.
    asym = getattr(module, "MODE_ASYMPTOTIC", None)

    def name(args):
        return "phi.asymptotic" if args[2] == asym else "phi.dispatch"

    def count(args, kwargs, result):
        return {"phi.asymptotic.elems": result.size} if args[2] == asym else {}

    return name, count


LABELS = {_phi_values: "phi.asymptotic"}

# (module, attribute, span name, counter); a span name that is a factory
# returns (namer, counter) for the module and reports absent under LABELS.
WRAPS = (
    ("cramerwold.data", "load_csv", "data.load_csv", _cells),
    ("cramerwold.cli", "cw2_sample_sample", "distance.cw2_sample_sample", _pre_clamp),
    ("cramerwold.cli", "cw2_sample_normal", "distance.cw2_sample_normal", _pre_clamp),
    ("cramerwold.training", "cw2_sample_normal", "distance.cw2_sample_normal", _pre_clamp),
    ("cramerwold.kernels", "sum_phi_cross", "kernels.sum_phi_cross", _cross_pairs),
    ("cramerwold.kernels", "sum_phi_norms", "kernels.sum_phi_norms", None),
    ("cramerwold._vectorized", "_pair_d2_chunk", "kernels.pair_d2", _pair_d2),
    ("cramerwold.kernels", "cw_normal_asym_grad", "kernels.cw_normal_asym_grad",
     _self_pairs("kernels.cw_normal_asym_grad.pairs")),
    ("cramerwold.kernels", "mardia_sums", "kernels.mardia_sums",
     _self_pairs("kernels.mardia_sums.pairs")),
    ("cramerwold._vectorized", "phi_values", _phi_values, None),
    ("cramerwold._vectorized", "_phi_series_vec", "phi.series", _elems("phi.series.elems", 1)),
    ("cramerwold._vectorized", "_phi_expansion_vec", "phi.expansion",
     _elems("phi.expansion.elems", 1)),
    ("cramerwold._vectorized", "_phi_quad_vec", "phi.quadrature",
     _elems("phi.quadrature.elems", 1)),
    ("cramerwold._vectorized", "_phi_bessel2_vec", "phi.bessel2", _elems("phi.bessel2.elems", 0)),
    ("cramerwold.oracle", "cw2_monte_carlo", "oracle.cw2_monte_carlo", None),
    ("cramerwold.oracle", "cw2_normal_monte_carlo", "oracle.cw2_normal_monte_carlo", None),
    ("cramerwold.oracle", "sample_directions", "oracle.sample_directions", None),
    ("cramerwold.kernels", "mc_pair_values", "oracle.mc_pair_values", _mc_pair_terms),
    ("cramerwold.kernels", "mc_normal_values", "oracle.mc_normal_values", _mc_normal_terms),
    ("cramerwold.training", "mardia", "normality.mardia", None),
    ("cramerwold.mlp", "_forward_stack", "mlp.forward", None),
    ("cramerwold.mlp", "_backward_stack", "mlp.backward", None),
    ("cramerwold.mlp", "adam_step", "mlp.adam_step", None),
    ("cramerwold.mlp", "replace_params", "mlp.replace_params", None),
    ("cramerwold.training", "cost_and_grad", "training.cost_and_grad", _step),
    ("cramerwold.training", "_clip_grads", "training.clip_grads", _clip),
    ("cramerwold.training", "_record", "training.record", _record),
)


class Tracer:
    """Records nested spans and work counters while installed.

    ``spans[i]`` is ``(parent index or None, name, start, end)``; a span's
    parent is the span that was open when it started.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = set()        # span names whose target was not found
        self.broken = set()        # span names whose counter raised
        self._stack = [None]
        self._saved = []

    def span(self, name):
        return _Span(self, name)

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, self._stack[-2]

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (parent, name, start, end)

    def install(self):
        for module_name, attr, name, counter in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(LABELS.get(name, name))
                continue
            if callable(name):
                name, counter = name(module)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid, parent, span_name, start)
            if counter is not None:
                try:
                    tracer.counts.update(counter(args, kwargs, result))
                except Exception:  # a changed signature loses the counter, not the run
                    tracer.broken.add(span_name)
            return result

        return wrapper

    def totals(self):
        """Per span name: (call count, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, (_, name, start, end) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start) - child[sid])
        return out


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False
