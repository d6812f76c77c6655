"""Layer tracing from outside the program, and the per-layer metrics.

``Tracer.install`` rebinds the names that callers actually look up (for
example ``votfield.experiments.draw_noise``, because ``from .field import
draw_noise`` copies the binding into ``experiments``) to wrappers that record
a span per call: layer name, start, end, parent span and the figure run (op)
it belongs to. A name that no longer exists is reported as an absent layer
instead of failing. Spans stay in memory and are written out when the child
ends; ``layer_metrics`` turns them into per-figure-run numbers.
"""

import functools
import importlib
import inspect
import time
from pathlib import Path


def _engine_attrs(sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs).arguments
    noise = bound.get("noise3", bound.get("noise"))
    n = noise.shape[-1]
    return {"trial_steps": noise.size // n, "n": n}


def _nbytes(sig, args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _seed(sig, args, kwargs, result):
    return {"seed": int(result)}


def _file_bytes(sig, args, kwargs, result):
    paths = result if isinstance(result, (tuple, list)) else (result,)
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


# (layer, module, attribute, attrs): the module is the one whose namespace
# the caller reads the name from
HOOKS = (
    ("backends.evolve_batch", "votfield.backends", "evolve_batch", _engine_attrs),
    ("backends.evolve_states", "votfield.backends", "evolve_states", _engine_attrs),
    ("backends.evolve_summary", "votfield.backends", "evolve_summary", _engine_attrs),
    ("field.evolve", "votfield.experiments", "evolve", None),
    ("field.draw_noise", "votfield.experiments", "draw_noise", _nbytes),
    ("field.draw_noise", "votfield.field", "draw_noise", _nbytes),
    ("field.build_kernel", "votfield.experiments", "build_kernel", None),
    ("field.build_kernel", "votfield.field", "build_kernel", None),
    ("stimulus.compose", "votfield.experiments", "compose_inputs", None),
    ("experiments.trial_seed", "votfield.experiments", "trial_seed", _seed),
    ("experiments.trial_seed", "votfield.cli", "trial_seed", _seed),
    ("experiments.aggregate", "votfield.experiments", "aggregate_trials", None),
    ("experiments.run_trials", "votfield.experiments", "run_trials", None),
    ("readout", "votfield.experiments", "readout_argmax", None),
    ("readout", "votfield.experiments", "readout_centroid", None),
    ("readout", "votfield.cli", "trial_metrics", None),
    ("outputs.csv", "votfield.cli", "emit_sweep_csv", _file_bytes),
    ("outputs.csv", "votfield.cli", "emit_trajectory_csv", _file_bytes),
    ("outputs.svg", "votfield.cli", "render_plots", _file_bytes),
)

ENGINE_LAYERS = ("backends.evolve_batch", "backends.evolve_states", "backends.evolve_summary")


class Tracer:
    """In-memory span recorder. Spans are [id, parent, op, layer, t0, t1, attrs]."""

    def __init__(self):
        self.spans = []
        self.installed = set()
        self.absent = []
        self._stack = []
        self._op = None

    def install(self):
        for layer, module_name, attr, attrs in HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer, attrs))
            self.installed.add(layer)

    def _wrap(self, fn, layer, attrs):
        sig = inspect.signature(fn) if attrs is _engine_attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [len(self.spans), self._stack[-1], self._op, layer, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[6] = attrs(sig, args, kwargs, result)
            return result

        return traced

    def run_op(self, op, fn, *args):
        """Call fn(*args) as the root span "cli" of figure run `op`."""
        span = [len(self.spans), None, op, "cli", 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        self._op = op
        span[4] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
            self._op = None


# per-layer metric -> (unit, layers it needs). Values are per figure run,
# except the ratios; times are plain span durations, not scaled to the
# reference host speed like the end-to-end times.
PER_LAYER = {
    "import.s": ("s", ()),
    "backends.evolve_batch_calls": ("count", ("backends.evolve_batch",)),
    "backends.evolve_batch_s": ("s", ("backends.evolve_batch",)),
    "backends.trial_steps": ("count", ENGINE_LAYERS),
    "backends.us_per_trial_step": ("us", ENGINE_LAYERS),
    "backends.lateral_flops": ("flop", ENGINE_LAYERS),
    "field.evolve_calls": ("count", ("field.evolve",)),
    "field.evolve_s": ("s", ("field.evolve",)),
    "field.draw_noise_calls": ("count", ("field.draw_noise",)),
    "field.draw_noise_s": ("s", ("field.draw_noise",)),
    "field.noise_bytes": ("B", ("field.draw_noise",)),
    "field.noise_draws_per_trial": ("ratio", ("field.draw_noise", "experiments.trial_seed")),
    "field.build_kernel_s": ("s", ("field.build_kernel",)),
    "stimulus.compose_s": ("s", ("stimulus.compose",)),
    "experiments.trial_seed_calls": ("count", ("experiments.trial_seed",)),
    "experiments.trial_seed_s": ("s", ("experiments.trial_seed",)),
    "experiments.aggregate_s": ("s", ("experiments.aggregate",)),
    "experiments.run_trials_self_s": ("s", ("experiments.run_trials",)),
    "readout.calls": ("count", ("readout",)),
    "readout.s": ("s", ("readout",)),
    "outputs.csv_s": ("s", ("outputs.csv",)),
    "outputs.csv_bytes": ("B", ("outputs.csv",)),
    "outputs.svg_s": ("s", ("outputs.svg",)),
    "outputs.svg_bytes": ("B", ("outputs.svg",)),
    "cli.self_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
    "proc.cpu_util": ("ratio", ()),
}


def layer_metrics(span_sets, installed):
    """Per-figure-run layer metrics from the spans of traced children (one
    span list per child).

    Returns {name: value}, with None for a metric whose layers were all absent.
    The caller adds import.s, trace.overhead_frac and proc.cpu_util.
    """
    n_ops = 0
    total, calls, attr_sum, self_time = {}, {}, {}, {}
    draws, flops, n_seeds = 0, 0, 0
    for spans in span_sets:
        child_time, seeds = {}, {}
        for sid, parent, op, layer, t0, t1, attrs in spans:
            dur = t1 - t0
            total[layer] = total.get(layer, 0.0) + dur
            calls[layer] = calls.get(layer, 0) + 1
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + dur
            for key in ("bytes", "trial_steps"):
                if attrs and key in attrs:
                    attr_sum[(layer, key)] = attr_sum.get((layer, key), 0) + attrs[key]
            if layer == "cli":
                n_ops += 1
            elif layer in ENGINE_LAYERS and attrs:
                flops += 2 * attrs["n"] ** 2 * attrs["trial_steps"]
            elif layer == "field.draw_noise":
                draws += 1
            elif layer == "experiments.trial_seed" and attrs:
                seeds.setdefault(op, set()).add(attrs["seed"])
        for sid, parent, op, layer, t0, t1, attrs in spans:
            if layer in ("cli", "experiments.run_trials"):
                self_time[layer] = (self_time.get(layer, 0.0)
                                    + (t1 - t0) - child_time.get(sid, 0.0))
        n_seeds += sum(len(v) for v in seeds.values())

    per_op = 1.0 / max(n_ops, 1)
    steps = sum(attr_sum.get((lay, "trial_steps"), 0) for lay in ENGINE_LAYERS)
    engine_s = sum(total.get(lay, 0.0) for lay in ENGINE_LAYERS)
    values = {
        "backends.evolve_batch_calls": calls.get("backends.evolve_batch", 0) * per_op,
        "backends.evolve_batch_s": total.get("backends.evolve_batch", 0.0) * per_op,
        "backends.trial_steps": steps * per_op,
        "backends.us_per_trial_step": engine_s / steps * 1e6 if steps else 0.0,
        "backends.lateral_flops": flops * per_op,
        "field.evolve_calls": calls.get("field.evolve", 0) * per_op,
        "field.evolve_s": total.get("field.evolve", 0.0) * per_op,
        "field.draw_noise_calls": draws * per_op,
        "field.draw_noise_s": total.get("field.draw_noise", 0.0) * per_op,
        "field.noise_bytes": attr_sum.get(("field.draw_noise", "bytes"), 0) * per_op,
        "field.noise_draws_per_trial": draws / n_seeds if n_seeds else 0.0,
        "field.build_kernel_s": total.get("field.build_kernel", 0.0) * per_op,
        "stimulus.compose_s": total.get("stimulus.compose", 0.0) * per_op,
        "experiments.trial_seed_calls": calls.get("experiments.trial_seed", 0) * per_op,
        "experiments.trial_seed_s": total.get("experiments.trial_seed", 0.0) * per_op,
        "experiments.aggregate_s": total.get("experiments.aggregate", 0.0) * per_op,
        "experiments.run_trials_self_s":
            self_time.get("experiments.run_trials", 0.0) * per_op,
        "readout.calls": calls.get("readout", 0) * per_op,
        "readout.s": total.get("readout", 0.0) * per_op,
        "outputs.csv_s": total.get("outputs.csv", 0.0) * per_op,
        "outputs.csv_bytes": attr_sum.get(("outputs.csv", "bytes"), 0) * per_op,
        "outputs.svg_s": total.get("outputs.svg", 0.0) * per_op,
        "outputs.svg_bytes": attr_sum.get(("outputs.svg", "bytes"), 0) * per_op,
        "cli.self_s": self_time.get("cli", 0.0) * per_op,
    }
    for name, (unit, layers) in PER_LAYER.items():
        if layers and not any(lay in installed for lay in layers):
            values[name] = None
    return values
