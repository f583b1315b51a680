"""Traced launcher for one stfusion CLI stage.

    python3 benchmarks/tracer.py SPANS_JSON <stfusion arguments...>

Wraps the public functions of stfusion's modules, each under every name its
callers look it up by, then runs ``stfusion.cli.main`` with the given
arguments. Each wrapped call records a span ``[name, parent, start, end]``
(``parent`` is the index of the enclosing span, -1 at top level). Backward
closures of tensor ops are wrapped too, so ``backward`` keeps as self time
only its tape walk. Spans stay in memory and are written to SPANS_JSON when
the stage ends, together with counters computed from tensor shapes, the
bytes the stage pickled for its worker processes and the measured cost of
one span. The process exits with the CLI's exit code.

    python3 benchmarks/tracer.py --no-spans OUT_JSON <stfusion arguments...>

runs the stage with only the pickle-byte counter installed (used for
``oracle --jobs 2``, whose timing must stay untraced).
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

FLOAT_BYTES = 8

# Tensor ops named in the benchmark's per-layer metrics; every other op of
# stfusion.tensor is timed under "tensor.elementwise".
NAMED_OPS = {
    "conv2d_spatial": "tensor.conv2d",
    "conv1d_temporal": "tensor.conv1d",
    "relu": "tensor.relu",
    "concat_channels": "tensor.concat",
    "pool_and_classify": "tensor.pool_classify",
    "softmax_cross_entropy": "tensor.xent",
    "avg_pool_spatial": "tensor.avg_pool",
}
ELEMENTWISE_OPS = ("add", "sub", "neg", "mul", "scale", "add_const", "scale_t",
                   "log", "sigmoid", "sum_all", "sumsq", "zeros")


class Tracer:
    """Span recorder: one list of spans and a stack of the open ones."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {"conv_madds": 0, "conv_window_bytes": 0,
                         "backward_nodes": [], "forward_madds_per_clip": 0}
        self.closures_run = 0

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        if self.stack and self.stack[-1] == index:
            self.stack.pop()
        elif index in self.stack:  # a generator closed out of order after an exception
            self.stack.remove(index)

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, fn, name):
        """Wrap `fn` so that each call records a span called `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def timed_backward(self, out, name, on_run=None):
        """Replace a result tensor's backward closure with a timed one."""
        fn = out._backward
        if fn is None:
            return out

        def bwd(go):
            self.closures_run += 1
            if on_run is not None:
                on_run()
            index = self.open(name)
            try:
                fn(go)
            finally:
                self.close(index)

        out._backward = bwd
        return out

    def dump(self, path, extra):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, f)


def _rebind(original, wrapper):
    """Point every stfusion module-level name bound to `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name == "stfusion" or name.startswith("stfusion."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _conv_counts(x, kernel):
    """(multiply-adds, input-window bytes, output-grad-window bytes) of one conv."""
    n, c, t, h, w = x.shape
    o = kernel.shape[0]
    taps = 1
    for k in kernel.shape[2:]:
        taps *= k
    return (n * o * t * h * w * c * taps,
            n * c * t * h * w * taps * FLOAT_BYTES,
            n * o * t * h * w * taps * FLOAT_BYTES)


def install(tracer):
    """Wrap stfusion's public functions; returns nothing, patches in place."""
    from stfusion import cli, data, gates, lab, model
    from stfusion import tensor as T

    counters = tracer.counters

    def op(fn, name):
        def call(*args, **kwargs):
            index = tracer.open(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            return tracer.timed_backward(out, name + ".bwd")
        return functools.wraps(fn)(call)

    def conv(fn, name):
        def call(x, kernel, padding):
            madds, win_bytes, gwin_bytes = _conv_counts(x, kernel)
            counters["conv_madds"] += madds
            counters["conv_window_bytes"] += win_bytes
            index = tracer.open(name + ".fwd")
            try:
                out = fn(x, kernel, padding)
            finally:
                tracer.close(index)

            def on_backward():
                if kernel.requires_grad:
                    counters["conv_madds"] += madds
                    counters["conv_window_bytes"] += win_bytes
                if x.requires_grad:
                    counters["conv_madds"] += madds
                    counters["conv_window_bytes"] += gwin_bytes

            return tracer.timed_backward(out, name + ".bwd", on_backward)
        return functools.wraps(fn)(call)

    for attr, name in NAMED_OPS.items():
        original = getattr(T, attr)
        wrap = conv if attr.startswith("conv") else op
        _rebind(original, wrap(original, name))
    for attr in ELEMENTWISE_OPS:
        original = getattr(T, attr)
        _rebind(original, op(original, "tensor.elementwise"))

    bn_call = T.BatchNorm.__call__

    def batch_norm(self, x, training):
        name = "tensor.bn_train" if training else "tensor.bn_eval"
        index = tracer.open(name + ".fwd")
        try:
            out = bn_call(self, x, training)
        finally:
            tracer.close(index)
        return tracer.timed_backward(out, name + ".bwd")

    T.BatchNorm.__call__ = functools.wraps(bn_call)(batch_norm)
    T.SGD.step = tracer.span(T.SGD.step, "tensor.sgd_step")

    backward = T.backward

    def traced_backward(loss):
        before = tracer.closures_run
        index = tracer.open("tensor.backward")
        try:
            backward(loss)
        finally:
            tracer.close(index)
        counters["backward_nodes"].append(tracer.closures_run - before)

    _rebind(backward, functools.wraps(backward)(traced_backward))

    # model: the forward pass, split by mode; materialize; recover; construction
    net_forward = model.TemplateNetwork.forward

    def forward(self, batch, gates_sample, training):
        madds_before = counters["conv_madds"]
        index = tracer.open("model.forward_train" if training else "model.forward_eval")
        try:
            out = net_forward(self, batch, gates_sample, training)
        finally:
            tracer.close(index)
        per_clip = (counters["conv_madds"] - madds_before) // batch.shape[0]
        counters["forward_madds_per_clip"] = max(counters["forward_madds_per_clip"], per_clip)
        return out

    model.TemplateNetwork.forward = functools.wraps(net_forward)(forward)
    model.TemplateNetwork.__init__ = tracer.span(model.TemplateNetwork.__init__, "model.build_template")
    model.Subnetwork.__init__ = tracer.span(model.Subnetwork.__init__, "model.materialize")
    for fn, name in (
        (model.recover_strategy, "model.recover_strategy"),
        (gates.sample_gates_concrete, "gates.sample_concrete"),
        (gates.sample_gates_hard, "gates.sample_hard"),
        (gates.objective, "gates.objective"),
        (data.generate_synthetic, "data.generate"),
        (data.save, "data.save"),
        (data.load, "data.load"),
        (data.split, "data.split"),
        (lab.train_template, "lab.train_template"),
        (lab.template_accuracy, "lab.template_accuracy"),
        (lab._epoch_nll, "lab.epoch_nll"),
        (lab.sample_strategies, "lab.sample_strategies"),
        (lab.evaluate_strategy, "lab.evaluate_strategy"),
        (lab.train_standalone, "lab.train_standalone"),
        (lab.rank_correlation, "lab.rank_correlation"),
        (lab.write_evaluations_csv, "lab.write_evaluations"),
        (lab.layer_preference_report, "lab.report"),
        (cli._save_weights, "cli.save_weights"),
        (cli._load_weights, "cli.load_weights"),
    ):
        _rebind(fn, tracer.span(fn, name))

    # data.batches is a generator: time each next() as "data.batches". Inside
    # train_template the generator's lifetime is also one epoch span, warmup or
    # main by its epoch argument.
    batches = data.batches
    warmup_epochs = []

    train_template = lab.train_template

    def traced_train_template(net, params, train, val, schedule, cfg):
        warmup_epochs.append(schedule.warmup_epochs)
        try:
            return train_template(net, params, train, val, schedule, cfg)
        finally:
            warmup_epochs.pop()

    _rebind(train_template, functools.wraps(train_template)(traced_train_template))

    def traced_batches(dataset, batch_size, seed, epoch):
        generator = batches(dataset, batch_size, seed, epoch)
        epoch_name = None
        if tracer.current() == "lab.train_template":
            epoch_name = "lab.warmup_epoch" if epoch < warmup_epochs[-1] else "lab.main_epoch"
        epoch_index = tracer.open(epoch_name) if epoch_name else None
        try:
            while True:
                index = tracer.open("data.batches")
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item
        finally:
            if epoch_index is not None:
                tracer.close(epoch_index)

    _rebind(batches, functools.wraps(batches)(traced_batches))


def count_pickled_bytes():
    """Count the bytes this process pickles for other processes; returns the tally.

    multiprocessing pickles every object it sends (a process pool's call items,
    spawn preparation data) through ``ForkingPickler.dumps`` or
    ``reduction.dump``. Only calls made in this process are counted: forked
    workers inherit the patch, but their tallies are not ours.
    """
    from multiprocessing import reduction

    tally = [0]
    pid = os.getpid()
    dumps = reduction.ForkingPickler.dumps

    def counted_dumps(cls, obj, protocol=None):
        buf = dumps(obj, protocol)
        if os.getpid() == pid:
            tally[0] += len(buf)
        return buf

    def counted_dump(obj, file, protocol=None):
        file.write(reduction.ForkingPickler.dumps(obj, protocol))

    reduction.ForkingPickler.dumps = classmethod(counted_dumps)
    reduction.dump = counted_dump
    return tally


def span_cost(calls=20000, rounds=5):
    """Seconds one span adds to a call: a wrapped no-op minus a bare one, median of rounds."""
    probe = Tracer()

    def noop():
        pass

    wrapped = probe.span(noop, "probe")
    costs = []
    for _ in range(rounds):
        probe.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((middle - start) - (time.perf_counter() - middle)) / calls)
    return statistics.median(costs)


def main(argv):
    spans = argv[:1] != ["--no-spans"]
    out_path, cli_args = (argv[0], argv[1:]) if spans else (argv[1], argv[2:])
    start = time.perf_counter()
    from stfusion import cli

    pickled = count_pickled_bytes()
    tracer = Tracer()
    if spans:
        install(tracer)
    imported = time.perf_counter()
    code = 0
    try:
        cli.main(args=cli_args, prog_name="stfusion")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    end = time.perf_counter()
    extra = {"start": start, "imported": imported, "end": end, "pickled_bytes": pickled[0]}
    if spans:
        extra["span_cost_s"] = span_cost()
    tracer.dump(out_path, extra)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
