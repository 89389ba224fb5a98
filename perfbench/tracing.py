"""Traced mode: spans and counts recorded by wrapping the program's public
functions from outside.

A wrapped call records one span (id, name, start, end, parent id) and adds
its duration to per-name inclusive and self totals; self time is the span's
duration minus the part its child spans cover. Spans and counts stay in
memory and are written once, when the run ends.

A function imported by name into another module is wrapped where it is
called (for example `pipeline.greedy_decode`, `training.forward_loss`),
because rebinding the defining module's attribute would not reach the
importer's copy. Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []   # [span id, name, start, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def wrap(self, name, fn, before=None, after=None):
        """Return `fn` recording a span per call.

        `name` is a string or a callable (args, kwargs) -> string picked at
        call time. `before(tracer, args, kwargs)` runs ahead of the call and
        `after(tracer, args, kwargs, result)` after it, both outside the
        span's own timing, to update counts.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(tracer, args, kwargs)
            span_id = len(tracer.spans) + len(tracer._stack)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, span_name, tracer.clock(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                duration = end - frame[2]
                tracer.spans.append((span_id, span_name, frame[2], end, parent))
                tracer.calls[span_name] += 1
                tracer.total[span_name] += duration
                tracer.self_time[span_name] += duration - frame[3]
                if tracer._stack:
                    tracer._stack[-1][3] += duration
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace `owner.attr` with a recording wrapper until `restore()`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def unfired(self, names) -> list[str]:
        return sorted(n for n in names if self.calls[n] == 0)

    def write(self, path: Path, extra: dict) -> None:
        """Write spans as JSON lines, then one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(f'{{"id":{span_id},"name":"{name}","start":{start:.9f},'
                         f'"end":{end:.9f},"parent":{parent}}}\n')
            summary = {"calls": dict(self.calls), "counts": dict(self.counts),
                       "inclusive_s": dict(self.total), "self_s": dict(self.self_time),
                       **extra}
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the program's layers
# ---------------------------------------------------------------------------

#: Forward ops with a metric of their own; every other op is "other".
NAMED_OPS = ("matmul", "add", "layer_norm", "softmax", "cross_entropy", "embedding_lookup")
OTHER_OPS = ("neg", "mul", "scale", "relu", "dropout", "reshape", "swapaxes", "tensor_sum", "mean")


def _count_tape(tracer, args, kwargs):
    from metadapt import tensor as T

    tracer.counts["tape_nodes"] += len(T.active_tape())


def _count_matmul(tracer, args, kwargs, out):
    tracer.counts["matmul_flop"] += 2 * out.size * args[0].shape[-1]


def _loss_span(args, kwargs):
    from metadapt import tensor as T

    return "model.forward_loss.train" if T.grad_enabled() else "model.forward_loss.eval"


def _count_decode(tracer, args, kwargs):
    if tracer.inside("model.greedy_decode"):
        dec_in = kwargs["dec_in"] if "dec_in" in kwargs else args[3]
        tracer.counts["decode_logits_calls"] += 1
        tracer.counts["decoder_positions"] += int(dec_in.shape[0] * dec_in.shape[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from metadapt import checkpoint, corpus, model, optim, pipeline, tensor, training

    for op in NAMED_OPS + OTHER_OPS:
        tracer.patch(tensor, op, f"tensor.fwd.{op}",
                     after=_count_matmul if op == "matmul" else None)
    tracer.patch(tensor, "backward", "tensor.backward", before=_count_tape)
    tracer.patch(model.TranslationModel, "decode_logits", "model.decode_logits",
                 before=_count_decode)
    tracer.patch(optim.AdamW, "step", "optim.step")
    for owner in (training, pipeline):
        tracer.patch(owner, "forward_loss", _loss_span)
        tracer.patch(owner, "make_batch", "model.make_batch")
    tracer.patch(training, "make_mixed_batch", "model.make_mixed_batch")
    tracer.patch(pipeline, "greedy_decode", "model.greedy_decode")
    tracer.patch(training, "sample_dlps", "tasks.sample_dlps")
    tracer.patch(training, "build_episode", "tasks.build_episode")
    for fn in ("inner_adapt", "reptile_step", "restore_params", "snapshot_params"):
        tracer.patch(training, fn, f"training.{fn}")
    tracer.patch(pipeline, "supervised_train", "training.supervised_train")
    tracer.patch(pipeline, "evaluate_dlp", "pipeline.evaluate_dlp")
    tracer.patch(pipeline, "corpus_bleu", "metrics.corpus_bleu")
    tracer.patch(pipeline, "chrf", "metrics.chrf")
    tracer.patch(pipeline, "load_datasets", "corpus.load_datasets")
    tracer.patch(corpus, "generate_world", "corpus.generate_world")
    tracer.patch(checkpoint, "load_params", "checkpoint.load_params")


#: Span names each workload must fire; a silent wrapper means the program's
#: call graph moved and the per-layer numbers would read zero for no reason.
FIRES = {
    "common": ["tensor.fwd.matmul", "tensor.fwd.add", "tensor.fwd.layer_norm",
               "tensor.fwd.softmax", "tensor.fwd.cross_entropy",
               "tensor.fwd.embedding_lookup", "corpus.generate_world",
               "corpus.load_datasets"],
    "meta-train": ["tensor.backward", "model.forward_loss.train", "model.forward_loss.eval",
                   "model.make_batch", "optim.step", "tasks.sample_dlps",
                   "tasks.build_episode", "training.inner_adapt", "training.reptile_step",
                   "training.restore_params", "training.snapshot_params",
                   "checkpoint.load_params"],
    "translate": ["model.forward_loss.eval", "model.make_batch", "model.greedy_decode",
                  "model.decode_logits", "pipeline.evaluate_dlp", "metrics.corpus_bleu",
                  "metrics.chrf", "checkpoint.load_params"],
    "pretrain": ["tensor.backward", "model.forward_loss.train", "model.make_mixed_batch",
                 "optim.step", "training.supervised_train"],
}


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer table, from one traced run's totals."""
    tot, own, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    other_ops = [f"tensor.fwd.{op}" for op in OTHER_OPS]
    metrics = {
        "tensor.backward_s": tot["tensor.backward"],
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.tape_nodes": counts["tape_nodes"],
    }
    for op in NAMED_OPS:
        metrics[f"tensor.fwd.{op}_s"] = own[f"tensor.fwd.{op}"]
    metrics["tensor.fwd.other_s"] = sum(own[n] for n in other_ops)
    metrics["tensor.fwd.ops"] = sum(calls[f"tensor.fwd.{op}"] for op in NAMED_OPS + OTHER_OPS)
    metrics["tensor.matmul_gflop"] = counts["matmul_flop"] / 1e9
    metrics.update({
        "model.forward_train_s": tot["model.forward_loss.train"],
        "model.forward_eval_s": tot["model.forward_loss.eval"],
        "model.make_batch_s": tot["model.make_batch"] + tot["model.make_mixed_batch"],
        "model.batches": calls["model.make_batch"] + calls["model.make_mixed_batch"],
        "model.greedy_decode_s": tot["model.greedy_decode"],
        "model.decode_logits_calls": counts["decode_logits_calls"],
        "model.decoder_positions": counts["decoder_positions"],
        "optim.step_s": tot["optim.step"],
        "optim.steps": calls["optim.step"],
        "tasks.episode_s": tot["tasks.sample_dlps"] + tot["tasks.build_episode"],
        "training.inner_adapt_s": own["training.inner_adapt"],
        "training.reptile_step_s": own["training.reptile_step"],
        "training.snapshot_restore_s": own["training.restore_params"]
        + own["training.snapshot_params"],
        "training.supervised_train_s": own["training.supervised_train"],
        "pipeline.evaluate_dlp_s": tot["pipeline.evaluate_dlp"],
        "metrics.score_s": tot["metrics.corpus_bleu"] + tot["metrics.chrf"],
        "corpus.generate_world_s": tot["corpus.generate_world"],
        "corpus.load_datasets_s": tot["corpus.load_datasets"],
        "checkpoint.load_params_s": tot["checkpoint.load_params"],
    })
    return metrics


#: Unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {name: "s" if name.endswith("_s") else "GFLOP" if name.endswith("_gflop")
                   else "count" for name in per_layer_metrics(Tracer())}
