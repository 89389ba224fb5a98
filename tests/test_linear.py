"""The fused affine projection `T.linear` against the two-op form it replaces."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import metadapt
from metadapt import tensor as T
from metadapt.corpus import Vocab, load_dlp_dataset
from metadapt.errors import DimensionError, NumericError
from metadapt.gradcheck import grad_check
from metadapt.model import (AdapterConfig, ModelConfig, build_model, forward_loss,
                            greedy_decode, make_batch)
from metadapt.tasks import DlpId


def _two_ops(x, w, b):
    return T.add(T.matmul(x, w), b)


# --- the op --------------------------------------------------------------------

@pytest.mark.parametrize("lead", [(3,), (2, 3), (2, 2, 3)], ids=["2d", "3d", "4d"])
def test_linear_matches_add_of_matmul(lead):
    """Forward bytes, and every input's gradient bytes for every subset of
    frozen inputs, equal add(matmul(x, w), b). The output is split into heads
    by reshape and swapaxes, as `_heads` does, so the gradient reaching the
    op comes from a non-contiguous view."""
    rng = np.random.default_rng(4)
    values = [rng.normal(size=(*lead, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)]
    start = [rng.normal(size=v.shape) for v in values]
    weights = rng.normal(size=(*lead[:-1], 2, lead[-1], 3))

    def run(op, frozen):
        inputs = [T.Tensor(v, requires_grad=True) for v in values]
        for i, t in enumerate(inputs):
            t.grad[...] = start[i]
            t.set_requires_grad(i not in frozen)
        with T.use_tape(T.Tape()):
            out = op(*inputs)
            heads = T.swapaxes(T.reshape(out, (*lead, 2, 3)), len(lead) - 1, len(lead))
            if out.requires_grad:
                T.backward(T.tensor_sum(T.mul(heads, T.Tensor(weights))))
        return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]

    for size in range(len(values) + 1):
        for frozen in itertools.combinations(range(len(values)), size):
            assert run(T.linear, frozen) == run(_two_ops, frozen), frozen


def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(scale=0.5, size=(4, 5)), requires_grad=True)
    b = T.Tensor(rng.normal(size=5), requires_grad=True)
    targets = np.array([[0, 4, 2], [1, 3, 0]])

    report = grad_check(lambda: T.cross_entropy(T.linear(x, w, b), targets, np.ones((2, 3))),
                        {"x": x, "w": w, "b": b}, tol=1e-6)
    assert report.passed, report


def test_linear_rejects_overflow_and_shape_mismatch():
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="'linear'"):
        T.linear(T.Tensor([[1e200, 1e200]]), T.Tensor([[1e200], [1e200]]), T.Tensor([0.0]))
    with pytest.raises(DimensionError, match="inner dims"):
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 5))), T.Tensor(np.ones(5)))
    with pytest.raises(DimensionError, match="bias"):
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 5))), T.Tensor(np.ones(4)))


# --- the model -----------------------------------------------------------------

def _model(vocab):
    """Two layers, two adapter groups moved off the identity point, dropout on."""
    mc = ModelConfig(vocab_size=len(vocab), model_dim=16, num_layers=2, num_heads=2,
                     ffn_dim=24, max_seq_len=24, dropout=0.1)
    model = build_model(mc, AdapterConfig(bottleneck_dim=4), seed=21,
                        adapter_groups=("main", "extra"))
    rng = np.random.default_rng(22)
    for name in model.adapter_names():
        model.params[name].data += rng.normal(0.0, 0.1, size=model.params[name].shape)
    return model


def _batch(tiny_registry, vocab):
    dlp = DlpId("gears", "apa", "bel")
    return make_batch(load_dlp_dataset(tiny_registry, dlp).train[:6], vocab, dlp)


def test_model_outputs_match_two_op_projections(tiny_registry, monkeypatch):
    """Loss, every gradient (all parameters or only the adapters trainable)
    and greedy hypotheses are byte-equal with every projection computed as
    add(matmul(x, w), b)."""
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = _model(vocab)
    batch = _batch(tiny_registry, vocab)
    sources = [s for s, _ in load_dlp_dataset(tiny_registry, DlpId("gears", "apa", "bel")).test]

    def outputs():
        got = []
        for trainable in (list(model.params), model.adapter_names()):
            model.set_trainable(trainable)
            for p in model.params.values():
                p.zero_grad()
            with T.use_tape(T.Tape()):
                loss = forward_loss(model, batch, rng=np.random.default_rng(23))
                T.backward(loss)
            got.append(loss.data.tobytes())
            got.append({n: model.params[n].grad.tobytes() for n in trainable})
        got.append(greedy_decode(model, vocab, sources, "apa", "bel", max_len=12))
        return got

    fused = outputs()
    monkeypatch.setattr(T, "linear", _two_ops)
    assert outputs() == fused


def test_training_forward_records_one_node_per_projection(tiny_registry, monkeypatch):
    """A training forward of the two-layer, two-group model puts 203 nodes on
    the tape, one per projection; the two-op form records one more node for
    each of its 48 projections. A fall-back to two ops fails here."""
    vocab = Vocab.load(tiny_registry.root / "vocab.json")
    model = _model(vocab)
    model.set_trainable(list(model.params))
    batch = _batch(tiny_registry, vocab)

    def nodes():
        with T.use_tape(T.Tape()) as tape:
            forward_loss(model, batch, rng=np.random.default_rng(23))
        return len(tape)

    fused = nodes()
    layers, groups = model.mc.num_layers, len(model.adapter_groups)
    projections = layers * (4 + 2 + 2 * groups) + layers * (4 + 4 + 2 + 2 * groups)
    monkeypatch.setattr(T, "linear", _two_ops)
    assert (fused, nodes() - fused) == (203, projections)


def test_model_adds_nothing_to_a_matmul_result():
    """`T.linear` is the one projection path: model.py never adds to a
    `matmul` result, directly or through a name bound to one."""
    tree = ast.parse((Path(metadapt.__file__).parent / "model.py").read_text(encoding="utf-8"))

    def is_matmul(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matmul"

    bound = {t.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and is_matmul(node.value)
             for t in node.targets if isinstance(t, ast.Name)}

    def from_matmul(node):
        return is_matmul(node) or (isinstance(node, ast.Name) and node.id in bound)

    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            operands = [node.target, node.value]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add":
            operands = node.args
        else:
            continue
        if any(from_matmul(op) for op in operands):
            offenders.append(f"model.py:{node.lineno}")
    assert offenders == []
