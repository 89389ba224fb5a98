import ast
import itertools
import math
import platform
from pathlib import Path

import numpy as np
import pytest

import metadapt
from metadapt import tensor as T
from metadapt.errors import DimensionError, InputError, NumericError, StateError
from metadapt.gradcheck import grad_check
from metadapt.optim import AdamW, OptimizerSettings


@pytest.fixture(autouse=True)
def fresh_tape():
    T.active_tape().clear()
    yield
    T.active_tape().clear()


def test_relu_definition():
    out = T.relu(T.Tensor([1.0, -1.0, 0.0]))
    assert out.data.tolist() == [1.0, 0.0, 0.0]


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_matmul_hand_arithmetic():
    out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[1.0, 2.0]]))


def test_nonfinite_output_is_numeric_error():
    big = T.Tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        T.mul(big, big)


def test_layer_norm_hand_computation():
    # mean 0, variance 1 -> values shrink by 1/sqrt(1 + eps)
    x = T.Tensor([1.0, -1.0])
    out = T.layer_norm(x, T.Tensor([1.0, 1.0]), T.Tensor([0.0, 0.0]), epsilon=1e-5)
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [expected, -expected], rtol=1e-12)
    np.testing.assert_allclose(out.data, [0.99999, -0.99999], atol=1e-5)


def test_layer_norm_constant_row_is_epsilon_dominated():
    for c in (3.7, -2.0, 0.0):
        out = T.layer_norm(T.Tensor([c, c, c]), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0], atol=1e-12)


def test_layer_norm_output_mean_equals_bias():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(4, 6)))
    bias = 0.25
    out = T.layer_norm(x, T.Tensor(np.ones(6)), T.Tensor(np.full(6, bias)))
    np.testing.assert_allclose(out.data.mean(axis=-1), np.full(4, bias), atol=1e-9)


def test_backward_sum_linearity():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.tensor_sum(x))
    assert x.grad.tolist() == [1.0, 1.0, 1.0]


def test_backward_square_analytic():
    x = T.Tensor(3.0, requires_grad=True)
    T.backward(T.tensor_sum(T.mul(x, x)))
    assert float(x.grad) == pytest.approx(6.0)


def test_backward_twice_without_reset_is_state_error():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tensor_sum(T.mul(x, x))
    T.backward(loss)
    with pytest.raises(StateError):
        T.backward(loss)


def test_backward_unreachable_param_holds_zero():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.Tensor([5.0], requires_grad=True)
    T.backward(T.tensor_sum(x))
    assert y.grad.tolist() == [0.0]


def test_backward_requires_scalar_loss():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(InputError):
        T.backward(T.mul(x, x))


def test_cross_entropy_uniform_logits():
    vocab = 7
    logits = T.Tensor(np.zeros((2, 3, vocab)), requires_grad=True)
    targets = np.zeros((2, 3), dtype=np.int64)
    loss = T.cross_entropy(logits, targets, np.ones((2, 3)))
    assert float(loss.data) == pytest.approx(math.log(vocab), rel=1e-12)


def test_cross_entropy_one_hot_limit():
    logits = np.full((1, 2, 4), -50.0)
    logits[0, 0, 1] = 50.0
    logits[0, 1, 2] = 50.0
    loss = T.cross_entropy(T.Tensor(logits), np.array([[1, 2]]), np.ones((1, 2)))
    assert float(loss.data) < 1e-12


def test_cross_entropy_empty_batch():
    logits = T.Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(InputError):
        T.cross_entropy(logits, np.zeros((1, 2), dtype=int), np.zeros((1, 2)))


@pytest.mark.parametrize("targets", [[[0, -1]], [[0, 5]], [[0.0, 1.0]]],
                         ids=["negative", "past-vocab", "float"])
def test_cross_entropy_rejects_bad_target_ids(targets):
    """Target ids follow embedding_lookup's rule: integers in [0, vocab).
    A negative id would otherwise wrap to the last vocabulary entry."""
    with pytest.raises(InputError):
        T.cross_entropy(T.Tensor(np.zeros((1, 2, 5))), np.array(targets), np.ones((1, 2)))


def test_dropout_mask_scaling_and_eval_identity():
    rng = np.random.default_rng(0)
    x = T.Tensor(np.ones((1000,)))
    out = T.dropout(x, 0.5, rng)
    values = set(np.round(out.data, 6).tolist())
    assert values <= {0.0, 2.0}
    assert T.dropout(x, 0.0, rng) is x


def test_tape_resets_after_optimizer_step():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    opt = AdamW({"x": x}, OptimizerSettings(lr=0.1))
    loss = T.tensor_sum(T.mul(x, x))
    assert len(T.active_tape()) > 0
    T.backward(loss)
    opt.step()
    assert len(T.active_tape()) == 0
    assert x.grad.tolist() == [0.0, 0.0]


def test_keep_freed_heap_sets_both_thresholds_and_is_idempotent(monkeypatch):
    calls = []
    monkeypatch.setattr(T, "_mallopt", lambda: lambda option, value: calls.append((option, value)))
    T.keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    T.keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)] * 2


def test_keep_freed_heap_is_accepted_by_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the thresholds are glibc's")
    mallopt = T._mallopt()
    assert mallopt(-3, T.MMAP_THRESHOLD) == 1 and mallopt(-1, T.TRIM_THRESHOLD) == 1
    T.keep_freed_heap()
    T.keep_freed_heap()


def test_keep_freed_heap_without_mallopt_does_nothing(monkeypatch):
    class NoMallopt:  # a C library without mallopt, as on macOS
        def __init__(self, name):
            pass

    monkeypatch.setattr(T.ctypes, "CDLL", NoMallopt)
    assert T._mallopt() is None
    T.keep_freed_heap()


def test_determinism_bitwise():
    def run():
        T.active_tape().clear()
        rng = np.random.default_rng(1234)
        x = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        y = T.softmax(T.relu(T.matmul(x, w)))
        loss = T.mean(T.mul(y, y))
        T.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# --- optimizer -------------------------------------------------------------

def test_adamw_zero_grad_zero_decay_fixed_point():
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    opt = AdamW({"x": x}, OptimizerSettings(lr=0.1, weight_decay=0.0))
    opt.step()  # grads are the zero buffers allocated at construction
    assert x.data.tolist() == [1.0, -2.0]


def test_adamw_first_step_moves_by_lr_sign():
    # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
    lr = 0.05
    x = T.Tensor([1.0, 1.0, 1.0], requires_grad=True)
    x.grad = np.array([0.3, -0.7, 2.0])
    AdamW({"x": x}, OptimizerSettings(lr=lr)).step()
    np.testing.assert_allclose(x.data, [1.0 - lr, 1.0 + lr, 1.0 - lr], rtol=1e-6)


def test_adamw_decoupled_decay_with_zero_grad():
    lr, wd = 0.1, 0.5
    x = T.Tensor([2.0, -4.0], requires_grad=True)
    AdamW({"x": x}, OptimizerSettings(lr=lr, weight_decay=wd)).step()
    np.testing.assert_allclose(x.data, [2.0 * (1 - lr * wd), -4.0 * (1 - lr * wd)], rtol=1e-12)


def test_adamw_missing_grad_is_state_error():
    x = T.Tensor([1.0])  # requires_grad False -> no grad buffer
    opt = AdamW({"x": x}, OptimizerSettings())
    with pytest.raises(StateError):
        opt.step()


# --- grad_check ------------------------------------------------------------

def test_grad_check_quadratic_form_is_exact():
    rng = np.random.default_rng(7)
    w = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = np.array([0.3, -0.2, 0.9])

    def f():
        xt = T.Tensor(x.reshape(1, 3))
        return T.tensor_sum(T.matmul(T.matmul(xt, w), T.reshape(xt, (3, 1))))

    report = grad_check(f, {"w": w}, tol=1e-8)
    assert report.passed, report


def test_grad_check_relu_away_from_kinks():
    # kink exclusion: all pre-activations at least 1e-3 in magnitude
    x = T.Tensor([0.5, -0.4, 1.2, -2.0], requires_grad=True)

    def f():
        return T.tensor_sum(T.relu(T.add(T.mul(x, x), -0.01)))

    report = grad_check(f, {"x": x}, tol=1e-4)
    assert report.passed, report


def test_grad_check_composite_ops_finite_difference():
    rng = np.random.default_rng(11)
    w1 = T.Tensor(rng.normal(scale=0.4, size=(4, 5)), requires_grad=True)
    g = T.Tensor(np.ones(5), requires_grad=True)
    b = T.Tensor(np.zeros(5), requires_grad=True)
    x = rng.normal(size=(3, 4))
    targets = np.array([1, 0, 3])

    def f():
        h = T.layer_norm(T.matmul(T.Tensor(x), w1), g, b)
        return T.cross_entropy(T.mul(T.softmax(h), 5.0), targets, np.ones(3))

    report = grad_check(f, {"w1": w1, "g": g, "b": b}, tol=1e-4)
    assert report.passed, report


def test_grad_check_report_same_on_any_cpu_count(monkeypatch):
    """Probed serially on one CPU or in chunks across three processes, the
    coordinates give the same report: worst error and coordinate, checked
    and skipped counts."""
    rng = np.random.default_rng(3)
    w1 = T.Tensor(rng.normal(scale=0.5, size=(6, 20)), requires_grad=True)
    w1.data[0, :3] = 5e-6  # kinks of the relu below inside the probe interval
    w2 = T.Tensor(rng.normal(scale=0.5, size=(20, 4)), requires_grad=True)
    x = rng.normal(size=(3, 6))

    def f():
        h = T.relu(T.matmul(T.Tensor(x), w1))
        return T.tensor_sum(T.relu(w1)) + T.cross_entropy(T.matmul(h, w2), np.array([0, 3, 1]),
                                                          np.ones(3))

    reports = []
    for cpus in (1, 3):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        reports.append(grad_check(f, {"w1": w1, "w2": w2}, tol=1e-4))
    assert reports[0] == reports[1]
    assert reports[0].skipped_kinks >= 3 and reports[0].checked + reports[0].skipped_kinks == 200


# --- which gradients a backward computes ------------------------------------

def _multi_input_cases():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 4))
    return {
        "add": (T.add, [x, rng.normal(size=4)]),
        "mul": (T.mul, [x, rng.normal(size=(3, 1))]),
        "matmul": (T.matmul, [x, rng.normal(size=(4, 5))]),
        "layer_norm": (T.layer_norm, [x, rng.normal(size=4), rng.normal(size=4)]),
    }


@pytest.mark.parametrize("op", sorted(_multi_input_cases()))
def test_backward_leaves_frozen_inputs_and_matches_all_trainable(op):
    """Every subset of frozen inputs: a frozen input's gradient buffer stays
    as it was, and each trainable input's gradient is byte-equal to the one
    it gets when every input trains."""
    fn, values = _multi_input_cases()[op]
    start = [np.random.default_rng(i).normal(size=v.shape) for i, v in enumerate(values)]

    def grads(frozen):
        inputs = [T.Tensor(v, requires_grad=True) for v in values]
        for i, t in enumerate(inputs):
            t.grad[...] = start[i]
            t.set_requires_grad(i not in frozen)
        with T.use_tape(T.Tape()):
            out = fn(*inputs)
            weights = T.Tensor(np.random.default_rng(9).normal(size=out.shape))
            T.backward(T.tensor_sum(T.mul(out, weights)))
        return [t.grad for t in inputs]

    everything = grads(())
    for size in range(1, len(values) + 1):
        for frozen in itertools.combinations(range(len(values)), size):
            for i, g in enumerate(grads(frozen)):
                expected = start[i] if i in frozen else everything[i]
                assert g.tobytes() == expected.tobytes(), (op, frozen, i)


def test_op_output_gradient_keeps_the_data_layout():
    """An op output's first gradient buffer takes the layout of its data,
    not of the incoming gradient: a later matmul reads the buffer, and BLAS
    sums in an order that depends on the layout."""
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    y = T.swapaxes(x, 1, 2)
    handed = []
    bwd = y._bwd
    y._bwd = lambda g: (handed.append(g.strides), bwd(g))
    T.backward(T.tensor_sum(T.matmul(y, w)))
    assert handed == [y.data.strides]


def test_backward_releases_op_output_gradients_and_keeps_leaf_gradients():
    """Once backward has run, no op output holds a gradient (the loss's
    included), and every leaf that requires one keeps it."""
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(2,)), requires_grad=True)
    h = T.relu(T.matmul(x, w) + b)
    loss = T.mean(T.mul(h, h))
    nodes = list(T.active_tape().nodes)
    assert loss in nodes and len(nodes) == 6
    T.backward(loss)
    assert [node.grad for node in nodes] == [None] * len(nodes)
    for leaf in (x, w, b):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape and leaf.grad.any()


def test_only_the_tensor_constructor_rebinds_data():
    """Values change inside a tensor's array (`p.data[...] = v`, `p.data -= d`),
    so a parameter keeps one array for its lifetime; an `x.data = ...` outside
    Tensor.__init__ would swap the array under anything that holds it."""
    offenders = []
    for path in sorted(Path(metadapt.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "Tensor":
                init = next(f for f in cls.body
                            if isinstance(f, ast.FunctionDef) and f.name == "__init__")
                allowed.update(id(node) for node in ast.walk(init))
        for node in ast.walk(tree):
            if id(node) in allowed or not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if any(isinstance(t, ast.Attribute) and t.attr == "data"
                       and isinstance(t.ctx, ast.Store) for t in ast.walk(target)):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
