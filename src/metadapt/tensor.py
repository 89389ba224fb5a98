"""Dense float64 tensors with a recording tape and reverse-mode differentiation.

The op suite is deliberately small: exactly what a miniature transformer with
bottleneck adapters needs. Every op validates shapes, checks its output for
NaN/Inf, and, when gradients are enabled and some input requires them, records
itself on the active tape. backward() replays the tape in reverse; an op's
backward computes an input's gradient only when that input requires one, so
a frozen weight's gradient is never formed. `keep_freed_heap` sets the
allocator policy under which training frees each graph when its step ends.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InputError, NumericError, StateError

Array = np.ndarray

#: glibc's own ceiling for its dynamic mmap threshold on 64-bit, and twice
#: that for the trim threshold, as glibc's dynamic rule sets it.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def _mallopt():
    """The C library's `mallopt`, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def keep_freed_heap() -> None:
    """Let this process, and every process it forks later, reuse the heap
    that a freed graph leaves. glibc raises its trim threshold only to twice
    the largest mmapped block freed so far, so without this each freed
    training graph hands the top of the heap back to the kernel, and the
    next forward faults the same pages in again. Blocks up to MMAP_THRESHOLD
    come from the heap, and its top is trimmed only past TRIM_THRESHOLD.
    Idempotent; where the C library has no `mallopt` it does nothing."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class Tape:
    """Execution-ordered record of differentiable ops.

    Invariant: an op's inputs are recorded (or are leaves) before the op
    itself, so iterating the node list in reverse is a valid reverse
    topological order.
    """

    __slots__ = ("nodes", "consumed")

    def __init__(self) -> None:
        self.nodes: list[Tensor] = []
        self.consumed = False

    def record(self, node: "Tensor") -> None:
        self.nodes.append(node)

    def clear(self) -> None:
        self.nodes.clear()
        self.consumed = False

    def __len__(self) -> int:
        return len(self.nodes)


_TAPE_STACK: list[Tape] = [Tape()]
_GRAD_ENABLED: list[bool] = [True]


def active_tape() -> Tape:
    return _TAPE_STACK[-1]


@contextlib.contextmanager
def use_tape(tape: Tape):
    """Route op recording to `tape` within the block (one tape per context)."""
    _TAPE_STACK.append(tape)
    try:
        yield tape
    finally:
        _TAPE_STACK.pop()


@contextlib.contextmanager
def no_grad():
    """Disable recording; forward values only."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


class Tensor:
    """A float64 array plus optional gradient buffer.

    Tensors constructed with requires_grad=True (parameters) get a zero grad
    buffer immediately, so an unreachable parameter reads as zero gradient
    after backward(). Op outputs allocate grads lazily during backward, and
    backward() drops each one again once the op's own backward has read it,
    so after backward() only leaves hold a gradient.
    """

    __slots__ = ("data", "requires_grad", "grad", "_bwd")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = np.zeros_like(self.data) if requires_grad else None
        self._bwd: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def set_requires_grad(self, flag: bool) -> None:
        self.requires_grad = bool(flag)
        if flag and self.grad is None:
            self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __add__(self, other):
        return add(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _finite_or_raise(out: Array, op: str) -> None:
    if not np.isfinite(out).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


def _accumulate(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # A fresh buffer in t.data's memory layout, not g's: a later matmul
        # reads it, and BLAS sums in an order that depends on the layout.
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a gradient back to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _make(data: Array, parents: Sequence[Tensor], bwd: Callable[[Array], None], op: str) -> Tensor:
    _finite_or_raise(data, op)
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._bwd = bwd
        active_tape().record(out)
    return out


# ---------------------------------------------------------------------------
# op suite
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), bwd, "add")


def neg(a) -> Tensor:
    a = _coerce(a)

    def bwd(g: Array) -> None:
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd, "neg")


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bwd, "mul")


def scale(a, factor: float) -> Tensor:
    a = _coerce(a)
    factor = float(factor)

    def bwd(g: Array) -> None:
        _accumulate(a, g * factor)

    return _make(a.data * factor, (a,), bwd, "scale")


def _product(a: Tensor, b: Tensor, op: str) -> Array:
    """a.data @ b.data, with matmul's shape checks raised as `op`'s."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op}: both operands must be at least 2-D")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op}: inner dims differ, {a.shape} vs {b.shape}")
    try:
        return a.data @ b.data
    except ValueError as exc:
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc


def _product_bwd(a: Tensor, b: Tensor, g: Array) -> None:
    if a.requires_grad:
        _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
    if b.requires_grad:
        _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    return _make(_product(a, b, "matmul"), (a, b), lambda g: _product_bwd(a, b, g), "matmul")


def linear(x, w, b) -> Tensor:
    """x @ w + b as one op, so the graph keeps no separate x @ w array.

    Values and gradients are byte-equal to add(matmul(x, w), b): the sum is
    the same elementwise add, and backward forms b's gradient from g and hands
    g itself to matmul's products (`_accumulate` gave it the output's layout).
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    data = _product(x, w, "linear")
    try:
        data += b.data
    except ValueError as exc:
        raise DimensionError(f"linear: bias of shape {b.shape} does not fit {data.shape}") from exc

    def bwd(g: Array) -> None:
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))
        _product_bwd(x, w, g)

    return _make(data, (x, w, b), bwd, "linear")


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0.0

    def bwd(g: Array) -> None:
        _accumulate(a, g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), bwd, "relu")


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _coerce(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError("softmax: last axis must be non-empty")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g: Array) -> None:
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, (g - inner) * y)

    return _make(y, (a,), bwd, "softmax")


def layer_norm(x, gain, bias, epsilon: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine gain+bias."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    if epsilon <= 0.0:
        raise InputError("layer_norm: epsilon must be > 0")
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError("layer_norm: last axis must have length >= 1")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def bwd(g: Array) -> None:
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast((g * xhat).sum(axis=lead), gain.shape))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g.sum(axis=lead), bias.shape))
        if x.requires_grad:
            gxhat = g * gain.data
            term = gxhat - gxhat.mean(axis=-1, keepdims=True) - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * term)

    return _make(data, (x, gain, bias), bwd, "layer_norm")


def embedding_lookup(table, ids: Array) -> Tensor:
    """Gather rows of `table` (vocab, dim) by integer id array of any shape."""
    table = _coerce(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise DimensionError("embedding_lookup: table must be 2-D")
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError("embedding_lookup: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise InputError("embedding_lookup: id out of vocabulary range")
    data = table.data[ids]

    def bwd(g: Array) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _make(data, (table,), bwd, "embedding_lookup")


def cross_entropy(logits, targets: Array, mask: Array) -> Tensor:
    """Mean token-level cross-entropy over positions where mask is nonzero.

    logits: (..., vocab); targets/mask: matching leading shape. Softmax is
    taken over the last axis with the usual max-shift for stability.
    """
    logits = _coerce(logits)
    targets = np.asarray(targets)
    maskf = np.asarray(mask, dtype=np.float64)
    if logits.ndim < 2:
        raise DimensionError("cross_entropy: logits must be at least 2-D")
    if targets.shape != logits.shape[:-1] or maskf.shape != targets.shape:
        raise DimensionError("cross_entropy: targets/mask must match logits leading shape")
    if not np.issubdtype(targets.dtype, np.integer):
        raise InputError("cross_entropy: targets must be integers")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[-1]):
        raise InputError("cross_entropy: target id out of vocabulary range")
    denom = maskf.sum()
    if denom <= 0.0:
        raise InputError("cross_entropy: empty batch (mask selects no positions)")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logprobs = shifted - logsumexp
    picked = np.take_along_axis(logprobs, targets[..., None], axis=-1)[..., 0]
    data = np.asarray(-(picked * maskf).sum() / denom)

    def bwd(g: Array) -> None:
        probs = np.exp(logprobs)
        gl = probs.copy()
        np.put_along_axis(gl, targets[..., None], np.take_along_axis(gl, targets[..., None], axis=-1) - 1.0, axis=-1)
        gl *= (maskf / denom)[..., None]
        _accumulate(logits, gl * g)

    return _make(data, (logits,), bwd, "cross_entropy")


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted-dropout mask application; caller handles train/eval switching."""
    a = _coerce(a)
    if not 0.0 <= p < 1.0:
        raise InputError("dropout: p must be in [0, 1)")
    if p == 0.0:
        return a
    kept = rng.random(a.shape) >= p

    def bwd(g: Array) -> None:
        _accumulate(a, g * (kept / (1.0 - p)))

    return _make(a.data * (kept / (1.0 - p)), (a,), bwd, "dropout")


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _coerce(a)
    shape = tuple(shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}") from exc
    old = a.shape

    def bwd(g: Array) -> None:
        _accumulate(a, g.reshape(old))

    return _make(data, (a,), bwd, "reshape")


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = _coerce(a)

    def bwd(g: Array) -> None:
        _accumulate(a, g.swapaxes(axis1, axis2))

    return _make(a.data.swapaxes(axis1, axis2), (a,), bwd, "swapaxes")


def tensor_sum(a) -> Tensor:
    a = _coerce(a)

    def bwd(g: Array) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(a.data.sum()), (a,), bwd, "sum")


def mean(a) -> Tensor:
    a = _coerce(a)
    return scale(tensor_sum(a), 1.0 / a.size)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from `loss`.

    Walks the active tape once in reverse. Each op output's grad is set to
    None as soon as its op's backward has run: every consumer of a node is
    recorded after it, so nothing adds to that gradient later. May be called
    once per tape; a second call without a tape reset is a StateError.
    """
    if loss.data.size != 1:
        raise InputError("backward: loss must be a scalar")
    tape = active_tape()
    if tape.consumed:
        raise StateError("backward: tape already consumed; reset it first")
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is None or node._bwd is None:
            continue
        node._bwd(node.grad)
        node.grad = None
    tape.consumed = True
