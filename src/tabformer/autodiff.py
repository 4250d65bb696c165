"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Design rules:

* double precision everywhere, row-major buffers;
* no silent broadcasting: binary ops demand identical shapes, with the
  single exception that a size-1 tensor acts as a scalar. Dedicated ops
  (add_bias, layer_norm, feature_embed) handle the broadcasts a
  transformer actually needs, each with an exact backward rule;
* ops act on the last one or two axes and carry any leading axes
  along. ``matmul`` takes an N-D left operand with a 2-D right one (a
  token-wise linear, run as one 2-D GEMM) or two N-D operands whose
  leading axes agree (batched products such as per-head attention);
* every op checks its output for NaN/Inf and raises NumericError, so a
  numeric blow-up is surfaced at the op that produced it;
* recording only happens under an active Tape. With no tape, ops are
  plain numpy (this is eval mode).

Every op has one shape: check the inputs, compute ``data``, define
``def vjp(og)`` over the values the backward rule needs, then
``return _emit(op, data, inputs, vjp)``. ``vjp`` takes only the
gradient of the output and returns one entry per input, each shaped
like that input or ``None`` for no gradient. ``_emit`` checks ``data``
and, under a tape, appends one node (out, inputs, vjp); with no tape the
closure is dropped unused.

Gradients accumulate into ``requires_grad`` leaves across backward
calls; intermediate flow buffers are local to each backward pass, so
backpropagating a sum of two losses equals the sum of two separate
passes.

Fused ops. ``attention_sublayer`` and ``ffn_sublayer`` each run one
pre-norm residual sublayer of a transformer block as a single op with
a hand-written ``vjp`` over the buffers its forward pass saved, and one
finiteness check on its output. Tiling rule: they walk the leading
(sample) axis in tiles of ``_tile_rows`` samples, sized so that one
sample's widest intermediate times the tile stays within a fixed
element budget (no setting), writing into full-batch buffers. The
weight, bias and gain gradients are full-batch reductions, and so are
the vjp's input-gradient GEMMs. Oracle rule: the primitive ops stay,
and a fused op must equal its composite of primitives bit for bit in
the forward pass, draw its dropout masks by the same ``rng.random``
calls in the same order, and match the composite's gradients (the
tests allow 1e-12).

Last-token rule. ``attention_sublayer(..., last_only=True)`` returns
the last token's row only, [..., 1, d]: every token is normalised and
projected to keys and values, but queries, scores, softmax, dropout,
P V, ``w_o`` and the residual run for the last token alone, and the
vjp sends the residual and query gradients to that row only.
``ffn_sublayer(..., mask_tokens=t)`` then runs on that one row. Both
still draw their dropout masks at the full t-token shape and use the
last token's slice, so the rng is left where the full sublayers leave
it. The oracle is the last row of the full sublayers' output: outputs
and gradients within 1e-12, not bitwise, because numpy runs a one-row
product as a matrix-vector product, whose last bits differ from the
matrix-matrix product's.

Threads. Importing this module sets every OpenBLAS loaded in the
process (numpy's, and scipy's if separate) to one thread, and the
fused ops spread their work over the CPUs in the process's affinity
mask: the calling thread plus a pool of helper threads, created on
first use and dropped in a forked child. Helpers claim tiles of a
row-local loop one at a time, and run the vjp's full-batch
weight-gradient GEMMs and bias sums while the calling thread runs the
input-gradient chain. Dropout masks are drawn on the calling thread,
and helpers call only private numpy helpers, never a public op, so the
tape sees nothing of them. Every tile and every GEMM runs the same
single-threaded kernel on the same operands whatever the worker count,
so results are bitwise equal for any number of CPUs and any
``OPENBLAS_NUM_THREADS``. When the thread-control symbol of a loaded
OpenBLAS cannot be found, everything runs on the calling thread.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is lazily allocated (zeros) the first time a backward pass
    reaches the tensor; ``zero_grad`` resets it.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """A named trainable tensor. ``decay`` marks it for weight decay."""

    __slots__ = ("name", "decay")

    def __init__(self, data, name: str, decay: bool = False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.decay = bool(decay)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, decay={self.decay})"


# ---------------------------------------------------------------------------
# Tape


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], vjp: Callable):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


_ACTIVE = threading.local()


def _tape_stack():
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = []
        _ACTIVE.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed ops; append order is topological.

    Use as a context manager around the forward computation, then call
    ``backward(loss)``. A tape and its tensors belong to one execution
    context; build a fresh tape per training step. Tensors hold no
    reference back to the tape, so a step's graph is freed as soon as
    its last name goes out of scope.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def _add(self, out: Tensor, inputs: Sequence[Tensor], vjp: Callable):
        self.nodes.append(_Node(out, inputs, vjp))
        self._produced.add(id(out))

    def tracks(self, t: Tensor) -> bool:
        """Whether gradient flows into ``t`` on this tape."""
        return t.requires_grad or id(t) in self._produced

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``.

        Repeated calls without zeroing keep accumulating. Flow buffers
        for intermediates are private to the pass.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        flows: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        if loss.requires_grad and id(loss) not in self._produced:
            loss.grad += np.ones_like(loss.data)
        for node in reversed(self.nodes):
            out_grad = flows.pop(id(node.out), None)
            if out_grad is None:
                continue
            grads = node.vjp(out_grad)
            for t, g in zip(node.inputs, grads):
                if g is None:
                    continue
                if t.requires_grad:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += g.reshape(t.data.shape)
                elif id(t) in self._produced:
                    acc = flows.get(id(t))
                    flows[id(t)] = g if acc is None else acc + g


def _finite_or_raise(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced a non-finite value")


def _emit(op: str, data: np.ndarray, inputs: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Check ``data`` and wrap it; under an active tape, record (out, inputs, vjp)."""
    _finite_or_raise(data, op)
    out = Tensor(data)
    tape = active_tape()
    if tape is not None:
        tape._add(out, inputs, vjp)
    return out


# ---------------------------------------------------------------------------
# Ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    Operands: 2-D x 2-D; N-D x 2-D, where the right operand is shared by
    every leading index and the product runs as ONE (prod(lead), k) x
    (k, n) GEMM, forward and backward; or N-D x N-D with identical
    leading axes (a batch of independent products).

    Backward: dL/da = dL/dout . b^T and dL/db = a^T . dL/dout, with the
    leading axes summed out when b is shared.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul needs operands of at least 2 dims, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {ad.shape} vs {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul leading axes differ: {ad.shape} vs {bd.shape}")
    shared = bd.ndim == 2  # one weight matrix for every leading index
    if shared:
        a2 = ad.reshape(-1, ad.shape[-1])
        data = (a2 @ bd).reshape(ad.shape[:-1] + bd.shape[-1:])
    else:
        data = ad @ bd

    # an operand the tape does not track, such as a raw input matrix,
    # gets no gradient
    tape = active_tape()
    need_a = tape is not None and tape.tracks(a)
    need_b = tape is not None and tape.tracks(b)

    def vjp(og):
        ga = gb = None
        if shared:
            og2 = og.reshape(-1, og.shape[-1])
            if need_a:
                ga = (og2 @ bd.T).reshape(ad.shape)
            if need_b:
                gb = a2.T @ og2
        else:
            if need_a:
                ga = og @ np.swapaxes(bd, -1, -2)
            if need_b:
                gb = np.swapaxes(ad, -1, -2) @ og
        return ga, gb

    return _emit("matmul", data, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 dims, got shape {a.shape}")
    data = np.swapaxes(a.data, -1, -2)

    def vjp(og):
        return (np.swapaxes(og, -1, -2),)

    return _emit("transpose", data, (a,), vjp)


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    """Allow identical shapes or a size-1 operand (scalar broadcast)."""
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ShapeError(f"{op} shapes differ: {a.shape} vs {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of a scalar-broadcast operand."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    data = a.data + b.data

    def vjp(og):
        return _reduce_to(og, a.data.shape), _reduce_to(og, b.data.shape)

    return _emit("add", data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    data = a.data - b.data

    def vjp(og):
        return _reduce_to(og, a.data.shape), _reduce_to(-og, b.data.shape)

    return _emit("sub", data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (same shapes, or a size-1 scalar operand)."""
    _binary_shapes(a, b, "mul")
    data = a.data * b.data

    def vjp(og):
        return _reduce_to(og * b.data, a.data.shape), _reduce_to(og * a.data, b.data.shape)

    return _emit("mul", data, (a, b), vjp)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    """Scale by a python float constant (not differentiated through c)."""
    c = float(c)
    data = a.data * c

    def vjp(og):
        return (og * c,)

    return _emit("mul_scalar", data, (a,), vjp)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-n bias vector to every row of x[..., n]."""
    if b.data.ndim != 1 or x.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"add_bias needs x[..., n] and b[n], got {x.shape} and {b.shape}")
    data = x.data + b.data

    def vjp(og):
        return og, og.sum(axis=tuple(range(og.ndim - 1)))

    return _emit("add_bias", data, (x, b), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    x = a.data
    s = x - x.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def vjp(og):
        dot = (og * s).sum(axis=-1, keepdims=True)
        return (s * (og - dot),)

    return _emit("softmax_rows", s, (a,), vjp)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x), via erf."""
    x = a.data
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def vjp(og):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return (og * (cdf + x * pdf),)

    return _emit("gelu", data, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, computed piecewise so large |x| cannot overflow."""
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)

    def vjp(og):
        return (og * s * (1.0 - s),)

    return _emit("sigmoid", s, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Population variance with eps inside the square root, so a constant
    row maps to gain*0 + bias rather than dividing by zero.
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp(og):
        lead = tuple(range(og.ndim - 1))
        dxhat = og * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        dgain = (og * xhat).sum(axis=lead)
        dbias = og.sum(axis=lead)
        return dx, dgain, dbias

    return _emit("layer_norm", data, (x, gain, bias), vjp)


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator], training: bool) -> Tensor:
    """Inverted dropout: identity in eval mode, survivors scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("training-mode dropout requires an explicit rng")
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    data = x.data * mask

    def vjp(og):
        return (og * mask,)

    return _emit("dropout", data, (x,), vjp)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along one of the last two axes."""
    if axis not in (-1, -2):
        raise ShapeError(f"concat supports axis -1 or -2, got {axis}")
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(og):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(og, splits, axis=axis))

    return _emit("concat", data, tuple(tensors), vjp)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., t, h*d_k] -> [h, ..., t, d_k]: head j is x[..., j*d_k:(j+1)*d_k].

    For a contiguous x, such as a matmul output, the result is a numpy
    view (no copy). merge_heads inverts it.
    """
    *lead, t, width = x.data.shape
    if n_heads < 1 or width % n_heads:
        raise ShapeError(f"split_heads cannot cut width {width} into {n_heads} heads")
    d_k = width // n_heads
    data = np.moveaxis(x.data.reshape(*lead, t, n_heads, d_k), -2, 0)

    def vjp(og):
        return (np.moveaxis(og, 0, -2).reshape(x.data.shape),)

    return _emit("split_heads", data, (x,), vjp)


def merge_heads(x: Tensor) -> Tensor:
    """[h, ..., t, d_k] -> [..., t, h*d_k], the inverse of split_heads.

    Head-major memory cannot be viewed with the heads side by side in
    the last axis, so the merged result is one contiguous copy.
    """
    if x.data.ndim < 3:
        raise ShapeError(f"merge_heads needs [h, ..., t, d_k], got shape {x.shape}")
    h, *lead, t, d_k = x.data.shape
    data = np.moveaxis(x.data, 0, -2).reshape(*lead, t, h * d_k)

    def vjp(og):
        return (np.moveaxis(og.reshape(*lead, t, h, d_k), -2, 0),)

    return _emit("merge_heads", data, (x,), vjp)


def select_row(x: Tensor, index: int) -> Tensor:
    """Select one row along axis -2: x[..., index, :]."""
    if x.data.ndim < 2:
        raise ShapeError(f"select_row needs at least 2 dims, got shape {x.shape}")
    m = x.data.shape[-2]
    if not -m <= index < m:
        raise ShapeError(f"select_row index {index} out of range for {m} rows")
    data = x.data[..., index, :]

    def vjp(og):
        full = np.zeros_like(x.data)
        full[..., index, :] = og
        return (full,)

    return _emit("select_row", data, (x,), vjp)


def permute_rows(x: Tensor, perm: np.ndarray) -> Tensor:
    """Reorder rows along axis -2 by ``perm`` (a permutation of 0..m-1)."""
    perm = np.asarray(perm, dtype=np.intp)
    m = x.data.shape[-2]
    if perm.shape != (m,) or not np.array_equal(np.sort(perm), np.arange(m)):
        raise ShapeError(f"permute_rows needs a permutation of 0..{m - 1}")
    data = np.take(x.data, perm, axis=-2)

    def vjp(og):
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(m)
        return (np.take(og, inverse, axis=-2),)

    return _emit("permute_rows", data, (x,), vjp)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}")
    data = x.data.reshape(shape)

    def vjp(og):
        return (og.reshape(x.data.shape),)

    return _emit("reshape", data, (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())

    def vjp(og):
        return (np.full(x.data.shape, og.reshape(())),)

    return _emit("sum_all", data, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    data = np.asarray(x.data.mean())

    def vjp(og):
        return (np.full(x.data.shape, og.reshape(()) / n),)

    return _emit("mean_all", data, (x,), vjp)


def feature_embed(x: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Per-feature affine embedding: out[i, j, :] = x[i, j] * w[j, :] + b[j, :].

    ``x`` is raw data (n rows by f features) and is not differentiated;
    w and b hold one d-vector per feature.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or w.data.ndim != 2 or w.data.shape != b.data.shape:
        raise ShapeError(
            f"feature_embed needs x[n, f], w[f, d], b[f, d]; got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.data.shape[0]:
        raise ShapeError(f"feature count mismatch: x has {x.shape[1]}, w has {w.data.shape[0]}")
    data = x[:, :, None] * w.data[None, :, :] + b.data[None, :, :]

    def vjp(og):
        gw = np.einsum("nf,nfd->fd", x, og)
        gb = og.sum(axis=0)
        return gw, gb

    return _emit("feature_embed", data, (w, b), vjp)


def embedding_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup out[i, :] = table[ids[i], :] with scatter-add backward."""
    ids = np.asarray(ids)
    if ids.ndim != 1 or table.data.ndim != 2:
        raise ShapeError(f"embedding_rows needs table[v, d] and 1-D ids, got {table.shape} and {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(f"embedding index out of range for table with {table.data.shape[0]} rows")
    ids = ids.astype(np.intp)
    data = table.data[ids]

    def vjp(og):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, og)
        return (gt,)

    return _emit("embedding_rows", data, (table,), vjp)


def repeat_token(v: Tensor, count: int) -> Tensor:
    """Tile a d-vector into a [count, 1, d] token stack (one per sample)."""
    if v.data.ndim != 1:
        raise ShapeError(f"repeat_token needs a 1-D vector, got shape {v.shape}")
    data = np.tile(v.data, (count, 1, 1))

    def vjp(og):
        return (og.sum(axis=(0, 1)),)

    return _emit("repeat_token", data, (v,), vjp)


# ---------------------------------------------------------------------------
# Threads (the rule is in the module docstring)


def _pin_blas() -> bool:
    """Set every OpenBLAS loaded in this process to one thread. False
    when none is found or one lacks the thread-control symbol."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return False
    pinned = 0
    for lib in libs:
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned += 1
                break
    return bool(libs) and pinned == len(libs)


_WORKERS = len(os.sched_getaffinity(0)) if _pin_blas() else 1
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="tabformer")
        return _POOL


def _drop_pool():
    """A forked child has none of its parent's pool threads: start afresh."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # there is no fork on Windows
    os.register_at_fork(after_in_child=_drop_pool)


def _submit(fn):
    # a helper sees the caller's context, numpy's error state included
    return _pool().submit(contextvars.copy_context().run, fn)


def _spawn(fn: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
    """Start ``fn()`` on the pool; the returned callable gives its
    result, running ``fn`` itself if no helper has started it yet."""
    if _WORKERS < 2:
        value = fn()
        return lambda: value
    future = _submit(fn)
    return lambda: fn() if future.cancel() else future.result()


def _each_tile(n: int, rows: int, body, workspace=None):
    """Call ``body(lo, hi, ws)`` for every tile of ``n`` samples. The
    calling thread and the pool's helpers claim tiles in turn; ``ws`` is
    ``workspace()``, made once per thread on its first tile, or None."""
    tiles, lock = _tiles(n, rows), threading.Lock()

    def drain():
        ws = None
        while True:
            with lock:
                tile = next(tiles, None)
            if tile is None:
                return
            if ws is None and workspace is not None:
                ws = workspace()
            body(*tile, ws)

    helpers = [_submit(drain) for _ in range(min(_WORKERS - 1, (n - 1) // rows))]
    try:
        drain()
    finally:
        # every tile is claimed once the caller's share returns: a helper
        # that has not started has nothing left to do
        for helper in helpers:
            helper.cancel()
        wait(helpers)
    for helper in helpers:
        if not helper.cancelled():
            helper.result()


# ---------------------------------------------------------------------------
# Fused transformer sublayers (the rules are in the module docstring)
#
# Each runs its composite's numpy calls on the same values, one tile of
# rows at a time. The forward GEMMs (x @ W) run per tile: OpenBLAS gives
# every row the same bits at any row count for the widths the tests
# cover (multiples of 8). The vjp's input-gradient GEMMs (og @ W^T) run
# full-batch on the composite's own operand layouts, because OpenBLAS
# computes og @ W^T for a small row count with another kernel, whose
# last bits differ. A gradient that fans out is summed in the tape's
# order.

_TILE_ELEMENTS = 1 << 16


def _tile_rows(width: int) -> int:
    """Samples per tile when one sample's widest intermediate holds
    ``width`` elements: 81 (attention) and 51 (FFN) samples at the
    default configuration with 10 tokens."""
    return max(1, _TILE_ELEMENTS // width)


def _tiles(n: int, rows: int):
    for lo in range(0, n, rows):
        yield lo, min(n, lo + rows)


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[n, t, h*d_k] -> [h, n, t, d_k] as a view, the layout of ``split_heads``."""
    n, t, width = a.shape
    return np.moveaxis(a.reshape(n, t, n_heads, width // n_heads), -2, 0)


def _sublayer_input(op, x, ln_g, ln_b, eps, rate, rng):
    """Check what both sublayers take; return x as [n, t, d]."""
    if x.data.ndim < 2:
        raise ShapeError(f"{op} needs x[..., t, d], got shape {x.shape}")
    d = x.data.shape[-1]
    if ln_g.data.shape != (d,) or ln_b.data.shape != (d,):
        raise ShapeError(
            f"{op} layer-norm gain/bias must have shape ({d},), got {ln_g.shape} and {ln_b.shape}"
        )
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate > 0.0 and rng is None:
        raise ConfigError("training-mode dropout requires an explicit rng")
    return x.data.reshape((-1,) + x.data.shape[-2:])


def _ln_rows(x, gain, bias, eps, xhat, inv, out):
    """``layer_norm``'s forward on a tile, written into ``xhat``, ``inv`` and ``out``."""
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    var = (xhat ** 2).mean(axis=-1, keepdims=True)
    np.divide(1.0, np.sqrt(var + eps), out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias


def _residual_out(o, keep, scale, x, out):
    """out = x + dropout(o): ``o`` is scaled in place, ``keep`` is None
    without dropout."""
    if keep is not None:
        o *= keep
        o *= scale
    np.add(x, o, out=out)


def _dropped_grad(og2, keep, scale):
    """The gradient of dropout's input: ``og2`` itself without dropout."""
    if keep is None:
        return og2
    g = og2 * keep.reshape(og2.shape)
    g *= scale
    return g


def _ln_residual_vjp(og, g_ln, gain, xhat, inv, rows, shape):
    """Gradients of x + f(layer_norm(x)) given ``og`` for the sum and
    ``g_ln`` for the norm's output: (x, gain, bias). When the sum kept
    only the last ``og.shape[1]`` token rows, the residual reaches
    those rows alone."""
    lead = tuple(range(len(shape) - 1))
    g_gain = _spawn(lambda: (g_ln * xhat).reshape(shape).sum(axis=lead))
    g_bias = _spawn(lambda: g_ln.reshape(shape).sum(axis=lead))
    gx = np.empty_like(g_ln)
    kept = slice(g_ln.shape[1] - og.shape[1], None)

    def tile(lo, hi, _):
        dxhat = g_ln[lo:hi] * gain
        np.multiply(
            inv[lo:hi],
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat[lo:hi] * (dxhat * xhat[lo:hi]).mean(axis=-1, keepdims=True),
            out=gx[lo:hi],
        )
        gx[lo:hi, kept] += og[lo:hi]

    _each_tile(g_ln.shape[0], rows, tile)
    return gx.reshape(shape), g_gain(), g_bias()


def _workspace(saving: bool, n: int, rows: int, make):
    """(buffers the vjp reads, per-thread tile buffers). Under a tape the
    intermediates the vjp reads are kept full-batch and shared by every
    thread; otherwise each thread writes one tile's buffers in turn."""
    if saving:
        saved = make(n)
        return saved, lambda: saved
    return None, lambda: make(min(n, rows))


def attention_sublayer(x, ln_g, ln_b, w_q, w_k, w_v, w_o, n_heads, eps=1e-5, rate=0.0, rng=None,
                       last_only=False):
    """x + dropout(MHSA(layer_norm(x))) as one op, for x[..., t, d].

    The composite it replaces: ``layer_norm``; ``matmul`` by w_q, w_k and
    w_v, each ``split_heads``; Q K^T scaled by 1/sqrt(d_k);
    ``softmax_rows``; ``dropout``; P V; ``merge_heads``; ``matmul`` by
    w_o; ``dropout``; ``add``. With ``rate`` > 0 the probabilities' mask
    and then the output's mask are drawn full-batch from ``rng``, as the
    composite draws them; ``rate`` 0 is eval mode.

    With ``last_only`` only the last token queries, and the output is
    that token's row, [..., 1, d]: the last row of the full output.
    Every token is still normalised and projected to keys and values,
    and both masks are still drawn at their full shapes.
    """
    xs = _sublayer_input("attention_sublayer", x, ln_g, ln_b, eps, rate, rng)
    n, t, d = xs.shape
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention_sublayer cannot cut width {d} into {n_heads} heads")
    for w in (w_q, w_k, w_v, w_o):
        if w.data.shape != (d, d):
            raise ShapeError(f"attention_sublayer needs ({d}, {d}) projections, got {w.shape}")
    tq = 1 if last_only else t  # query rows: the last tq tokens
    qs = slice(t - tq, t)
    h, scale, keep_p, keep_o = n_heads, 1.0 / (1.0 - rate), None, None
    if rate > 0.0:
        keep_p = rng.random((h, n, t, t))[:, :, qs] >= rate
        keep_o = rng.random((n, t, d))[:, qs] >= rate
    score_scale = 1.0 / math.sqrt(d // h)
    rows = _tile_rows(t * max(d, h * t))
    saving = active_tape() is not None

    def make(m):  # xhat, hn, k, v, inv; q, ctx and the scores for the query rows
        return [np.empty((m, t, d)) for _ in range(4)] + [np.empty((m, t, 1))] + [
            np.empty((m, tq, d)), np.empty((m, tq, d)), np.empty((h, m, tq, t))
        ]

    saved, workspace = _workspace(saving, n, rows, make)
    out = np.empty((n, tq, d))

    def tile(lo, hi, ws):
        xhat, hn, k, v, inv, q, ctx, s = ws
        r = slice(lo, hi) if saving else slice(0, hi - lo)
        _ln_rows(xs[lo:hi], ln_g.data, ln_b.data, eps, xhat[r], inv[r], hn[r])
        for dst, src, w in ((q, hn[r][:, qs], w_q), (k, hn[r], w_k), (v, hn[r], w_v)):
            np.matmul(src.reshape(-1, d), w.data, out=dst[r].reshape(-1, d))
        sc = s[:, r]
        np.matmul(_heads(q[r], h), np.swapaxes(_heads(k[r], h), -1, -2), out=sc)
        sc *= score_scale
        sc -= sc.max(axis=-1, keepdims=True)
        np.exp(sc, out=sc)
        sc /= sc.sum(axis=-1, keepdims=True)
        p = sc if keep_p is None else sc * keep_p[:, lo:hi] * scale
        np.matmul(p, _heads(v[r], h), out=_heads(ctx[r], h))
        o = (ctx[r].reshape(-1, d) @ w_o.data).reshape(hi - lo, tq, d)
        _residual_out(o, None if keep_o is None else keep_o[lo:hi], scale, xs[lo:hi, qs], out[lo:hi])

    _each_tile(n, rows, tile, workspace)

    def vjp(og):
        xhat, hn, k, v, inv, q, ctx, s = saved
        g_o = _dropped_grad(og.reshape(-1, d), keep_o, scale)
        g_w_o = _spawn(lambda: ctx.reshape(-1, d).T @ g_o)
        g_ctx = (g_o @ w_o.data.T).reshape(n, tq, d)
        g_q, g_v, g_kt = np.empty((n, tq, d)), np.empty((n, t, d)), np.empty((h, n, d // h, t))

        def tile(lo, hi, _):
            sc, gc = s[:, lo:hi], _heads(g_ctx[lo:hi], h)
            p = sc if keep_p is None else sc * keep_p[:, lo:hi] * scale
            np.matmul(np.swapaxes(p, -1, -2), gc, out=_heads(g_v[lo:hi], h))
            g_p = gc @ np.swapaxes(_heads(v[lo:hi], h), -1, -2)
            if keep_p is not None:
                g_p *= keep_p[:, lo:hi]
                g_p *= scale
            g_sc = sc * (g_p - (g_p * sc).sum(axis=-1, keepdims=True))
            g_sc *= score_scale
            np.matmul(g_sc, _heads(k[lo:hi], h), out=_heads(g_q[lo:hi], h))
            np.matmul(np.swapaxes(_heads(q[lo:hi], h), -1, -2), g_sc, out=g_kt[:, lo:hi])

        _each_tile(n, rows, tile)
        # the composite's layout of K's gradient (a strided view for n = 1)
        g_k = np.moveaxis(np.swapaxes(g_kt, -1, -2), 0, -2).reshape(-1, d)
        g_q, g_v = g_q.reshape(-1, d), g_v.reshape(-1, d)
        h2, hq = hn.reshape(-1, d), hn[:, qs].reshape(-1, d)
        g_w = [_spawn(lambda a=a, g=g: a.T @ g) for a, g in ((hq, g_q), (h2, g_k), (h2, g_v))]
        # the tape's fan-out order into the layer-norm output: (v + k) + q
        g_hn = (g_v @ w_v.data.T + g_k @ w_k.data.T).reshape(n, t, d)
        g_hn[:, qs] += (g_q @ w_q.data.T).reshape(n, tq, d)
        g_x = _ln_residual_vjp(og.reshape(n, tq, d), g_hn, ln_g.data, xhat, inv, rows, x.shape)
        return g_x + tuple(g() for g in g_w) + (g_w_o(),)

    inputs = (x, ln_g, ln_b, w_q, w_k, w_v, w_o)
    return _emit("attention_sublayer", out.reshape(x.shape[:-2] + (tq, d)), inputs, vjp)


def ffn_sublayer(x, ln_g, ln_b, w1, b1, w2, b2, eps=1e-5, rate=0.0, rng=None, mask_tokens=None):
    """x + dropout(GELU(layer_norm(x) W1 + b1) W2 + b2) as one op, for x[..., t, d].

    The composite it replaces: ``layer_norm``; ``matmul`` and
    ``add_bias`` by w1, b1; ``gelu``; ``matmul`` and ``add_bias`` by w2,
    b2; ``dropout``; ``add``. With ``rate`` > 0 the output's mask is
    drawn full-batch from ``rng``; ``rate`` 0 is eval mode.

    ``mask_tokens``, when x holds only the last t of that many tokens
    (the output of a ``last_only`` attention sublayer), is the token
    count the mask is drawn for; x uses its last t rows.
    """
    xs = _sublayer_input("ffn_sublayer", x, ln_g, ln_b, eps, rate, rng)
    n, t, d = xs.shape
    drawn = t if mask_tokens is None else mask_tokens
    if drawn < t:
        raise ShapeError(f"ffn_sublayer cannot draw a mask for {drawn} tokens over {t}")
    f = w1.data.shape[-1]
    if (w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape) != ((d, f), (f,), (f, d), (d,)):
        raise ShapeError(
            f"ffn_sublayer needs w1[{d}, f], b1[f], w2[f, {d}], b2[{d}]; "
            f"got {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}"
        )
    scale, keep_o = 1.0 / (1.0 - rate), None
    if rate > 0.0:
        keep_o = rng.random((n, drawn, d))[:, drawn - t:] >= rate
    rows = _tile_rows(t * max(d, f))
    saving = active_tape() is not None

    def make(m):  # xhat, hn, inv, pre-activation, Phi(pre), activation
        return [np.empty((m, t, d)), np.empty((m, t, d)), np.empty((m, t, 1))] + [
            np.empty((m, t, f)) for _ in range(3)
        ]

    saved, workspace = _workspace(saving, n, rows, make)
    out = np.empty((n, t, d))

    def tile(lo, hi, ws):
        xhat, hn, inv, pre, cdf, act = ws
        r = slice(lo, hi) if saving else slice(0, hi - lo)
        _ln_rows(xs[lo:hi], ln_g.data, ln_b.data, eps, xhat[r], inv[r], hn[r])
        u, c = pre[r], cdf[r]
        np.matmul(hn[r].reshape(-1, d), w1.data, out=u.reshape(-1, f))
        u += b1.data
        np.multiply(u, _INV_SQRT2, out=c)
        erf(c, out=c)
        c += 1.0
        c *= 0.5
        np.multiply(u, c, out=act[r])
        o = (act[r].reshape(-1, f) @ w2.data).reshape(hi - lo, t, d)
        o += b2.data
        _residual_out(o, None if keep_o is None else keep_o[lo:hi], scale, xs[lo:hi], out[lo:hi])

    _each_tile(n, rows, tile, workspace)

    def vjp(og):
        xhat, hn, inv, pre, cdf, act = saved
        lead = tuple(range(x.data.ndim - 1))
        g_o = _dropped_grad(og.reshape(-1, d), keep_o, scale)
        g_w2 = _spawn(lambda: act.reshape(-1, f).T @ g_o)
        g_b2 = _spawn(lambda: g_o.reshape(x.shape).sum(axis=lead))
        g_act = (g_o @ w2.data.T).reshape(n, t, f)
        g_u = np.empty((n, t, f))

        def tile(lo, hi, _):
            u = pre[lo:hi]
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
            np.multiply(g_act[lo:hi], cdf[lo:hi] + u * pdf, out=g_u[lo:hi])

        _each_tile(n, rows, tile)
        g_u = g_u.reshape(-1, f)
        g_w1 = _spawn(lambda: hn.reshape(-1, d).T @ g_u)
        g_b1 = _spawn(lambda: g_u.reshape(x.shape[:-1] + (f,)).sum(axis=lead))
        g_hn = (g_u @ w1.data.T).reshape(n, t, d)
        g_x = _ln_residual_vjp(og.reshape(n, t, d), g_hn, ln_g.data, xhat, inv, rows, x.shape)
        return g_x + (g_w1(), g_b1(), g_w2(), g_b2())

    return _emit("ffn_sublayer", out.reshape(x.shape), (x, ln_g, ln_b, w1, b1, w2, b2), vjp)


# ---------------------------------------------------------------------------
# Gradient checking


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    max_coords_per_param: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic zero-argument callable returning a
    scalar Tensor computed from ``params``. Coordinates are subsampled
    per parameter when ``max_coords_per_param`` is set (seeded via
    ``rng``). The error metric per coordinate is
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ConfigError(f"grad_check eps must lie in [1e-7, 1e-3], got {eps}")
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        out = f()
    if out.data.size != 1:
        raise ShapeError(f"grad_check requires a scalar-valued f, got shape {out.shape}")
    tape.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    if rng is None:
        rng = np.random.default_rng(0)
    max_err = 0.0
    for p, g in zip(params, analytic):
        size = p.data.size
        if max_coords_per_param is not None and size > max_coords_per_param:
            coords = np.sort(rng.choice(size, size=max_coords_per_param, replace=False))
        else:
            coords = np.arange(size)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = f().item()
            flat[idx] = orig - eps
            f_minus = f().item()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = gflat[idx]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
