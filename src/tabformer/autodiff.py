"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Design rules:

* double precision everywhere, row-major buffers;
* no silent broadcasting: binary ops demand identical shapes, with the
  single exception that a size-1 tensor acts as a scalar. Dedicated ops
  (add_bias, layer_norm, feature_tokens) handle the broadcasts a
  transformer actually needs, each with an exact backward rule;
* ops act on the last one or two axes and carry any leading axes
  along. ``matmul`` takes an N-D left operand with a 2-D right one (a
  token-wise linear, run as one 2-D GEMM) or two N-D operands whose
  leading axes agree (batched products such as per-head attention);
* every op checks its output for NaN/Inf and raises NumericError, so a
  numeric blow-up is surfaced at the op that produced it. ``dense_stack``
  checks each layer's affine output instead and names the layer
  (``hidden i`` or ``output``); no value it leaves unchecked can turn
  non-finite (see the op);
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
a hand-written ``vjp`` over the buffers its forward pass saved, and
one finiteness check on its output. ``dense_stack`` runs a stack of
affine layers with a GELU between each two (the MLP, logistic
regression and the transformer's head) the same way, on the calling
thread and untiled: one GEMM per layer over every row, as its
composite runs it. Tiling rule: the sublayers walk the leading
(sample) axis in equal tiles, and ``_each_tile`` drives every tile
loop. Given the element count of one sample's widest intermediate, it
tiles by rows, the most samples whose intermediates fit a fixed
element budget (no setting), and ``_tile_bounds`` cuts n samples into
k tiles whose sizes differ by at most one: k = ceil(n / rows), capped
at n // 2, so a tile holds at least 2 samples (a lone sample is one
tile) and the count does not depend on the number of workers.
``_each_tile`` also makes the tiles' buffers: under a tape a tile
writes its rows of the full-batch buffers that the vjp reads, and
every other buffer, with no tape every buffer, is per-thread scratch.
A fused op saves only what its vjp reads. Of layer norm that is the
normalised input and 1/std, from which the vjp rebuilds the norm's
output with the forward pass's bits; of the FFN's GELU, the activation
and the slope; of attention, the softmax scores, and not q, k, v or
the context P V. Recompute rule: the attention vjp rebuilds the norm's
output first, then in each of the forward pass's tiles recomputes q, k
and v by the forward pass's per-tile GEMMs on the same operands and
row counts, so they carry the forward pass's bits at any width, and
writes the context over the tile's rows of the context gradient once
they are read; w_o's gradient is taken from it after the tile loop.
That is one GEMM per rebuilt value, and no workspace array more. The
weight, bias and gain gradients are full-batch reductions, and so are
the vjp's input-gradient GEMMs. Workspace rule: a vjp call takes all
its full-batch temporaries (the dropped output gradient; the context
gradient, later the context; the query, key and value gradients; the
FFN's activation gradient; the rebuilt layer-norm output and its
gradient) in one ``_workspace(*shapes)`` call, as disjoint stretches
of one per-thread buffer that keeps its largest size between calls.
The buffer grows, when it must, before any array is handed out, so a
cold call takes the same path as a warm one. A workspace array never
holds a returned gradient or a buffer the forward pass saved, and a
vjp joins every helper that reads one before it returns. Oracle rule:
the primitive ops stay, and a fused op must equal its composite of
primitives bit for bit in the forward pass and in its input and
parameter gradients, and draw its dropout masks by the same
``rng.random`` calls in the same order. Op and tile call
one private kernel per rule: ``_softmax`` and ``_softmax_grad``, which
reduce rows with ``_row_max`` and ``_row_sum`` (numpy's bits, unrolled
over a short row); ``_ln_check``, ``_ln_rows``, ``_ln_affine`` and
``_ln_grad``; ``_dropped`` for every dropout mask; ``_heads`` for the
head split; ``_gelu_kernel`` and ``_gelu_slope``. So that comparison checks
tiling, layouts, GEMM order and rng use, not the formulas, which keep
their own checks: softmax and layer norm against direct evaluation,
scalar attention (acceptance criterion 02), ``grad_check`` of every
op, and dropout's scale. In-place rule: ``in_place=True`` lets a fused
op write its output over x's buffer. It does so whenever the output is
shaped like x, with or without an active tape, and otherwise allocates
as without the permission: for a ``last_only`` attention over more than
one token, whose output is one row. Writing over x is safe because each
tile reads its own rows of x before it writes them, no tile reads
another's rows, and no vjp reads x: it reads the buffers its forward
pass saved and x's shape only. So a forward pass, recorded or not, can
carry one residual buffer through every block, when nothing else reads
x's values afterwards. Without ``in_place`` an op never writes into its
input.

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
process to one thread, and the fused ops spread their work over the
CPUs in the process's affinity mask: the calling thread plus a pool of
helper threads, created on first use and dropped in a forked child.
Helpers claim tiles of a row-local loop one at a time, and run the
vjp's full-batch weight-gradient GEMMs and bias sums while the calling
thread runs the input-gradient chain. Dropout masks are drawn on the
calling thread, and helpers call only private numpy helpers, never a
public op, so the tape sees nothing of them. Every tile and every GEMM
runs the same single-threaded kernel on the same operands whatever the
worker count, so results are bitwise equal for any number of CPUs and
any ``OPENBLAS_NUM_THREADS``. When the thread-control symbol of a
loaded OpenBLAS cannot be found, everything runs on the calling
thread. ``_spawn`` starts every helper.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 array, optionally tracked for differentiation.

    ``grad`` is allocated (zeros) at construction when ``requires_grad``
    is set, and is None otherwise; ``zero_grad`` resets it.
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


def _pack(params: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Copy ``params`` into flat (data, grad) arrays and make each tensor's a view of its slice."""
    data = np.concatenate([p.data.ravel() for p in params])
    grad = np.concatenate([p.grad.ravel() for p in params])
    ends = np.cumsum([p.size for p in params])[:-1]
    for p, d, g in zip(params, np.split(data, ends), np.split(grad, ends)):
        p.data, p.grad = d.reshape(p.shape), g.reshape(p.shape)
    return data, grad


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


def _matmul_check(a: tuple, b: tuple):
    """Reject operand shapes ``matmul`` cannot multiply."""
    if len(a) < 2 or len(b) < 2:
        raise ShapeError(f"matmul needs operands of at least 2 dims, got {a} and {b}")
    if a[-1] != b[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a} vs {b}")
    if len(b) > 2 and a[:-2] != b[:-2]:
        raise ShapeError(f"matmul leading axes differ: {a} vs {b}")


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
    _matmul_check(ad.shape, bd.shape)
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


def _bias_check(x: tuple, b: tuple):
    """Reject a bias ``add_bias`` cannot add to x."""
    if len(b) != 1 or x[-1] != b[0]:
        raise ShapeError(f"add_bias needs x[..., n] and b[n], got {x} and {b}")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-n bias vector to every row of x[..., n]."""
    _bias_check(x.shape, b.shape)
    data = x.data + b.data

    def vjp(og):
        return og, og.sum(axis=tuple(range(og.ndim - 1)))

    return _emit("add_bias", data, (x, b), vjp)


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, as one ``np.maximum`` per column:
    numpy reduces a short last axis far more slowly. Only the sign of a
    zero maximum may differ from numpy's (its SIMD width picks it), which
    softmax cannot see: x - 0 and x - (-0) have the same exponential; and
    a NaN is a NaN, as in numpy."""
    if x.shape[-1] < 2:
        return x.max(axis=-1, keepdims=True)
    m = np.maximum(x[..., :1], x[..., 1:2])
    for j in range(2, x.shape[-1]):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` bit for bit (a NaN's sign bit
    aside, which follows the C compiler's operand order), unrolled for a last
    axis of at most 16 in numpy's own order: +0 plus, below 8 columns, the
    columns in turn; otherwise 8 partial sums over blocks of 8 columns,
    added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    tail columns in turn."""
    t = x.shape[-1]
    if t > 16:
        return x.sum(axis=-1, keepdims=True)
    cols = [x[..., j : j + 1] for j in range(t)]
    if t < 8:
        s = cols[0] + 0.0  # numpy starts from +0, which turns only -0 into +0
        for c in cols[1:]:
            s += c
        return s
    r = cols[:8] if t < 16 else [a + b for a, b in zip(cols[:8], cols[8:])]
    s = (r[0] + r[1]) + (r[2] + r[3])
    s += (r[4] + r[5]) + (r[6] + r[7])
    for c in cols[8 * (t // 8):]:
        s += c
    s += 0.0
    return s


def _softmax(x: np.ndarray, out: np.ndarray):
    """out = softmax of x over its last axis, max-subtracted; ``out`` may be ``x``."""
    np.subtract(x, _row_max(x), out=out)
    np.exp(out, out=out)
    out /= _row_sum(out)


def _softmax_grad(s: np.ndarray, og: np.ndarray) -> np.ndarray:
    """The gradient of softmax's input, s * (og - sum(og * s)), from its
    output ``s``, in one new array."""
    g = og * s
    np.subtract(og, _row_sum(g), out=g)
    g *= s
    return g


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    s = np.empty_like(a.data)
    _softmax(a.data, s)

    def vjp(og):
        return (_softmax_grad(s, og),)

    return _emit("softmax_rows", s, (a,), vjp)


# Phi(-b) = exp(-b*b/2) * P(b / (b + 6)) for b >= 0; P's coefficients,
# constant term first (see ``gelu``)
_CDF_POLY = (
    0.5, -2.393653682408598, 6.606346317592942, -13.117497871491308, 19.43481376022572,
    -21.54839725045763, 17.30951870859584, -9.029468115743194, 1.7770098324352324,
    1.2246358828163975, -0.8593230076831408, -0.12806628176651338, 0.33622557386342217,
    -0.11328831286805624,
)
_CDF_CLAMP = 40.0  # exp(-b*b/2) is 0 from b = 38.6, and b*b stays finite
# Elements per pass. Passes keep the kernel's working set in cache: one
# pass over all of a 16,000 x 64 ``gelu`` input took 43-50 ms against
# 21-23 ms in chunks (2 vCPUs). A default FFN tile (51 samples, 10
# tokens, width 128) is one pass, so the fused op's threads trade the
# interpreter lock once per ufunc call over the whole tile.
_CDF_CHUNK = 1 << 16


def _gelu_kernel(u: np.ndarray, act: np.ndarray, cdf: Optional[np.ndarray], w: np.ndarray):
    """act = GELU(u) = u * Phi(u) and w = exp(-u*u/2), in place, and
    cdf = Phi(u) unless ``cdf`` is None (eval mode needs no Phi). All
    arrays are C-contiguous and shaped like ``u``. A pass over
    ``_CDF_CHUNK`` elements runs the same ufuncs on every element, so an
    element's bits do not depend on the array it sits in."""
    u, act, w = u.reshape(-1), act.reshape(-1), w.reshape(-1)
    cdf = None if cdf is None else cdf.reshape(-1)
    y_buf, c_buf = np.empty((2, min(u.size, _CDF_CHUNK)))
    for lo in range(0, u.size, _CDF_CHUNK):
        hi = min(lo + _CDF_CHUNK, u.size)
        uc, a, e, y, c = u[lo:hi], act[lo:hi], w[lo:hi], y_buf[: hi - lo], c_buf[: hi - lo]
        np.abs(uc, out=a)
        np.minimum(a, _CDF_CLAMP, out=y)  # b; nan stays nan
        np.multiply(y, y, out=e)
        e *= -0.5
        np.exp(e, out=e)
        np.add(y, 6.0, out=c)
        np.divide(y, c, out=y)
        np.multiply(y, _CDF_POLY[-1], out=c)
        c += _CDF_POLY[-2]
        for coef in _CDF_POLY[-3::-1]:
            c *= y
            c += coef
        c *= e  # h = Phi(-|u|)
        if cdf is not None:
            p = cdf[lo:hi]
            np.subtract(0.5, c, out=p)
            np.copysign(p, uc, out=p)
            p += 0.5
        a *= c
        np.maximum(uc, 0.0, out=y)
        np.subtract(y, a, out=a)  # max(u, 0) - |u| h


def _gelu_slope(u: np.ndarray, w: np.ndarray, cdf: np.ndarray):
    """cdf = GELU'(u) = Phi(u) + u * phi(u), in place, from ``_gelu_kernel``'s
    Phi(u) in ``cdf`` and w = exp(-u*u/2), which it overwrites. The ops are
    u * w, times 1/sqrt(2 pi), plus Phi; IEEE products and sums commute, so
    the operands' order does not move a bit."""
    w *= u
    w *= _INV_SQRT_2PI
    cdf += w


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x) (Hendrycks & Gimpel 2016).

    ``_gelu_kernel`` evaluates, for b = |x| and y = b / (b + 6) in
    [0, 1), Phi(-b) = exp(-b*b/2) * P(y) with one ``exp`` and one 14-term
    Horner polynomial, and from it GELU(x) = max(x, 0) - b * Phi(-b) and
    Phi(x) = 0.5 + copysign(0.5 - Phi(-b), x), with no branch select.
    The rational map from b to y follows Cody (Math. Comp. 23, 1969); P
    is a polynomial in y rather than in 1 - y so that the rounding of y
    does not move b near 0, where Phi is steepest. The error of Phi is
    absolute, as for 0.5 * (1 + erf): at most 2^-52 against
    0.5 * (1 + math.erf(x / sqrt(2))), and at most one unit in the last
    place of values in [0.5, 1) against the true Phi on 10^5 random
    points of [-9, 9]. GELU is within 2^-52 * max(1, |x|) of x times that
    oracle. At x = +-inf, Phi is exactly 1 or 0, and nan stays nan.

    Recipe for P: sample R(y) = exp(b*b/2) * Phi(-b) with 50-digit
    mpmath at 4,000 Chebyshev points of y in [0, 1); fit 14 Chebyshev
    polynomials of 2y - 1 to it by least squares weighted by
    exp(-b*b/2), the absolute error of Phi, solved in extended precision
    by iterative refinement; reweight towards minimax (30 Lawson steps);
    expand in powers of y and round to double. The weighted error is
    1.4e-17 before that rounding and 2.5e-17 after it.

    The kernel leaves exp(-x*x/2) behind, and under a tape
    ``_gelu_slope`` turns it and Phi(x) into the slope GELU'(x), the one
    array the vjp keeps, so the backward pass runs no ``exp``.
    """
    x = np.ascontiguousarray(a.data)
    data, w = np.empty_like(x), np.empty_like(x)
    slope = None if active_tape() is None else np.empty_like(x)
    _gelu_kernel(x, data, slope, w)
    if slope is not None:
        _gelu_slope(x, w, slope)

    def vjp(og):
        return (og * slope,)

    return _emit("gelu", data, (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function, computed piecewise so large |x| cannot overflow:
    with e = exp(-|x|), 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere."""
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0, e)
    s /= 1.0 + e

    def vjp(og):
        return (og * s * (1.0 - s),)

    return _emit("sigmoid", s, (a,), vjp)


def _ln_check(op: str, d: int, gain: Tensor, bias: Tensor, eps: float):
    """Reject a layer-norm eps <= 0, and a gain or bias not shaped (d,)."""
    if eps <= 0:
        raise ConfigError(f"{op} needs a positive layer-norm eps, got {eps}")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"{op} layer-norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )


def _ln_rows(x, gain, bias, eps, xhat, inv, out):
    """Layer norm of x over its last axis, written into ``xhat`` (the
    normalised x), ``inv`` (1 / std, one per row) and ``out``."""
    np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    var = (xhat ** 2).mean(axis=-1, keepdims=True)
    np.divide(1.0, np.sqrt(var + eps), out=inv)
    xhat *= inv
    _ln_affine(xhat, gain, bias, out)


def _ln_affine(xhat, gain, bias, out=None) -> np.ndarray:
    """Layer norm's output xhat * gain + bias, into ``out`` when given: the
    fused vjps rebuild it from ``xhat`` with the forward pass's bits."""
    out = np.multiply(xhat, gain, out=out)
    out += bias
    return out


def _ln_grad(og, gain, xhat, inv, out):
    """out = the gradient of layer norm's input, from ``_ln_rows``'s
    ``xhat`` and ``inv``."""
    dxhat = og * gain
    dot = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dxhat -= dxhat.mean(axis=-1, keepdims=True)
    dxhat -= xhat * dot
    np.multiply(inv, dxhat, out=out)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Population variance with eps inside the square root, so a constant
    row maps to gain*0 + bias rather than dividing by zero.
    """
    shape = x.data.shape
    _ln_check("layer_norm", shape[-1], gain, bias, eps)
    xhat, inv, data = np.empty(shape), np.empty(shape[:-1] + (1,)), np.empty(shape)
    _ln_rows(x.data, gain.data, bias.data, eps, xhat, inv, data)

    def vjp(og):
        lead = tuple(range(og.ndim - 1))
        dx = np.empty(shape)
        _ln_grad(og, gain.data, xhat, inv, dx)
        return dx, (og * xhat).sum(axis=lead), og.sum(axis=lead)

    return _emit("layer_norm", data, (x, gain, bias), vjp)


def _dropped(a: np.ndarray, keep: Optional[np.ndarray], scale: float, out=None) -> np.ndarray:
    """``a`` itself when ``keep`` is None, else a * keep * scale in one
    array, ``out`` when given: a dropped element becomes a zero of a's
    sign."""
    if keep is None:
        return a
    out = np.multiply(a, keep, out=out)
    out *= scale
    return out


def _dropout_check(rate: float, rng, training: bool) -> bool:
    """Check dropout's arguments; return whether a mask is drawn."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if training and rate > 0.0 and rng is None:
        raise ConfigError("training-mode dropout requires an explicit rng")
    return training and rate > 0.0


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator], training: bool) -> Tensor:
    """Inverted dropout: identity in eval mode, survivors scaled by 1/(1-rate)."""
    if not _dropout_check(rate, rng, training):
        return x
    keep, scale = rng.random(x.data.shape) >= rate, 1.0 / (1.0 - rate)
    data = _dropped(x.data, keep, scale)

    def vjp(og):
        return (_dropped(og, keep, scale),)

    return _emit("dropout", data, (x,), vjp)


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[..., t, h*d_k] -> [h, ..., t, d_k], a view when ``a`` is contiguous."""
    return np.moveaxis(a.reshape(a.shape[:-1] + (n_heads, a.shape[-1] // n_heads)), -2, 0)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[..., t, h*d_k] -> [h, ..., t, d_k]: head j is x[..., j*d_k:(j+1)*d_k].

    For a contiguous x, such as a matmul output, the result is a numpy
    view (no copy). merge_heads inverts it.
    """
    width = x.data.shape[-1]
    if x.data.ndim < 2 or n_heads < 1 or width % n_heads:
        raise ShapeError(f"split_heads cannot cut shape {x.shape} into {n_heads} heads")
    data = _heads(x.data, n_heads)

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
        return (_heads(og, h),)

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


def reshape(x: Tensor, shape: tuple) -> Tensor:
    if math.prod(shape) != x.data.size:
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


def feature_tokens(x: np.ndarray, numeric_idx, categorical_idx, sizes, params: Sequence[Tensor]) -> Tensor:
    """The feature tokenizer: raw rows x[n, f] -> tokens [n, f + 1, d].

    ``params`` is (w[f_num, d], b[f_num, d], table[sum(sizes), d],
    cls[d]). The k-th categorical feature owns ``sizes[k]`` table rows
    from offset_k = sizes[0] + ... + sizes[k-1], and a kind with no
    feature has zero rows. Token j is x[:, j] * w[k] + b[k] when j is
    the k-th numeric feature and table[offset_k + int(x[:, j])] when it
    is the k-th categorical one; token f is ``cls``. A code that is not
    a whole number, or lies outside its own column's rows, is an error,
    even when it lies inside the table. ``x`` is raw data and is not
    differentiated.
    """
    x = np.asarray(x, dtype=np.float64)
    num, cat = np.asarray(numeric_idx, np.intp), np.asarray(categorical_idx, np.intp)
    sizes = np.asarray(sizes, np.intp)
    params = tuple(params)
    d = params[-1].data.shape[-1]
    if (
        x.ndim != 2
        or sizes.shape != cat.shape
        or not np.array_equal(np.sort(np.concatenate([num, cat])), np.arange(x.shape[1]))
        or [p.data.shape for p in params] != [(num.size, d), (num.size, d), (sizes.sum(), d), (d,)]
    ):
        raise ShapeError(
            f"feature_tokens shapes disagree: x {x.shape}, {num.size} numeric and {cat.size} "
            f"categorical features, parameters {[p.shape for p in params]}"
        )
    w, b, table, cls = params
    n, f = x.shape
    codes = x[:, cat]
    if not ((codes >= 0) & (codes < sizes) & (codes % 1 == 0)).all():  # NaN fails too
        raise ShapeError(
            f"embedding index out of range for columns with {sizes.tolist()} rows, or not a whole number"
        )
    rows = codes.astype(np.intp) + (np.cumsum(sizes) - sizes)
    xn = x[:, num]
    data = np.empty((n, f + 1, d))
    for k, j in enumerate(num):  # x * w + b written in place: no (n, f, d) temporaries
        np.multiply(xn[:, k, None], w.data[k], out=data[:, j])
        data[:, j] += b.data[k]
    data[:, cat] = table.data[rows]
    data[:, f] = cls.data

    def vjp(og):
        og_num = og[:, num]
        # a table row belongs to one column, so it sums its rows' flows in row order
        g_table = np.zeros_like(table.data)
        np.add.at(g_table, rows, og[:, cat])
        return np.einsum("nf,nfd->fd", xn, og_num), og_num.sum(axis=0), g_table, og[:, f].sum(axis=0)

    return _emit("feature_tokens", data, params, vjp)


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


def _spawn(fn: Callable) -> Callable:
    """Start ``fn()`` on the pool; the returned callable gives its
    result, running ``fn`` itself if no helper has started it yet."""
    if _WORKERS < 2:
        value = fn()
        return lambda: value
    # a helper sees the caller's context, numpy's error state included
    future = _pool().submit(contextvars.copy_context().run, fn)
    return lambda: fn() if future.cancel() else future.result()


def _tile_bounds(n: int, rows: int) -> list[int]:
    """The k + 1 bounds of ``n`` samples cut into k equal tiles of at most
    ``rows`` samples: k = ceil(n / rows), capped at n // 2 (at least 1)
    so that a tile holds at least 2 samples whenever n does. Tile i is
    [n * i // k, n * (i + 1) // k); no samples make no tile."""
    k = min(-(-n // rows), max(1, n // 2))
    return [n * i // k for i in range(k + 1)] if k else [0]


_TILE_ELEMENTS = 1 << 16


def _each_tile(n: int, width: int, body, scratch=(), saved=()):
    """Call ``body(lo, hi, bufs)`` for every tile [lo, hi) of
    ``_tile_bounds(n, rows)``, claimed in turn by the calling thread and
    its helpers. ``width`` is the element count of one sample's widest
    intermediate, and ``rows`` the most samples whose widest intermediates
    fit ``_TILE_ELEMENTS``: 81 (attention) and 51 (FFN) at the default
    configuration with 10 tokens, so 4 tiles of 64 and 6 of 42 or 43 at
    256 samples. ``scratch`` and ``saved`` are per-sample buffer shapes,
    and ``bufs`` holds the tile's rows of each, scratch first. Under a
    tape the saved buffers are made full-batch and returned, for the vjp
    to read, and ``bufs`` holds their rows lo:hi. Every other buffer, and
    with no tape every buffer, is per-thread scratch: a thread makes one
    set of the largest tile's samples on the first tile it claims, and
    ``bufs`` holds the first hi - lo rows of it. Once a tile raises, no
    more are claimed, and the error is raised after every helper has
    returned."""
    taped = active_tape() is not None
    kept = [np.empty((n,) + shape) for shape in saved] if taped else []
    per_thread = list(scratch) + ([] if taped else list(saved))
    bounds = _tile_bounds(n, max(1, _TILE_ELEMENTS // width))
    tiles, lock, errors = iter(zip(bounds, bounds[1:])), threading.Lock(), []
    widest = max((hi - lo for lo, hi in zip(bounds, bounds[1:])), default=0)

    def drain():
        own = None
        try:
            while True:
                with lock:
                    tile = None if errors else next(tiles, None)
                if tile is None:
                    return
                lo, hi = tile
                if own is None:
                    own = [np.empty((widest,) + shape) for shape in per_thread]
                body(lo, hi, [b[: hi - lo] for b in own] + [b[lo:hi] for b in kept])
        except BaseException as exc:  # raised by the caller once every helper is joined
            errors.append(exc)

    # the caller's drain returns once no tile is left to claim, so joining
    # a helper that never started runs a drain with nothing to do
    joins = [_spawn(drain) for _ in range(min(_WORKERS, len(bounds) - 1) - 1)]
    drain()
    for join in joins:
        join()
    if errors:
        raise errors[0]
    return kept if taped else None


_LOCAL = threading.local()  # ``buf``: this thread's vjp buffer, once a vjp made it


def _workspace(*shapes: tuple) -> list[np.ndarray]:
    """One vjp call's temporaries: an array of each shape, in order, on
    disjoint stretches of this thread's buffer, so what the vjps use is
    allocated once, not on every backward pass. A buffer smaller than
    the shapes' total is freed, then replaced by one of that size, before
    any array is handed out, so a cold call takes the same path as a warm
    one. The previous call on the thread must be done with its arrays."""
    need = sum(math.prod(shape) for shape in shapes)
    if getattr(_LOCAL, "buf", np.empty(0)).size < need:
        _LOCAL.buf = None  # free the smaller buffer before making the larger one
        _LOCAL.buf = np.empty(need)
    arrays, end = [], 0
    for shape in shapes:
        start, end = end, end + math.prod(shape)
        arrays.append(_LOCAL.buf[start:end].reshape(shape))
    return arrays


# ---------------------------------------------------------------------------
# Fused transformer sublayers (the rules are in the module docstring)
#
# Each runs its primitives' kernels on the same values, one tile of
# rows at a time. The forward GEMMs (x @ W) run per tile: OpenBLAS gives
# every row the same bits at any row count for the widths the tests
# cover (multiples of 8). The vjp's input-gradient GEMMs (og @ W^T) run
# full-batch on the composite's own operand layouts, into which the
# tiles write K's gradient, because OpenBLAS computes og @ W^T for a
# small row count with another kernel, whose last bits differ. A
# gradient that fans out is summed in the tape's order.


def _sublayer_input(op, x, ln_g, ln_b, eps, rate, rng):
    """Check what both sublayers take; return x as [n, t, d]."""
    if x.data.ndim < 2:
        raise ShapeError(f"{op} needs x[..., t, d], got shape {x.shape}")
    _ln_check(op, x.data.shape[-1], ln_g, ln_b, eps)
    _dropout_check(rate, rng, training=True)  # a rate of 0 stands for eval mode
    return x.data.reshape((-1,) + x.data.shape[-2:])


def _ln_residual_vjp(og, g_ln, gain, xhat, inv, width, shape):
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
        _ln_grad(g_ln[lo:hi], gain, xhat[lo:hi], inv[lo:hi], gx[lo:hi])
        gx[lo:hi, kept] += og[lo:hi]

    _each_tile(g_ln.shape[0], width, tile)
    return gx.reshape(shape), g_gain(), g_bias()


def attention_sublayer(x, ln_g, ln_b, w_q, w_k, w_v, w_o, n_heads, eps=1e-5, rate=0.0, rng=None,
                       last_only=False, in_place=False):
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

    ``in_place`` lets the op write its output over x's buffer, under a
    tape too; a ``last_only`` output over more than one token is a new
    array (the in-place rule in the module docstring).

    Under a tape the op saves layer norm's xhat and 1/std and the softmax
    scores. q, k, v and the context P V are per-thread tile scratch, the
    context written over q, which is dead once the scores exist. The vjp
    rebuilds them tile by tile (the recompute rule in the module
    docstring): q, k and v by the same per-tile GEMMs on the same rows of
    the same layer-norm output, so they have the forward pass's bits at
    any width, not only where a tile's GEMM rounds like the full batch's,
    and the context from the saved scores and its dropout mask. At the
    default configuration and 256 samples that holds 13.4 MB less for
    backward, for four GEMMs per tile more.
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
    out = xs if in_place and tq == t else np.empty((n, tq, d))
    h, scale, keep_p, keep_o = n_heads, 1.0 / (1.0 - rate), None, None
    if rate > 0.0:
        keep_p = rng.random((h, n, t, t))[:, :, qs] >= rate
        keep_o = rng.random((n, t, d))[:, qs] >= rate
    score_scale = 1.0 / math.sqrt(d // h)
    width = t * max(d, h * t)

    # one tile's q, k and v from its layer-norm output, in the forward pass
    # and again, on the same operands, in the vjp
    def project(hn, q, k, v):
        for dst, src, w in ((q, hn[:, qs], w_q), (k, hn, w_k), (v, hn, w_v)):
            np.matmul(src.reshape(-1, d), w.data, out=dst.reshape(-1, d))

    # scratch: hn, q (then ctx, written over it), k and v; saved: xhat, inv
    # and the scores (sample-major) for the query rows
    scratch, saved = [(t, d), (tq, d), (t, d), (t, d)], [(t, d), (t, 1), (h, tq, t)]

    def tile(lo, hi, bufs):
        hn, q, k, v, xhat, inv, s = bufs
        _ln_rows(xs[lo:hi], ln_g.data, ln_b.data, eps, xhat, inv, hn)
        project(hn, q, k, v)
        sc = np.swapaxes(s, 0, 1)  # head-major, as the composite lays its scores out
        np.matmul(_heads(q, h), np.swapaxes(_heads(k, h), -1, -2), out=sc)
        sc *= score_scale
        _softmax(sc, sc)
        p = _dropped(sc, None if keep_p is None else keep_p[:, lo:hi], scale)
        ctx = q  # q is dead once the scores exist
        np.matmul(p, _heads(v, h), out=_heads(ctx, h))
        o = (ctx.reshape(-1, d) @ w_o.data).reshape(hi - lo, tq, d)
        o = _dropped(o, None if keep_o is None else keep_o[lo:hi], scale)
        np.add(xs[lo:hi, qs], o, out=out[lo:hi])

    kept = _each_tile(n, width, tile, scratch, saved)

    def vjp(og):
        xhat, inv, s = kept
        # K's gradient in the composite's layout: C order, or for n = 1 the
        # strided view that the composite's reshape keeps
        k_shape = (d, t) if n == 1 else (n, t, d)
        hn, g_o, g_ctx, g_q, g_v, g_k, g_hn = _workspace(
            (n, t, d), (n, tq, d), (n * tq, d), (n, tq, d), (n, t, d), k_shape, (n * t, d))
        g_k = g_k.T[None] if n == 1 else g_k
        _ln_affine(xhat, ln_g.data, ln_b.data, hn)
        g_o = _dropped(og.reshape(n, tq, d), keep_o, scale, g_o).reshape(-1, d)
        g_ctx = np.matmul(g_o, w_o.data.T, out=g_ctx).reshape(n, tq, d)

        def tile(lo, hi, bufs):
            q, k, v = bufs
            project(hn[lo:hi], q, k, v)  # the forward pass's tiles, so its bits
            sc, gc = np.swapaxes(s[lo:hi], 0, 1), _heads(g_ctx[lo:hi], h)
            keep = None if keep_p is None else keep_p[:, lo:hi]
            p = _dropped(sc, keep, scale)
            np.matmul(np.swapaxes(p, -1, -2), gc, out=_heads(g_v[lo:hi], h))
            g_p = _dropped(gc @ np.swapaxes(_heads(v, h), -1, -2), keep, scale)
            np.matmul(p, _heads(v, h), out=gc)  # ctx, over the rows of g_ctx just read
            g_sc = _softmax_grad(sc, g_p)
            g_sc *= score_scale
            np.matmul(g_sc, _heads(k, h), out=_heads(g_q[lo:hi], h))
            np.matmul(np.swapaxes(g_sc, -1, -2), _heads(q, h), out=_heads(g_k[lo:hi], h))

        _each_tile(n, width, tile, [(tq, d), (t, d), (t, d)])
        g_w_o = _spawn(lambda: g_ctx.reshape(-1, d).T @ g_o)  # g_ctx now holds ctx
        g_q, g_k, g_v = (g.reshape(-1, d) for g in (g_q, g_k, g_v))
        h2, hq = hn.reshape(-1, d), hn[:, qs].reshape(-1, d)
        g_w = [_spawn(lambda a=a, g=g: a.T @ g) for a, g in ((hq, g_q), (h2, g_k), (h2, g_v))]
        # the tape's fan-out order into the layer-norm output: (v + k) + q
        g_hn = np.matmul(g_v, w_v.data.T, out=g_hn).reshape(n, t, d)
        g_hn += (g_k @ w_k.data.T).reshape(n, t, d)
        g_hn[:, qs] += (g_q @ w_q.data.T).reshape(n, tq, d)
        g_x = _ln_residual_vjp(og.reshape(n, tq, d), g_hn, ln_g.data, xhat, inv, width, x.shape)
        return g_x + tuple(g() for g in g_w) + (g_w_o(),)

    inputs = (x, ln_g, ln_b, w_q, w_k, w_v, w_o)
    return _emit("attention_sublayer", out.reshape(x.shape[:-2] + (tq, d)), inputs, vjp)


def ffn_sublayer(x, ln_g, ln_b, w1, b1, w2, b2, eps=1e-5, rate=0.0, rng=None, mask_tokens=None,
                 in_place=False):
    """x + dropout(GELU(layer_norm(x) W1 + b1) W2 + b2) as one op, for x[..., t, d].

    The composite it replaces: ``layer_norm``; ``matmul`` and
    ``add_bias`` by w1, b1; ``gelu``; ``matmul`` and ``add_bias`` by w2,
    b2; ``dropout``; ``add``. With ``rate`` > 0 the output's mask is
    drawn full-batch from ``rng``; ``rate`` 0 is eval mode.

    ``mask_tokens``, when x holds only the last t of that many tokens
    (the output of a ``last_only`` attention sublayer), is the token
    count the mask is drawn for; x uses its last t rows.

    ``in_place`` lets the op write its output over x's buffer, under a
    tape too (the in-place rule in the module docstring).

    The GELU runs the composite's kernels (``_gelu_kernel``,
    ``_gelu_slope``) on each tile. Under a tape the op keeps the
    activation and the slope, which is written over Phi; the
    pre-activation and exp(-pre^2/2) are tile scratch, and the vjp's
    GELU step is one product, slope times the activation's gradient.
    Fused and composite are bitwise equal only when d and f are
    multiples of 8: at other widths OpenBLAS runs a tile's GEMM
    with its small-matrix kernel, which rounds differently from the
    full-batch GEMM. With f = 12 at d = 32 the output differs by up to
    8.9e-16 and the gradients by up to 7.1e-14.
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
    out = xs if in_place else np.empty((n, t, d))
    scale, keep_o = 1.0 / (1.0 - rate), None
    if rate > 0.0:
        keep_o = rng.random((n, drawn, d))[:, drawn - t:] >= rate
    width = t * max(d, f)
    # scratch: hn, the pre-activation and exp(-pre^2/2); saved: xhat, inv,
    # the activation and, for the vjp only, GELU's slope
    scratch = [(t, d), (t, f), (t, f)]
    saved = [(t, d), (t, 1), (t, f)] + ([(t, f)] if active_tape() is not None else [])

    def tile(lo, hi, bufs):
        hn, pre, gauss, xhat, inv, act, *slope = bufs
        _ln_rows(xs[lo:hi], ln_g.data, ln_b.data, eps, xhat, inv, hn)
        np.matmul(hn.reshape(-1, d), w1.data, out=pre.reshape(-1, f))
        pre += b1.data
        _gelu_kernel(pre, act, slope[0] if slope else None, gauss)
        if slope:
            _gelu_slope(pre, gauss, slope[0])
        o = (act.reshape(-1, f) @ w2.data).reshape(hi - lo, t, d)
        o += b2.data
        o = _dropped(o, None if keep_o is None else keep_o[lo:hi], scale)
        np.add(xs[lo:hi], o, out=out[lo:hi])

    kept = _each_tile(n, width, tile, scratch, saved)

    def vjp(og):
        xhat, inv, act, slope = kept
        lead = tuple(range(x.data.ndim - 1))
        g_o, g_u, hn, g_hn = _workspace((n, t, d), (n * t, f), (n, t, d), (n * t, d))
        g_o = _dropped(og.reshape(n, t, d), keep_o, scale, g_o).reshape(-1, d)
        g_w2 = _spawn(lambda: act.reshape(-1, f).T @ g_o)
        g_b2 = _spawn(lambda: g_o.reshape(x.shape).sum(axis=lead))
        np.matmul(g_o, w2.data.T, out=g_u)
        g_u *= slope.reshape(-1, f)
        _ln_affine(xhat, ln_g.data, ln_b.data, hn)
        g_w1 = _spawn(lambda: hn.reshape(-1, d).T @ g_u)
        g_b1 = _spawn(lambda: g_u.reshape(x.shape[:-1] + (f,)).sum(axis=lead))
        g_hn = np.matmul(g_u, w1.data.T, out=g_hn).reshape(n, t, d)
        g_x = _ln_residual_vjp(og.reshape(n, t, d), g_hn, ln_g.data, xhat, inv, width, x.shape)
        return g_x + (g_w1(), g_b1(), g_w2(), g_b2())

    return _emit("ffn_sublayer", out.reshape(x.shape), (x, ln_g, ln_b, w1, b1, w2, b2), vjp)


# ---------------------------------------------------------------------------
# Fused dense stack (the rules are in the module docstring)


def dense_stack(x: Tensor, params: Sequence[Tensor]) -> Tensor:
    """Affine layers with a GELU between each two, as one op, for x[..., k]
    and ``params`` = (w0, b0, w1, b1, ...): x W0 + b0, then GELU, W1, b1
    and so on, with no GELU after the last layer.

    The composite it replaces: per layer ``matmul`` and ``add_bias``, and
    ``gelu`` before every layer but the first. The forward pass runs the
    same kernels on the same operands (one 2-D GEMM per layer, the bias
    added in place, ``_gelu_kernel`` and, under a tape, ``_gelu_slope``),
    and the vjp applies the primitives' rules in reverse: the output, the
    input gradient and every parameter gradient are the composite's bits.

    Each layer's affine output is checked once, as ``hidden i`` or, for
    the last layer, ``output``. That catches every non-finite value: GELU
    maps finite to finite, a non-finite input reaches every output column
    of a GEMM, and adding a finite bias keeps it non-finite.
    """
    params = tuple(params)
    if not params or len(params) % 2:
        raise ShapeError(f"dense_stack needs (w0, b0, w1, b1, ...), got {len(params)} tensors")
    weights, biases = params[::2], params[1::2]
    shape = x.shape
    for w, b in zip(weights, biases):  # every shape before any GEMM, in the composite's words
        _matmul_check(shape, w.shape)
        if w.data.ndim != 2:
            raise ShapeError(f"dense_stack needs 2-D weights, got {w.shape}")
        shape = shape[:-1] + w.shape[-1:]
        _bias_check(shape, b.shape)
    lead = x.shape[:-1]
    last = len(weights) - 1
    tape = active_tape()
    # under a tape: each layer's input as a 2-D matrix, and each GELU's slope
    ins, slopes = [], []
    a2 = x.data.reshape(-1, x.shape[-1])
    for i, (w, b) in enumerate(zip(weights, biases)):
        if i:
            a2, gauss = np.empty_like(z), np.empty_like(z)
            slope = None if tape is None else np.empty_like(z)
            _gelu_kernel(z, a2, slope, gauss)
            if slope is not None:
                _gelu_slope(z, gauss, slope)
                slopes.append(slope)
        if tape is not None:
            ins.append(a2)
        z = a2 @ w.data
        z += b.data
        if i < last:  # the last layer's check is ``_emit``'s
            _finite_or_raise(z, f"hidden {i}: dense_stack")
    need = [tape is not None and tape.tracks(t) for t in (x,) + params]

    def vjp(og):
        grads = [None] * len(need)
        g_nd = og  # the gradient of layer i's affine output, shaped lead + (width,)
        for i in range(last, -1, -1):
            g = g_nd.reshape(-1, g_nd.shape[-1])
            if need[2 * i + 2]:
                grads[2 * i + 2] = g_nd.sum(axis=tuple(range(g_nd.ndim - 1)))
            if need[2 * i + 1]:
                grads[2 * i + 1] = ins[i].T @ g
            if i:
                g_a = g @ weights[i].data.T
                g_a *= slopes[i - 1]
                g_nd = g_a.reshape(lead + g_a.shape[-1:])
            elif need[0]:
                grads[0] = (g @ weights[0].data.T).reshape(x.shape)
        return tuple(grads)

    return _emit("output: dense_stack", z.reshape(lead + z.shape[-1:]), (x,) + params, vjp)


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
    analytic = [p.grad.copy() for p in params]

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
