"""Reverse-mode tensor arithmetic on numpy arrays, sized for this model.

A Tensor wraps a float32/float64 ndarray plus the bookkeeping needed for
backpropagation: the parent tensors it was computed from and a closure that
routes an incoming output gradient to those parents. `backward` walks the
graph once in reverse topological order. Leaf tensors (parameters, inputs
with requires_grad) accumulate into a persistent `.grad` buffer;
intermediate gradients live only for the duration of the sweep, so calling
`backward` twice on the same loss adds the gradients twice, matching the
accumulate-until-zeroed contract.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class SlotlabError(Exception):
    """Base of every named slotlab error; each subclass also keeps its builtin base."""


class DimensionError(SlotlabError, ValueError):
    """Operand shapes do not satisfy an op's contract."""


class ContractError(SlotlabError, ValueError):
    """A value-level precondition was violated."""


class ConfigError(SlotlabError, ValueError):
    """Invalid layer or run configuration, raised at construction time."""


class NumericError(SlotlabError, RuntimeError):
    """NaN/Inf encountered where the contract requires finite values."""


_DTYPE_TO_NAME = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_NAME_TO_DTYPE = {"f32": np.float32, "f64": np.float64}


def np_dtype(name: str) -> np.dtype:
    if name not in _NAME_TO_DTYPE:
        raise ConfigError(f"unknown dtype {name!r}, expected 'f32' or 'f64'")
    return np.dtype(_NAME_TO_DTYPE[name])


class Tensor:
    """A numpy array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _DTYPE_TO_NAME:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _DTYPE_TO_NAME[self.data.dtype]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars and ndarrays are lifted to constant tensors.
    def __add__(self, other):
        return add(self, _lift(other, self))

    def __radd__(self, other):
        return add(_lift(other, self), self)

    def __sub__(self, other):
        return add(self, neg(_lift(other, self)))

    def __rsub__(self, other):
        return add(_lift(other, self), neg(self))

    def __mul__(self, other):
        return mul(self, _lift(other, self))

    def __rmul__(self, other):
        return mul(_lift(other, self), self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ContractError("tensor/tensor division is not part of this op set")
        return mul(self, _lift(1.0 / other, self))

    def __neg__(self):
        return neg(self)


def constant(data, like: Tensor | None = None, dtype=None) -> Tensor:
    """A tensor outside the gradient graph, dtype-matched to `like` if given."""
    if dtype is None and like is not None:
        dtype = like.data.dtype
    return Tensor(data, requires_grad=False, dtype=dtype)


def _lift(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return constant(value, like=like)


# glibc mallopt parameters, and the values a process running large ops keeps them at.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 256 << 20, 32 << 20
_LARGE_RESULT_BYTES = 1 << 20
_thresholds_fixed = False


def _fix_malloc_thresholds() -> None:
    """Keep the heap memory of freed arrays in the process for the next step to reuse.

    A paper-size training step or batched forward allocates and frees many
    numpy temporaries of about 1 MiB. glibc's thresholds for mmapping a block
    and for trimming the heap top move with the allocation history, so in one
    process those blocks stay mapped and in the next they go back to the OS
    after every step and are page-faulted in again: about a quarter of a
    training step, and tens of thousands of faults per batched predict with a
    retained graph. Fixed thresholds (the largest mmap threshold glibc would
    pick itself, and a trim threshold above a step's working set) make every
    step reuse the same memory. `_result` calls this at the first op result
    of 1 MiB or more, so desk-size models, whose temporaries stay below that,
    keep glibc's defaults and a smaller resident set. Under the defaults a
    desk step may still fault its temporaries in again. A bare desk training
    loop does so at every step (some 900 pages) and runs about 15% slower
    than with both thresholds set in the environment, while the same steps
    in a process that allocates more between them mostly fault none.
    Nothing is changed off Linux, when libc has no mallopt, or when the
    environment already sets either threshold.
    """
    global _thresholds_fixed
    _thresholds_fixed = True
    if sys.platform != "linux" or {"MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"} & set(os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


_grad_enabled = True


@contextmanager
def no_grad():
    """Inside the block, op results record no backward graph.

    Intermediates are then freed as soon as nothing reads them, instead of
    living until the result is dropped, so a forward pass keeps only its
    live arrays in memory. The switch is process-wide, not per thread.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether op results record a backward graph: False inside `no_grad`."""
    return _grad_enabled


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    if not _thresholds_fixed and data.nbytes >= _LARGE_RESULT_BYTES:
        _fix_malloc_thresholds()
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` along the axes numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g, sink):
        if a.requires_grad:
            sink(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            sink(b, _unbroadcast(g, b.data.shape))

    return _result(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g, sink):
        if a.requires_grad:
            sink(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            sink(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), bwd)


def neg(x: Tensor) -> Tensor:
    def bwd(g, sink):
        sink(x, -g)

    return _result(-x.data, (x,), bwd)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function, stable in both tails: exp of a non-positive argument only, taken once.

    The numerator is 1 where d >= 0 and exp(-|d|) < 1 elsewhere, so one
    `np.maximum` against the boolean mask picks it without an `np.where`.
    """
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    np.maximum(e, d >= 0, out=e)
    e /= den
    return e


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bwd(g, sink):
        sink(x, g * (1.0 - out * out))

    return _result(out, (x,), bwd)


# ---------------------------------------------------------------------------
# contractions


_MIN_COLS = 4


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b) in a layout whose rows round alike at every row count.

    numpy hands a one-row product to BLAS's gemv, which rounds differently
    from the gemm that computes the same row inside a larger product, and
    BLAS rounds the rows of a product narrower than four columns differently
    with the row count (gemv for one column, OpenBLAS's narrow gemm kernels
    for two or three). So a one-row a runs as two copies of its row and a
    narrower b gets zero columns, both dropped from the result: a word's or
    an utterance's numbers do not depend on the batch it is in.
    """
    rows, cols = a.shape[-2], b.shape[-1]
    if rows > 1 and cols >= _MIN_COLS:
        return np.matmul(a, b)
    if rows == 1:
        a = np.concatenate([a, a], axis=-2)
    if cols < _MIN_COLS:
        padded = np.zeros(b.shape[:-1] + (_MIN_COLS,), b.dtype)
        padded[..., :cols] = b
        b = padded
    return np.matmul(a, b)[..., :rows, :cols]


def _block_mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x[..., N, k*m] times the block-diagonal matrix whose blocks are w[k, m, n], as [..., N, k*n].

    Feature chunk i of x meets block i in one batched `_matmul` over the
    [..., k, N, m] layout. One block is a plain `_matmul` with w[0], which
    numpy broadcasts over the leading axes: the same gemm per [N, m] matrix
    as the layout, without its reshape and copy. For k > 1, on the shapes
    `_matmul` passes to np.matmul unchanged, the [..., k, N, n] products are
    written straight into a swapped view of the result: BLAS only writes
    them with another row stride, so the bits are those of the product
    copied into layout.
    """
    k, m, n = w.shape
    if k == 1:
        return _matmul(x, w[0])
    lead = x.shape[:-1]
    xk = x.reshape(lead + (k, m)).swapaxes(-3, -2)
    if x.shape[-2] > 1 and n >= _MIN_COLS:
        out = np.empty(lead + (k * n,), np.result_type(x, w))
        np.matmul(xk, w, out=out.reshape(lead + (k, n)).swapaxes(-3, -2))
        return out
    return _matmul(xk, w).swapaxes(-3, -2).reshape(lead + (k * n,))


def _block_kernel_grad(x: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Gradient of the [k, m, n] blocks of `_block_mm(x, w)` given its output gradient g: all rows at once."""
    rows = x.reshape(-1, k, x.shape[-1] // k).transpose(1, 2, 0)
    return _matmul(rows, g.reshape(-1, k, g.shape[-1] // k).swapaxes(0, 1))


def block_matmul(x: Tensor, w: Tensor) -> Tensor:
    """x[..., N, k*m] times the block-diagonal matrix whose blocks are w[k, m, n].

    Feature chunk i of x meets block i and the outputs are laid out
    contiguously again, giving [..., N, k*n]. Forward and input gradient are
    one `_block_mm` each, the latter with a C-ordered copy of the transposed
    blocks rather than their F-ordered view; the kernel gradient contracts all
    rows at once.
    """
    if w.data.ndim != 3:
        raise DimensionError(f"block_matmul: kernel must be [k, m, n], got shape {w.shape}")
    k, m, n = w.data.shape
    if x.data.ndim < 2 or x.data.shape[-1] != k * m:
        raise DimensionError(f"block_matmul: inner dimensions disagree, {x.shape} x {w.shape}")
    data = _block_mm(x.data, w.data)

    def bwd(g, sink):
        if x.requires_grad:
            sink(x, _block_mm(g, np.ascontiguousarray(w.data.swapaxes(1, 2))))
        if w.requires_grad:
            sink(w, _block_kernel_grad(x.data, g, k))

    return _result(data, (x, w), bwd)


@lru_cache(maxsize=64)
def _einsum_plan(a_s: str, b_s: str, out_s: str) -> tuple:
    """How `_contract` lays out a two-operand einsum as one batched matmul.

    Each index must be in at least two of the three terms, so it falls into
    one group: batch (in a, b and out), free in a or in b (that operand and
    out) or summed (a and b only). Batch and free indices keep their output
    order, summed indices a's order. The product runs on the operands' views
    when each operand has one free index, one index is summed and the
    output's last index is b's free index: then an array in out_s order has a
    matmul-order view (`to_mm`) whose matrices BLAS writes row-major, as it
    writes the reshape path's result.
    """
    spec, terms = f"{a_s},{b_s}->{out_s}", (set(a_s), set(b_s), set(out_s))
    if any(len(set(s)) != len(s) for s in (a_s, b_s, out_s)):
        raise DimensionError(f"einsum2: spec {spec!r} repeats an index within one term; a matmul takes no diagonal")
    if any(sum(c in t for t in terms) < 2 for c in set.union(*terms)):
        raise DimensionError(f"einsum2: spec {spec!r} has an index summed within one operand or in the output only")
    batch = [c for c in out_s if c in a_s and c in b_s]
    free_a = [c for c in out_s if c not in b_s]
    free_b = [c for c in out_s if c not in a_s]
    summed = [c for c in a_s if c not in out_s]
    mm = batch + free_a + free_b
    on_views = len(free_a) == len(free_b) == len(summed) == 1 and out_s[-1] == free_b[0]
    return (
        tuple(a_s.index(c) for c in batch + free_a + summed),
        tuple(b_s.index(c) for c in batch + summed + free_b),
        (len(batch), len(free_a), len(summed)),
        tuple(mm.index(c) for c in out_s),
        tuple(out_s.index(c) for c in mm) if on_views else None,
    )


def _blas_operand(x: np.ndarray) -> np.ndarray:
    """x laid out as the reshape to one batch axis lays it out, without a copy where that reshape makes none.

    Row-major matrices go to BLAS as they lie. Column-major ones stay views
    when their batch axes merge into one stride, as the reshape keeps them;
    otherwise, and for matrices BLAS could read neither way, x is copied
    C-ordered. BLAS rounds a product with a transposed operand differently
    from the same product with that operand copied, so this keeps the bits
    of the reshape path.
    """
    (r, c), (rs, cs), item = x.shape[-2:], x.strides[-2:], x.itemsize
    if cs == item and rs >= c * item:
        return x
    if rs == item and cs >= r * item:
        return x.reshape(-1, r, c).reshape(x.shape)
    return np.ascontiguousarray(x)


def _contract(a_s: str, b_s: str, out_s: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum(f"{a_s},{b_s}->{out_s}", a, b) as one batched np.matmul over the operands' transposed views.

    When the plan allows it and the product has at least two rows and four
    columns, np.matmul reads the views (`_blas_operand`) and writes into a
    C-ordered array in out_s order through its matmul-order view: the result
    is not copied, and a reshape of it is a view. Otherwise the operands are
    reshaped to one batch, row and column axis, multiplied by `_matmul` and
    the result is reshaped and transposed back. Both paths give the same bits.
    """
    if a.ndim != len(a_s) or b.ndim != len(b_s):
        raise DimensionError(f"einsum2: {a_s},{b_s} does not fit operand shapes {a.shape}, {b.shape}")
    perm_a, perm_b, (nb, nf, ns), perm_out, to_mm = _einsum_plan(a_s, b_s, out_s)
    at, bt = a.transpose(perm_a), b.transpose(perm_b)
    lead, free_a, summed, free_b = at.shape[:nb], at.shape[nb : nb + nf], at.shape[nb + nf :], bt.shape[nb + ns :]
    if bt.shape[:nb] != lead or bt.shape[nb : nb + ns] != summed:
        raise DimensionError(f"einsum2: {a_s},{b_s} sizes disagree, {a.shape} x {b.shape}")
    if to_mm is not None and free_a[0] > 1 and free_b[0] >= _MIN_COLS:
        mm_shape = lead + free_a + free_b
        out = np.empty(tuple(mm_shape[i] for i in perm_out), np.result_type(a, b))
        np.matmul(_blas_operand(at), _blas_operand(bt), out=out.transpose(to_mm))
        return out
    batch, rows, inner, cols = math.prod(lead), math.prod(free_a), math.prod(summed), math.prod(free_b)
    out = _matmul(at.reshape(batch, rows, inner), bt.reshape(batch, inner, cols))
    return out.reshape(lead + free_a + free_b).transpose(perm_out)


def einsum2(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Two-operand einsum run as one batched np.matmul (`_contract`); each gradient is again such a contraction.

    Every index of each operand must appear in the output or the other
    operand, and at most once per operand, which holds for all contractions
    this model uses.
    """
    lhs, out_s = spec.replace(" ", "").split("->")
    a_s, b_s = lhs.split(",")
    data = _contract(a_s, b_s, out_s, a.data, b.data)

    def bwd(g, sink):
        if a.requires_grad:
            sink(a, _contract(out_s, b_s, a_s, g, b.data))
        if b.requires_grad:
            sink(b, _contract(a_s, out_s, b_s, a.data, g))

    return _result(data, (a, b), bwd)


def fusion_gate(A: Tensor, E: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """g * E + (1 - g) * A with g = sigmoid([A; E] @ blockdiag(kernel) + bias), as one node.

    A and E are rows of one shape [..., d], packed [N, d] or padded
    [B, T, d]; kernel holds the [k, 2d/k, d/k] blocks and bias is [d]. The
    forward runs the composition's operations in its order: concat,
    `_block_mm`, the bias, `_sigmoid`, then g*E + (1-g)*A, so its bits are
    the composition's. The backward is written out: the gate's input gradient
    is g(1-g) times the output gradient times (E - A), and it reaches A and E
    through one `_block_mm` with a C-ordered copy of the transposed blocks.
    It keeps the concatenated rows and g, and under `no_grad` nothing.
    """
    shape = A.data.shape
    if E.data.shape != shape:
        raise DimensionError(f"gate: shapes differ, {A.shape} vs {E.shape}")
    d, (k, m, n) = shape[-1], kernel.data.shape if kernel.data.ndim == 3 else (0, 0, 0)
    if (k * m, k * n) != (2 * d, d) or bias.data.shape != (d,):
        raise DimensionError(f"gate: need kernel [k, {2 * d}/k, {d}/k] and bias [{d}], got {kernel.shape}, {bias.shape}")
    x = np.concatenate([A.data, E.data], axis=-1)
    g = _block_mm(x, kernel.data)
    g += bias.data
    g = _sigmoid(g)
    out = g * E.data
    rest = 1.0 - g
    rest *= A.data
    out += rest

    def bwd(gout, sink):
        rest = 1.0 - g
        dz = E.data - A.data  # d out / d g, then through the sigmoid
        dz *= gout
        dz *= g
        dz *= rest
        if A.requires_grad or E.requires_grad:
            dx = _block_mm(dz, np.ascontiguousarray(kernel.data.swapaxes(1, 2)))
            if A.requires_grad:
                rest *= gout
                rest += dx[..., :d]
                sink(A, rest)
            if E.requires_grad:
                dE = gout * g
                dE += dx[..., d:]
                sink(E, dE)
        if kernel.requires_grad:
            sink(kernel, _block_kernel_grad(x, dz, k))
        if bias.requires_grad:
            sink(bias, dz.sum(axis=tuple(range(dz.ndim - 1))))

    return _result(out, (A, E, kernel, bias), bwd)


# ---------------------------------------------------------------------------
# recurrence


def packed_layout(lens: list[int]) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Where each step of each sequence runs when sequences of these positive lengths run packed.

    The only code that orders sequences. They are sorted longest first, ties
    in input order, and laid out time-major: step t owns the next sizes[t]
    rows, one per sequence longer than t, in sorted order, from row starts[t].
    Returns (order, sizes, starts, last, src): sequence order[r] runs in row
    starts[t] + r at each of its steps t, so its row one step before row p is
    p - sizes[t - 1]; last[b] is the row of sequence b's final step; and row
    p reads row src[p] of the rows in sequence order, b's after b-1's.
    """
    order = sorted(range(len(lens)), key=lens.__getitem__, reverse=True)  # stable: ties keep input order
    ends = [0] * lens[order[0]]
    for n in lens:
        ends[n - 1] += 1  # the sequences whose final step is n - 1
    sizes = list(accumulate(reversed(ends)))[::-1]
    starts = [0, *accumulate(sizes[:-1])]
    last = [0] * len(lens)
    for r, b in enumerate(order):
        last[b] = starts[lens[b] - 1] + r
    firsts = [0, *accumulate(lens[:-1])]  # the sequence-order row of each sequence's first step
    src = [firsts[b] + t for t, rows in enumerate(sizes) for b in order[:rows]]
    return order, sizes, starts, last, src


@lru_cache(maxsize=8)
def _gate_affine(H: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only [4H] scale and shift that map tanh of the scaled gate inputs to the i, f, g, o gates."""
    scale, shift = np.full((2, 4 * H), 0.5, dtype)
    scale[2 * H : 3 * H], shift[2 * H : 3 * H] = 1.0, 0.0
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_packed(table: Tensor, ids, kernel: Tensor, bias: Tensor, lengths: Sequence[int]) -> Tensor:
    """A unidirectional LSTM over packed sequences as one node; returns each sequence's final h, in input order.

    The sequences have these positive lengths, in any order, and ids hold
    their entries sequence by sequence; the op gathers them time-major
    (`packed_layout`), so step t runs only the sequences longer than t. Row
    ids[r] of the table [V, 4H] is that character's input projection, kernel
    the [k, H/k, 4H/k] recurrent blocks and bias [4H], gates i, f, g, o. State
    starts at zero, and the gate inputs
        z_t = (table[ids_t] + h_{t-1} @ blockdiag(kernel)) + bias
    are summed in this order, the order separate `add` ops would use. Step t
    runs only its active rows, and its four gates are one in-place tanh over
    its [rows, 4H] block plus one fixed affine map: sigmoid(z) = tanh(z/2)/2
    + 1/2 on i, f and o. Their columns of the table, kernel and bias are
    halved once per call, which is exact, so each step sums exactly z/2
    there; the gates then differ from `_sigmoid(z)` by at most one machine
    epsilon. tanh(c) is stored with the activations. Backward is a BPTT loop
    over them with a C-ordered copy of the transposed kernel; the kernel
    gradient is one contraction over all steps, and the table gradient one
    product of the ids' one-hot rows [V, n] with the gate-input gradients.
    """
    lens = [int(n) for n in lengths]
    if not lens or min(lens) < 1:
        raise ContractError(f"lstm_packed: lengths must be positive, got {lens}")
    if kernel.data.ndim != 3:
        raise DimensionError(f"lstm_packed: kernel must be [k, m, n], got shape {kernel.shape}")
    k, m, n = kernel.data.shape
    H = k * m
    ids = np.asarray(ids)
    if k * n != 4 * H or table.data.shape[1:] != (4 * H,) or ids.shape != (sum(lens),) or bias.data.shape != (4 * H,):
        raise DimensionError(
            f"lstm_packed: need table [V, 4H], {sum(lens)} ids, kernel [k, H/k, 4H/k] and bias [4H]; "
            f"got {table.shape}, {ids.shape}, {kernel.shape}, {bias.shape}"
        )
    U, b = kernel.data, bias.data
    order, sizes, starts, last, src = packed_layout(lens)
    ids = ids[src]
    scale, shift = _gate_affine(H, U.dtype)
    I, F, G, O = (slice(j * H, (j + 1) * H) for j in range(4))
    acts = table.data[ids]
    acts *= scale  # the scaled gate inputs, then sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
    scaled_U, scaled_b = U * scale.reshape(k, 1, n), b * scale
    cs = np.empty((len(ids), H), dtype=acts.dtype)
    hs, tcs = np.empty_like(cs), np.empty_like(cs)  # h and tanh(c)
    for t, (lo, rows) in enumerate(zip(starts, sizes)):
        now = slice(lo, lo + rows)
        a, c, tc = acts[now], cs[now], tcs[now]
        if t:
            before = slice(starts[t - 1], starts[t - 1] + rows)
            a += _block_mm(hs[before], scaled_U)
        a += scaled_b
        np.tanh(a, out=a)
        a *= scale
        a += shift
        i, f, g, o = a[:, I], a[:, F], a[:, G], a[:, O]
        if t == 0:
            np.multiply(i, g, out=c)
        else:
            np.multiply(f, cs[before], out=c)
            c += np.multiply(i, g, out=tc)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hs[now])

    def bwd(gh, sink):
        dz = np.empty_like(acts)
        dh = gh[order].astype(acts.dtype, copy=False)  # row r: d h of sequence order[r] until its last step is done
        dc = np.zeros_like(dh)
        back = np.ascontiguousarray(U.swapaxes(1, 2))
        for t in reversed(range(len(sizes))):
            lo, rows = starts[t], sizes[t]
            now = slice(lo, lo + rows)
            a, d, dht = acts[now], dz[now], dh[:rows]
            i, f, g, o = a[:, I], a[:, F], a[:, G], a[:, O]
            tc = tcs[now]
            dct = dc[:rows] + dht * o * (1.0 - tc * tc)
            d[:, :H] = dct * g * i * (1.0 - i)
            if t:
                d[:, H : 2 * H] = dct * cs[starts[t - 1] : starts[t - 1] + rows] * f * (1.0 - f)
            else:
                d[:, H : 2 * H] = 0.0
            d[:, 2 * H : 3 * H] = dct * i * (1.0 - g * g)
            d[:, 3 * H :] = dht * tc * o * (1.0 - o)
            np.multiply(dct, f, out=dc[:rows])
            if t:
                dh[:rows] = _block_mm(d, back)
        if table.requires_grad:
            one_hot = (ids == np.arange(len(table.data))[:, None]).astype(dz.dtype)
            sink(table, _matmul(one_hot, dz))
        if kernel.requires_grad:
            prev = np.arange(sizes[0], len(ids)) - np.repeat(np.array(sizes[:-1], int), sizes[1:])  # one step before
            sink(kernel, _block_kernel_grad(hs[prev], dz[sizes[0] :], k))
        if bias.requires_grad:
            sink(bias, dz.sum(axis=0))

    return _result(hs[last], (table, kernel, bias), bwd)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    e = x - m
    s = np.exp(e, out=e).sum(axis=axis)
    np.log(s, out=s)
    s += m.reshape(s.shape)
    return s


def crf_nll(emissions: Tensor, gold, lengths, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Negative log-likelihood of the gold paths of a linear-chain CRF: log Z minus the gold score, as [B].

    emissions [N, K] holds the packed rows of the batch's N real steps,
    sequence b's lengths[b] rows after sequence b-1's (`pad`'s layout), and
    gold [N] their tag indices. A path y of sequence b scores start[y_0] +
    sum_t em_b[t, y_t] + sum_t transitions[y_{t-1}, y_t] + end[y_last] over
    its steps. The forward algorithm runs in log space over the rows gathered
    time-major (`packed_layout`), so step t touches only the sequences
    longer than t, and the gold score is read off the same rows. The
    gradient is the marginals minus the gold feature counts: backward runs
    beta for the unary marginals (emissions, start, end) and the pairwise
    ones, summed for the transitions in one product over every running
    (step, sequence) row, and subtracts the gold indicators.
    """
    if emissions.data.ndim != 2:
        raise DimensionError(f"crf_nll: emissions must be [N, K] rows, got shape {emissions.shape}")
    N, K = emissions.data.shape
    if transitions.data.shape != (K, K) or start.data.shape != (K,) or end.data.shape != (K,):
        raise DimensionError(
            f"crf_nll: need transitions [{K}, {K}], start and end [{K}]; "
            f"got {transitions.shape}, {start.shape}, {end.shape}"
        )
    lens = [int(n) for n in lengths] if np.ndim(lengths) == 1 else []
    if not lens or min(lens) < 1 or sum(lens) != N:
        raise ContractError(f"crf_nll: need positive lengths summing to {N} rows, got {np.asarray(lengths).tolist()}")
    if np.shape(gold) != (N,):
        raise DimensionError(f"crf_nll: gold must be [{N}] like the rows, got {np.shape(gold)}")
    B = len(lens)
    order, sizes, starts, last, src = packed_layout(lens)
    perm = np.array(src)  # the emission row that packed row p reads
    seq = np.array(order)[np.arange(N) - np.repeat(starts, sizes)]  # packed row p belongs to sequence seq[p]
    prev = np.arange(B, N) - np.repeat(np.array(sizes[:-1], int), sizes[1:])  # a step before each row of steps 1, 2, ...
    em = emissions.data[perm]
    y = np.asarray(gold)[perm]  # the gold tag of each packed row
    gold_cells = (np.arange(N), y)
    trans, trans_t = transitions.data, np.ascontiguousarray(transitions.data.T)
    alpha = np.empty_like(em)
    alpha[:B] = em[:B] + start.data
    for t in range(1, len(sizes)):
        lo, rows, before = starts[t], sizes[t], starts[t - 1]
        alpha[lo : lo + rows] = _logsumexp(alpha[before : before + rows, None, :] + trans_t, axis=2)
        alpha[lo : lo + rows] += em[lo : lo + rows]
    log_z = _logsumexp(alpha[last] + end.data, axis=1)
    picked = em[gold_cells]
    picked[:B] += start.data[y[:B]]
    picked[B:] += trans[y[prev], y[B:]]
    score = np.bincount(seq, picked, B).astype(em.dtype) + end.data[y[last]]

    def bwd(g, sink):
        beta = np.empty_like(alpha)
        beta[last] = end.data
        for t in reversed(range(len(sizes) - 1)):
            nxt, rows = starts[t + 1], sizes[t + 1]
            ahead = em[nxt : nxt + rows] + beta[nxt : nxt + rows]
            beta[starts[t] : starts[t] + rows] = _logsumexp(ahead[:, None, :] + trans, axis=2)
        weight, z = g[seq], log_z[seq]
        # weight x (unary marginals - gold indicators); at the first and last rows also the start and end terms
        unary = np.exp(alpha + beta - z[:, None])
        unary *= weight[:, None]
        unary[gold_cells] -= weight
        if emissions.requires_grad:
            d = np.empty_like(em)
            d[perm] = unary  # a permutation: every emission row is written once
            sink(emissions, d)
        if start.requires_grad:
            sink(start, unary[:B].sum(axis=0))
        if end.requires_grad:
            sink(end, unary[last].sum(axis=0))
        if transitions.requires_grad:
            ahead = em[B:] + beta[B:] - z[B:, None]
            pair = np.exp(alpha[prev][:, :, None] + trans + ahead[:, None, :])
            counts = np.bincount(y[prev] * K + y[B:], weight[B:], K * K).astype(em.dtype)
            sink(transitions, (weight[B:] @ pair.reshape(-1, K * K) - counts).reshape(K, K))

    return _result(log_z - score, (emissions, transitions, start, end), bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = x.data.shape

    def bwd(g, sink):
        sink(x, g.reshape(old))

    return _result(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = np.argsort(axes)

    def bwd(g, sink):
        sink(x, g.transpose(inv))

    return _result(x.data.transpose(axes), (x,), bwd)


def _grid_slots(lengths: np.ndarray, t_pad: int) -> np.ndarray:
    """The flat slots b * t_pad + t of a [B, t_pad] grid that sequence b's steps fill, in packed order."""
    return np.flatnonzero(np.arange(t_pad) < lengths[:, None])


def pad(x: Tensor, lengths) -> Tensor:
    """Packed rows x [N, ...], sequence b's lengths[b] rows after sequence b-1's, as a zero-padded [B, Tmax, ...].

    This is the one packed layout every layer after the char-LSTM reads. When
    every length is Tmax the rows already are the grid, and the result is a
    `reshape` of x, a view; otherwise backward gathers the gradient's real
    slots back into packed rows.
    """
    lens = [int(n) for n in lengths]
    B, t_max = len(lens), max(lens)
    rest = x.data.shape[1:]
    if x.data.shape[:1] != (sum(lens),):
        raise DimensionError(f"pad: lengths {lens} need {sum(lens)} rows, got shape {x.shape}")
    if min(lens) == t_max:
        return reshape(x, (B, t_max) + rest)
    slots = _grid_slots(np.asarray(lens), t_max)
    out = np.zeros((B * t_max,) + rest, x.data.dtype)
    out[slots] = x.data

    def bwd(g, sink):
        sink(x, g.reshape((B * t_max,) + rest)[slots])

    return _result(out.reshape((B, t_max) + rest), (x,), bwd)


def unpad(x: Tensor, lengths) -> Tensor:
    """The real rows of a padded x [B, T, ...], packed as `pad` lays them out, as [N, ...].

    When every length is T the grid's rows are all real, and the result is a
    `reshape` of x, a view; otherwise backward scatters the rows' gradient
    into a zero grid, each slot written at most once.
    """
    lens, shape = [int(n) for n in lengths], x.data.shape
    if x.data.ndim < 2 or shape[0] != len(lens) or not lens or max(lens) > shape[1]:
        raise DimensionError(f"unpad: lengths {lens} need [B, >= Tmax, ...] rows, got shape {shape}")
    flat_shape = (shape[0] * shape[1],) + shape[2:]
    if min(lens) == shape[1]:
        return reshape(x, flat_shape)
    slots = _grid_slots(np.asarray(lens), shape[1])

    def bwd(g, sink):
        buf = np.zeros(flat_shape, g.dtype)
        buf[slots] = g
        sink(x, buf.reshape(shape))

    return _result(x.data.reshape(flat_shape)[slots], (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = tuple(tensors)
    data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, sink):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                sink(t, g[tuple(idx)])

    return _result(data, ts, bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g, sink):
        buf = np.zeros_like(x.data)
        buf[idx] = g
        sink(x, buf)

    return _result(x.data[idx], (x,), bwd)


def take_rows(x: Tensor, indices) -> Tensor:
    """x[indices] along axis 0; gradient scatters with duplicate accumulation.

    The scatter is one 1-D `np.add.at` over flat element indices, numpy's
    fast path, adding in the same order as the row-indexed call and so
    bitwise equal to it. The buffer is a fresh C-ordered array, so its flat
    view is the buffer itself even when x is a transposed view.
    """
    idx = np.asarray(indices)
    data = x.data[idx]

    def bwd(g, sink):
        shape = x.data.shape
        width = math.prod(shape[1:])
        buf = np.zeros(shape, x.data.dtype)
        flat = idx[..., None] * width + np.arange(width)  # a negative row wraps to its elements from the end
        np.add.at(buf.reshape(-1), flat.reshape(-1), g.reshape(-1))
        sink(x, buf)

    return _result(data, (x,), bwd)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g, sink):
        if axis is None:
            sink(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            sink(x, np.broadcast_to(gg, x.data.shape).copy())

    return _result(data, (x,), bwd)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    return reduce_sum(x, axis=axis) * (1.0 / n)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stable softmax over the last axis.

    -inf entries are treated as masked, and a fully masked row yields an
    all-zero row. A row's result does not change when masked entries are
    appended to it.
    """
    if x.data.shape[-1] < 1:
        raise DimensionError("softmax_lastdim: empty last dimension")
    d = x.data
    m = d.max(axis=-1, keepdims=True)
    finite = np.isfinite(m)
    shifted = d - m if finite.all() else np.where(finite, d - np.where(finite, m, 0.0), -np.inf)
    e = np.exp(shifted)
    s = np.add.accumulate(e, axis=-1)[..., -1:]  # added left to right, so appended masked entries change no bit
    p = np.divide(e, s, out=np.zeros_like(e), where=s > 0)

    def bwd(g, sink):
        sink(x, p * (g - (p * g).sum(axis=-1, keepdims=True)))

    return _result(p, (x,), bwd)


# ---------------------------------------------------------------------------
# backward sweep


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into every reachable leaf's .grad."""
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    pending: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}

    def sink(parent: Tensor, g: np.ndarray) -> None:
        if not parent.requires_grad:
            return
        if parent._backward is None:
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g
            return
        key = id(parent)
        if key in pending:
            pending[key] = pending[key] + g
        else:
            pending[key] = g

    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        else:
            node._backward(g, sink)
