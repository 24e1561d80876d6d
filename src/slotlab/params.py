"""Named trainable parameters and deterministic initialization."""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterator

import numpy as np

from .tensor import ContractError, Tensor, grad_enabled, np_dtype


ROW_CAPACITY = 512  # rows a serving store keeps (`ParameterStore.kept_rows`)


def _named_seed(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


class Parameter(Tensor):
    """A named leaf tensor whose gradient buffer is allocated when first zeroed or written.

    Until then `grad` is None, so a model that only serves holds no gradient memory.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, array: np.ndarray):
        super().__init__(array)
        self.requires_grad = True
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterStore:
    """Ordered name -> Parameter map plus the run's split-by-name RNG.

    Iteration order is insertion order, so two identically configured builds
    produce identical parameter layouts and identical checkpoints. Given
    `arrays` (a checkpoint's), the store serves: each parameter is a view of
    its name's array in one `bytes` object, which numpy refuses to make
    writable. A loaded checkpoint's arrays already are such views of its
    params.bin, and are served in place; any others are copied once
    (`_read_only_copy`).
    """

    def __init__(self, seed: int = 0, dtype: str = "f64", arrays: dict[str, np.ndarray] | None = None):
        self.seed = seed
        self.dtype = dtype
        self._params: dict[str, Parameter] = {}
        self._rngs: dict[str, np.random.Generator] = {}
        self._arrays = None if arrays is None else _read_only_copy(arrays, np_dtype(dtype))
        self._plan: dict[str, Tensor] | None = None if arrays is None else {}
        self._rows: np.ndarray | None = None  # the kept rows, a FIFO ring allocated at the first miss
        self._row_slot: dict = {}  # key -> its row in the ring
        self._row_key: list = [None] * ROW_CAPACITY  # row -> its key
        self._row_next = 0  # the next row to overwrite

    def create(self, name: str, shape: tuple[int, ...], init: Callable[[], np.ndarray]) -> Parameter:
        """Declare a parameter: the read-only loaded array of that name, else init()'s value.

        A store built over loaded arrays never calls init, so it draws no
        initial values and seeds no stream.
        """
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        if self._arrays is None:
            array = np.ascontiguousarray(init(), dtype=np_dtype(self.dtype))
        elif name in self._arrays:
            array = self._arrays[name]
        else:
            raise ContractError(f"missing parameter {name!r}: the loaded arrays have no entry of that name")
        if array.shape != tuple(shape):
            raise ContractError(f"parameter {name!r} has shape {array.shape}, expected {tuple(shape)}")
        p = Parameter(name, array)
        self._params[name] = p
        return p

    def check_loaded(self) -> None:
        """Fail on loaded arrays that no parameter took, then drop them; call once every parameter is created."""
        if self._arrays:
            unknown = [name for name in self._arrays if name not in self._params]
            if unknown:
                raise ContractError(f"unknown parameters {unknown}: the model has no parameter of those names")
            self._arrays = {}

    def rng(self, name: str) -> np.random.Generator:
        """Stateful generator split off the store seed by name, cached."""
        if name not in self._rngs:
            self._rngs[name] = _named_seed(self.seed, name)
        return self._rngs[name]

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def total_count(self) -> int:
        return sum(p.size for p in self)

    def zero_grads(self) -> None:
        """Zero every gradient buffer, allocating the ones not yet made."""
        for p in self:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            else:
                p.grad[...] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self}

    def _keeps(self) -> bool:
        """Whether a result may be kept: the store serves loaded arrays and grad is off.

        Such a store's parameters can never be written, so a kept result is bitwise what a later call would
        compute. Any other store, or any call under grad, computes afresh and keeps nothing.
        """
        return self._plan is not None and not grad_enabled()

    def planned(self, name: str, compute: Callable[[], Tensor]) -> Tensor:
        """compute(), kept in the plan under `name` when the store keeps results (`_keeps`)."""
        if not self._keeps():
            return compute()
        if name not in self._plan:
            self._plan[name] = compute()
        return self._plan[name]

    def kept_rows(self, keys: list, compute: Callable[[list], Tensor]) -> Tensor:
        """compute(keys), one row per distinct key; a store that keeps results (`_keeps`) reads seen keys' rows back.

        compute must give each key the same row bits in any list of keys, and must accept any sublist of
        `keys`; it then runs only on the keys not kept. The last ROW_CAPACITY rows computed are kept, the
        oldest overwritten first. A call's result is read before its fresh rows are kept, so they cannot
        overwrite a row it reads, and a call with more misses than ROW_CAPACITY keeps only the first ones.
        """
        if not self._keeps():
            return compute(keys)
        slots = [self._row_slot.get(key, -1) for key in keys]
        missed = [i for i, slot in enumerate(slots) if slot < 0]
        if not missed:
            return Tensor(self._rows[slots])
        fresh = compute([keys[i] for i in missed]).data
        if self._rows is None:
            self._rows = np.empty((ROW_CAPACITY, fresh.shape[1]), fresh.dtype)
        out = self._rows[slots]  # a missed key's -1 reads a row that is overwritten next
        out[missed] = fresh
        kept = missed[:ROW_CAPACITY]
        at = [(self._row_next + j) % ROW_CAPACITY for j in range(len(kept))]
        for slot, i in zip(at, kept):
            self._row_slot.pop(self._row_key[slot], None)
            self._row_key[slot] = keys[i]
            self._row_slot[keys[i]] = slot
        self._rows[at] = fresh[: len(kept)]
        self._row_next = (self._row_next + len(kept)) % ROW_CAPACITY
        return Tensor(out)


def _read_only_copy(arrays: dict[str, np.ndarray], dtype: np.dtype) -> dict[str, np.ndarray]:
    """The arrays as views of one `bytes` object, each read-only for good.

    When every array already is a C-ordered view, in `dtype`, of one single `bytes` object (a loaded
    checkpoint's are views of its params.bin), they are used in place. Anything else is copied once into a
    new `bytes` object, so a writable source can never change what the store serves.
    """
    owners = [_owner(a) for a in arrays.values()]
    if (
        owners
        and type(owners[0]) is bytes
        and all(owner is owners[0] for owner in owners)
        and all(isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous for a in arrays.values())
    ):
        return arrays
    flat = np.frombuffer(b"".join(np.asarray(a, dtype=dtype, order="C") for a in arrays.values()), dtype)
    return split_by_shape(flat, {name: np.shape(a) for name, a in arrays.items()})


def _owner(a):
    """The end of an array's chain of bases: the object whose memory it views, or None if it owns its own."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


def split_by_shape(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> view of the next run of `flat`, reshaped to that name's shape, in the order of `shapes`."""
    views, lo = {}, 0
    for name, shape in shapes.items():
        hi = lo + math.prod(shape)
        views[name] = flat[lo:hi].reshape(shape)
        lo = hi
    return views


# ---------------------------------------------------------------------------
# initializers


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Orthogonal columns via QR; for non-square, rows of a larger square."""
    n = max(shape)
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q[: shape[0], : shape[1]]
