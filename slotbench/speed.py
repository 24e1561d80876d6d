"""How fast the machine is running, sampled through a run by fixed calibration loops.

The shared 2-vCPU host the benchmark was tuned on changes speed by 20-75%
over minutes, and every slotlab timing moves with it. A run therefore calls
`Speed.tick()` between its timed operations; about every `every` seconds
this times one pass of each calibration loop, outside every timed interval.
Each timing sample is then scaled by the local slowdown of the loop that
matches it: the median time of the `NEAR` passes closest to the sample, over
the loop's reference time. Times are divided by it and rates multiplied,
which gives each figure at the machine speed at which the loops take their
reference times.

The loops are miniatures of slotlab's work written in the benchmark: a
reverse-mode graph of Python objects over numpy arrays, run through a
char-LSTM forward and backward with weights drawn from a model-sized pool,
and a Viterbi decode. `one` is the size of one utterance, `batch` the size
of a 32-utterance desk batch and `full` a BLAS-bound step of the paper-size
model. The host slows small, batch-sized and BLAS-bound work by different
amounts, so each metric is scaled by the loops of its own kind; with two
loops, by the geometric mean of their slowdowns.
The loops call no slotlab code: a change to slotlab moves the figures, not
the divisor.
"""

import bisect
import statistics
import time

import numpy as np  # imported after the caller has pinned the BLAS threads

NEAR = 13  # passes whose median gives the slowdown at a moment
WARMUP = 3  # passes of each loop run and dropped when a Speed is made

TAGS = 9
# Char-LSTM sizes: (embedding width, units, weight matrices in the pool); "desk" is desk_config(), "full" the paper size.
SIZES = {"desk": (24, 48, 16), "full": (512, 128, 2)}
_DATA: dict = {}


class _Var:
    """A node of a minimal reverse-mode graph: value, gradient, parents and the gradient rule."""

    __slots__ = ("value", "grad", "parents", "rule")

    def __init__(self, value, parents=(), rule=None):
        self.value, self.grad, self.parents, self.rule = value, None, parents, rule


def _matmul(a, b):
    return _Var(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def _add(a, b):
    return _Var(a.value + b.value, (a, b), lambda g: (g, g))


def _mul(a, b):
    return _Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def _sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.value))
    return _Var(y, (a,), lambda g: (g * y * (1.0 - y),))


def _tanh(a):
    y = np.tanh(a.value)
    return _Var(y, (a,), lambda g: (g * (1.0 - y * y),))


def _gate(z, k, units):
    part = slice(k * units, (k + 1) * units)

    def rule(g):
        full = np.zeros_like(z.value)
        full[:, part] = g
        return (full,)

    return _Var(z.value[:, part], (z,), rule)


def _backward(out):
    order, seen, stack = [], set(), [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    out.grad = np.ones_like(out.value)
    for node in reversed(order):
        if node.rule is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.rule(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g


def _data() -> dict:
    if not _DATA:
        rng = np.random.default_rng(0)
        for size, (chars, units, pool) in SIZES.items():
            _DATA[size] = {
                "emb": rng.standard_normal((64, chars)),
                "wx": [_Var(rng.standard_normal((chars, 4 * units)) * 0.1) for _ in range(pool)],
                "wh": [_Var(rng.standard_normal((units, 4 * units)) * 0.1) for _ in range(pool)],
            }
        _DATA.update(
            ids={rows: rng.integers(0, 64, size=(10, rows)) for rows in (6, 64, 240)},
            transitions=rng.standard_normal((TAGS, TAGS)),
            emissions=rng.standard_normal((12, TAGS)),
        )
    return _DATA


def _lstm(size: str, rows: int, steps: int, first: int) -> None:
    """A char-LSTM of `size` over `rows` words of `steps` characters, forward and backward."""
    d, ids = _data()[size], _data()["ids"][rows]
    units = SIZES[size][1]
    h = _Var(np.zeros((rows, units)))
    c = _Var(np.zeros((rows, units)))
    for t in range(steps):
        k = (first + t) % len(d["wx"])  # weights from a pool, so the pass touches model-sized memory
        z = _add(_matmul(_Var(d["emb"][ids[t]]), d["wx"][k]), _matmul(h, d["wh"][k]))
        i, f, g, o = (_gate(z, j, units) for j in range(4))
        c = _add(_mul(_sigmoid(f), c), _mul(_sigmoid(i), _tanh(g)))
        h = _mul(_sigmoid(o), _tanh(c))
    _backward(h)


def _viterbi() -> list[int]:
    """Best tag path through fixed emissions, one timestep at a time."""
    d = _data()
    score, back = d["emissions"][0].copy(), []
    for e in d["emissions"][1:]:
        cand = score[:, None] + d["transitions"]
        best = np.argmax(cand, axis=0)
        back.append(best)
        score = cand[best, np.arange(TAGS)] + e
    path = [int(np.argmax(score))]
    for b in reversed(back):
        path.append(int(b[path[-1]]))
    return path[::-1]


def one_utterance_loop() -> None:
    """The work of one predict: a char-LSTM over six words, then two Viterbi decodes."""
    _lstm("desk", 6, 10, 0)
    _viterbi()
    _viterbi()


def batch_loop() -> None:
    """The work of one desk-size batch: a char-LSTM over 240 words, three characters deep."""
    _lstm("desk", 240, 3, 10)


def full_loop() -> None:
    """BLAS-bound work of the paper-size model: one step of its char-LSTM over 64 words."""
    _lstm("full", 64, 1, 0)


LOOPS = {"one": one_utterance_loop, "batch": batch_loop, "full": full_loop}
# About one pass each on the 2.0 GHz Xeon vCPU the benchmark was tuned on.
REFERENCE_S = {"one": 0.003, "batch": 0.008, "full": 0.006}


class Speed:
    """Calibration-loop times, taken through a run; `slowdown(t, loops)` is the machine's pace at time t."""

    def __init__(self, loops, every: float = 0.2):
        self.every = every
        self.stamps: list[float] = []
        self.times: dict[str, list[float]] = {name: [] for name in loops}
        self._due = 0.0
        for name in loops:
            for _ in range(WARMUP):
                LOOPS[name]()

    def tick(self) -> None:
        """Time one pass of each loop if `every` seconds have passed since the last."""
        if time.perf_counter() < self._due:
            return
        t0 = time.perf_counter()
        for name, times in self.times.items():
            start = time.perf_counter()
            LOOPS[name]()
            times.append(time.perf_counter() - start)
        t1 = time.perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self._due = t1 + self.every

    def slowdown(self, t: float, loops) -> float:
        """Per loop, the median time of its NEAR passes closest to `t` over its reference; their geometric mean.

        Above 1 when the machine runs slower than at the reference times.
        """
        i = bisect.bisect_left(self.stamps, t)
        lo = max(0, min(i - NEAR // 2, len(self.stamps) - NEAR))
        ratios = [statistics.median(self.times[loop][lo : lo + NEAR]) / REFERENCE_S[loop] for loop in loops]
        return statistics.geometric_mean(ratios)
