#!/usr/bin/env python3
"""slotlab benchmark: training throughput at a stated quality, inference
throughput, single-utterance latency, CLI cold start, set-up time and memory.

    python3 slotbench/run.py --workload NAME [--seed 7] [--seconds 20] [--trace 0|1]
    python3 slotbench/run.py --workload all [--tiny]

Run it from the repository root; it imports slotlab from ./src. Every
workload runs the whole pipeline in one process (train a fixed number of
steps, check quality, save and reload the checkpoint, serve it in batches,
one utterance at a time and through the CLI); the workload fixes the model
size and where the run's time goes. The seed picks the generated corpus
(`make_from_to_corpus(seed)`; 7 is the desk corpus).

With --trace 0 the end-to-end metrics are measured with tracing off, and
every timing is scaled to a reference machine speed by calibration loops
timed through the run (speed.py; RECORD.raw has the unscaled figures). With
--trace 1 a separate traced run gives the per-layer metrics. The last line of
stdout is one JSON object (correct, attempted, failed, metrics); the line
before it, prefixed RECORD, holds sample counts, input properties,
correctness gates and provenance. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

# Set before numpy is first imported (lazily, below) and inherited by every child process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".slotbench"
WORKLOADS = ("train_desk", "train_full_block", "infer_unseen")

SETUP_REPEATS = 15
LOAD_REPEATS = 60
BATCH = 32
CHECK_EVERY = 10  # traced steps between gradient-equality checks
MAX_STEPS = 5000


@dataclass(frozen=True)
class Plan:
    """What one workload runs. Shares are fractions of --seconds; the three serving shares run interleaved."""

    model: str  # "desk" or "full_block"
    train_steps: int  # fixed optimizer steps; quality is taken after them
    warmup: int  # first steps, left out of the throughput samples
    train_share: float  # training continues past train_steps until this share ends
    batch_share: float
    single_share: float
    cli_share: float
    min_batches: int
    min_single: int
    min_cli: int
    f1_floor: float | None  # unseen-city span F1 the fixed training must reach
    load_share: float = 0.0  # checkpoint loads in the serving window; if any, they give setup_s, not training set-up
    min_loads: int = 0
    batch_loops: tuple[str, ...] = ("batch",)  # calibration loops that scale the batch-sized metrics (speed.py)


PLANS = {
    # Python- and autodiff-bound desk training: 8 epochs of 25 steps, then unseen-city F1.
    "train_desk": Plan("desk", 200, 25, 1.0, 0.2, 0.2, 0.1, 25, 200, 7, 0.6),
    # BLAS-bound paper-size block-dense training; F1 is still 0 after this few steps.
    "train_full_block": Plan("full_block", 16, 2, 0.8, 0.35, 0.25, 0.2, 7, 100, 7, None, batch_loops=("batch", "full")),
    # Forward path: a briefly trained desk checkpoint served in batches, alone and by CLI.
    "infer_unseen": Plan("desk", 150, 10, 0.8, 0.25, 0.3, 0.25, 50, 1000, 9, None, 0.1, 60),
}

END_TO_END = {
    "train_tokens_per_s": "tokens/s",
    "infer_utts_per_s": "utts/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cli_predict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Timing samples -> (calibration loops that scale them, whether they are rates); see speed.py.
# None stands for the workload's Plan.batch_loops.
SCALED_BY = {
    "train_tokens_per_s": (None, True),
    "infer_utts_per_s": (None, True),
    "latency_s": (("one",), False),
    "cli_predict_s": (("one",), False),
    "train_setup_s": (("one",), False),
    "infer_setup_s": (("one",), False),
}

PER_LAYER = {
    "charlstm.fwd_s": "s",
    "charlstm.bwd_s": "s",
    "charlstm.words": "count",
    "charlstm.distinct_share": "share",
    "charlstm.char_slot_use": "share",
    "attention.fwd_s": "s",
    "attention.bwd_s": "s",
    "gate.fwd_s": "s",
    "gate.bwd_s": "s",
    "crf.nll_fwd_s": "s",
    "crf.nll_bwd_s": "s",
    "crf.step_use": "share",
    "crf.viterbi_s": "s",
    "training.adamw_s": "s",
    "tensor.backward_s": "s",
    "tensor.graph_nodes": "count",
    "model.checkpoint_load_s": "s",
    "model.build_s": "s",
    "infer.charlstm_fwd_s": "s",
    "infer.attention_fwd_s": "s",
    "infer.gate_fwd_s": "s",
    "infer.crf_emission_s": "s",
    "infer.graph_nodes": "count",
    "trace.step_coverage": "share",
    "trace.overhead_share": "share",
}


class Ops:
    """Operations attempted (training steps, predict calls, CLI calls) and those that failed.

    An operation fails if it raises or if a correctness check on its output
    fails; `gates` counts the checks and their failures by name.
    """

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.gates: dict[str, dict] = {}

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def call(self, gate: str, fn, *args, **kwargs):
        """Run one operation; if it raises, it fails under `gate` and returns None."""
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            self.check(gate, False, traceback.format_exc(limit=3))
            return None
        self.check(gate, True)
        return out

    def check(self, gate: str, ok: bool, detail="", op: int | None = None) -> None:
        """Record one check; a failure fails operation `op`, by default the latest one."""
        g = self.gates.setdefault(gate, {"checked": 0, "failed": 0})
        g["checked"] += 1
        if not ok:
            g["failed"] += 1
            g.setdefault("first_failure", str(detail)[:2000])
            self.failed_ops.add(self.attempted if op is None else op)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def utterance_key(u):
    return [u.words, [[s.start_token, s.end_token, s.slot_type] for s in u.spans]]


def inputs_sha256(utts) -> str:
    return hashlib.sha256(json.dumps([utterance_key(u) for u in utts]).encode()).hexdigest()


def batch_properties(batches) -> dict:
    """Reuse and padding of the inputs as the layers receive them, pooled over batches."""
    rows = distinct = chars = slots = steps = padded = max_len = 0
    for batch in batches:
        words = [w for u in batch for w in u.words]
        longest = max(len(w) for w in words)
        rows += len(words)
        distinct += len(set(words))
        chars += sum(len(w) for w in words)
        slots += len(words) * longest
        steps += len(words)
        padded += len(batch) * max(len(u.tokens) for u in batch)
        max_len = max(max_len, longest)
    return {
        "batches": len(batches),
        "utterances": sum(len(b) for b in batches),
        "tokens": rows,
        "distinct_share": distinct / rows,
        "mean_word_len": chars / rows,
        "max_word_len": max_len,
        "char_slot_use": chars / slots,
        "crf_step_use": steps / padded,
        "sha256": inputs_sha256([u for b in batches for u in b]),
    }


def span_key(spans):
    return [(s.start_token, s.end_token, s.slot_type) for s in spans]


def span_keys(predictions):
    """span_key per utterance; None where the predict call failed."""
    return [None if p is None else span_key(p) for p in predictions]


def quantile(values, q: int) -> float:
    """The q-th percentile cut of `values`, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int, tiny: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": sha256_files(sorted((SRC / "slotlab").glob("*.py"))),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "pinned": {k: os.environ.get(k) for k in PINNED},
        "seed": seed,
        "tiny": tiny,
    }


# ---------------------------------------------------------------------------
# the pipeline


class Bench:
    """One workload run: the pipeline stages share the model and the records."""

    def __init__(self, name: str, plan: Plan, seed: int, seconds: float, trace: bool, tiny: bool, work: Path):
        import speed
        import tracing

        self.name, self.plan, self.seed, self.seconds = name, plan, seed, seconds
        self.tiny, self.work = tiny, work
        self.tr = tracing.Tracer() if trace else None
        self.ops = Ops()
        self.speed = speed.Speed({loop for key in SCALED_BY for loop in self.scaled_by(key)[0]})
        self.samples: dict[str, list[float]] = {}  # raw timing samples
        self.stamps: dict[str, list[float]] = {}  # the moment each sample was taken
        self.record: dict = {"workload": name, "inputs": {}, "quality": {}}
        self.fresh = None
        self.single = {"utts": [], "spans": [], "ops": []}  # single-phase calls, checked after the window

    def add(self, key: str, value: float, t0: float, t1: float) -> None:
        """One timing sample, taken between perf_counter readings t0 and t1."""
        self.samples.setdefault(key, []).append(value)
        self.stamps.setdefault(key, []).append((t0 + t1) / 2)

    def scaled_by(self, key: str) -> tuple[tuple[str, ...], bool]:
        loops, rate = SCALED_BY[key]
        return loops or self.plan.batch_loops, rate

    def at_reference(self, key: str) -> list[float]:
        """The samples of `key` at the reference machine speed of the calibration loops that match it (speed.py)."""
        loops, rate = self.scaled_by(key)
        scale = [self.speed.slowdown(t, loops) for t in self.stamps[key]]
        return [v * k if rate else v / k for v, k in zip(self.samples[key], scale)]

    # -- inputs and configs ----------------------------------------------

    def corpus(self):
        from slotlab.synthetic import make_from_to_corpus

        if self.tiny:
            return make_from_to_corpus(self.seed, n_train=96, n_test=40, n_train_cities=30, n_test_cities=10)
        return make_from_to_corpus(self.seed)

    def config(self):
        from slotlab.model import ModelConfig
        from slotlab.synthetic import desk_config

        if self.plan.model == "desk":
            return desk_config()
        if self.tiny:
            return ModelConfig(use_block_dense=True, char_embed_dim=32, lstm_units=16, d_model=32, num_heads=2,
                               head_size=16, num_blocks=4, max_relative_distance=4)
        return ModelConfig(use_block_dense=True)

    def fresh_utterances(self, taken: set[str]):
        """Endless stream of utterances, each with two city names new to the run."""
        import numpy as np
        from slotlab.synthetic import TEMPLATES, make_cities, render

        rng = np.random.default_rng([self.seed, 1])
        templates = [t for t in TEMPLATES if "{F}" in t and "{T}" in t]
        while True:
            cities = make_cities(rng, 200, taken)
            for i in range(0, 200, 2):
                yield render(templates[int(rng.integers(len(templates)))], cities[i], cities[i + 1])

    # -- stages -----------------------------------------------------------

    def setup_training(self):
        from slotlab.training import AdamW, build_model

        for _ in range(SETUP_REPEATS):
            self.speed.tick()
            t0 = time.perf_counter()
            train, test = self.corpus()
            model = build_model(train, self.config())
            optimizer = AdamW(model.store, model.config)
            t1 = time.perf_counter()
            self.add("train_setup_s", t1 - t0, t0, t1)
        self.record["inputs"]["corpus_sha256"] = inputs_sha256(train + test)
        return train, test, model, optimizer

    def batches(self, model, train):
        """Shuffled epochs in batches, drawn the way slotlab.training.train draws them."""
        shuffle = model.store.rng("train.shuffle")
        size = model.config.batch_size
        while True:
            order = shuffle.permutation(len(train))
            for lo in range(0, len(order), size):
                yield [train[int(i)] for i in order[lo : lo + size]]

    def plain_step(self, model, optimizer, batch):
        from slotlab.tensor import backward

        model.store.zero_grads()
        loss = model.loss(batch, training=True)
        backward(loss)
        self._finite(loss)
        optimizer.step()
        return loss

    def traced_step(self, model, optimizer, batch, k):
        import tracing

        req = ("step", k)
        with self.tr.span("train.step", req):
            with self.tr.span("training.zero_grads", req):
                model.store.zero_grads()
            loss = tracing.loss_staged(model, batch, True, self.tr, req)
            self._finite(loss)
            with self.tr.span("training.adamw", req):
                optimizer.step()
        return loss

    @staticmethod
    def _finite(loss):
        import numpy as np

        if not np.isfinite(loss.data).all():
            raise FloatingPointError(f"non-finite training loss {float(loss.data)!r}")

    def check_staged(self, model, batch) -> None:
        """Gates: traced loss equals SlotModel.loss bit for bit; gradients equal to rounding."""
        import numpy as np
        import tracing
        from slotlab.tensor import backward

        store = model.store
        store.zero_grads()
        ref = model.loss(batch, training=False)
        backward(ref)
        ref_grads = {p.name: p.grad.copy() for p in store}
        store.zero_grads()
        got = tracing.loss_staged(model, batch, False, tracing.NullTracer(), None)
        worst = 0.0
        for p in store:
            scale = max(float(np.abs(ref_grads[p.name]).max()), 1e-300)
            worst = max(worst, float(np.abs(p.grad - ref_grads[p.name]).max()) / scale)
        store.zero_grads()
        step_op = self.ops.attempted + 1  # the traced step that follows
        self.ops.check("traced_loss_bit_exact", ref.data.tobytes() == got.data.tobytes(),
                       f"{float(ref.data)!r} vs {float(got.data)!r}", op=step_op)
        self.ops.check("traced_grads_match", worst <= 1e-9, f"worst relative gradient difference {worst:.3e}",
                       op=step_op)
        self.samples.setdefault("staged_grad_rel_diff", []).append(worst)

    def train(self, model, optimizer, train, test):
        """Fixed steps (untraced: then more until the training share ends); quality after the fixed steps."""
        import tracing

        plan, tr = self.plan, self.tr
        deadline = time.perf_counter() + plan.train_share * self.seconds
        stream = self.batches(model, train)
        fixed, losses = [], []
        traced_batches, per_token, nodes = [], {"plain": [], "traced": []}, []
        step = 0
        while step < plan.train_steps or (tr is None and time.perf_counter() < deadline and step < MAX_STEPS):
            batch = next(stream)
            tokens = sum(len(u.tokens) for u in batch)
            traced = tr is not None and step % 2 == 1
            if traced and (step // 2) % CHECK_EVERY == 0:
                self.check_staged(model, batch)
            self.speed.tick()
            t0 = time.perf_counter()
            if traced:
                loss = self.ops.call("train_step", self.traced_step, model, optimizer, batch, step)
            else:
                loss = self.ops.call("train_step", self.plain_step, model, optimizer, batch)
            t1 = time.perf_counter()
            dt = t1 - t0
            if tr is not None:
                if traced:
                    traced_batches.append(batch)
                elif loss is not None:
                    nodes.append(tracing.graph_nodes(loss))
                if step >= 2:  # both kinds warmed up
                    per_token["traced" if traced else "plain"].append(dt / tokens)
            step += 1
            if step <= plan.train_steps:
                fixed.append(batch)
                losses.append(float("nan") if loss is None else float(loss.data))
            del loss
            if step > plan.warmup:
                self.add("train_tokens_per_s", tokens / dt, t0, t1)
            if step == plan.train_steps:
                q = max(1, step // 4)
                first, last = statistics.mean(losses[:q]), statistics.mean(losses[-q:])
                self.record["quality"].update(loss_first_quarter=first, loss_last_quarter=last)
                self.ops.check("training_loss_falls", self.tiny or last < first, f"{first!r} -> {last!r}")
                self.evaluate(model, test)
        self.record["inputs"]["train_batches"] = batch_properties(fixed)
        self.record["quality"]["steps"] = step
        if tr is not None:
            self.trace_training(traced_batches, per_token, nodes)

    def predict_all(self, model, utts):
        """predict_batch over `utts` in consecutive batches; one operation per call."""
        out = []
        for lo in range(0, len(utts), BATCH):
            got = self.ops.call("predict_batch", model.predict_batch, utts[lo : lo + BATCH])
            out.extend(got if got is not None else [None] * len(utts[lo : lo + BATCH]))
        return out

    def traced_predict(self, model, batch, k):
        import tracing

        with self.tr.span("infer.request", ("request", k)):
            return tracing.predict_staged(model, batch, self.tr, ("request", k))

    def evaluate(self, model, test):
        """Unseen-city span F1 after the fixed steps; traced, the layer-by-layer predict is checked too."""
        import tracing
        from slotlab.evaluate import span_f1

        plain = self.predict_all(model, test)
        if self.tr is not None:
            nodes = []
            for k, lo in enumerate(range(0, len(test), BATCH)):
                got = self.ops.call("predict_batch", self.traced_predict, model, test[lo : lo + BATCH], k)
                if got is not None:
                    nodes.append(tracing.graph_nodes(got[1]))
                ok = got is not None and span_keys(got[0]) == span_keys(plain[lo : lo + BATCH])
                self.ops.check("traced_predict_matches", ok, f"batch at {lo}")
            self.trace_inference(nodes)
        f1 = span_f1([list(u.spans) for u in test], [s if s is not None else [] for s in plain]).micro_f1
        self.record["quality"].update(unseen_f1=f1, test_utterances=len(test))
        if self.plan.f1_floor is not None and not self.tiny:
            self.ops.check("unseen_f1_floor", f1 >= self.plan.f1_floor, f"F1 {f1!r} < {self.plan.f1_floor}")

    def save_load(self, model, test):
        """Save, load and build (traced: LOAD_REPEATS times, with spans); predictions must not change."""
        from slotlab.model import Checkpoint

        before = self.predict_all(model, test)
        ckpt = self.work / "ckpt"
        Checkpoint.from_model(model).save(ckpt)
        self.record["checkpoint_sha256"] = sha256_files([ckpt / "manifest.json", ckpt / "params.bin"])
        if self.tr is None:
            served = Checkpoint.load(ckpt).build_model()
        for k in range(LOAD_REPEATS if self.tr is not None else 0):
            with self.tr.span("model.checkpoint_load", ("load", k)):
                loaded = Checkpoint.load(ckpt)
            with self.tr.span("model.build", ("load", k)):
                served = loaded.build_model()
            self.ops.call("predict", served.predict, test[0])
        after = self.predict_all(served, test)
        self.ops.check("save_load_identical", span_keys(before) == span_keys(after))
        return served, ckpt

    def serve(self, model, test, ckpt):
        """Batched, single, CLI and (infer set-up) load calls interleaved over one window; one caller, closed loop.

        The next call always goes to the kind that has used the least of its
        share of the window, so every kind samples the machine over the whole
        window rather than over a slice of it.
        """
        plan = self.plan
        reference = span_keys([self.ops.call("predict", model.predict, u) for u in test])
        shares = {"batch": plan.batch_share, "single": plan.single_share, "cli": plan.cli_share}
        minimum = {"batch": plan.min_batches, "single": plan.min_single, "cli": plan.min_cli, "load": plan.min_loads}
        if plan.load_share > 0:
            shares["load"] = plan.load_share
        calls = {
            "batch": lambda: self.batch_call(model, test, reference),
            "single": lambda: self.single_call(model),
            "cli": lambda: self.cli_call(model, ckpt),
            "load": lambda: self.load_call(ckpt, test[0], reference[0]),
        }
        spent = dict.fromkeys(shares, 0.0)
        done = dict.fromkeys(shares, 0)
        deadline = time.perf_counter() + sum(shares.values()) * self.seconds
        while True:
            due = [k for k in shares if time.perf_counter() < deadline or done[k] < minimum[k]]
            if not due:
                break
            kind = min(due, key=lambda k: spent[k] / shares[k])
            self.speed.tick()
            t0 = time.perf_counter()
            if not calls[kind]():
                del shares[kind]  # a call that cannot complete is not retried
            spent[kind] += time.perf_counter() - t0
            done[kind] += 1
        single = self.single
        batched = self.predict_all(model, single["utts"])
        for u, one, many, op in zip(single["utts"], single["spans"], batched, single["ops"]):
            if one is not None and many is not None:
                self.ops.check("single_equals_batch", span_key(one) == span_key(many), u.text, op=op)
        first_pass = range(-(-len(test) // BATCH))
        self.record["inputs"]["infer_batches"] = batch_properties(
            [[test[(BATCH * k + j) % len(test)] for j in range(BATCH)] for k in first_pass]
        )
        self.record["inputs"]["single"] = batch_properties([[u] for u in single["utts"]])

    def batch_call(self, model, test, reference) -> bool:
        """predict_batch on the next full batch of 32, cycling through the test split."""
        k = len(self.samples.get("infer_utts_per_s", ()))
        idx = [(BATCH * k + j) % len(test) for j in range(BATCH)]
        t0 = time.perf_counter()
        got = self.ops.call("predict_batch", model.predict_batch, [test[i] for i in idx])
        t1 = time.perf_counter()
        self.add("infer_utts_per_s", BATCH / (t1 - t0), t0, t1)
        if got is not None:
            self.ops.check("batch_equals_single", span_keys(got) == [reference[i] for i in idx], f"batch {k}")
        return True

    def single_call(self, model) -> bool:
        """One predict on a new utterance; its spans must be well formed."""
        u = next(self.fresh)
        t0 = time.perf_counter()
        spans = self.ops.call("predict", model.predict, u)
        t1 = time.perf_counter()
        self.add("latency_s", t1 - t0, t0, t1)
        self.single["utts"].append(u)
        self.single["spans"].append(spans)
        self.single["ops"].append(self.ops.attempted)
        if spans is not None:
            slot_types = model.tagset.slot_types
            valid = all(0 <= s.start_token <= s.end_token < len(u.tokens) and s.slot_type in slot_types
                        for s in spans)
            self.ops.check("single_spans_valid", valid, u.text)
        return True

    def load_call(self, ckpt, utt, want) -> bool:
        """Serving set-up: Checkpoint.load, build_model and one warm-up predict, which must match the served model."""
        from slotlab.model import Checkpoint

        t0 = time.perf_counter()
        spans = self.ops.call("load_predict", lambda: Checkpoint.load(ckpt).build_model().predict(utt))
        t1 = time.perf_counter()
        if spans is None:
            return False
        self.add("infer_setup_s", t1 - t0, t0, t1)
        self.ops.check("load_predict_matches", span_key(spans) == want, utt.text)
        return True

    def cli_call(self, model, ckpt) -> bool:
        """One cold `slotlab predict` subprocess; its output must match in-process predict."""
        from slotlab.data import utterance_from_text

        text = next(self.fresh).text
        cmd = [sys.executable, "-m", "slotlab.cli", "predict", "--ckpt", str(ckpt), "--text", text]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        proc = self.ops.call("cli", subprocess.run, cmd, capture_output=True, text=True, timeout=30, env=env, cwd=ROOT)
        t1 = time.perf_counter()
        if proc is None:
            return False
        self.add("cli_predict_s", t1 - t0, t0, t1)
        want = span_key(model.predict(utterance_from_text(text, [])))
        lines = [ln for ln in proc.stdout.splitlines() if ln.strip() and ln.strip() != "[]"]
        try:
            printed = [(d["start_token"], d["end_token"], d["slot"]) for d in map(json.loads, lines)]
        except (ValueError, KeyError, TypeError):
            printed = None
        self.ops.check("cli_output_matches", proc.returncode == 0 and printed == want,
                       f"exit {proc.returncode}: {proc.stdout[-500:]} {proc.stderr[-500:]}")
        return True

    # -- traced-run summaries -------------------------------------------

    def trace_training(self, batches, per_token, nodes):
        per = self.tr.per_request("train.step")
        layer = self.record.setdefault("layer", {})
        n = len(per["train.step.wall"])
        for metric, span in [
            ("charlstm.fwd_s", "charlstm.fwd"), ("charlstm.bwd_s", "charlstm.bwd"),
            ("attention.fwd_s", "attention.fwd"), ("attention.bwd_s", "attention.bwd"),
            ("gate.fwd_s", "gate.fwd"), ("gate.bwd_s", "gate.bwd"),
            ("crf.nll_fwd_s", "crf.nll_fwd"), ("crf.nll_bwd_s", "crf.nll_bwd"),
            ("training.adamw_s", "training.adamw"),
        ]:
            layer[metric] = (statistics.median(per[span]), n)
        bwd = [sum(v[k] for name, v in per.items() if name.endswith(".bwd")) for k in range(n)]
        layer["tensor.backward_s"] = (statistics.median(bwd), n)
        layer["tensor.graph_nodes"] = (statistics.median(nodes), len(nodes))
        layer["trace.step_coverage"] = (1.0 - sum(per["train.step"]) / sum(per["train.step.wall"]), n)
        overhead = statistics.median(per_token["traced"]) / statistics.median(per_token["plain"]) - 1.0
        layer["trace.overhead_share"] = (overhead, len(per_token["traced"]) + len(per_token["plain"]))
        props = batch_properties(batches)
        layer["charlstm.words"] = (props["tokens"] / props["batches"], n)
        layer["charlstm.distinct_share"] = (props["distinct_share"], n)
        layer["charlstm.char_slot_use"] = (props["char_slot_use"], n)
        layer["crf.step_use"] = (props["crf_step_use"], n)
        self.record["step_self_s"] = {name: statistics.median(v) for name, v in per.items()}

    def trace_inference(self, nodes):
        per = self.tr.per_request("infer.request")
        layer = self.record.setdefault("layer", {})
        n = len(per["infer.request.wall"])
        for metric, span in [
            ("infer.charlstm_fwd_s", "charlstm.fwd"), ("infer.attention_fwd_s", "attention.fwd"),
            ("infer.gate_fwd_s", "gate.fwd"), ("infer.crf_emission_s", "crf.emission"),
            ("crf.viterbi_s", "crf.viterbi"),
        ]:
            layer[metric] = (statistics.median(per[span]), n)
        layer["infer.graph_nodes"] = (statistics.median(nodes), len(nodes))
        self.record["request_self_s"] = {name: statistics.median(v) for name, v in per.items()}

    def trace_loads(self):
        layer = self.record.setdefault("layer", {})
        for metric, name in [("model.checkpoint_load_s", "model.checkpoint_load"), ("model.build_s", "model.build")]:
            d = [s["end"] - s["start"] for s in self.tr.spans if s["name"] == name]
            layer[metric] = (statistics.median(d), len(d))

    # -- the run ----------------------------------------------------------

    def run(self) -> dict:
        import speed

        train, test, model, optimizer = self.setup_training()
        taken = {w for u in train + test for w in u.words}
        self.fresh = self.fresh_utterances(taken)
        self.train(model, optimizer, train, test)
        served, ckpt = self.save_load(model, test)
        if self.tr is not None:
            self.trace_loads()
            return {m: self.record["layer"][m] for m in PER_LAYER}
        self.serve(served, test, ckpt)
        raw = self.summarise(self.samples)
        self.record["raw"] = {m: v for m, (v, _) in raw.items()}
        self.record["speed"] = {"reference_s": speed.REFERENCE_S, "passes": len(self.speed.stamps),
                                "median_s": {k: statistics.median(v) for k, v in self.speed.times.items()}}
        scaled = self.summarise({k: self.at_reference(k) for k in self.stamps})
        return {**scaled, "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1)}

    def summarise(self, s: dict[str, list[float]]) -> dict[str, tuple[float, int]]:
        """The timing metrics from per-sample values: medians, and p90 for latency."""
        lat = s["latency_s"]
        setup = s["infer_setup_s"] if self.plan.load_share > 0 else s["train_setup_s"]
        return {
            "train_tokens_per_s": (statistics.median(s["train_tokens_per_s"]), len(s["train_tokens_per_s"])),
            "infer_utts_per_s": (statistics.median(s["infer_utts_per_s"]), len(s["infer_utts_per_s"])),
            "latency_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
            "latency_p90_ms": (quantile(lat, 90) * 1e3, len(lat)),
            "cli_predict_s": (statistics.median(s["cli_predict_s"]), len(s["cli_predict_s"])),
            "setup_s": (statistics.median(setup), len(setup)),
        }


def run_one(args) -> int:
    if not (SRC / "slotlab" / "__init__.py").is_file():
        print(f"error: no slotlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for the run and its CLI children, so the calibration loop times the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    plan = PLANS[args.workload]
    if args.tiny:
        plan = replace(plan, train_steps=4, warmup=1, min_batches=2, min_single=12, min_cli=1, f1_floor=None,
                       min_loads=min(plan.min_loads, 2))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, plan, args.seed, args.seconds, bool(args.trace), args.tiny, work)
        metrics = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    if bench.tr is not None:
        out = WORK / f"trace-{args.workload}-s{args.seed}.json"
        out.write_text(json.dumps(bench.tr.spans))
        bench.record["trace_file"] = str(out.relative_to(ROOT))
    ops = bench.ops
    bench.record.update(
        mode="trace" if args.trace else "end_to_end",
        samples={m: n for m, (_, n) in metrics.items()},
        sample_detail={k: len(v) for k, v in bench.samples.items()},
        gates=ops.gates,
        fail_share=ops.failed / max(ops.attempted, 1),
        provenance=provenance(args.seed, args.tiny),
    )
    for m, (v, n) in metrics.items():
        print(f"{args.workload:<17} {m:<26} {v:>16.6f} {units[m]:<9} n={n}")
    print(f"{args.workload:<17} {'fail_share':<26} {bench.record['fail_share']:>16.6f} {'share':<9} "
          f"n={ops.attempted}")
    print("RECORD " + json.dumps(bench.record, default=float))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, (v, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpus and models, for the self-check")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
