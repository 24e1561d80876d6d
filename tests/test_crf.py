"""CRF contracts against exhaustive path enumeration."""

import itertools

import numpy as np
import pytest
from reference_ops import grad_check, logsumexp_lastdim, viterbi_decode_batch_gather

from slotlab import tensor as T
from slotlab.crf import CrfHead, TagSet, crf_nll_batch, spans_from_bio, viterbi_decode, viterbi_decode_batch
from slotlab.data import SlotSpan
from slotlab.params import ParameterStore
from slotlab.tensor import ContractError, DimensionError, Tensor, backward


def make_head(d_model=3, num_tags=4, seed=0):
    store = ParameterStore(seed=seed)
    head = CrfHead(store, d_model, num_tags)
    rng = store.rng("randomize")
    head.transitions.data[...] = rng.standard_normal((num_tags, num_tags)) * 0.7
    head.start.data[...] = rng.standard_normal(num_tags) * 0.5
    head.end.data[...] = rng.standard_normal(num_tags) * 0.5
    return store, head


def crf_nll(H, gold, head):
    """Scalar NLL of one sequence H [T, d_model], run as a batch of one."""
    H3 = T.reshape(H, (1,) + H.shape)
    return T.reshape(crf_nll_batch(H3, np.array([gold], dtype=np.int64), np.array([H.shape[0]]), head), ())


def viterbi(H, head):
    """Best path of one sequence H [T, d_model]: (tags, score)."""
    em = head.emission(T.reshape(H, (1,) + H.shape)).data[0]
    return viterbi_decode(em, head.transitions.data, head.start.data, head.end.data)


def path_score_oracle(em, trans, start, end, path):
    s = start[path[0]] + end[path[-1]] + sum(em[t, k] for t, k in enumerate(path))
    s += sum(trans[a, b] for a, b in zip(path, path[1:]))
    return s


def enumerate_scores(em, trans, start, end):
    n, K = em.shape
    return {
        path: path_score_oracle(em, trans, start, end, path)
        for path in itertools.product(range(K), repeat=n)
    }


def test_t1_reduces_to_cross_entropy():
    store, head = make_head(num_tags=3)
    H = Tensor(np.random.default_rng(0).standard_normal((1, 3)))
    em = head.emission(H).data[0]
    logits = em + head.start.data + head.end.data
    for gold in range(3):
        expected = np.log(np.exp(logits - logits.max()).sum()) + logits.max() - logits[gold]
        got = float(crf_nll(H, [gold], head).data)
        assert abs(got - expected) < 1e-12


def test_zero_transitions_factorizes_into_per_step_ce():
    store, head = make_head(num_tags=3)
    head.transitions.data[...] = 0.0
    head.start.data[...] = 0.0
    head.end.data[...] = 0.0
    H = Tensor(np.random.default_rng(1).standard_normal((4, 3)))
    em = head.emission(H).data
    gold = [2, 0, 1, 1]
    expected = 0.0
    for t, g in enumerate(gold):
        row = em[t]
        expected += np.log(np.exp(row - row.max()).sum()) + row.max() - row[g]
    assert abs(float(crf_nll(H, gold, head).data) - expected) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_log_z_matches_exhaustive_enumeration(seed):
    rng = np.random.default_rng(seed)
    n, K = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    store, head = make_head(d_model=3, num_tags=K, seed=seed)
    H = Tensor(rng.standard_normal((n, 3)))
    em = head.emission(H).data
    scores = enumerate_scores(em, head.transitions.data, head.start.data, head.end.data)
    all_scores = np.array(list(scores.values()))
    log_z = np.log(np.exp(all_scores - all_scores.max()).sum()) + all_scores.max()
    gold = [int(rng.integers(K)) for _ in range(n)]
    nll = float(crf_nll(H, gold, head).data)
    assert abs((log_z - scores[tuple(gold)]) - nll) < 1e-10
    assert nll >= -1e-9


@pytest.mark.parametrize("seed", range(8))
def test_viterbi_matches_exhaustive_max(seed):
    rng = np.random.default_rng(seed + 100)
    n, K = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    store, head = make_head(d_model=3, num_tags=K, seed=seed)
    H = Tensor(rng.standard_normal((n, 3)))
    em = head.emission(H).data
    scores = enumerate_scores(em, head.transitions.data, head.start.data, head.end.data)
    best = max(scores.values())
    path, score = viterbi(H, head)
    assert abs(score - best) < 1e-10
    assert abs(scores[tuple(path)] - best) < 1e-10


def test_viterbi_single_tag():
    store, head = make_head(num_tags=1)
    H = Tensor(np.random.default_rng(2).standard_normal((5, 3)))
    path, _ = viterbi(H, head)
    assert path == [0, 0, 0, 0, 0]


def test_viterbi_recovers_constructed_gold():
    K = 3
    em = np.full((4, K), -5.0)
    gold = [1, 2, 2, 0]
    for t, g in enumerate(gold):
        em[t, g] = 5.0
    trans = np.eye(K) * 0.5
    path, _ = viterbi_decode(em, trans, np.zeros(K), np.zeros(K))
    assert path == gold


def test_viterbi_tie_breaks_to_lowest_index():
    em = np.zeros((3, 3))
    path, _ = viterbi_decode(em, np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    assert path == [0, 0, 0]


def viterbi_loop(emissions, transitions, start, end):
    """Reference: the per-sequence loop the batched decoder replaced, kept here unchanged."""
    n, num_tags = emissions.shape
    delta = start + emissions[0]
    back = np.zeros((n, num_tags), dtype=np.int64)
    for t in range(1, n):
        cand = delta[:, None] + transitions
        best_from = cand.argmax(axis=0)  # argmax returns the lowest index on ties
        back[t] = best_from
        delta = cand[best_from, np.arange(num_tags)] + emissions[t]
    delta = delta + end
    last = int(delta.argmax())
    path = [last]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path, float(delta[last])


@pytest.mark.parametrize("B", range(1, 6))
@pytest.mark.parametrize("K", range(1, 6))
def test_batched_viterbi_matches_the_loop_bitwise_under_ties(B, K):
    """Small integer scores tie often; every path and score must equal the loop's, bit for bit."""
    rng = np.random.default_rng(100 * B + K)
    for dtype in (np.float64, np.float32):
        for _ in range(8):
            lengths = rng.integers(1, 7, size=B)
            t_pad = int(lengths.max()) + int(rng.integers(0, 2))
            em3 = rng.integers(-2, 3, size=(B, t_pad, K)).astype(dtype)
            for b, n in enumerate(lengths):
                em3[b, n:] = np.nan  # padding must never be read
            trans = rng.integers(-2, 3, size=(K, K)).astype(dtype)
            start, end = rng.integers(-1, 2, size=(2, K)).astype(dtype)
            real = np.arange(t_pad) < lengths[:, None]
            paths, scores = viterbi_decode_batch(em3[real], lengths, trans, start, end)
            for b, n in enumerate(lengths):
                want_path, want_score = viterbi_loop(em3[b, :n], trans, start, end)
                assert paths[b] == want_path
                assert np.float64(scores[b]).tobytes() == np.float64(want_score).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_best_score_read_by_max_is_bitwise_the_gather_at_argmax(dtype):
    """Each step's max over predecessors is the very element argmax points at: small integer
    scores (many ties) and normal ones, ragged lengths, paths and scores bit for bit."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        B, K = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        lengths = rng.integers(1, 9, size=B)
        shapes = ((B, int(lengths.max()), K), (K, K), K, K)
        draws = [rng.integers(-2, 3, size=s) if trial % 2 else rng.standard_normal(s) for s in shapes]
        em3, trans, start, end = (d.astype(dtype) for d in draws)
        got = viterbi_decode_batch(em3[np.arange(em3.shape[1]) < lengths[:, None]], lengths, trans, start, end)
        want = viterbi_decode_batch_gather(em3, lengths, trans, start, end)
        assert got[0] == want[0]
        assert np.array(got[1], dtype).tobytes() == np.array(want[1], dtype).tobytes()


def test_permuting_the_sequences_permutes_the_losses_and_the_viterbi_paths_and_scores_bitwise():
    """Both ops take rows in sequence order and order them only through `T.packed_layout`; ties in length
    included, each sequence's loss, path and score do not depend on where it sits in the batch."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        B, K = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        lengths = rng.integers(1, 6, B)
        rows = [rng.standard_normal((n, K)) for n in lengths]
        gold = [rng.integers(0, K, n) for n in lengths]
        trans, start, end = rng.standard_normal((K, K)), rng.standard_normal(K), rng.standard_normal(K)
        results = []
        for perm in (np.arange(B), rng.permutation(B)):
            em, lens, back = np.concatenate([rows[b] for b in perm]), lengths[perm], np.argsort(perm)
            nll = T.crf_nll(Tensor(em), np.concatenate([gold[b] for b in perm]), lens, *map(Tensor, (trans, start, end)))
            paths, scores = viterbi_decode_batch(em, lens, trans, start, end)
            results.append((nll.data[back].tobytes(), [paths[b] for b in back], np.array(scores)[back].tobytes()))
        assert results[0] == results[1]


def test_viterbi_decode_batch_rejects_bad_lengths():
    """The emissions are the [N, K] packed rows; the lengths must be positive and sum to N."""
    em = np.zeros((5, 4))
    trans, start, end = np.zeros((4, 4)), np.zeros(4), np.zeros(4)
    for lengths in ([3], [3, 0], [3, 4], [], [2, 2], [6, -1]):
        with pytest.raises(ContractError):
            viterbi_decode_batch(em, lengths, trans, start, end)
    with pytest.raises(DimensionError):
        viterbi_decode_batch(np.zeros((2, 3, 4)), [3, 3], trans, start, end)
    with pytest.raises(ContractError):
        viterbi_decode(np.zeros((0, 4)), trans, start, end)


def test_normalization_sums_to_one():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n, K = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        store, head = make_head(d_model=2, num_tags=K, seed=seed)
        H = Tensor(rng.standard_normal((n, 2)))
        total = 0.0
        for path in itertools.product(range(K), repeat=n):
            total += np.exp(-float(crf_nll(H, list(path), head).data))
        assert abs(total - 1.0) < 1e-8


def test_crf_gradients_including_transitions():
    store, head = make_head(d_model=3, num_tags=3, seed=7)
    x = Tensor(np.random.default_rng(7).standard_normal((4, 3)))

    def f(s):
        return crf_nll(x * 1.0, [0, 2, 1, 1], head)

    assert grad_check(f, store) < 1e-5


def test_crf_gradient_flows_into_features():
    store = ParameterStore(seed=8)
    feat = store.create("features", (3, 3), lambda: np.random.default_rng(8).standard_normal((3, 3)))
    head = CrfHead(store, 3, 3)

    def f(s):
        return crf_nll(s["features"], [0, 1, 2], head)

    assert grad_check(f, store) < 1e-5


def test_crf_gradients_over_ragged_batch():
    """Steps past a sequence's end get no gradient: the forward recursion reads alpha at each last step."""
    store = ParameterStore(seed=10)
    rng = np.random.default_rng(10)
    store.create("features", (3, 4, 3), lambda: rng.standard_normal((3, 4, 3)))
    head = CrfHead(store, 3, 3)
    head.transitions.data[...] = rng.standard_normal((3, 3)) * 0.7
    gold = np.array([[2, 0, 0, 0], [1, 2, 0, 1], [0, 2, 0, 0]])
    lengths = np.array([1, 4, 2])

    def f(s):
        return T.reduce_sum(crf_nll_batch(s["features"], gold, lengths, head))

    assert grad_check(f, store) < 1e-5


def test_invalid_gold_index_raises():
    store, head = make_head(num_tags=3)
    H = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        crf_nll(H, [0, 3], head)
    with pytest.raises(ContractError):
        crf_nll(H, [0], head)
    # padding past a length must hold valid indices too; the error names the sequence
    gold, lengths = np.array([[0, 1, 2], [1, 7, 0]]), np.array([3, 1])
    with pytest.raises(ContractError, match="sequence 1"):
        crf_nll_batch(Tensor(np.zeros((2, 3, 3))), gold, lengths, head)


def test_batched_nll_equals_single():
    store, head = make_head(d_model=3, num_tags=3, seed=9)
    rng = np.random.default_rng(9)
    seqs = [rng.standard_normal((n, 3)) for n in (1, 4, 2)]
    golds = [[0], [1, 2, 0, 1], [2, 2]]
    t_max = 4
    H3 = np.zeros((3, t_max, 3))
    gold = np.zeros((3, t_max), dtype=np.int64)
    for b, (h, g) in enumerate(zip(seqs, golds)):
        H3[b, : len(g)] = h
        gold[b, : len(g)] = g
    losses = crf_nll_batch(Tensor(H3), gold, np.array([1, 4, 2]), head).data
    for b, (h, g) in enumerate(zip(seqs, golds)):
        single = float(crf_nll(Tensor(h), g, head).data)
        assert abs(losses[b] - single) < 1e-12


def log_partition_loop(em, lengths, transitions, start, end):
    """Reference: the forward algorithm as composed ops, the loop the CRF op replaced, kept here unchanged.

    Every row runs all Tmax steps and each sequence's alpha is gathered at its last step.
    """
    B, Tmax, K = em.shape
    alpha = T.reshape(T.narrow(em, 1, 0, 1), (B, K)) + start
    alphas = [alpha]
    for t in range(1, Tmax):
        prev = T.reshape(alpha, (B, K, 1))
        inner = logsumexp_lastdim(T.transpose(prev + transitions, (0, 2, 1)))
        alpha = inner + T.reshape(T.narrow(em, 1, t, 1), (B, K))
        alphas.append(alpha)
    alpha = T.take_rows(T.concat(alphas, axis=0), (lengths - 1) * B + np.arange(B))
    return logsumexp_lastdim(alpha + end)


def gold_score_composed(em, gold, lengths, transitions, start, end):
    """Reference: the gold path score as composed ops, the composition the CRF op replaced, kept here unchanged."""
    B, Tmax, K = em.shape
    dtype = em.data.dtype
    step_mask = (np.arange(Tmax)[None, :] < lengths[:, None]).astype(dtype)
    flat_rows = (np.arange(B)[:, None] * Tmax + np.arange(Tmax)[None, :]) * K + gold
    picked = T.reshape(T.take_rows(T.reshape(em, (B * Tmax * K,)), flat_rows.ravel()), (B, Tmax))
    score = T.reduce_sum(picked * T.constant(step_mask), axis=1)
    score = score + T.take_rows(start, gold[:, 0])
    score = score + T.take_rows(end, gold[np.arange(B), lengths - 1])
    if Tmax > 1:
        tr_idx = gold[:, :-1] * K + gold[:, 1:]
        tr_mask = (np.arange(1, Tmax)[None, :] < lengths[:, None]).astype(dtype)
        picked_tr = T.reshape(T.take_rows(T.reshape(transitions, (K * K,)), tr_idx.ravel()), (B, Tmax - 1))
        score = score + T.reduce_sum(picked_tr * T.constant(tr_mask), axis=1)
    return score


def nll_composed(em, gold, lengths, transitions, start, end):
    return log_partition_loop(em, lengths, transitions, start, end) - gold_score_composed(
        em, gold, lengths, transitions, start, end
    )


def _nll_case(rng, K):
    """A ragged batch: B in 1-5, lengths in 1-6, sometimes a padded step past the longest; gold anywhere in [0, K)."""
    B = int(rng.integers(1, 6))
    lengths = rng.integers(1, 7, size=B)
    t_pad = int(lengths.max()) + int(rng.integers(0, 2))
    gold = rng.integers(0, K, size=(B, t_pad))
    em = rng.standard_normal((B, t_pad, K)) * 2.0
    trans = rng.standard_normal((K, K))
    start, end = rng.standard_normal((2, K))
    return lengths, gold, em, trans, start, end


def packed_crf_nll(em, gold, lengths, transitions, start, end):
    """T.crf_nll of a padded batch [B, Tmax, K]: its real rows, cut out by T.unpad, and their gold tags."""
    real = np.arange(em.shape[1]) < lengths[:, None]
    return T.crf_nll(T.unpad(em, lengths), gold[real], lengths, transitions, start, end)


def _nll_and_grads(fn, lengths, gold, arrays, weights):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    em, trans, start, end = leaves
    out = fn(em, gold, lengths, trans, start, end)
    backward(T.reduce_sum(out * weights))
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("K", range(1, 6))
def test_log_partition_op_matches_the_composed_loop(K):
    """T.crf_nll against log Z of the composed loop minus the composed gold score: forward and every
    gradient to 1e-12. NaN in the padded emission steps reaches neither, and padded gold entries are not read."""
    rng = np.random.default_rng(K)
    for _ in range(12):
        lengths, gold, *arrays = _nll_case(rng, K)
        weights = rng.standard_normal(len(lengths))
        got, got_grads = _nll_and_grads(packed_crf_nll, lengths, gold, arrays, weights)
        want, want_grads = _nll_and_grads(nll_composed, lengths, gold, arrays, weights)
        assert np.max(np.abs(got - want)) < 1e-12
        for g, w in zip(got_grads, want_grads):
            assert np.max(np.abs(g - w)) < 1e-12

        padded, other_gold = arrays[0].copy(), gold.copy()
        for b, n in enumerate(lengths):
            padded[b, n:] = np.nan
            other_gold[b, n:] = (gold[b, n:] + 1) % K
        nan_out, nan_grads = _nll_and_grads(packed_crf_nll, lengths, other_gold, [padded] + arrays[1:], weights)
        assert np.array_equal(nan_out, got)
        for g, w in zip(nan_grads, got_grads):
            assert np.array_equal(g, w)  # no NaN anywhere; zero at every padded step


@pytest.mark.parametrize("K", range(1, 6))
def test_log_partition_op_gradients_match_finite_differences(K):
    rng = np.random.default_rng(10 + K)
    lengths, gold, em, trans, start, end = _nll_case(rng, K)
    for b, n in enumerate(lengths):
        em[b, n:] = np.nan  # never read: its finite-difference and analytic gradients are both 0
    store = ParameterStore(seed=K)
    for name, a in zip(("em", "trans", "start", "end"), (em, trans, start, end)):
        store.create(name, a.shape, lambda a=a: a)
    weights = Tensor(rng.standard_normal(len(lengths)))

    def f(s):
        out = packed_crf_nll(s["em"], gold, lengths, s["trans"], s["start"], s["end"])
        return T.reduce_sum(out * weights)

    assert grad_check(f, store) < 1e-5


def test_log_partition_op_rejects_bad_shapes_and_lengths():
    """Emissions are the [N, K] packed rows (or a [B, T, K] grid of them), gold their N tags."""
    em, trans, vec = Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))), Tensor(np.zeros(4))
    gold = np.zeros(4, dtype=np.int64)
    for lengths in ([3], [3, 0], [3, 4], [], [[3, 1]]):
        with pytest.raises(ContractError):
            T.crf_nll(em, gold, np.array(lengths, dtype=int), trans, vec, vec)
    with pytest.raises(DimensionError):
        T.crf_nll(em, gold, np.array([3, 1]), Tensor(np.zeros((3, 4))), vec, vec)
    with pytest.raises(DimensionError):
        T.crf_nll(Tensor(np.zeros(4)), gold, np.array([3, 1]), trans, vec, vec)
    for bad_gold in (gold[:3], gold.reshape(2, 2), np.zeros((4, 1), dtype=np.int64)):
        with pytest.raises(DimensionError):
            T.crf_nll(em, bad_gold, np.array([3, 1]), trans, vec, vec)
    with pytest.raises(DimensionError):
        T.crf_nll(Tensor(np.zeros((2, 2, 4))), gold, np.array([2, 2]), trans, vec, vec)


# ---------------------------------------------------------------------------
# span extraction


def spans_oracle(tags, tagset):
    """Second, independent implementation of the lenient BIO decoder: first
    rewrite dangling I-x to B-x, then read off maximal runs."""
    names = [tagset.tag(t) for t in tags]
    fixed = []
    for k, name in enumerate(names):
        if name.startswith("I-"):
            prev = fixed[k - 1] if k else "O"
            if prev == "O" or prev[2:] != name[2:]:
                name = "B-" + name[2:]
        fixed.append(name)
    spans = []
    k = 0
    while k < len(fixed):
        if fixed[k].startswith("B-"):
            slot = fixed[k][2:]
            end = k
            while end + 1 < len(fixed) and fixed[end + 1] == "I-" + slot:
                end += 1
            spans.append(SlotSpan(k, end, slot))
            k = end + 1
        else:
            k += 1
    return spans


TS = TagSet.from_slot_types(["time", "people"])


def test_spans_all_outside():
    assert spans_from_bio([0, 0, 0], TS) == []


def test_spans_basic():
    tags = [TS.index("B-time"), TS.index("I-time"), 0, TS.index("B-people")]
    assert spans_from_bio(tags, TS) == [SlotSpan(0, 1, "time"), SlotSpan(3, 3, "people")]


def test_spans_repairs_dangling_inside():
    tags = [TS.index("I-time"), TS.index("I-time")]
    got = spans_from_bio(tags, TS)
    assert got == [SlotSpan(0, 1, "time")]
    assert got == spans_oracle(tags, TS)


def test_spans_repair_inside_tags_of_another_type():
    """An I-x after O, after B-y or after I-y opens a new x span."""
    tags = [TS.index(t) for t in ["B-time", "I-people", "I-people", "O", "I-time", "I-people", "B-people"]]
    got = spans_from_bio(tags, TS)
    assert got == [
        SlotSpan(0, 0, "time"),
        SlotSpan(1, 2, "people"),
        SlotSpan(4, 4, "time"),
        SlotSpan(5, 5, "people"),
        SlotSpan(6, 6, "people"),
    ]
    assert got == spans_oracle(tags, TS)


@pytest.mark.parametrize("seed", range(20))
def test_spans_match_independent_oracle(seed):
    rng = np.random.default_rng(seed)
    tags = [int(rng.integers(TS.size)) for _ in range(int(rng.integers(1, 12)))]
    assert spans_from_bio(tags, TS) == spans_oracle(tags, TS)


def test_tagset_construction_and_validation():
    ts = TagSet.from_slot_types(["b", "a"])
    assert ts.tags == ["O", "B-a", "I-a", "B-b", "I-b"]
    assert ts.slot_types == ["a", "b"]
    assert ts.index("I-b") == 4 and ts.tag(0) == "O"
    with pytest.raises(ContractError):
        TagSet(["O", "I-x"])
    with pytest.raises(ContractError):
        TagSet(["B-x", "O"])
    with pytest.raises(ContractError):
        TagSet(["O", "B-x", "weird"])
    with pytest.raises(ContractError):
        TagSet(["O", "B-"])
