import math

import numpy as np
import pytest

from hwcsum.harness import ExperimentConfig
from hwcsum.model import ModelConfig, _dropout_masks, batch_loss, init_params
from hwcsum.numerics import Adagrad, Tape, Tensor, init_uniform, log_softmax
from hwcsum.rng import MT19937
from hwcsum.tokenizer import BOS, EOS, EncodedPair
from oracles import finite_difference_error, reference_gru, weighted_sum

H = 1e-5
TOL = 1e-4


def rand_array(gen, shape, lo=-2.0, hi=2.0):
    n = int(np.prod(shape)) if shape else 1
    data = np.array([gen.uniform(lo, hi) for _ in range(n)])
    return data.reshape(shape)


def fd_check(build_loss, inputs, trials_note=""):
    """Central finite differences on every element of every input tensor."""
    tape = Tape()
    tape.backward(build_loss(tape, inputs))
    err = finite_difference_error(lambda: build_loss(Tape(recording=False), inputs),
                                  [(x, i) for x in inputs for i in range(x.data.size)], H)
    assert err < TOL, f"{trials_note}: rel err {err}"


# ---- forward values ---------------------------------------------------------


def test_matmul_identity():
    t = Tape(recording=False)
    a = Tensor(np.arange(6.0).reshape(2, 3))
    eye = Tensor(np.eye(2))
    assert np.array_equal(t.matmul(eye, a).data, a.data)


def test_pointwise_values():
    t = Tape(recording=False)
    assert t.tanh(Tensor([0.0])).data[0] == 0.0
    assert math.isclose(t.tanh(Tensor([math.log(3)])).data[0], 0.8, rel_tol=1e-12)


PAIRS = [EncodedPair([4, 5, 6], [BOS, 4, EOS]), EncodedPair([5], [BOS, 6, 5, EOS])]


def test_dropout_rate_zero_is_identity():
    # a pass draws dropout masks only when given an rng at a rate above 0: at
    # rate 0 the rng is left untouched, and at rate 0.5 a pass with no rng is
    # the evaluation loss (the dropout rate takes no part in init_params)
    def params(dropout):
        return init_params(ModelConfig(src_vocab_size=8, tgt_vocab_size=7, embed_dim=3,
                                       hidden_dim=4, dropout=dropout, seed=2))

    plain = batch_loss(PAIRS, params(0.0)).data
    rng, ref = MT19937(0), MT19937(0)
    assert batch_loss(PAIRS, params(0.0), rng=rng).data == plain
    assert rng.next_u32() == ref.next_u32()
    assert batch_loss(PAIRS, params(0.5)).data == plain
    assert batch_loss(PAIRS, params(0.5), rng=MT19937(0)).data != plain


def test_dropout_inverted_scaling():
    enc, emb, comb = _dropout_masks(MT19937(3), 0.3, [400], [200], 1, 2)
    drawn = np.concatenate([enc.ravel(), emb.ravel(), comb.ravel()])
    kept = drawn[drawn > 0]
    assert np.allclose(kept, 1.0 / 0.7)
    # kept fraction is near the keep probability
    assert abs(len(kept) / 1000 - 0.7) < 0.05


def test_softmax_symmetry_and_hand_value():
    t = Tape(recording=False)
    every = np.ones(2, dtype=bool)
    assert np.allclose(t.softmax(Tensor([0.0, 0.0]), every).data, [0.5, 0.5])
    assert np.allclose(t.softmax(Tensor([0.0, math.log(3)]), every).data, [0.25, 0.75])


def test_softmax_shift_invariance_and_rows():
    t = Tape(recording=False)
    gen = MT19937(5)
    every = np.ones((4, 7), dtype=bool)
    for _ in range(50):
        x = rand_array(gen, (4, 7), -30, 30)
        y = t.softmax(Tensor(x), every).data
        y_shift = t.softmax(Tensor(x + 123.456), every).data
        assert np.allclose(y, y_shift, atol=1e-12)
        assert np.all(y > 0) and np.all(y < 1)
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12


def test_shape_mismatch_messages():
    t = Tape()
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\) vs \(2, 3\)"):
        t.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\) vs \(3,\)"):
        t.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def test_concat_rejects_incompatible_shapes():
    t = Tape()
    with pytest.raises(ValueError, match=r"^concat: incompatible shapes \[\(2, 3\), \(3, 3\)\]$"):
        t.concat(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))
    with pytest.raises(ValueError, match=r"^concat: incompatible shapes \[\(2, 3\)\]$"):
        t.concat(Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError, match=r"^concat: incompatible shapes \[\(\), \(\)\]$"):
        t.concat(Tensor(1.0), Tensor(2.0))


def test_embedding_lookup_rejects_a_non_integral_index():
    with pytest.raises(ValueError, match="^embedding_lookup: index must be integral, got float64$"):
        Tape().embedding_lookup(Tensor(np.ones((4, 2))), np.array([0.0, 1.0]))


def test_gru_rejects_incompatible_shapes():
    x, b, h0 = Tensor(np.ones((4, 3, 6))), Tensor(np.ones(6)), Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"^gru: incompatible shapes \(4, 3, 6\), \(2, 5\), "
                                         r"\(6,\), \(3, 2\)$"):
        Tape().gru(x, Tensor(np.ones((2, 5))), b, h0, np.ones((4, 3)))


def test_gru_rejects_a_mask_of_another_shape():
    x, u, b, h0 = (Tensor(np.ones(s)) for s in [(4, 3, 6), (2, 6), (6,), (3, 2)])
    with pytest.raises(ValueError, match=r"^gru: mask shape \(3, 4\), expected \(4, 3\)$"):
        Tape().gru(x, u, b, h0, np.ones((3, 4)))


# ---- backward ---------------------------------------------------------------


def _sum_of_squares(t, x):
    # x . x as a row times a column: x reaches the loss twice, as each factor
    return t.matmul(t.reshape(x, (1, -1)), t.reshape(x, (-1, 1)))


def test_grad_of_sum_of_squares():
    t = Tape()
    x = Tensor([1.0, -2.0, 3.0])
    t.backward(_sum_of_squares(t, x))
    assert np.allclose(x.grad, 2 * x.data)


def test_untouched_tensor_keeps_grad_none():
    t = Tape()
    x = Tensor([1.0, 2.0])
    unused = Tensor([5.0])
    loss = weighted_sum(t, [x], [Tensor(np.ones(2))])
    t.backward(loss)
    assert unused.grad is None
    assert np.allclose(x.grad, np.ones(2))


def test_backward_requires_scalar():
    t = Tape()
    x = Tensor([1.0, 2.0])
    y = t.tanh(x)
    with pytest.raises(ValueError, match="scalar"):
        t.backward(y)


def test_backward_on_a_non_recording_tape_is_refused():
    t = Tape(recording=False)
    loss = t.tanh(Tensor(0.5))
    with pytest.raises(ValueError, match="^backward on a non-recording tape$"):
        t.backward(loss)


def test_backward_releases_closures_and_runs_once():
    t = Tape()
    x = Tensor([1.0, 2.0])
    loss = _sum_of_squares(t, x)
    t.backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])
    # the slots stay, so the tape still counts its recorded ops
    assert t.nodes == [None, None, None]
    with pytest.raises(ValueError, match="already replayed"):
        t.backward(loss)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_grad_accumulates_across_reuse():
    # the first gradient to reach x is copied in, the second added to it
    t = Tape()
    x = Tensor([2.0])
    t.backward(_sum_of_squares(t, x))
    assert np.array_equal(x.grad, [4.0])


def test_a_gradient_given_as_a_view_of_g_is_copied():
    # a primitive is a value and a VJP: this one's VJP returns a view of
    # the output's gradient and declares nothing, and _accum copies it
    t = Tape()
    x = Tensor(np.arange(6.0).reshape(2, 3))
    flipped = t._node(x.data[:, ::-1].copy(), (x,), lambda g: (g[:, ::-1],))
    t.backward(weighted_sum(t, [flipped], [Tensor(np.arange(6.0))]))
    assert np.array_equal(x.grad, [[2.0, 1.0, 0.0], [5.0, 4.0, 3.0]])
    assert x.grad.flags.owndata
    assert not any(np.shares_memory(x.grad, a) for a in (flipped.grad, flipped.data, x.data))


def test_a_float32_chain_keeps_float32_data_and_gradients():
    t = Tape()
    x = Tensor(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3))
    w = Tensor(np.linspace(0.5, -0.5, 12, dtype=np.float32).reshape(3, 4))
    y = t.tanh(t.matmul(x, w))
    loss = weighted_sum(t, [y, x], [Tensor(np.ones(8, np.float32)), Tensor(np.ones(6, np.float32))])
    t.backward(loss)
    for tensor in (x, w, y, loss):
        assert tensor.data.dtype == np.float32 and tensor.grad.dtype == np.float32


# ---- randomized finite-difference checks, 100 trials per primitive ---------


def test_fd_matmul_all_shapes():
    gen = MT19937(101)
    for trial in range(100):
        case = trial % 3
        if case == 0:
            a, b = Tensor(rand_array(gen, (4,))), Tensor(rand_array(gen, (4, 3)))
        elif case == 1:
            a, b = Tensor(rand_array(gen, (2, 3, 4))), Tensor(rand_array(gen, (4, 2)))
        else:
            a, b = Tensor(rand_array(gen, (2, 3))), Tensor(rand_array(gen, (3, 2)))
        w = Tensor(rand_array(gen, (a.data @ b.data).shape))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.matmul(inputs[0], inputs[1])], [inputs[2]])

        fd_check(loss, [a, b, w], f"matmul case {case}")


def test_fd_scale():
    # by a constant and by an array of the operand's shape (a mask)
    gen = MT19937(102)
    for _ in range(100):
        a = Tensor(rand_array(gen, (5,)))
        w = Tensor(rand_array(gen, (2, 5)))
        k, mask = gen.uniform(-2, 2), rand_array(gen, (5,))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.scale(inputs[0], k), tape.scale(inputs[0], mask)],
                                [inputs[1]])

        fd_check(loss, [a, w], "scale")


def test_fd_tanh():
    gen = MT19937(103)
    for _ in range(100):
        x = Tensor(rand_array(gen, (6,)))
        w = Tensor(rand_array(gen, (6,)))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.tanh(inputs[0])], [inputs[1]])

        fd_check(loss, [x, w], "tanh")


def test_fd_concat():
    gen = MT19937(104)
    for _ in range(100):
        a = Tensor(rand_array(gen, (3,)))
        b = Tensor(rand_array(gen, (2,)))
        w = Tensor(rand_array(gen, (5,)))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.concat(inputs[0], inputs[1])], [inputs[2]])

        fd_check(loss, [a, b, w], "concat")


def test_fd_embedding_lookup():
    gen = MT19937(105)
    for trial in range(100):
        table = Tensor(rand_array(gen, (6, 4)))
        w = Tensor(rand_array(gen, (4,)))
        idx = trial % 6

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.embedding_lookup(inputs[0], idx)], [inputs[1]])

        fd_check(loss, [table, w], "embedding_lookup")


def test_fd_softmax_cross_entropy():
    # the cross-entropy is nll's, of one row at unit weight
    gen = MT19937(106)
    every = np.ones(7, dtype=bool)
    for trial in range(100):
        x = Tensor(rand_array(gen, (7,)))
        w = Tensor(rand_array(gen, (7,)))
        target = np.array(trial % 7)

        def loss(tape, inputs):
            ce = tape.nll(inputs[0], target, np.array(1.0))
            return weighted_sum(tape, [tape.softmax(inputs[0], every), ce], [inputs[1], Tensor(1.0)])

        fd_check(loss, [x, w], "softmax/cross_entropy")


def test_fd_concat_last_axis_and_reshape():
    gen = MT19937(108)
    for _ in range(50):
        a = Tensor(rand_array(gen, (2, 3, 2)))
        b = Tensor(rand_array(gen, (2, 3, 1)))
        c = Tensor(rand_array(gen, (2, 3, 3)))
        w = Tensor(rand_array(gen, (3, 12)))

        def loss(tape, inputs):
            cat = tape.concat(inputs[0], inputs[1], inputs[2])
            flat = tape.reshape(cat, (3, 12))
            return weighted_sum(tape, [tape.tanh(flat)], [inputs[3]])

        fd_check(loss, [a, b, c, w], "concat/reshape")


def test_fd_embedding_lookup_id_matrix():
    # repeated ids accumulate; rows never looked up get zero gradient
    gen = MT19937(109)
    ids = np.array([[1, 4, 1], [0, 4, 2]])
    for _ in range(50):
        table = Tensor(rand_array(gen, (6, 3)))
        w = Tensor(rand_array(gen, (2, 3, 3)))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.embedding_lookup(inputs[0], ids)], [inputs[1]])

        fd_check(loss, [table, w], "embedding_lookup ids")
        assert np.array_equal(table.grad[[3, 5]], np.zeros((2, 3)))


def _scatter_add_reference(table, idx, g):
    # the table gradient as embedding_lookup's backward formed it before
    # np.bincount: a zero fill, then np.add.at for an index array or a row
    # add for a scalar index
    grad = np.zeros_like(table)
    if np.ndim(idx):
        np.add.at(grad, idx, g)
    else:
        grad[idx] += g
    return grad


def _lookup_grad(table, lookups, seed):
    """table's gradient after one tape looks up each index in lookups, each
    output weighted by a random upstream gradient; also those gradients."""
    gen = MT19937(seed)
    t, tape = Tensor(table), Tape()
    outs = [tape.embedding_lookup(t, idx) for idx in lookups]
    # uniform draws sit on a fixed-point grid, where short sums are exact
    # in any order; sinh spreads them over many binades so that the
    # order of a sum shows in its rounding
    upstream = [np.sinh(gen.uniform_array(out.data.size, -8.0, 8.0)).reshape(out.shape)
                for out in outs]
    tape.backward(weighted_sum(tape, outs, [Tensor(g) for g in upstream]))
    return t.grad, upstream


def _random_case(seed, table_shape, idx_shape):
    gen = MT19937(seed)
    table = gen.uniform_array(math.prod(table_shape), -1.0, 1.0).reshape(table_shape)
    ids = (gen.u32_array(math.prod(idx_shape)) % table_shape[0]).astype(np.int64)
    return table, ids.reshape(idx_shape)


@pytest.mark.parametrize("table_shape, idx_shape", [
    ((5, 3), (40,)),
    ((6, 4), (7, 9)),
    ((6, 4), ()),
    ((9,), (30,)),
    ((3, 2, 4), (5, 6)),
    ((4000, 500), (60, 32)),
], ids=["repeated-rows", "id-matrix", "scalar-index", "1-d-table", "3-d-table", "paper-shape"])
def test_embedding_backward_equals_the_scatter_add_byte_for_byte(table_shape, idx_shape):
    table, ids = _random_case(113, table_shape, idx_shape)
    idx = int(ids) if idx_shape == () else ids
    grad, (g,) = _lookup_grad(table, [idx], 114)
    if idx_shape and table_shape[0] < math.prod(idx_shape):
        assert len(np.unique(ids)) < ids.size  # some row is looked up more than once
    assert grad.tobytes() == _scatter_add_reference(table, idx, g).tobytes()


def test_embedding_backward_of_a_table_looked_up_twice():
    # each lookup's gradient is summed from 0.0 on its own and added to the
    # table's like any op's (the later lookup's first, as backward replays
    # in reverse); the scatter-add went on adding into one array, which can
    # differ from this in the last bit where both lookups hit a row
    table, ids = _random_case(115, (5, 3), (2, 40))
    grad, (g1, g2) = _lookup_grad(table, [ids[0], ids[1]], 116)
    want = _scatter_add_reference(table, ids[1], g2) + _scatter_add_reference(table, ids[0], g1)
    assert grad.tobytes() == want.tobytes()


def test_embedding_lookup_rejects_out_of_range_ids():
    t = Tape()
    with pytest.raises(ValueError, match=r"ids 0\.\.4 out of range for 4 rows"):
        t.embedding_lookup(Tensor(np.ones((4, 2))), np.array([[0, 4]]))
    with pytest.raises(ValueError, match=r"ids -1\.\.2 "):
        t.embedding_lookup(Tensor(np.ones((4, 2))), np.array([2, -1]))
    # a paper-shape id matrix with one id past the table: the message names it
    ids = np.zeros((60, 32), dtype=np.int64)
    ids[17, 5] = 4000
    with pytest.raises(ValueError, match=r"ids 0\.\.4000 out of range for 4000 rows"):
        t.embedding_lookup(Tensor(np.ones((4000, 1))), ids)


def test_fd_bmm_attention_shapes():
    # attention's two batched products, batch-major: scores = q k^T, context = w k
    gen = MT19937(110)
    for _ in range(50):
        q = Tensor(rand_array(gen, (3, 2, 4)))
        k = Tensor(rand_array(gen, (3, 5, 4)))
        w = Tensor(rand_array(gen, (3, 2, 4)))

        def loss(tape, inputs):
            scores = tape.bmm(inputs[0], inputs[1], transpose_b=True)
            context = tape.bmm(tape.tanh(scores), inputs[1])
            return weighted_sum(tape, [context], [inputs[2]])

        fd_check(loss, [q, k, w], "bmm")
    t = Tape(recording=False)
    assert np.allclose(t.bmm(q, k, transpose_b=True).data, np.einsum("bth,bsh->bts", q.data, k.data))


def test_bmm_rejects_mismatched_shapes():
    t = Tape()
    with pytest.raises(ValueError, match="bmm"):
        t.bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4))))
    with pytest.raises(ValueError, match="bmm"):
        t.bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ValueError, match="bmm"):
        t.bmm(Tensor(np.ones(4)), Tensor(np.ones(4)))


def test_fd_transpose():
    gen = MT19937(114)
    for _ in range(20):
        x = Tensor(rand_array(gen, (2, 3, 4)))
        w = Tensor(rand_array(gen, (3, 4, 2)))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.transpose(inputs[0], (1, 2, 0))], [inputs[1]])

        fd_check(loss, [x, w], "transpose")
    y = Tape(recording=False).transpose(x, (1, 0, 2)).data
    assert y.flags.c_contiguous and np.array_equal(y, x.data.transpose(1, 0, 2))


def test_fd_masked_softmax():
    gen = MT19937(111)
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 0]], dtype=bool)
    for _ in range(50):
        x = Tensor(rand_array(gen, (2, 3, 4)))
        w = Tensor(rand_array(gen, (2, 3, 4)))

        def loss(tape, inputs):
            return weighted_sum(tape, [tape.softmax(inputs[0], mask)], [inputs[1]])

        fd_check(loss, [x, w], "masked softmax")
        y = Tape(recording=False).softmax(x, mask).data
        assert np.all(y[:, ~mask] == 0.0)
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        # masked entries do not change the result
        assert np.array_equal(Tape(recording=False).softmax(Tensor(x.data + 50 * ~mask), mask).data, y)


def test_fd_nll():
    gen = MT19937(112)
    targets = np.array([[0, 6, 3], [2, 2, 5]])
    weights = np.array([[0.5, 0.25, 0.0], [0.1, 0.2, 1.0]])
    for _ in range(50):
        x = Tensor(rand_array(gen, (2, 3, 7)))

        def loss(tape, inputs):
            return tape.nll(inputs[0], targets, weights)

        fd_check(loss, [x], "nll")
        assert np.array_equal(x.grad[0, 2], np.zeros(7))


def test_nll_hand_values_and_checks():
    t = Tape(recording=False)
    uniform = Tensor(np.zeros((2, 5)))
    assert math.isclose(float(t.nll(uniform, np.array([1, 4]), np.array([0.5, 0.5])).data),
                        math.log(5), rel_tol=1e-12)
    row = [0.3, -1.0, 2.0]
    ce = math.log(sum(math.exp(v) for v in row)) - row[2]
    assert math.isclose(-log_softmax(np.array(row))[2], ce, rel_tol=1e-12)
    nll = float(t.nll(Tensor(row), np.array(2), np.array(1.0)).data)
    assert math.isclose(nll, ce, rel_tol=1e-12)
    with pytest.raises(ValueError):
        t.nll(uniform, np.array([1, 5]), np.ones(2))
    with pytest.raises(ValueError):
        t.nll(uniform, np.array([1]), np.ones(1))


def test_nll_gradient_survives_tiny_target_probability():
    # p(target) = e^-60 / (1 + e^-60) ~ 9e-27: a cross-entropy that clamps p
    # (at 1e-12, say) before its log passes no gradient back here; the fused
    # loss passes the full softmax - onehot = (1 - p, p - 1)
    logits = Tensor([60.0, 0.0])
    tape = Tape()
    loss = tape.nll(logits, np.array(1), np.array(1.0))
    tape.backward(loss)
    assert math.isclose(float(loss.data), 60.0, rel_tol=1e-12)
    assert np.allclose(logits.grad, [1.0, -1.0], atol=1e-15)


def _gru_reference(x, u, b, h, mask):
    # the cell step by step, one row at a time
    hdim = h.shape[1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    states = []
    for t in range(x.shape[0]):
        new = h.copy()
        for row in range(x.shape[1]):
            a, hp = x[t, row] + b, h[row]
            z = sig(a[:hdim] + hp @ u[:, :hdim])
            r = sig(a[hdim:2 * hdim] + hp @ u[:, hdim:2 * hdim])
            c = np.tanh(a[2 * hdim:] + (r * hp) @ u[:, 2 * hdim:])
            if mask[t, row]:
                new[row] = z * hp + (1 - z) * c
        h = new
        states.append(h)
    return np.stack(states)


def test_fd_gru_ragged_batch():
    gen = MT19937(113)
    mask = np.array([[1, 1, 1], [1, 0, 1], [1, 0, 0], [1, 0, 0]])
    for _ in range(20):
        x = Tensor(rand_array(gen, (4, 3, 6)))
        u = Tensor(rand_array(gen, (2, 6)))
        b = Tensor(rand_array(gen, (6,)))
        h0 = Tensor(rand_array(gen, (3, 2)))
        w = Tensor(rand_array(gen, (4, 3, 2)))

        def loss(tape, inputs):
            states = tape.gru(inputs[0], inputs[1], inputs[2], inputs[3], mask)
            return weighted_sum(tape, [states], [inputs[4]])

        fd_check(loss, [x, u, b, h0, w], "gru")
        states = Tape(recording=False).gru(x, u, b, h0, mask).data
        assert np.allclose(states, _gru_reference(x.data, u.data, b.data, h0.data, mask),
                           atol=1e-14)
        # padded steps carry the state and take no gradient
        assert np.array_equal(states[3, 1], states[0, 1])
        assert np.array_equal(x.grad[1:, 1], np.zeros((3, 6)))


@pytest.mark.parametrize("mask", [
    np.ones((5, 4)),                                                  # every step real
    np.array([[1, 1, 1, 1]] * 2 + [[0, 0, 0, 0]] + [[1, 1, 1, 1]] * 2),  # one step padded in every row
    (np.arange(5)[:, None] < np.array([5, 3, 1, 4])).astype(float),   # ragged lengths
], ids=["all-real", "padded-step", "ragged"])
def test_gru_matches_reference_loop(mask):
    gen = MT19937(115)
    for _ in range(10):
        x, u, b, h0 = (Tensor(rand_array(gen, s)) for s in [(5, 4, 9), (3, 9), (9,), (4, 3)])
        w = rand_array(gen, (5, 4, 3))
        tape = Tape()
        states = tape.gru(x, u, b, h0, mask)
        tape.backward(weighted_sum(tape, [states], [Tensor(w)]))
        want = reference_gru(x.data, u.data, b.data, h0.data, mask, w)
        for got, ref in zip([states.data, x.grad, u.grad, b.grad, h0.grad], want, strict=True):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


# ---- Adagrad ----------------------------------------------------------------


def test_adagrad_zero_gradient_no_change():
    p = Tensor([1.0, 2.0])
    opt = Adagrad({"p": p}, learning_rate=0.15)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    assert np.array_equal(p.data, before)


def test_adagrad_first_step_hand_value():
    p = Tensor([0.0])
    opt = Adagrad({"p": p}, learning_rate=0.15)
    p.grad = np.array([3.0])
    opt.step()
    # accumulator = 9, update = 0.15 * 3 / (3 + 1e-8)
    assert math.isclose(p.data[0], -0.15 * 3 / (3 + 1e-8), rel_tol=1e-12)
    assert math.isclose(abs(p.data[0]), 0.15, rel_tol=1e-6)


def test_adagrad_default_learning_rate():
    # the step's defaults have one home, ExperimentConfig; 0.15 is the README's
    assert ExperimentConfig.learning_rate == 0.15


def test_adagrad_descends_quadratic():
    # f(x) = x^2 from x0 = 1 with lr 0.01: strictly decreasing for 100 steps
    p = Tensor([1.0])
    opt = Adagrad({"p": p}, learning_rate=0.01)
    prev = float(p.data[0]) ** 2
    for _ in range(100):
        p.grad = 2 * p.data.copy()
        opt.step()
        value = float(p.data[0]) ** 2
        assert value < prev
        prev = value


def test_adagrad_shape_mismatch():
    p = Tensor([1.0, 2.0])
    opt = Adagrad({"p": p}, learning_rate=0.15)
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


# ---- bulk draws ---------------------------------------------------------------


def test_init_uniform_equals_scalar_draws():
    # the element-by-element loop init_uniform used before bulk draws
    rng, ref = MT19937(5), MT19937(5)
    for shape in [(7, 3), (1000,), (24, 72), (5,)]:
        got = init_uniform(shape, rng).data
        expected = np.array([ref.uniform(-0.1, 0.1) for _ in range(int(np.prod(shape)))])
        assert np.array_equal(got, expected.reshape(shape))
    assert rng.next_u32() == ref.next_u32()


def test_dropout_mask_equals_scalar_draws():
    # example by example: its encoder steps, then each decoder step's
    # embedding mask and comb mask; padded positions take no draw
    rng, ref = MT19937(8), MT19937(8)
    enc, emb, comb = _dropout_masks(rng, 0.3, [2, 1], [1, 2], 2, 3)
    expected = iter([(1.0 / 0.7) if ref.random_float() < 0.7 else 0.0 for _ in range(21)])
    want = np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 3))
    for b, (ls, ld) in enumerate([(2, 1), (1, 2)]):
        for t in range(ls):
            want[0][t, b] = [next(expected) for _ in range(2)]
        for t in range(ld):
            want[1][t, b] = [next(expected) for _ in range(2)]
            want[2][t, b] = [next(expected) for _ in range(3)]
    assert all(np.array_equal(got, w) for got, w in zip((enc, emb, comb), want))
    assert rng.next_u32() == ref.next_u32()


# ---- determinism ------------------------------------------------------------


def _run_session(seed):
    rng = MT19937(seed)
    x = init_uniform((2, 1, 6), rng)
    w = init_uniform((6, 4), rng)
    drop, _, _ = _dropout_masks(rng, 0.25, [2], [1], 6, 4)
    tape = Tape()
    h = tape.tanh(tape.matmul(tape.scale(x, drop), w))
    loss = tape.nll(h, np.array([[2], [1]]), np.ones((2, 1)))
    tape.backward(loss)
    return float(loss.data), x.grad.copy(), w.grad.copy()


def test_tape_replay_determinism():
    l1, gx1, gw1 = _run_session(17)
    l2, gx2, gw2 = _run_session(17)
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)
