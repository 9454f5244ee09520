import ctypes
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hwcsum import corpus
from hwcsum.model import (
    Hypothesis,
    ModelConfig,
    _beam,
    _search,
    _top,
    batch_loss,
    beam_search,
    beam_search_batch,
    beam_search_full,
    decode_step,
    encode_sequence,
    greedy_decode,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sequence_loss,
    train,
)
from hwcsum.numerics import Tape, Tensor
from hwcsum.rng import MT19937
from hwcsum.tokenizer import BOS, EOS, PAD, EncodedPair, Lexicon
from oracles import (best_decode, finite_difference_error, reference_init_params,
                     reference_lexicon_load)

TINY = dict(embed_dim=3, hidden_dim=3, dropout=0.0)


def tiny_config(seed=0, src=6, tgt=6, **overrides):
    kw = dict(TINY)
    kw.update(overrides)
    return ModelConfig(src_vocab_size=src, tgt_vocab_size=tgt, seed=seed, **kw)


def rand_params(seed, **overrides):
    return init_params(tiny_config(seed=seed, **overrides))


def gate_views(params, side):
    """{side}_{w,u,b}{z,r,h}: views of each gate's column block of a side's fused tensors."""
    h = params.config.hidden_dim
    return {f"{side}_{k}{g}": params[f"{side}_{k}"].data[..., i * h:(i + 1) * h]
            for k in "wub" for i, g in enumerate("zrh")}


# ---- parameters -------------------------------------------------------------


@pytest.mark.parametrize("cfg", [
    tiny_config(seed=3),
    tiny_config(seed=11, src=9, tgt=7, embed_dim=5, hidden_dim=2),
    ModelConfig(src_vocab_size=30, tgt_vocab_size=20, embed_dim=8, hidden_dim=12, seed=2**32 - 1),
], ids=["tiny", "e5-h2", "e8-h12"])
def test_fused_params_equal_the_per_gate_reference_init(cfg):
    fused, ref = init_params(cfg), reference_init_params(cfg)
    joined = {name: t.data for name, t in ref.tensors.items() if name[:4] not in ("enc_", "dec_")}
    for side in ("enc", "dec"):
        for kind in "wub":
            joined[f"{side}_{kind}"] = np.concatenate(
                [ref[f"{side}_{kind}{g}"].data for g in "zrh"], axis=-1)
    assert list(fused.tensors) == ["src_emb", "tgt_emb", "enc_w", "enc_u", "enc_b",
                                   "dec_w", "dec_u", "dec_b", "att_w", "comb_w", "out_w"]
    for name, t in fused.tensors.items():
        assert t.data.dtype == np.float64 and np.array_equal(t.data, joined[name]), name


# ---- encoder ----------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda params: batch_loss([EncodedPair([4], [BOS, 5, EOS]), EncodedPair([], [BOS, 5, EOS])],
                              params),
    lambda params: sequence_loss(EncodedPair([], [BOS, 5, EOS]), params),
    lambda params: encode_sequence([], params),
    lambda params: beam_search_batch([[4], []], params, 3),
    lambda params: greedy_decode([], params),
], ids=["batch_loss", "sequence_loss", "encode_sequence", "beam_search_batch", "greedy_decode"])
def test_an_empty_source_is_refused(call):
    with pytest.raises(ValueError, match="^cannot encode an empty source sequence$"):
        call(rand_params(0))


@pytest.mark.parametrize("src, tgt", [(4, 6), (6, 4)], ids=["source", "target"])
def test_a_vocabulary_of_the_specials_alone_is_refused(src, tgt):
    with pytest.raises(ValueError) as err:
        tiny_config(src=src, tgt=tgt)
    assert str(err.value) == "vocabulary sizes must be at least 5 (4 specials + 1)"


def test_encode_length_one_matches_manual_cell():
    params = rand_params(3)
    states, final = encode_sequence([4], params)
    assert len(states) == 1 and final is states[0]

    # independent numpy computation of one gated-cell step from the zero state
    p = {k: t.data for k, t in params.tensors.items()}
    p.update(gate_views(params, "enc"))
    x = p["src_emb"][4]
    h = np.zeros(3)
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(x @ p["enc_wz"] + h @ p["enc_uz"] + p["enc_bz"])
    r = sig(x @ p["enc_wr"] + h @ p["enc_ur"] + p["enc_br"])
    cand = np.tanh(x @ p["enc_wh"] + (r * h) @ p["enc_uh"] + p["enc_bh"])
    expected = z * h + (1 - z) * cand
    assert np.allclose(final.data, expected, atol=1e-14)


def test_encode_zero_params_gives_zero_states():
    params = rand_params(0)
    for t in params.tensors.values():
        t.data[:] = 0.0
    states, final = encode_sequence([4, 5, 4], params)
    for s in states:
        assert np.array_equal(s.data, np.zeros(3))


def test_encode_deterministic():
    a, _ = encode_sequence([4, 5], rand_params(7))
    b, _ = encode_sequence([4, 5], rand_params(7))
    for s, t in zip(a, b):
        assert np.array_equal(s.data, t.data)


def test_encode_invalid_id_errors():
    with pytest.raises(ValueError):
        encode_sequence([99], rand_params(0))


# ---- attention, through decode_step's weights --------------------------------


def test_attention_single_state():
    params = rand_params(1)
    state = Tensor(np.array([0.3, -0.2, 0.9]))
    _, _, weights = decode_step(4, Tensor(np.array([1.0, 0.0, -1.0])), [state], params)
    assert np.allclose(weights.data, [1.0])


def test_attention_identical_states_uniform():
    params = rand_params(2)
    state = Tensor(np.array([0.5, 0.5, -0.5]))
    states = [state, Tensor(state.data.copy()), Tensor(state.data.copy())]
    _, _, weights = decode_step(4, Tensor(np.array([0.1, 0.2, 0.3])), states, params)
    assert np.allclose(weights.data, [1 / 3] * 3)


def test_attention_weights_are_distribution():
    gen = MT19937(4)
    params = rand_params(4)
    for _ in range(20):
        states = [Tensor(np.array([gen.uniform(-1, 1) for _ in range(3)])) for _ in range(5)]
        dec = Tensor(np.array([gen.uniform(-1, 1) for _ in range(3)]))
        _, _, weights = decode_step(4, dec, states, params)
        assert np.all(weights.data > 0)
        assert math.isclose(weights.data.sum(), 1.0, abs_tol=1e-12)


def test_attention_empty_states_errors():
    with pytest.raises(ValueError, match="decode_step needs at least one encoder state"):
        decode_step(4, Tensor(np.zeros(3)), [], rand_params(0))


# ---- decode step ------------------------------------------------------------


def test_decode_step_logprobs_normalize():
    params = rand_params(5)
    states, final = encode_sequence([4, 5], params)
    logprobs, _, weights = decode_step(BOS, final, states, params)
    assert math.isclose(np.exp(logprobs.data).sum(), 1.0, abs_tol=1e-12)
    assert math.isclose(weights.data.sum(), 1.0, abs_tol=1e-12)


def test_decode_step_eval_deterministic():
    params = rand_params(6)
    states, final = encode_sequence([4], params)
    a = decode_step(4, final, states, params)[0]
    b = decode_step(4, final, states, params)[0]
    assert np.array_equal(a.data, b.data)


def test_decode_step_invalid_id():
    params = rand_params(0)
    states, final = encode_sequence([4], params)
    with pytest.raises(ValueError):
        decode_step(99, final, states, params)


# ---- sequence loss ----------------------------------------------------------


def test_loss_uniform_when_projection_zero():
    params = rand_params(9)
    for name, t in params.tensors.items():
        if name not in ("src_emb", "tgt_emb"):
            t.data[:] = 0.0
    pair = EncodedPair([4, 5], [BOS, 4, 5, EOS])
    loss = float(sequence_loss(pair, params).data)
    assert math.isclose(loss, math.log(6), rel_tol=1e-12)


def test_loss_nonnegative():
    gen = MT19937(10)
    for seed in range(10):
        params = rand_params(seed)
        pair = EncodedPair([4 + gen.bounded(2)], [BOS, 4 + gen.bounded(2), EOS])
        assert float(sequence_loss(pair, params).data) >= 0.0


def _every_element(params):
    return [(p, i) for p in params.tensors.values() for i in range(p.data.size)]


def test_end_to_end_gradient_matches_finite_differences():
    h_step, tol = 1e-5, 1e-4
    pair = EncodedPair([4, 5], [BOS, 5, EOS])
    params = rand_params(11)
    tape = Tape()
    loss = sequence_loss(pair, params, tape=tape)
    tape.backward(loss)
    worst = finite_difference_error(lambda: sequence_loss(pair, params), _every_element(params),
                                    h_step)
    assert worst < tol, f"max relative error {worst}"


# ---- batched loss -------------------------------------------------------------

# different source and target lengths, so both sides are padded
RAGGED = [
    EncodedPair([4, 5, 4, 4], [BOS, 5, EOS]),
    EncodedPair([5], [BOS, 4, 4, 5, EOS]),
    EncodedPair([4, 5], [BOS, EOS]),
]


def _loss_and_grads(fn, params):
    for t in params.tensors.values():
        t.grad = None
    tape = Tape()
    loss = fn(tape)
    tape.backward(loss)
    return float(loss.data), {k: t.grad.copy() for k, t in params.tensors.items()}


def test_batch_loss_equals_mean_of_pair_losses_and_gradients():
    params = rand_params(21)
    batched, grads = _loss_and_grads(lambda tape: batch_loss(RAGGED, params, tape=tape), params)
    singles = [_loss_and_grads(lambda tape, p=p: sequence_loss(p, params, tape=tape), params)
               for p in RAGGED]
    assert math.isclose(batched, np.mean([l for l, _ in singles]), rel_tol=1e-12)
    for name, g in grads.items():
        assert np.allclose(g, np.mean([s[name] for _, s in singles], axis=0), atol=1e-14)


def test_batch_dropout_draws_follow_pair_order():
    # one rng through the batch consumes what the pairs consume one after another
    params = init_params(tiny_config(seed=22, dropout=0.3))
    rng_batch, rng_single = MT19937(5), MT19937(5)
    batched = float(batch_loss(RAGGED, params, rng=rng_batch).data)
    singles = [float(sequence_loss(p, params, rng=rng_single).data) for p in RAGGED]
    assert math.isclose(batched, np.mean(singles), rel_tol=1e-12)
    assert rng_batch.next_u32() == rng_single.next_u32()


def test_ragged_batch_gradient_matches_finite_differences():
    # training with dropout: re-seeding per evaluation keeps the masks fixed
    h_step, tol = 1e-5, 1e-4
    params = init_params(tiny_config(seed=23, dropout=0.3))

    def loss(tape=None):
        return batch_loss(RAGGED, params, tape=tape, rng=MT19937(3))

    _loss_and_grads(loss, params)  # leaves each gradient in its tensor's .grad
    worst = finite_difference_error(loss, _every_element(params), h_step)
    assert worst < tol, f"max relative error {worst}"


def test_padding_adds_no_gradient_to_pad_rows():
    params = init_params(tiny_config(seed=24, dropout=0.3))
    _, grads = _loss_and_grads(
        lambda tape: batch_loss(RAGGED, params, tape=tape, rng=MT19937(1)), params)
    assert np.array_equal(grads["src_emb"][PAD], np.zeros(3))
    assert np.array_equal(grads["tgt_emb"][PAD], np.zeros(3))
    assert np.any(grads["src_emb"][4] != 0) and np.any(grads["tgt_emb"][4] != 0)


def test_loss_gradient_survives_tiny_target_probability():
    # saturate the decoder so every comb unit is tanh(3), then push the
    # target's logit to about -90: p(target) ~ 1e-39. A cross-entropy
    # clamped at 1e-12 would pass no gradient back from that token.
    params = rand_params(25)
    p = dict(params.tensors)
    p.update((k, Tensor(v)) for k, v in gate_views(params, "dec").items())
    for name in ("dec_wz", "dec_uz", "dec_wh", "dec_uh", "comb_w", "out_w"):
        p[name].data[:] = 0.0
    p["dec_bz"].data[:] = -50.0  # z = 0: the state is the candidate
    p["dec_bh"].data[:] = 50.0  # candidate = 1
    p["comb_w"].data[3:] = 1.0  # comb = tanh(sum of the decoder state)
    p["out_w"].data[:, 4] = -30.0
    pair = EncodedPair([4], [BOS, 4, EOS])
    loss, grads = _loss_and_grads(lambda tape: sequence_loss(pair, params, tape=tape), params)
    assert loss > 40.0
    assert np.allclose(grads["out_w"][:, 4], -0.5 * np.tanh(3.0), rtol=1e-6)


def test_batch_loss_rejects_bad_pairs():
    params = rand_params(0)
    with pytest.raises(ValueError):
        batch_loss([], params)
    with pytest.raises(ValueError):
        batch_loss([EncodedPair([], [BOS, EOS])], params)
    with pytest.raises(ValueError):
        batch_loss([EncodedPair([4], [BOS])], params)


# ---- training ---------------------------------------------------------------


def _fixture_pairs():
    gen = MT19937(99)
    pairs = []
    for _ in range(8):
        src = [4 + gen.bounded(2) for _ in range(3)]
        tgt = [BOS] + [4 + gen.bounded(2) for _ in range(2)] + [EOS]
        pairs.append(EncodedPair(src, tgt))
    return pairs


def test_train_zero_epochs_returns_init():
    cfg = tiny_config(seed=5)
    params, history = train(_fixture_pairs(), cfg, epochs=0, batch_size=32, learning_rate=0.15)
    init = init_params(cfg)
    assert history == []
    for name in init.tensors:
        assert np.array_equal(params[name].data, init[name].data)


def test_train_deterministic():
    cfg = tiny_config(seed=1, dropout=0.2)
    p1, h1 = train(_fixture_pairs(), cfg, epochs=3, batch_size=4, learning_rate=0.15)
    p2, h2 = train(_fixture_pairs(), cfg, epochs=3, batch_size=4, learning_rate=0.15)
    for name in p1.tensors:
        assert np.array_equal(p1[name].data, p2[name].data)
    assert [e["train_loss"] for e in h1] == [e["train_loss"] for e in h2]


def test_train_loss_stream_unchanged():
    # per-epoch losses of this run before training was batched: equal up to
    # float rounding only if shuffle and dropout draws are consumed as before
    cfg = tiny_config(seed=0, dropout=0.3)
    _, history = train(_fixture_pairs(), cfg, epochs=2, batch_size=3, learning_rate=0.15)
    expected = [1.80044196315241, 1.7062764316485275]
    for entry, loss in zip(history, expected, strict=True):
        assert math.isclose(entry["train_loss"], loss, rel_tol=1e-8)


def test_train_loss_decreases_on_tiny_fixture():
    cfg = ModelConfig(src_vocab_size=6, tgt_vocab_size=6, embed_dim=8, hidden_dim=8,
                      dropout=0.0, seed=0)
    _, history = train(_fixture_pairs(), cfg, epochs=200, batch_size=8, learning_rate=0.15)
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_train_keeps_best_validation_params():
    cfg = tiny_config(seed=2)
    pairs = _fixture_pairs()
    params, history = train(pairs, cfg, epochs=5, batch_size=8, learning_rate=0.15,
                            valid_pairs=pairs[:2])
    best_epoch = min(history, key=lambda e: e["valid_loss"])
    got = float(np.mean([float(sequence_loss(p, params).data) for p in pairs[:2]]))
    assert math.isclose(got, best_epoch["valid_loss"], rel_tol=1e-12)


def test_train_empty_errors():
    with pytest.raises(ValueError):
        train([], tiny_config(), epochs=1, batch_size=32, learning_rate=0.15)


_TRAIN_TWICE = """
import resource, sys
from hwcsum.harness import load_corpus_file
from hwcsum.model import ModelConfig, train
from hwcsum.tokenizer import TokenRows, char_tokenize, encode_pair_chars, rank_vocab, summary_rows

pool = load_corpus_file(sys.argv[1], "I")[0]
src = rank_vocab(TokenRows(char_tokenize(p.short_text) for p in pool), range(len(pool)))
tgt = rank_vocab(summary_rows(pool), range(len(pool)))
pairs = [encode_pair_chars(p, src, tgt) for p in pool]
cfg = ModelConfig(src_vocab_size=len(src), tgt_vocab_size=len(tgt), embed_dim=24, hidden_dim=24,
                  dropout=0.1, seed=0)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(pairs[20:], cfg, epochs=3, batch_size=16, learning_rate=0.15, valid_pairs=pairs[:20])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _run_fresh(script: str, path, env) -> list[int]:
    """The integers script prints when run with path in a fresh interpreter
    with env (fresh_env)."""
    done = subprocess.run([sys.executable, "-c", script, str(path)],
                          env=env, check=True, capture_output=True, text=True, timeout=120)
    return [int(n) for n in done.stdout.split()]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_second_train_call_reuses_the_heap(synthetic_dir, fresh_env):
    """The bundled fixture's pool trained twice in a fresh process (the fixture
    experiment's model shape and schedule): the second call finds the memory
    the first one freed still mapped, instead of faulting it in again."""
    first, second = _run_fresh(_TRAIN_TWICE, synthetic_dir / "part1.txt", fresh_env)
    assert second < 1000, (first, second)


_LOAD_THREE_TIMES = """
import resource, sys
from hwcsum.tokenizer import Lexicon

with open(sys.argv[1], "w", encoding="utf-8") as f:  # 100k distinct CJK words
    for i in range(100_000):
        tail = "".join(chr(0x4E00 + i * 7919 % 20902) for _ in range(i % 3))
        f.write(f"{chr(0x4E00 + i % 20902)}{chr(0x4E00 + i // 20902)}{tail}\\t{1 + i * 31 % 997}\\n")
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert len(Lexicon.from_file(sys.argv[1])) == 100_000
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_second_lexicon_load_reuses_the_heap(tmp_path, fresh_env):
    """A 100k-entry lexicon loaded three times in a fresh process: the first
    load's large blocks are the process's first, so its freed temporaries
    stay mapped for the later loads only if both thresholds are fixed."""
    first, second, third = _run_fresh(_LOAD_THREE_TIMES, tmp_path / "lexicon.tsv", fresh_env)
    assert second < 500 and third < 500, (first, second, third)


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [_no_libc, lambda name: object()], ids=["no-libc", "no-mallopt"])
def test_train_and_decode_do_not_need_mallopt(monkeypatch, synthetic_dir, libc):
    """Where the C library or its mallopt is missing, training, decoding and
    a lexicon load run as they do with it, to the last bit."""
    cfg = tiny_config(seed=4, dropout=0.2)
    sources = [p.src_ids for p in _fixture_pairs()]
    expected, history = train(_fixture_pairs(), cfg, epochs=2, batch_size=3, learning_rate=0.15)
    decodes = beam_search_batch(sources, expected, 2, 5)
    lex = Lexicon.from_file(synthetic_dir / "lexicon.tsv")
    looked_up = []

    def lookup(name):
        looked_up.append(name)
        return libc(name)

    monkeypatch.setattr(corpus.ctypes, "CDLL", lookup)
    params, again = train(_fixture_pairs(), cfg, epochs=2, batch_size=3, learning_rate=0.15)
    assert looked_up == [None]
    assert beam_search_batch(sources, params, 2, 5) == decodes and looked_up == [None, None]
    loaded = Lexicon.from_file(synthetic_dir / "lexicon.tsv")
    assert looked_up == [None, None, None]
    words = reference_lexicon_load(synthetic_dir / "lexicon.tsv").entries
    assert len(loaded) == len(lex) == len(words)
    assert [loaded.count(w) for w in words] == [lex.count(w) for w in words] == list(words.values())
    assert (loaded.total, loaded.max_word_len, loaded.sha256) == (lex.total, lex.max_word_len,
                                                                   lex.sha256)
    assert [e["train_loss"] for e in again] == [e["train_loss"] for e in history]
    for name in expected.tensors:
        assert params[name].data.tobytes() == expected[name].data.tobytes()


# ---- checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = rand_params(13)
    path = tmp_path / "model.npz"
    save_checkpoint(params, path)
    with np.load(path) as archive:
        assert json.loads(str(archive["__meta__"]))["format_version"] == 2
        assert len(archive.files) == 12  # the 11 parameters and __meta__
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    assert list(loaded.tensors) == list(params.tensors)
    for name, t in params.tensors.items():
        assert np.array_equal(loaded[name].data, t.data)
        assert loaded[name].data.dtype == np.float64


def test_checkpoint_version_1_is_refused(tmp_path):
    # a version-1 archive: one tensor per gate
    params = reference_init_params(tiny_config(seed=13))
    meta = json.dumps({"format_version": 1, "config": dataclasses.asdict(params.config)})
    path = tmp_path / "model.npz"
    np.savez(path, __meta__=meta, **{k: t.data for k, t in params.tensors.items()})
    with pytest.raises(ValueError, match="unsupported checkpoint version 1: only version 2"):
        load_checkpoint(path)


def test_unreadable_checkpoints_are_value_errors_naming_the_file(tmp_path):
    good = tmp_path / "good.npz"
    save_checkpoint(rand_params(13), good)
    config = dataclasses.asdict(tiny_config(seed=13))
    del config["tgt_vocab_size"]
    cases = {
        "truncated.npz": good.read_bytes()[:100],
        "text.npz": b"not a checkpoint\n",
        "no_meta.npz": {"src_emb": np.zeros(2)},
        "bad_json.npz": {"__meta__": "{not json"},
        "deep_json.npz": {"__meta__": "[" * 100_000},
        "short_config.npz": {"__meta__": json.dumps({"format_version": 2, "config": config})},
    }
    for name, content in cases.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            np.savez(path, **content)
        with pytest.raises(ValueError) as e:
            load_checkpoint(path)
        assert str(e.value).startswith(f"{path}: "), (name, str(e.value))


def _checkpoint_with(path, tensors):
    """An archive of tensors under a valid version-2 meta of the tiny config."""
    meta = json.dumps({"format_version": 2, "config": dataclasses.asdict(tiny_config(seed=13))})
    np.savez(path, __meta__=meta, **tensors)


def test_checkpoint_with_other_parameter_names_is_refused(tmp_path):
    tensors = {k: t.data for k, t in rand_params(13).tensors.items()}
    path = tmp_path / "model.npz"
    for renamed in ({**tensors, "extra": np.zeros(2)},
                    {k: v for k, v in tensors.items() if k != "out_w"}):
        _checkpoint_with(path, renamed)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint parameter "
                                             "names do not match the config$"):
            load_checkpoint(path)


def test_checkpoint_tensors_are_read_as_float64(tmp_path):
    # a Tensor keeps the dtype it is given: the float64 choice is made here
    tensors = {k: t.data.astype(np.float32) for k, t in rand_params(13).tensors.items()}
    path = tmp_path / "model.npz"
    _checkpoint_with(path, tensors)
    for name, t in load_checkpoint(path).tensors.items():
        assert t.data.dtype == np.float64 and np.array_equal(t.data, tensors[name]), name


def test_checkpoint_with_a_tensor_of_another_shape_is_refused(tmp_path):
    tensors = {k: t.data for k, t in rand_params(13).tensors.items()}
    want = tensors["out_w"].shape
    path = tmp_path / "model.npz"
    _checkpoint_with(path, {**tensors, "out_w": np.zeros((2, 3))})
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint out_w has shape "
                                         f"{re.escape(str((2, 3)))}, expected {re.escape(str(want))}$"):
        load_checkpoint(path)


def test_checkpoint_save_load_save_identical(tmp_path):
    params = rand_params(14)
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    save_checkpoint(params, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    loaded1, loaded2 = load_checkpoint(p1), load_checkpoint(p2)
    for name in params.tensors:
        assert np.array_equal(loaded1[name].data, loaded2[name].data)


def test_checkpoint_written_at_exact_path(tmp_path):
    save_checkpoint(rand_params(15), tmp_path / "model")
    assert sorted(os.listdir(tmp_path)) == ["model"]
    assert load_checkpoint(tmp_path / "model").config == rand_params(15).config


def test_checkpoint_failing_write_leaves_no_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "model.npz"
    save_checkpoint(rand_params(16), path)
    before = path.read_bytes()

    def savez_then_fail(file, **arrays):
        file.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(rand_params(17), path)
    with pytest.raises(OSError):
        save_checkpoint(rand_params(17), tmp_path / "fresh.npz")
    assert sorted(os.listdir(tmp_path)) == ["model.npz"]
    assert path.read_bytes() == before


# ---- decoding ---------------------------------------------------------------


def test_greedy_max_len_zero():
    ids, logp = greedy_decode([4], rand_params(0), max_len=0)
    assert ids == [] and logp == 0.0


def test_beam_max_len_zero():
    assert beam_search([4], rand_params(0), beam_width=3, max_len=0) == []


def test_beam_width_must_be_positive():
    with pytest.raises(ValueError):
        beam_search([4], rand_params(0), beam_width=0)


def test_beam_width_one_equals_greedy_100_models():
    for seed in range(100):
        params = rand_params(seed, src=7, tgt=7)
        src = [4 + seed % 3]
        greedy_ids, greedy_lp = greedy_decode(src, params, max_len=4)
        hyp = beam_search_full(src, params, beam_width=1, max_len=4)
        beam_ids = beam_search(src, params, beam_width=1, max_len=4)
        assert beam_ids == greedy_ids
        assert math.isclose(hyp.log_prob, greedy_lp, abs_tol=1e-12)


def test_beam_beats_or_matches_greedy():
    for seed in range(30):
        params = rand_params(seed, src=8, tgt=8)
        src = [4, 5 + seed % 3]
        _, greedy_lp = greedy_decode(src, params, max_len=5)
        hyp = beam_search_full(src, params, beam_width=5, max_len=5)
        assert hyp.log_prob >= greedy_lp - 1e-12


def test_beam_escapes_greedy_trap():
    # step table crafted so the best first token leads to a poor continuation:
    # from <s>: a=0.6, b=0.4; after a the best finish is 0.35; after b, </s>=0.9
    rows = {
        BOS: {4: 0.6, 5: 0.4},
        4: {EOS: 0.35, 4: 0.35, 5: 0.30},
        5: {EOS: 0.90, 4: 0.05, 5: 0.05},
    }
    vocab_size = 6

    def step_fn(prev_id, state):
        row = np.full(vocab_size, 1e-12)
        for tid, p in rows.get(prev_id, {}).items():
            row[tid] = p
        row /= row.sum()
        return np.log(row), None

    def batched_step_fn(prev_ids, states, cols):
        # _beam steps a (slots, articles) grid of hypotheses at once; these have no state
        return np.array([[step_fn(int(i), None)[0] for i in row] for row in prev_ids]), states

    no_state = np.zeros((1, 1, 0))
    [best] = _beam(batched_step_fn, beam_width=2, max_len=2, init_state=no_state)
    oracle_lp, oracle_ids = best_decode(step_fn, None, BOS, EOS, vocab_size, max_len=2)
    assert best.token_ids == [BOS, 5, EOS]
    assert best.token_ids == oracle_ids
    assert math.isclose(best.log_prob, oracle_lp, abs_tol=1e-12)
    # width 1 falls into the trap by construction
    [trapped] = _beam(batched_step_fn, beam_width=1, max_len=2, init_state=no_state)
    assert trapped.token_ids[1] == 4
    assert trapped.log_prob < best.log_prob


def test_beam_exhaustive_equivalence_small():
    # width 125 explores everything for vocab 5, max_len 3
    for seed in range(5):
        params = rand_params(seed, src=5, tgt=5)
        src = [4]
        hyp = beam_search_full(src, params, beam_width=125, max_len=3)

        states, final = encode_sequence(src, params)

        def step_fn(prev_id, state):
            lp, new_state, _ = decode_step(prev_id, state, states, params)
            return lp.data, new_state

        oracle_lp, oracle_ids = best_decode(step_fn, final, BOS, EOS, 5, max_len=3)
        assert hyp.token_ids == oracle_ids
        assert math.isclose(hyp.log_prob, oracle_lp, abs_tol=1e-9)


def test_decode_refuses_a_negative_max_len_before_encoding():
    params = rand_params(0)
    # an empty source would fail the encoder: the argument check comes first
    for call in (lambda: beam_search([4], params, 3, -1), lambda: greedy_decode([4], params, -1),
                 lambda: beam_search_batch([[4], []], params, 3, -1)):
        with pytest.raises(ValueError, match="max_len must be >= 0, got -1"):
            call()
    with pytest.raises(ValueError, match="beam_width must be >= 1, got 0"):
        beam_search_batch([[4], []], params, 0)
    assert beam_search_batch([], params, 3) == []


def _assert_batched_equals_per_article(sources, params, beam_width, max_len):
    batched = _search(sources, params, beam_width, max_len)
    one = [beam_search_full(s, params, beam_width, max_len) for s in sources]
    assert [h.token_ids for h in batched] == [h.token_ids for h in one]
    for b, h in zip(batched, one):
        assert math.isclose(b.log_prob, h.log_prob, rel_tol=0.0, abs_tol=1e-12)
    assert beam_search_batch(sources, params, beam_width, max_len) == [
        beam_search(s, params, beam_width, max_len) for s in sources]
    return one


def test_batched_decode_equals_per_article_on_random_models():
    gen = MT19937(2024)
    lengths = set()
    for seed in range(16):
        params = rand_params(seed, src=9, tgt=7 + seed % 5, embed_dim=4, hidden_dim=5)
        for t in params.tensors.values():
            t.data *= 20.0  # peaked rows, so </s> wins at different steps
        n = (1, 3, 8, 40)[seed % 4]  # 40: more articles in one call than DECODE_CHUNK
        sources = [[4 + gen.bounded(5) for _ in range(1 + gen.bounded(9))] for _ in range(n)]
        for beam_width in (1, 2, 5):
            one = _assert_batched_equals_per_article(sources, params, beam_width, 7)
            lengths.update(len(h.token_ids) for h in one)
    # the articles finish at different steps, some by </s> and some at max_len
    assert len(lengths) >= 5 and 1 + 7 in lengths


def test_top_breaks_ties_toward_the_lower_index():
    inf = np.inf
    scores = np.array([[1.0, 3.0, 3.0, 3.0, 2.0],
                       [-inf, 0.5, -inf, -inf, -inf],
                       [2.0, 2.0, 2.0, 2.0, 2.0]])
    assert _top(scores, 2).tolist() == [[False, True, True, False, False],
                                        [False, True, False, False, False],
                                        [True, True, False, False, False]]
    assert _top(scores[:, :2], 2).tolist() == [[True, True], [False, True], [True, True]]


def test_batched_decode_wider_than_vocab_and_max_len_zero():
    gen = MT19937(7)
    for seed in range(6):
        params = rand_params(seed, src=6, tgt=5)
        sources = [[4 + gen.bounded(2) for _ in range(1 + gen.bounded(5))] for _ in range(5)]
        _assert_batched_equals_per_article(sources, params, 8, 4)  # beam_width > |V| = 5
        _assert_batched_equals_per_article(sources, params, 125, 3)
        assert _assert_batched_equals_per_article(sources, params, 3, 0) == [
            Hypothesis([BOS], 0.0)] * 5


def test_hypothesis_invariants():
    hyp = Hypothesis([BOS, 4], -1.5)
    assert hyp.log_prob <= 0 and hyp.token_ids[0] == BOS
