"""Attentional encoder-decoder over pluggable vocabularies.

A single-layer unidirectional gated recurrent cell (update/reset gates,
tanh candidate) encodes the source; the decoder runs the same cell
shape over target embeddings, attends to the encoder states with a
bilinear score, and predicts through an attentional hidden layer

    comb = tanh(W_c [context; hidden]),  logits = comb W_out.

The decoder state carried between steps is the cell hidden, not the
attentional hidden, so the decoder recurrence is the cell alone and the
attention and output layers run over all decoder steps at once. Dropout
sits on embedding outputs and on comb.
Whether the source side is word ids or char ids is the caller's
business; the model only sees id sequences.
"""

import json
import time
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import atomic_write, json_loads, keep_heap
from .numerics import Adagrad, Tape, Tensor, init_uniform, log_softmax
from .rng import MT19937
from .tokenizer import BOS, EOS, PAD, EncodedPair


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    embed_dim: int = 500
    hidden_dim: int = 500
    dropout: float = 0.3
    max_decode_len: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim <= 0 or self.hidden_dim <= 0:
            raise ValueError("embed_dim and hidden_dim must be positive")
        if self.src_vocab_size < 5 or self.tgt_vocab_size < 5:
            raise ValueError("vocabulary sizes must be at least 5 (4 specials + 1)")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_decode_len < 0:
            raise ValueError(f"max_decode_len must be >= 0, got {self.max_decode_len}")


def _param_shapes(cfg: ModelConfig):
    # a side's cell tensors hold the gates z, r, h in column blocks of width H
    s, t, e, h = cfg.src_vocab_size, cfg.tgt_vocab_size, cfg.embed_dim, cfg.hidden_dim
    shapes = [("src_emb", (s, e)), ("tgt_emb", (t, e))]
    for side in ("enc", "dec"):
        shapes += [(f"{side}_w", (e, 3 * h)), (f"{side}_u", (h, 3 * h)), (f"{side}_b", (3 * h,))]
    shapes += [("att_w", (h, h)), ("comb_w", (2 * h, h)), ("out_w", (h, t))]
    return shapes


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: t.copy() for k, t in self.tensors.items()})


def init_params(config: ModelConfig, rng: MT19937 | None = None) -> ModelParams:
    """Fresh parameters, uniform(-0.1, 0.1), drawn in a fixed name order; a side's
    cell draws w, u, b of gate z, then r, then h, each into its gate's column block."""
    rng = rng or MT19937(config.seed)
    e, h = config.embed_dim, config.hidden_dim
    tensors = {}
    for name, shape in _param_shapes(config):
        side, _, kind = name.partition("_")
        if side not in ("enc", "dec"):
            tensors[name] = init_uniform(shape, rng)
        elif kind == "w":  # the side's u and b are drawn with it
            gates = [[init_uniform(s, rng).data for s in ((e, h), (h, h), (h,))] for _ in "zrh"]
            for k, parts in zip("wub", zip(*gates)):
                tensors[f"{side}_{k}"] = Tensor(np.concatenate(parts, axis=-1))
    return ModelParams(config, tensors)


# ---- the matrix-shaped core ---------------------------------------------------
#
# Sequences run time-major: ids (T, B), masks (T, B) with 1 on real
# positions, activations (T, B, dim). Every function below works on a
# whole batch; the public batch-of-one functions further down wrap them.


def _gru(tape: Tape, params: ModelParams, side: str, x: Tensor, h0: Tensor, mask) -> Tensor:
    # one GEMM projects every step's input; only the recurrence stays in the loop
    p = params.tensors
    return tape.gru(tape.matmul(x, p[f"{side}_w"]), p[f"{side}_u"], p[f"{side}_b"], h0, mask)


def _encode(tape: Tape, params: ModelParams, src, src_mask, drop=None):
    """Encoder states (T, B, H) and final states (B, H) of padded source ids."""
    x = tape.embedding_lookup(params["src_emb"], src)
    if drop is not None:
        x = tape.scale(x, drop)
    h0 = Tensor(np.zeros((src.shape[1], params.config.hidden_dim)))
    states = _gru(tape, params, "enc", x, h0, src_mask)
    return states, tape.embedding_lookup(states, src.shape[0] - 1)


def _attend(tape: Tape, dec_h: Tensor, enc: Tensor, params: ModelParams, src_mask):
    # bilinear score s_i = dec_h^T W enc_i, then a softmax-weighted sum over
    # the real source positions; dec_h (Td, B, H) and the context are
    # time-major, enc (B, Ts, H) and the batched products batch-major
    q = tape.transpose(tape.matmul(dec_h, params["att_w"]), (1, 0, 2))
    scores = tape.bmm(q, enc, transpose_b=True)
    weights = tape.softmax(scores, src_mask.T[:, None].astype(bool))
    return tape.transpose(tape.bmm(weights, enc), (1, 0, 2)), weights


def _decode(tape: Tape, params: ModelParams, prev, state: Tensor, enc: Tensor,
            src_mask, tgt_mask, drop_emb=None, drop_comb=None):
    """Teacher-forced decoder over input ids prev (Td, B) from state (B, H),
    attending to batch-major encoder states enc (B, Ts, H); src_mask (Ts, B)
    and tgt_mask (Td, B) are 1 on real positions.

    Returns (logits (Td, B, V), decoder states (Td, B, H), attention
    weights (B, Td, Ts)).
    """
    x = tape.embedding_lookup(params["tgt_emb"], prev)
    if drop_emb is not None:
        x = tape.scale(x, drop_emb)
    h = _gru(tape, params, "dec", x, state, tgt_mask)
    context, weights = _attend(tape, h, enc, params, src_mask)
    comb = tape.tanh(tape.matmul(tape.concat(context, h), params["comb_w"]))
    if drop_comb is not None:
        comb = tape.scale(comb, drop_comb)
    return tape.matmul(comb, params["out_w"]), h, weights


def _pad(seqs):
    """Time-major (T, B) matrix of padded id lists and its 0/1 mask; refuses an empty list."""
    lens = [len(s) for s in seqs]
    if not min(lens):
        raise ValueError("cannot encode an empty source sequence")
    ids = np.zeros((max(lens), len(seqs)), dtype=np.int64)
    mask = np.zeros(ids.shape)
    for b, s in enumerate(seqs):
        ids[:len(s), b] = s
        mask[:len(s), b] = 1.0
    return ids, mask


def _dropout_masks(rng: MT19937, rate: float, src_lens, dec_lens, e: int, h: int):
    """Inverted-dropout masks for the encoder inputs, decoder inputs and comb.

    The draws run example by example in batch order; within an example
    the encoder steps come first, then for each decoder step its
    embedding mask followed by its comb mask. Padded positions get no
    draw (their mask is 0).
    """
    keep = 1.0 - rate
    sizes = [ls * e + ld * (e + h) for ls, ld in zip(src_lens, dec_lens)]
    drawn = np.where(rng.uniform_array(sum(sizes), 0.0, 1.0) < keep, 1.0 / keep, 0.0)
    enc = np.zeros((max(src_lens), len(sizes), e))
    emb = np.zeros((max(dec_lens), len(sizes), e))
    comb = np.zeros((max(dec_lens), len(sizes), h))
    start = 0
    for b, (ls, ld) in enumerate(zip(src_lens, dec_lens)):
        enc[:ls, b] = drawn[start:start + ls * e].reshape(ls, e)
        dec = drawn[start + ls * e:start + sizes[b]].reshape(ld, e + h)
        emb[:ld, b] = dec[:, :e]
        comb[:ld, b] = dec[:, e:]
        start += sizes[b]
    return enc, emb, comb


def batch_loss(pairs: list[EncodedPair], params: ModelParams, *, tape: Tape | None = None,
               rng: MT19937 | None = None) -> Tensor:
    """Mean over the pairs of each pair's teacher-forced mean token
    cross-entropy over tgt_ids[1:], in one padded, masked pass. A pass
    given an rng is a training pass and draws its dropout masks from it."""
    tape = tape if tape is not None else Tape(recording=False)
    if not pairs:
        raise ValueError("batch_loss needs at least one pair")
    if any(len(p.tgt_ids) < 2 for p in pairs):
        raise ValueError("a target needs at least one token after <s>")
    cfg = params.config
    src, src_mask = _pad([p.src_ids for p in pairs])
    tgt, tgt_mask = _pad([p.tgt_ids for p in pairs])
    drop = [None] * 3
    if rng is not None and cfg.dropout > 0.0:
        drop = _dropout_masks(rng, cfg.dropout, [len(p.src_ids) for p in pairs],
                              [len(p.tgt_ids) - 1 for p in pairs],
                              cfg.embed_dim, cfg.hidden_dim)
    enc, final = _encode(tape, params, src, src_mask, drop[0])
    out_mask = tgt_mask[1:]
    logits, _, _ = _decode(tape, params, tgt[:-1], final,
                           tape.transpose(enc, (1, 0, 2)), src_mask, out_mask, drop[1], drop[2])
    weights = out_mask / (out_mask.sum(axis=0) * len(pairs))
    return tape.nll(logits, tgt[1:], weights)


# ---- batch-of-one interface --------------------------------------------------


def encode_sequence(src_ids, params: ModelParams):
    """Run the encoder cell left to right, forward only; returns (states,
    final_state).

    states is a list with one (H,) tensor per source position.
    """
    src, mask = _pad([src_ids])
    enc, _ = _encode(Tape(recording=False), params, src, mask)
    states = [Tensor(r) for r in enc.data[:, 0]]
    return states, states[-1]


def decode_step(prev_id: int, decoder_state: Tensor, encoder_states: list[Tensor],
                params: ModelParams):
    """One decoder step, forward only: (log-prob row, new state, attention
    weights over the encoder states)."""
    if not encoder_states:
        raise ValueError("decode_step needs at least one encoder state")
    enc = np.stack([s.data for s in encoder_states])[None]
    logits, h, weights = _decode(Tape(recording=False), params, np.array([[prev_id]]),
                                 Tensor(decoder_state.data.reshape(1, -1)), Tensor(enc),
                                 np.ones((len(encoder_states), 1)), np.ones((1, 1)))
    return (Tensor(log_softmax(logits.data.reshape(-1))), Tensor(h.data.reshape(-1)),
            Tensor(weights.data.reshape(-1)))


def sequence_loss(pair: EncodedPair, params: ModelParams, *, tape: Tape | None = None,
                  rng: MT19937 | None = None) -> Tensor:
    """batch_loss of one pair: its teacher-forced mean token cross-entropy."""
    return batch_loss([pair], params, tape=tape, rng=rng)


# ---- decoding ----------------------------------------------------------------
#
# A decode steps a grid of beam slots (k, B), slot j of article b, as one
# (k*B, H) batch. An article's live slots hold token prefixes of one length
# in lexicographic order, so among equal scores the lower flat index
# slot * |V| + token id is the lexicographically smaller sequence.


@dataclass
class Hypothesis:
    """A partial or finished beam entry; token_ids starts with <s>."""

    token_ids: list[int]
    log_prob: float


def _top(scores, k: int):
    """Mask of each row's k best finite entries: higher score first, then lower index."""
    chosen = scores > -np.inf
    if scores.shape[1] > k:
        kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1:k]
        above, at_kth = scores > kth, scores == kth
        room = k - above.sum(axis=1, keepdims=True)
        chosen &= above | (at_kth & (np.cumsum(at_kth, axis=1) <= room))
    return chosen


def _beam(step_fn, beam_width: int, max_len: int, init_state) -> list[Hypothesis]:
    """Beam search for n articles at once; returns each article's best hypothesis.

    step_fn(prev, states, cols) takes the grid's last tokens (s, a), their
    states stacked as (s, a, ...) and the indices of the a articles still
    decoding, and returns log-prob rows (s, a, V) and new states (s, a, ...).
    init_state (1, n, ...) is the state of each article's <s> hypothesis.
    An empty slot scores -inf. An article stops after beam_width
    finalizations on </s>, when no hypothesis is live, or after max_len
    emissions; its live hypotheses then compete as they stand.
    """
    n = init_state.shape[1]
    cols = np.arange(n)
    scores, prefixes, states = np.zeros((1, n)), np.full((1, n, 1), BOS), init_state
    final = [[] for _ in range(n)]  # each article's hypotheses ended by </s>
    best: list[Hypothesis | None] = [None] * n
    for t in range(max_len + 1):
        live = scores > -np.inf
        done = ~live.any(axis=0) | (np.array([len(final[b]) for b in cols]) >= beam_width)
        done |= t == max_len
        for c in np.flatnonzero(done).tolist():
            best[cols[c]] = min(final[cols[c]] + [
                Hypothesis(prefixes[j, c].tolist(), float(scores[j, c]))
                for j in np.flatnonzero(live[:, c]).tolist()],
                key=lambda h: (-h.log_prob, h.token_ids))
        if done.all():
            break
        if done.any():
            keep = ~done
            cols, scores = cols[keep], scores[:, keep]
            prefixes, states = prefixes[:, keep], states[:, keep]
        lp, new_states = step_fn(prefixes[:, :, -1], states, cols)
        (s, a), vocab_size = scores.shape, lp.shape[-1]
        flat = (scores[:, :, None] + lp).transpose(1, 0, 2).reshape(a, s * vocab_size)
        rows, idx = np.nonzero(_top(flat, beam_width))  # each row's picks in flat order
        slot, tid = np.divmod(idx, vocab_size)
        cand = flat[rows, idx]
        ended = tid == EOS
        for c, j, score in zip(rows[ended].tolist(), slot[ended].tolist(), cand[ended].tolist()):
            final[cols[c]].append(Hypothesis(prefixes[j, c].tolist() + [EOS], score))
        rows, slot, tid, cand = rows[~ended], slot[~ended], tid[~ended], cand[~ended]
        # the survivors fill each article's first slots, still in lexicographic order
        counts = np.bincount(rows, minlength=a)
        pos = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        scores = np.full((counts.max(), a), -np.inf)
        scores[pos, rows] = cand
        prefixes, grown = np.full(scores.shape + (t + 2,), PAD), prefixes
        prefixes[pos, rows] = np.column_stack([grown[slot, rows], tid])
        states = np.zeros(scores.shape + new_states.shape[2:])
        states[pos, rows] = new_states[slot, rows]
    return best


def _search(sources, params: ModelParams, beam_width: int,
            max_len: int | None) -> list[Hypothesis]:
    """Encode the sources in one padded pass and beam-search them together."""
    keep_heap()
    max_len = params.config.max_decode_len if max_len is None else max_len
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if not sources:
        return []
    tape = Tape(recording=False)
    src, src_mask = _pad(sources)
    enc, final = _encode(tape, params, src, src_mask)
    enc = tape.transpose(enc, (1, 0, 2))  # batch-major (B, Ts, H), as _attend takes it
    h = params.config.hidden_dim
    live = [enc, src_mask]  # encoder states and mask of the articles still decoding

    def step(prev, states, cols):
        if len(cols) < live[0].data.shape[0]:
            live[:] = Tensor(enc.data[cols]), src_mask[:, cols]
        s, a = prev.shape
        x = tape.embedding_lookup(params["tgt_emb"], prev.reshape(1, s * a))
        out = _gru(tape, params, "dec", x, Tensor(states.reshape(s * a, h)), np.ones((1, s * a)))
        out = tape.reshape(out, (s, a, h))
        # the slot axis stands in for _attend's decoder-time axis
        context, _ = _attend(tape, out, live[0], params, live[1])
        comb = tape.tanh(tape.matmul(tape.reshape(tape.concat(context, out), (s * a, 2 * h)),
                                     params["comb_w"]))
        lp = log_softmax(tape.matmul(comb, params["out_w"]).data)
        return lp.reshape(s, a, -1), out.data

    return _beam(step, beam_width, max_len, final.data[None])


def _content(token_ids: list[int]) -> list[int]:
    # <s> always leads; </s> ends a finalized hypothesis
    return token_ids[1:-1] if token_ids[-1] == EOS else token_ids[1:]


def beam_search_batch(sources, params: ModelParams, beam_width: int,
                      max_len: int | None = None) -> list[list[int]]:
    """Each source's best token id sequence, with <s>/</s> stripped.

    No length normalization; score ties break toward the
    lexicographically smaller token id sequence. Every live hypothesis
    of every source advances in one batch.
    """
    return [_content(h.token_ids) for h in _search(sources, params, beam_width, max_len)]


def beam_search_full(src_ids, params: ModelParams, beam_width: int,
                     max_len: int | None = None) -> Hypothesis:
    """Beam search of one source: the winning hypothesis with its log-prob."""
    return _search([src_ids], params, beam_width, max_len)[0]


def beam_search(src_ids, params: ModelParams, beam_width: int,
                max_len: int | None = None) -> list[int]:
    """Best token id sequence of one source with <s>/</s> stripped."""
    return beam_search_batch([src_ids], params, beam_width, max_len)[0]


def greedy_decode(src_ids, params: ModelParams, max_len: int | None = None):
    """Argmax decoding, which is beam search of width 1; returns (content
    token ids, accumulated log-prob). Ties go to the smallest token id; a
    </s> emission counts in the log-prob but is stripped from the ids."""
    hyp = beam_search_full(src_ids, params, 1, max_len)
    return _content(hyp.token_ids), hyp.log_prob


def train(pairs: list[EncodedPair], config: ModelConfig, *, epochs: int, batch_size: int,
          learning_rate: float, valid_pairs: list[EncodedPair] | None = None, log_fn=None):
    """Teacher-forced Adagrad training; returns (params, per-epoch history).

    One MT19937 session stream seeded from config.seed drives parameter
    init, the per-epoch shuffle, and dropout masks, so a run is fully
    reproducible. A mini-batch is one padded, masked pass whose loss is
    the mean of its examples' losses, followed by one Adagrad step.
    When a validation set is given, the best-validation-loss parameters
    are kept and returned; otherwise the final ones.
    """
    if not pairs:
        raise ValueError("training needs at least one pair")
    keep_heap()
    rng = MT19937(config.seed)
    params = init_params(config, rng)
    opt = Adagrad(params.tensors, learning_rate=learning_rate)
    history = []
    best_loss = float("inf")
    best_params = None

    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = list(range(len(pairs)))
        rng.shuffle(order)
        loss_sum = 0.0
        for start in range(0, len(order), batch_size):
            batch = [pairs[i] for i in order[start:start + batch_size]]
            opt.zero_grad()
            tape = Tape()
            loss = batch_loss(batch, params, tape=tape, rng=rng)
            value = float(loss.data)
            if not np.isfinite(value):
                raise RuntimeError(
                    f"training diverged: loss={value} at epoch {epoch}, "
                    f"batch starting at position {start}")
            tape.backward(loss)
            loss_sum += value * len(batch)
            opt.step()
        entry = {
            "epoch": epoch,
            "train_loss": loss_sum / len(pairs),
            "seconds": time.perf_counter() - t0,
        }
        if valid_pairs:
            vloss = _mean_loss(valid_pairs, params, batch_size)
            entry["valid_loss"] = vloss
            if vloss < best_loss:
                best_loss = vloss
                best_params = params.copy()
        history.append(entry)
        if log_fn:
            log_fn(entry)

    if valid_pairs and best_params is not None:
        return best_params, history
    return params, history


def _mean_loss(pairs: list[EncodedPair], params: ModelParams, batch_size: int) -> float:
    """Mean per-pair loss, taking pairs by index batch_size at a time."""
    total = 0.0
    for start in range(0, len(pairs), batch_size):
        batch = [pairs[i] for i in range(start, min(start + batch_size, len(pairs)))]
        total += float(batch_loss(batch, params).data) * len(batch)
    return total / len(pairs)


CHECKPOINT_VERSION = 2  # 2: fused gate tensors; 1 held one tensor per gate


def save_checkpoint(params: ModelParams, path):
    """Single-file container: named float64 tensors plus the config, written
    whole at exactly path (no suffix is added) or not at all."""
    meta = json.dumps({"format_version": CHECKPOINT_VERSION, "config": asdict(params.config)},
                      sort_keys=True)
    with atomic_write(path, "wb") as f:
        np.savez(f, __meta__=meta, **{k: t.data for k, t in params.tensors.items()})


def load_checkpoint(path) -> ModelParams:
    """The parameters saved at path. A file that is no checkpoint of this
    version, or whose tensors do not fit its config, raises a ValueError
    that starts with path."""
    try:
        # np.load leaves a path it opened open when the archive is corrupt
        with open(path, "rb") as f:
            if f.read(4) != b"PK\x03\x04":  # np.load would take any other file for a pickle
                raise ValueError("not an npz archive")
            f.seek(0)
            with np.load(f, allow_pickle=False) as archive:
                meta = json_loads(str(archive["__meta__"]))
                if meta.get("format_version") != CHECKPOINT_VERSION:
                    raise ValueError(f"unsupported checkpoint version "
                                     f"{meta.get('format_version')}: "
                                     f"only version {CHECKPOINT_VERSION} is supported")
                config = ModelConfig(**meta["config"])
                tensors = {k: Tensor(np.asarray(archive[k], dtype=np.float64))
                           for k in archive.files if k != "__meta__"}
        expected = dict(_param_shapes(config))
        if set(tensors) != set(expected):
            raise ValueError("checkpoint parameter names do not match the config")
        for name, t in tensors.items():
            if t.data.shape != expected[name]:
                raise ValueError(f"checkpoint {name} has shape {t.data.shape}, "
                                 f"expected {expected[name]}")
    except (AttributeError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: {e}") from None
    return ModelParams(config, tensors)
