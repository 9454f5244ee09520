"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here deliberately avoids the implementation paths it is used
to check: segmentation scoring is enumerated, LCS comes from distinct
subsequence sets or, for inputs too long to enumerate, from a dynamic
program, and decoding enumerates every emission sequence.
Gradients are checked against central differences, through a reducer
built from the same tape primitives the model runs.
"""

import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from hwcsum.model import ModelConfig, ModelParams
from hwcsum.numerics import Tensor, init_uniform
from hwcsum.rng import MT19937


def weighted_sum(tape, parts, weights) -> Tensor:
    """The scalar sum over i of <parts[i], weights[i]>, for tensors of any
    shape (weights[i] the size of parts[i]), from tape primitives only: the
    parts and the weights flattened and joined into a row each, then one
    (1, N) @ (N, 1) product, reshaped to () so that float() takes it."""
    def row(tensors):
        rows = [tape.reshape(t, (1, -1)) for t in tensors]
        return rows[0] if len(rows) == 1 else tape.concat(*rows)

    return tape.reshape(tape.matmul(row(parts), tape.reshape(row(weights), (-1, 1))), ())


def finite_difference_error(loss_fn, elements, h=1e-5) -> float:
    """Worst relative error of .grad against central differences.

    elements are (tensor, flat index) pairs; each element's difference is
    (loss_fn() at x + h - loss_fn() at x - h) / 2h, its data restored after.
    The error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-6).
    """
    worst = 0.0
    for t, i in elements:
        flat = t.data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        up = float(loss_fn().data)
        flat[i] = orig - h
        down = float(loss_fn().data)
        flat[i] = orig
        numeric = (up - down) / (2 * h)
        analytic = t.grad.reshape(-1)[i]
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    return worst


def enumerate_segmentations(chars, lexicon_entries):
    """Every way to cover chars with lexicon words or single-char fallbacks."""
    n = len(chars)
    results = []

    def extend(i, acc):
        if i == n:
            results.append(list(acc))
            return
        for j in range(i + 1, n + 1):
            word = "".join(chars[i:j])
            if word in lexicon_entries or j - i == 1:
                acc.append(word)
                extend(j, acc)
                acc.pop()

    extend(0, [])
    return results


def segmentation_log_prob(tokens, lexicon_entries, total):
    log_total = math.log(total)
    return sum(math.log(lexicon_entries.get(tok, 1)) - log_total for tok in tokens)


def best_segmentation_score(text_chars, lexicon_entries, total):
    """Max total log-probability over every possible segmentation."""
    return max(
        segmentation_log_prob(seg, lexicon_entries, total)
        for seg in enumerate_segmentations(text_chars, lexicon_entries)
    )


def _invalid_word(entries) -> str | None:
    """A word whose entry is invalid (empty, or a count <= 0), else None."""
    if "" in entries:
        return ""
    if entries and min(entries.values()) <= 0:
        return next(w for w, c in entries.items() if c <= 0)
    return None


def _reference_lexicon(entries):
    bad = _invalid_word(entries)
    if bad == "":
        raise ValueError("lexicon contains an empty word")
    if bad is not None:
        raise ValueError(f"lexicon count for {bad!r} must be positive, got {entries[bad]}")
    return SimpleNamespace(entries=entries, total=sum(entries.values()),
                           max_word_len=max(map(len, entries), default=1))


def reference_lexicon_load(path):
    """The lexicon loader as it was before the array table: a per-line
    loop into a dict, validated afterwards, the error line found by a
    second read. Returns a namespace of entries (the dict), total and
    max_word_len."""
    entries = {}
    with open(path, encoding="utf-8-sig") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                word, count = line.split("\t")
                entries[word] = int(count)
            except ValueError:
                if line.isspace():
                    continue
                raise ValueError(f"{path}: line {line_no}: expected 'word<TAB>count'") from None
    try:
        return _reference_lexicon(entries)
    except ValueError as e:
        line_no = _last_line_of(path, _invalid_word(entries))
        raise ValueError(f"{path}: line {line_no}: {e}") from None


def _last_line_of(path, word: str) -> int:
    """Number of the last line of a lexicon file that sets ``word``."""
    last = 0
    with open(path, encoding="utf-8-sig") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.isspace() and line.split("\t")[0] == word:
                last = line_no
    return last


def reference_word_segment(text, lex):
    """The segmenter as first written: the lexicon total and the longest
    word length are recomputed from the entries on every call, and words
    are joined from a character list."""
    if not lex.entries:
        raise ValueError("lexicon is empty")
    chars = [ch for ch in text if not ch.isspace()]
    n = len(chars)
    if n == 0:
        return []

    log_total = math.log(sum(lex.entries.values()))
    max_len = max((len(w) for w in lex.entries), default=1)

    # best[i] = (score, end) of the best path for chars[i:], computed back to front
    best = [(0.0, 0)] * (n + 1)
    best[n] = (0.0, n)
    for i in range(n - 1, -1, -1):
        top = None
        for j in range(i + 1, min(i + max_len, n) + 1):
            word = "".join(chars[i:j])
            count = lex.entries.get(word)
            if count is None:
                if j - i > 1:
                    continue
                count = 1  # singleton fallback
            cand = (math.log(count) - log_total + best[j][0], j)
            if top is None or cand > top:
                top = cand
        best[i] = top

    tokens = []
    i = 0
    while i < n:
        j = best[i][1]
        tokens.append("".join(chars[i:j]))
        i = j
    return tokens


def reference_gru(x, U, b, h0, mask, g):
    """The fused GRU time loop as first written, forward and backward.

    x (T, B, 3H) is the hoisted input projection, U (H, 3H), b (3H,),
    h0 (B, H), mask (T, B) and g (T, B, H) the gradient arriving at the
    states. Returns (states, dx, dU, db, dh0).
    """
    T, B, H3 = x.shape
    H = H3 // 3
    keep = np.asarray(mask, dtype=bool)
    u_zr, u_h = U[:, :2 * H], U[:, 2 * H:]
    b_zr, b_h = b[:2 * H], b[2 * H:]
    zr = np.empty((T, B, 2 * H))
    cand = np.empty((T, B, H))
    states = np.empty((T, B, H))
    h = h0
    for t in range(T):
        zr[t] = 1.0 / (1.0 + np.exp(-(x[t, :, :2 * H] + h @ u_zr + b_zr)))
        r = zr[t, :, H:]
        cand[t] = np.tanh(x[t, :, 2 * H:] + (r * h) @ u_h + b_h)
        z = zr[t, :, :H]
        h = np.where(keep[t][:, None], z * h + (1.0 - z) * cand[t], h)
        states[t] = h

    dx = np.zeros((T, B, H3))
    du = np.zeros((H, H3))
    dh = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh + g[t]
        m = keep[t][:, None]
        dnew = np.where(m, dh, 0.0)
        hp, c = states[t - 1] if t else h0, cand[t]
        z, r = zr[t, :, :H], zr[t, :, H:]
        dc = dnew * (1.0 - z) * (1.0 - c * c)
        drh = dc @ u_h.T
        dzr = np.concatenate([dnew * (hp - c), drh * hp], axis=1) * zr[t] * (1.0 - zr[t])
        dx[t, :, :2 * H] = dzr
        dx[t, :, 2 * H:] = dc
        du[:, :2 * H] += hp.T @ dzr
        du[:, 2 * H:] += (r * hp).T @ dc
        dh = np.where(m, dnew * z + drh * r + dzr @ u_zr.T, dh)
    return states, dx, du, dx.sum(axis=(0, 1)), dh


def _param_shapes(cfg: ModelConfig):
    s, t, e, h = cfg.src_vocab_size, cfg.tgt_vocab_size, cfg.embed_dim, cfg.hidden_dim
    shapes = [("src_emb", (s, e)), ("tgt_emb", (t, e))]
    for side in ("enc", "dec"):
        for gate in ("z", "r", "h"):
            shapes += [
                (f"{side}_w{gate}", (e, h)),
                (f"{side}_u{gate}", (h, h)),
                (f"{side}_b{gate}", (h,)),
            ]
    shapes += [("att_w", (h, h)), ("comb_w", (2 * h, h)), ("out_w", (h, t))]
    return shapes


def reference_init_params(config: ModelConfig, rng: MT19937 | None = None) -> ModelParams:
    """The per-gate parameter init as first written: one tensor per gate,
    {side}_{w,u,b}{z,r,h}, each drawn whole in _param_shapes order."""
    rng = rng or MT19937(config.seed)
    tensors = {name: init_uniform(shape, rng) for name, shape in _param_shapes(config)}
    return ModelParams(config, tensors)


@lru_cache(maxsize=None)
def subsequence_set(s: str) -> frozenset:
    """All distinct subsequences of s (including the empty string)."""
    out = {""}
    for ch in s:
        out |= {sub + ch for sub in out}
    return frozenset(out)


def brute_force_lcs(a: str, b: str) -> int:
    """LCS length as the longest string common to both subsequence sets."""
    common = subsequence_set(a) & subsequence_set(b)
    return max(len(s) for s in common)


def dp_lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length by dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = curr[j - 1] if curr[j - 1] >= prev[j] else prev[j]
        prev = curr
    return prev[-1]


def enumerate_decodes(step_fn, init_state, bos, eos, vocab_size, max_len):
    """Every terminal emission sequence with its accumulated log-prob.

    A sequence terminates at its first eos emission or at max_len
    tokens. Returned entries are (log_prob, token_ids) with token_ids
    starting at bos, exactly as a no-pruning search would produce them.
    """
    results = []

    def extend(prev_ids, state, log_prob, depth):
        if depth == max_len:
            results.append((log_prob, prev_ids))
            return
        lp_row, new_state = step_fn(prev_ids[-1], state)
        for tid in range(vocab_size):
            ids = prev_ids + [tid]
            score = log_prob + float(lp_row[tid])
            if tid == eos:
                results.append((score, ids))
            else:
                extend(ids, new_state, score, depth + 1)

    extend([bos], init_state, 0.0, 0)
    return results


def best_decode(step_fn, init_state, bos, eos, vocab_size, max_len):
    """Argmax terminal sequence; ties break toward smaller token ids."""
    results = enumerate_decodes(step_fn, init_state, bos, eos, vocab_size, max_len)
    return min(results, key=lambda r: (-r[0], r[1]))
