"""Dense tensors with tape-recorded reverse-mode gradients.

The tape holds the primitives that training differentiates. It appends
one node per op in creation order, which is already topological, so
``backward`` simply replays the list in reverse and accumulates gradients
additively into ``Tensor.grad``. Each node is released as soon as it has
run, so the memory a forward pass holds falls during the backward pass
and a tape is replayed once. A non-recording tape turns the same code
paths into plain forward evaluation; ``log_softmax`` is forward only, on
plain arrays, for decoding and for ``Tape.nll``.

A primitive is a value plus a vector-Jacobian product: it checks its
inputs, computes its value and ends in ``_node(value, inputs, vjp)``,
where ``vjp(g)`` gives one gradient per input, in input order: a fresh
array or a view. ``_accum`` keeps a first gradient that owns its memory
as ``.grad`` and copies one that is a view, so no two ``.grad`` arrays
share memory.
"""

import math

import numpy as np

from .rng import MT19937


class Tensor:
    """An array plus its accumulated gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _accum(t: Tensor, g):
    if t.grad is None:
        # asarray only wraps the numpy scalar that an op on a 0-d array returns
        g = np.asarray(g)
        t.grad = g if g.flags.owndata else np.array(g, copy=True)
    else:
        t.grad += g


def log_softmax(x):
    """log(softmax(x)) over the last axis of an array, max-subtracted for stability."""
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Tape:
    """Append-only record of operations; replayed in reverse for gradients."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes = []

    def _node(self, value, inputs, vjp) -> Tensor:
        """Wrap value as the op's output; record vjp, which maps the output's
        gradient g to one gradient per input."""
        out = Tensor(value)
        if self.recording:
            self.nodes.append((out, inputs, vjp))
        return out

    def backward(self, loss: Tensor):
        """Accumulate d(loss)/d(tensor) into .grad for every tensor on the tape.

        A tensor the loss never touched keeps .grad None.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not self.recording:
            raise ValueError("backward on a non-recording tape")
        if self.nodes and self.nodes[-1] is None:
            raise ValueError("backward: this tape was already replayed")
        _accum(loss, np.ones_like(loss.data))
        nodes = self.nodes
        for i in range(len(nodes) - 1, -1, -1):
            # dropping the node frees what only its gradient needed;
            # the slot stays, so len(nodes) still counts the recorded ops
            (out, inputs, vjp), nodes[i] = nodes[i], None
            if out.grad is not None:  # None: the loss does not depend on out
                for t, g in zip(inputs, vjp(out.grad)):
                    _accum(t, g)

    # ---- primitives ------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a @ b for a (..., K) @ (K, N): a vector, a matrix or a batch of them."""
        ad, bd = a.data, b.data
        if ad.ndim == 0 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
            raise ValueError(f"matmul: shape mismatch {ad.shape} vs {bd.shape}")
        return self._node(ad @ bd, (a, b), lambda g: (
            g @ bd.T, ad.reshape(-1, bd.shape[0]).T @ g.reshape(-1, bd.shape[1])))

    def bmm(self, a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
        """Batched products over the last two axes, (..., M, K) @ (..., K, N).

        With transpose_b, b is (..., N, K) and enters transposed, as a view.
        The leading axes of a and b must be equal.
        """
        ad, bd = a.data, b.data
        bt = bd.swapaxes(-1, -2) if transpose_b else bd
        if ad.ndim < 2 or ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bt.shape[-2]:
            raise ValueError(f"bmm: shape mismatch {ad.shape} vs {bt.shape}")
        return self._node(np.matmul(ad, bt), (a, b), lambda g: (
            np.matmul(g, bt.swapaxes(-1, -2)),
            np.matmul(g.swapaxes(-1, -2), ad) if transpose_b else np.matmul(ad.swapaxes(-1, -2), g)))

    def transpose(self, a: Tensor, axes) -> Tensor:
        """a with its axes permuted, copied to C order for the products that follow."""
        return self._node(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                          lambda g: (g.transpose(np.argsort(axes)),))

    def reshape(self, a: Tensor, shape) -> Tensor:
        return self._node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))

    def scale(self, a: Tensor, k) -> Tensor:
        """a * k for a constant k: a float, or an array of a's shape (a mask)."""
        return self._node(a.data * k, (a,), lambda g: (g * k,))

    def tanh(self, a: Tensor) -> Tensor:
        y = np.tanh(a.data)
        return self._node(y, (a,), lambda g: (g * (1.0 - y * y),))

    def concat(self, *parts: Tensor) -> Tensor:
        """Join tensors along the last axis; leading shapes must agree."""
        lead = {p.data.shape[:-1] for p in parts}
        if len(parts) < 2 or len(lead) != 1 or parts[0].data.ndim == 0:
            raise ValueError(f"concat: incompatible shapes {[p.data.shape for p in parts]}")

        def vjp(g):
            start = 0
            for p in parts:
                end = start + p.data.shape[-1]
                yield g[..., start:end]
                start = end

        return self._node(np.concatenate([p.data for p in parts], axis=-1), parts, vjp)

    def embedding_lookup(self, table: Tensor, index) -> Tensor:
        """Rows of table along its first axis; index is an int or an int array.

        The result has shape index.shape + table.shape[1:].
        """
        idx = np.asarray(index)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"embedding_lookup: index must be integral, got {idx.dtype}")
        n = table.data.shape[0]
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"embedding_lookup: ids {idx.min()}..{idx.max()} out of range for {n} rows")

        def vjp(g):
            # one bin per (row, column) of the table; bincount adds each
            # bin's entries in input order from 0.0, as a scatter-add would
            cols = math.prod(table.data.shape[1:])
            bins = (idx.reshape(-1, 1).astype(np.intp, copy=False) * cols + np.arange(cols)).ravel()
            d = np.bincount(bins, g.ravel(), n * cols)
            d.resize(table.data.shape, refcheck=False)  # in place: _accum would copy a view
            return (d,)

        return self._node(np.take(table.data, idx, axis=0), (table,), vjp)

    def softmax(self, a: Tensor, mask) -> Tensor:
        """Softmax over the last axis, max-subtracted for stability.

        Where the boolean mask (broadcast against a) is false the
        probability is exactly 0; every row needs at least one true entry.
        """
        x = np.where(mask, a.data, -np.inf)
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        return self._node(y, (a,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))

    def nll(self, logits: Tensor, targets, weights) -> Tensor:
        """Fused weighted negative log-likelihood over the last axis:

            sum(weights * -log_softmax(logits)[..., targets]).

        targets is an int array of logits.shape[:-1]; weights a float array
        of the same shape (0 where a position does not count). The gradient
        weights * (softmax - onehot) needs no clamp, however small the
        target's probability.
        """
        x = logits.data
        targets = np.asarray(targets)
        weights = np.asarray(weights)
        if targets.shape != x.shape[:-1] or weights.shape != targets.shape:
            raise ValueError(f"nll: targets {targets.shape} and weights {weights.shape} "
                             f"must match logits {x.shape} without the last axis")
        if targets.size and (targets.min() < 0 or targets.max() >= x.shape[-1]):
            raise ValueError(f"nll: target out of range for {x.shape[-1]} classes")
        lp = log_softmax(x)
        at = np.arange(0, lp.size, x.shape[-1]) + targets.ravel()  # flat, in C order

        def vjp(g):
            d = np.exp(lp, order="C")  # C order: the reshape is a view to write through
            d.reshape(-1)[at] -= 1.0
            return (d * (float(g) * weights)[..., None],)

        return self._node(-(weights * lp.reshape(-1)[at].reshape(targets.shape)).sum(), (logits,), vjp)

    def gru(self, xproj: Tensor, u: Tensor, b: Tensor, h0: Tensor, mask) -> Tensor:
        """A gated recurrent cell run over time as one tape node.

        xproj (T, B, 3H) is the hoisted input projection x_t [Wz|Wr|Wh];
        u (H, 3H) is [Uz|Ur|Uh] and b (3H,) is [bz|br|bh]; h0 (B, H) is the
        start state. Per step, with z the update and r the reset gate,

            z = sigmoid(xz + h Uz + bz),  r = sigmoid(xr + h Ur + br),
            c = tanh(xh + (r * h) Uh + bh),  h' = c + z * (h - c).

        mask (T, B) is 1 where a step is real; elsewhere the state is
        carried unchanged, so the last state is each row's state at its
        own last real step. Returns the states (T, B, H).
        """
        x, U, h = xproj.data, u.data, h0.data
        T, B, H3 = x.shape
        H = H3 // 3
        if U.shape != (H, H3) or b.data.shape != (H3,) or h.shape != (B, H) or H3 != 3 * H:
            raise ValueError(f"gru: incompatible shapes {x.shape}, {U.shape}, "
                             f"{b.data.shape}, {h.shape}")
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != (T, B):
            raise ValueError(f"gru: mask shape {keep.shape}, expected {(T, B)}")
        # only steps where some row is padding need the carry
        padded = (~keep.all(axis=1)).tolist()
        u_zr, u_h = U[:, :2 * H], U[:, 2 * H:]
        # the biases join the projection once, split into contiguous gate parts
        x_zr, x_h = x[..., :2 * H] + b.data[:2 * H], x[..., 2 * H:] + b.data[2 * H:]
        zr = np.empty((T, B, 2 * H))
        cand = np.empty((T, B, H))
        states = np.empty((T, B, H))
        for t in range(T):
            s = np.matmul(h, u_zr, out=zr[t])
            s += x_zr[t]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            c = np.matmul(s[:, H:] * h, u_h, out=cand[t])
            c += x_h[t]
            np.tanh(c, out=c)
            new = np.subtract(h, c, out=states[t])
            new *= s[:, :H]
            new += c
            if padded[t]:
                np.copyto(new, h, where=~keep[t][:, None])
            h = new

        def vjp(g):
            # everything but the recurrence in dh, over all steps at once
            g = np.ascontiguousarray(g)
            z, r = zr[..., :H], zr[..., H:]
            prev = np.concatenate([h0.data[None], states[:-1]])
            dcand = (1.0 - z) * (1.0 - cand * cand)
            dz_coef = (prev - cand) * z * (1.0 - z)
            dr_coef = prev * r * (1.0 - r)
            z, r = np.ascontiguousarray(z), np.ascontiguousarray(r)
            dx = np.empty((T, B, H3))
            dh = np.zeros((B, H))
            for t in range(T - 1, -1, -1):
                dh += g[t]
                dnew = np.where(keep[t][:, None], dh, 0.0) if padded[t] else dh
                dc = np.multiply(dnew, dcand[t], out=dx[t, :, 2 * H:])
                drh = dc @ u_h.T
                dzr = dx[t, :, :2 * H]
                np.multiply(dnew, dz_coef[t], out=dzr[:, :H])
                np.multiply(drh, dr_coef[t], out=dzr[:, H:])
                back = dzr @ u_zr.T
                back += dnew * z[t]
                back += drh * r[t]
                dh = np.where(keep[t][:, None], back, dh) if padded[t] else back
            flat, rows = dx.reshape(T * B, H3), prev.reshape(T * B, H)
            du = np.concatenate([rows.T @ flat[:, :2 * H],
                                 (r.reshape(T * B, H) * rows).T @ flat[:, 2 * H:]], axis=1)
            return dx, du, flat.sum(axis=0), dh

        return self._node(states, (xproj, u, b, h0), vjp)


class Adagrad:
    """Per-coordinate adaptive gradient descent.

    accumulator += g^2; param -= lr * g / (sqrt(accumulator) + 1e-8).
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.accumulators = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        """Apply one update from the gradients currently held by the params."""
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"adagrad: gradient shape {g.shape} does not match param {name} {p.data.shape}")
            acc = self.accumulators[name]
            acc += g * g
            p.data -= self.learning_rate * g / (np.sqrt(acc) + 1e-8)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def init_uniform(shape, rng: MT19937) -> Tensor:
    """Parameter init: uniform(-0.1, 0.1) drawn in one block, row-major."""
    return Tensor(rng.uniform_array(math.prod(shape), -0.1, 0.1).reshape(shape))
