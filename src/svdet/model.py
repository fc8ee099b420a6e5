"""Convolutional-LSTM block classifier, trained from scratch with BPTT.

The cell convolves each frame's feature vector with a bank of 1-D
kernels and feeds the flattened map, together with the previous hidden
and cell states, into the four LSTM gates; the output gate sees the
freshly updated cell state. A max-pool + dense + sigmoid head turns the
final hidden state into a per-block voicing posterior.

The gate parameters and the checkpoint store the gate rows stacked in
the order i, f, c, o, as each step reads them (see param_shapes). At run
time the linear conv is folded into one fused gate projection, applied
to every frame of a batch before the time loop (_fuse_params), and the
backward pass chains its gradient back into conv_k, conv_b and W_z. Any
fused projection is reachable (make one filter a unit impulse), so the
conv adds no capacity: it only reparameterizes the input projection.
Stride-1 inference runs on a window view of one padded feature matrix,
and forward_blocks projects each frame under such a view once, not once
per block it falls in.

The recurrence runs units x blocks: the state h, c is (h, B) and the
gates (4h, B), with the blocks of a batch on the last, contiguous axis.
The projection is laid out (T, 4h, B) by one copy per call, and the
forward cache and the backward pass keep the same layout. One function
runs every step, of forward_blocks and of lrcn_cell_step (_run_cells);
the backward pass forms its gate derivatives into arrays made once per
call. The gates and the head share one in-place sigmoid on numpy's
vector exp, which differs from scipy's expit only in the last bits (a
few ulp). Training updates flat vectors of parameters, gradients and
momentum in place, through named views of them.

Everything is float64 numpy; forward/backward are batched over blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from numbers import Integral
from typing import TYPE_CHECKING
from zipfile import BadZipFile

import numpy as np

from .audio import row_chunks
from .errors import DataError, DivergenceError
from .features import FeatureMatrix, NormStats, blockify
from .tracks import PredictionTrack

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

CHECKPOINT_VERSION = 3
# Blocks per forward_blocks call in predict_track and train_lrcn's
# validation. One call per clip is slower at song length (39 features, one
# BLAS thread, median of 5: 237-277 vs 182-214 ms at 12000 frames, 62-63
# vs 53-55 at 4000). A batch's posteriors can differ in the last bit from
# one call's on all blocks: on 999 frames, a last batch of 4 to 64 blocks
# did at some lengths for 2 of 5 random models of 39 features, and at
# lengths 7 mod 8 for 1 of 5 of 13 features.
PREDICT_BATCH = 512
# Gathered blocks are projected PROJ_BLOCKS to 2 * PROJ_BLOCKS - 1 at a
# time, so a batch's product and its (T, 4h, B) layout are never both held
# whole; a training batch is one product. Rows of chunks this large came
# out bitwise equal to those of one product (d 6-40, h 4-32, T 5 and 29).
PROJ_BLOCKS = 32
KERNEL_WIDTH = 4  # taps of each conv filter along the feature axis
POOL_LEN = 2  # hidden units per max-pool group of the head
_POOL_SLOTS = np.arange(POOL_LEN)[:, None]


def check_ints(low: int, **values) -> None:
    """DataError unless each given value (every one of dense_sizes) is an
    int, not a bool, of at least low."""
    for name, value in values.items():
        each = "all " if name == "dense_sizes" else ""
        for v in value if each else (value,):
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise DataError(f"{name} must {each}be of type int, "
                                f"got {value!r}")
            if v < low:
                raise DataError(f"{name} must {each}be at least {low}, "
                                f"got {value}")


def check_shape(**sizes) -> None:
    """DataError unless each given model size (LrcnConfig's fields, every
    one of dense_sizes, which must be a tuple or list) is an int of at
    least 1, and hidden_size, if given, is a multiple of POOL_LEN."""
    if "dense_sizes" in sizes:
        if not isinstance(sizes["dense_sizes"], (tuple, list)):
            raise DataError(f"dense_sizes must be a tuple or list, "
                            f"got {sizes['dense_sizes']!r}")
        sizes["dense_sizes"] = tuple(sizes["dense_sizes"])
    check_ints(1, **sizes)
    if sizes.get("hidden_size", 0) % POOL_LEN:
        raise DataError(f"hidden_size must be a multiple of {POOL_LEN}, "
                        f"got {sizes['hidden_size']}")


@dataclass(frozen=True)
class LrcnConfig:
    """Model shape; PipelineConfig holds the defaults of the free fields."""

    input_dim: int
    block_len: int
    n_filters: int
    hidden_size: int
    dense_sizes: tuple

    def __post_init__(self):
        check_shape(**vars(self))
        object.__setattr__(self, "dense_sizes", tuple(self.dense_sizes))

    @property
    def conv_dim(self) -> int:
        return self.n_filters * self.input_dim


def param_shapes(cfg: LrcnConfig):
    """Ordered (name, shape) list; the order defines the flat layout."""
    h, z = cfg.hidden_size, cfg.conv_dim
    shapes = [
        ("conv_k", (cfg.n_filters, KERNEL_WIDTH)),
        ("conv_b", (cfg.n_filters,)),
        ("W_z", (4 * h, z)),  # gate rows stacked i, f, c, o
        ("W_h", (4 * h, h)),
        ("W_c", (2 * h, h)),  # the i and f peepholes
        ("Wo_c", (h, h)),
        ("b", (4 * h,)),
    ]
    prev = h // POOL_LEN
    for li, n in enumerate(cfg.dense_sizes):
        shapes.append((f"dense_W{li}", (n, prev)))
        shapes.append((f"dense_b{li}", (n,)))
        prev = n
    shapes.append(("out_w", (prev,)))
    shapes.append(("out_b", ()))
    return shapes


def init_params(cfg: LrcnConfig, seed: int) -> dict:
    """Weights uniform in +-1/sqrt(fan-in), biases zero but the forget
    gate's; drawn a gate at a time in the order of the per-gate layout of
    checkpoint format 2, so a seed gives the weights it gave there."""
    rng = np.random.default_rng(seed)
    params = zero_params(cfg)

    def draw(out):
        s = 1.0 / np.sqrt(max(out.shape[-1], 1))
        out[...] = rng.uniform(-s, s, size=out.shape)

    n = cfg.hidden_size
    draw(params["conv_k"])
    peepholes = (params["W_c"][:n], params["W_c"][n:], None, params["Wo_c"])
    for r, peephole in enumerate(peepholes):
        draw(params["W_z"][r * n : (r + 1) * n])
        draw(params["W_h"][r * n : (r + 1) * n])
        if peephole is not None:
            draw(peephole)
    for li in range(len(cfg.dense_sizes)):
        draw(params[f"dense_W{li}"])
    draw(params["out_w"])
    params["b"][n : 2 * n] = 1.0  # forget gate: bias toward remembering
    return params


def param_views(vec: np.ndarray, cfg: LrcnConfig) -> dict:
    """Named views of a flat parameter vector, in param_shapes order."""
    params, pos = {}, 0
    for name, shape in param_shapes(cfg):
        size = math.prod(shape)
        params[name] = vec[pos : pos + size].reshape(shape)
        pos += size
    if pos != len(vec):
        raise DataError("parameter vector length mismatch")
    return params


def zero_params(cfg: LrcnConfig) -> dict:
    n = sum(math.prod(shape) for _, shape in param_shapes(cfg))
    return param_views(np.zeros(n), cfg)


def params_to_vector(params: dict, cfg: LrcnConfig) -> np.ndarray:
    return np.concatenate([np.ravel(params[n]) for n, _ in param_shapes(cfg)])


# ---------------------------------------------------------------------------
# Forward

def _negate_sigmoid_rows(m: np.ndarray, n: int) -> np.ndarray:
    """Negate, in place, the i, f and o rows of stacked gate rows m (4n,
    ...): the rows that feed a sigmoid. Returns m."""
    np.negative(m[: 2 * n], out=m[: 2 * n])
    np.negative(m[3 * n :], out=m[3 * n :])
    return m


def _fuse_params(params: dict, cfg: LrcnConfig) -> dict:
    """The step's operands: the conv folded into the gate input projection,
    with the sign of every sigmoid input flipped.

    The conv is linear and feeds the gates directly, so the input term
    W_z @ conv(x) + b equals A @ x + b' with A of shape (4h, d). The i, f
    and o rows of A, b' and W_h, and all of W_c and Wo_c, are negated, so
    a step's i, f, o pre-activations come out negated and their sigmoid
    takes no negation pass (_sigmoid_of_negated). Rounding to nearest is
    symmetric in sign, so each product and sum is the exact negation of
    the one on the stored weights. Also returns, for the backward pass,
    "W3", W_z viewed as (4h, n_filters, d), and "W3_sum", its sum over d.
    """
    d, n = cfg.input_dim, cfg.hidden_size
    pad_l = (KERNEL_WIDTH - 1) // 2
    W3 = params["W_z"].reshape(4 * n, cfg.n_filters, d)
    # G[m, j, k]: weight of gate row m on padded input j + k, which conv
    # tap k reads for output j; summing over j + k gives A. The product is
    # the np.dot of np.tensordot(W3, conv_k, axes=([1], [0])).
    G = np.dot(W3.transpose(0, 2, 1).reshape(-1, cfg.n_filters),
               params["conv_k"]).reshape(len(W3), d, KERNEL_WIDTH)
    A_pad = np.zeros((len(W3), d + KERNEL_WIDTH - 1))
    for k in range(KERNEL_WIDTH):
        A_pad[:, k : k + d] += G[:, :, k]
    W3_sum = W3.sum(axis=2)
    b = params["b"] + W3_sum @ params["conv_b"]
    return {"W3": W3, "W3_sum": W3_sum, "A": _negate_sigmoid_rows(
                np.ascontiguousarray(A_pad[:, pad_l : pad_l + d]), n),
            "b": _negate_sigmoid_rows(b, n),
            "W_h": _negate_sigmoid_rows(
                np.array(params["W_h"], dtype=np.float64), n),
            "W_c": np.negative(params["W_c"], dtype=np.float64),
            "Wo_c": np.negative(params["Wo_c"], dtype=np.float64)}


def _sigmoid_of_negated(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(a)), the sigmoid of -a, in place; returns a.

    exp(a) overflows to inf above about 709.8, and the result is then
    0.0 where expit(-a) gives a subnormal; callers ignore the overflow.
    """
    np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) in place, with no temporaries; returns a."""
    with np.errstate(over="ignore"):
        return _sigmoid_of_negated(np.negative(a, out=a))


def _cell_slots(n: int, B: int, T: int, every_step: bool):
    """(hs, cs, gates, tanh_cs) for T steps on B blocks: hs, cs hold S
    state slots (h, B), zero, and gates, tanh_cs G slots (4h, B), (h, B).
    With every_step, S = T + 1 and G = T, else S = 2 and G = 1."""
    S, G = (T + 1, T) if every_step else (2, 1)
    hs, cs = np.zeros((2, S, n, B))
    return hs, cs, np.empty((G, 4 * n, B)), np.empty((G, n, B))


def _run_cells(proj: np.ndarray, hs: np.ndarray, cs: np.ndarray,
               gates: np.ndarray, tanh_cs: np.ndarray, fused: dict) -> None:
    """The LSTM steps on proj (T, 4h, B), the projected input with its i,
    f and o rows negated, from the state in hs[0], cs[0] (_cell_slots).

    Step t reads state slot t % S, writes slot (t + 1) % S and gate slot
    t % G: the activated i, f, g, o go into the row slices a[:h],
    a[h:2h], a[2h:3h] and a[3h:] of gate slot a, and tanh(c) into
    tanh_cs. Units run down the rows and blocks along the last axis. Each
    step writes W_h @ h straight into the gate rows and adds W_c @ c to
    the i, f rows, with fused's negated weights. The row views are made
    once, and the products go into one preallocated buffer.
    """
    S, G = len(hs), len(gates)
    n = hs.shape[1]
    W_h, W_c, Wo_c = fused["W_h"], fused["W_c"], fused["Wo_c"]
    peep = np.empty((2 * n, hs.shape[2]))  # W_c @ c; then i * g, Wo_c @ c_new
    peep_o = peep[:n]
    slots = [(a, a[: 2 * n], a[:n], a[n : 2 * n], a[2 * n : 3 * n],
              a[3 * n :], tanh_c) for a, tanh_c in zip(gates, tanh_cs)]
    h_slots, c_slots = list(hs), list(cs)
    with np.errstate(over="ignore"):
        for t, proj_t in enumerate(proj):
            a, a_if, i, f, g, o, tanh_c = slots[t % G]
            h, c = h_slots[t % S], c_slots[t % S]
            h_new, c_new = h_slots[(t + 1) % S], c_slots[(t + 1) % S]
            np.matmul(W_h, h, out=a)
            a += proj_t
            np.matmul(W_c, c, out=peep)
            a_if += peep
            _sigmoid_of_negated(a_if)
            np.tanh(g, out=g)
            np.multiply(f, c, out=c_new)
            np.multiply(i, g, out=peep_o)
            c_new += peep_o
            # the output gate sees the freshly updated cell state
            np.matmul(Wo_c, c_new, out=peep_o)
            o += peep_o
            _sigmoid_of_negated(o)
            np.tanh(c_new, out=tanh_c)
            np.multiply(o, tanh_c, out=h_new)


def forward_blocks(x: np.ndarray, params: dict, cfg: LrcnConfig,
                   want_cache: bool = False):
    """Posterior for each block in x (B, T, input_dim)."""
    if x.ndim != 3 or x.shape[1] != cfg.block_len or x.shape[2] != cfg.input_dim:
        raise DataError(f"expected blocks of shape (B, {cfg.block_len}, "
                        f"{cfg.input_dim}), got {x.shape}")
    B, T, d = x.shape
    n = cfg.hidden_size
    fused = _fuse_params(params, cfg)
    # the input projection of every frame, outside the time loop, laid
    # out (T, 4h, B) by one copy, so each proj[t] has contiguous rows
    if B and x.strides[0] == x.strides[1]:
        # blocks one frame apart (a stride-1 window view): project the
        # B + T - 1 distinct frames once, as units x frames, and window
        # that: proj[t] is its columns t to t + B
        frames = np.concatenate([x[:, 0], x[-1, 1:]])
        proj = np.lib.stride_tricks.sliding_window_view(
            np.ascontiguousarray((frames @ fused["A"].T + fused["b"]).T), B,
            axis=1).swapaxes(0, 1)
    else:
        proj = np.empty((T, 4 * n, B))
        k = max(B // PROJ_BLOCKS, 1)
        edges = np.arange(k + 1) * B // k
        for lo, hi in zip(edges[:-1], edges[1:]):
            chunk = x[lo:hi].reshape(-1, d) @ fused["A"].T
            chunk += fused["b"]
            proj[:, :, lo:hi] = chunk.reshape(-1, T, 4 * n).transpose(1, 2, 0)
    # hs[t], cs[t]: state entering step t. The cache keeps every step;
    # inference alternates between two state slots and one gate slot.
    hs, cs, gates, tanh_cs = _cell_slots(n, B, T, want_cache)
    _run_cells(proj, hs, cs, gates, tanh_cs, fused)
    h = hs[T % len(hs)].T
    # head: max-pool pairs of hidden units, dense tanh stack, sigmoid
    hp = h.reshape(B, n // POOL_LEN, POOL_LEN)
    pool_idx = hp.argmax(axis=2)
    u = hp.max(axis=2)
    dense_us = [u]
    for li in range(len(cfg.dense_sizes)):
        u = np.tanh(u @ params[f"dense_W{li}"].T + params[f"dense_b{li}"])
        dense_us.append(u)
    logit = u @ params["out_w"] + params["out_b"]
    p = _sigmoid(logit)
    if not want_cache:
        return p
    cache = {"fused": fused, "h": hs, "c": cs, "gates": gates,
             "tanh_c": tanh_cs, "pool_idx": pool_idx, "dense_us": dense_us}
    return p, cache


def lrcn_cell_step(x_vec: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                   params: dict, cfg: LrcnConfig):
    """Single cell step on one frame vector; returns (h, c, gates dict)."""
    fused = _fuse_params(params, cfg)
    proj = x_vec[None] @ fused["A"].T + fused["b"]
    n = cfg.hidden_size
    hs, cs, gates, tanh_cs = _cell_slots(n, 1, 1, False)
    hs[0, :, 0], cs[0, :, 0] = h_prev, c_prev
    _run_cells(proj.T[None], hs, cs, gates, tanh_cs, fused)
    a = gates[0, :, 0]
    return hs[1, :, 0], cs[1, :, 0], {"i": a[:n], "f": a[n : 2 * n],
                                      "o": a[3 * n :]}


# ---------------------------------------------------------------------------
# Backward (BPTT)

def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy, posteriors clipped to [1e-12, 1 - 1e-12]."""
    pc = np.clip(p, 1e-12, 1 - 1e-12)
    return float(np.mean(-y * np.log(pc) - (1 - y) * np.log(1 - pc)))


def lrcn_backward(x: np.ndarray, y: np.ndarray, params: dict, cfg: LrcnConfig,
                  grads: dict | None = None):
    """Mean BCE loss and gradients for a batch of labelled blocks.

    The gradients are written into grads (arrays of param_shapes, such as
    param_views of a flat vector), whatever they held; without grads they
    go into new arrays. Returns (loss, grads).
    """
    if len(x) == 0:
        raise DataError("empty batch")
    y = np.asarray(y, dtype=np.float64)
    p, cache = forward_blocks(x, params, cfg, want_cache=True)
    B, T, d = x.shape
    n = cfg.hidden_size
    loss = bce_loss(p, y)
    if grads is None:
        grads = zero_params(cfg)

    dlogit = (p - y) / B
    np.matmul(dlogit, cache["dense_us"][-1], out=grads["out_w"])
    grads["out_b"][...] = dlogit.sum()
    du = np.outer(dlogit, params["out_w"])
    for li in reversed(range(len(cfg.dense_sizes))):
        u = cache["dense_us"][li + 1]
        da = du * (1.0 - u ** 2)
        np.matmul(da.T, cache["dense_us"][li], out=grads[f"dense_W{li}"])
        da.sum(axis=0, out=grads[f"dense_b{li}"])
        du = da @ params[f"dense_W{li}"]
    # un-pool: route gradient to the max element of each pool group, laid
    # out units x blocks as in the forward pass
    dh = np.where(cache["pool_idx"].T[:, None] == _POOL_SLOTS, du.T[:, None],
                  0.0).reshape(n, B)

    # Every gate-local derivative depends only on the forward pass, so it
    # is formed for all steps at once, into arrays made once per call; the
    # time loop only carries dh, dc. All of them are units x blocks, as in
    # the forward pass.
    hs, cs, tanh_cs = cache["h"], cache["c"], cache["tanh_c"]
    i, f, g, o = cache["gates"].reshape(T, 4, n, B).swapaxes(0, 1)
    # d pre-activation of i, f, c per unit of dc; of o per unit of dh;
    # dc per unit of dh
    dc_to_ifc = np.empty((T, 3, n, B))
    dh_to_o, dh_to_c, slope = np.empty((3, T, n, B))
    for out, v, gate in ((dc_to_ifc[:, 0], g, i), (dc_to_ifc[:, 1], cs[:-1], f),
                         (dh_to_o, tanh_cs, o)):
        # v * gate * (1 - gate)
        np.multiply(v, gate, out=out)
        np.subtract(1.0, gate, out=slope)
        out *= slope
    for out, v, act in ((dc_to_ifc[:, 2], i, g), (dh_to_c, o, tanh_cs)):
        # v * (1 - act ** 2)
        np.square(act, out=out)
        np.subtract(1.0, out, out=out)
        out *= v
    # dpre[:, t]: gradient of the stacked i, f, c, o pre-activations at
    # step t, (4h, B); dpre_ifc[:, :, t] is its i, f, c rows as (3, h, B).
    # Steps on the middle axis make dpre one (4h, T * B) matrix after.
    dpre = np.empty((4 * n, T, B))
    dpre_ifc = dpre.reshape(4, n, T, B)[:3]
    W_hT, W_cT, Wo_cT = params["W_h"].T, params["W_c"].T, params["Wo_c"].T
    dc, dc_carry, back = np.empty((n, B)), np.zeros((n, B)), np.empty((n, B))
    steps = list(zip(dpre.swapaxes(0, 1), dpre[3 * n :].swapaxes(0, 1),
                     dpre[: 2 * n].swapaxes(0, 1),
                     dpre_ifc.transpose(2, 0, 1, 3), dh_to_o, dh_to_c,
                     dc_to_ifc, f))
    for da, da_o, da_if, da_ifc, to_o, to_c, to_ifc, f_t in reversed(steps):
        np.multiply(dh, to_o, out=da_o)
        # dc = dh * dh_to_c[t] + dc_carry + Wo_c.T @ da[3h:], in that order
        np.multiply(dh, to_c, out=dc)
        dc += dc_carry
        np.matmul(Wo_cT, da_o, out=back)
        dc += back
        np.multiply(dc, to_ifc, out=da_ifc)
        np.matmul(W_hT, da, out=dh)
        np.multiply(dc, f_t, out=dc_carry)
        np.matmul(W_cT, da_if, out=back)
        dc_carry += back

    # sums over all steps and blocks, each one product over the T * B
    # columns of dpre (step t, block b at column t * B + b)
    dpre = dpre.reshape(4 * n, T * B)
    h_in = hs[:-1].transpose(1, 0, 2).reshape(n, T * B)
    # the cell states as (step, block) rows: one C-ordered copy that both
    # peephole products read views of, where np.dot would copy each slice
    c_rows = cs.transpose(0, 2, 1).reshape((T + 1) * B, n)
    dA = np.dot(dpre, x.transpose(1, 0, 2).reshape(T * B, d))
    db = dpre.sum(axis=1, out=grads["b"])
    np.dot(dpre, h_in.T, out=grads["W_h"])
    # the i, f peepholes see the cell state entering a step, o leaving it
    np.dot(dpre[: 2 * n], c_rows[: T * B], out=grads["W_c"])
    np.dot(dpre[3 * n :], c_rows[B:], out=grads["Wo_c"])

    # chain dA and db back through the fold (with np.tensordot's own
    # products): dG[m * d + j, k] = dA_pad[m, j + k] is the gradient of G
    pad_l = (KERNEL_WIDTH - 1) // 2
    W3 = cache["fused"]["W3"]
    dA_pad = np.zeros((4 * n, d + KERNEL_WIDTH - 1))
    dA_pad[:, pad_l : pad_l + d] = dA
    dG = np.empty((4 * n, d, KERNEL_WIDTH))
    for k in range(KERNEL_WIDTH):
        dG[:, :, k] = dA_pad[:, k : k + d]
    dG = dG.reshape(-1, KERNEL_WIDTH)
    np.dot(W3.transpose(1, 0, 2).reshape(cfg.n_filters, -1), dG,
           out=grads["conv_k"])
    np.matmul(cache["fused"]["W3_sum"].T, db, out=grads["conv_b"])
    dW3 = (np.dot(dG, params["conv_k"].T).reshape(4 * n, d, cfg.n_filters)
           .transpose(0, 2, 1) + np.outer(db, params["conv_b"])[:, :, None])
    grads["W_z"][...] = dW3.reshape(4 * n, cfg.conv_dim)
    return loss, grads


# ---------------------------------------------------------------------------
# Training / prediction

# not evaluation.metrics' F1: 2PR/(P+R) differs in the last bit and is 0.0, not 1.0, with no positives
def binary_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    tp = int(np.sum((pred == 1) & (truth == 1)))
    fp = int(np.sum((pred == 1) & (truth == 0)))
    fn = int(np.sum((pred == 0) & (truth == 1)))
    if 2 * tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2 * tp + fp + fn)


def train_lrcn(blocks, labels, centers, valid_centers, cfg: LrcnConfig,
               pcfg: PipelineConfig):
    """Mini-batch gradient descent with momentum.

    Block i of blocks is labelled labels[i]. Trains on the blocks at
    centers and validates each epoch on those at valid_centers,
    PREDICT_BATCH at a time, gathering each batch by index, so blocks can
    be a blockify view of all frames. Reads learning_rate, momentum,
    epochs, batch_size, seed and patience from pcfg. Returns (best params,
    history): with validation centers, the params with the best validation
    F1, stopping early by the patience; with none, the final params.
    """
    if len(centers) == 0:
        raise DataError("empty training set")
    rng = np.random.default_rng(pcfg.seed)
    # params and grads are named views of theta and gvec, updated in place
    theta = params_to_vector(init_params(cfg, seed=pcfg.seed), cfg)
    gvec = np.empty_like(theta)
    params, grads = param_views(theta, cfg), param_views(gvec, cfg)
    velocity = np.zeros_like(theta)
    history = []
    best_theta, best_score, stale = theta, -np.inf, 0
    for epoch in range(pcfg.epochs):
        order = rng.permutation(len(centers))
        batches = row_chunks(len(centers), pcfg.batch_size)
        epoch_loss = 0.0
        for bi, rows in enumerate(batches):
            batch = centers[order[rows]]
            loss, _ = lrcn_backward(blocks[batch], labels[batch], params, cfg,
                                    grads)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch {bi}")
            # velocity = momentum * velocity - learning_rate * gvec
            velocity *= pcfg.momentum
            gvec *= pcfg.learning_rate
            velocity -= gvec
            theta += velocity
            epoch_loss += loss
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(f"non-finite parameters after epoch {epoch}")
        entry = {"epoch": epoch, "train_loss": epoch_loss / len(batches)}
        history.append(entry)
        if len(valid_centers):
            vp = np.concatenate([
                forward_blocks(blocks[valid_centers[rows]], params, cfg)
                for rows in row_chunks(len(valid_centers), PREDICT_BATCH)])
            score = binary_f1((vp >= 0.5).astype(int), labels[valid_centers])
            entry["valid_f1"] = score
            if score > best_score:
                best_score, best_theta, stale = score, theta.copy(), 0
            else:
                stale += 1
            if stale > pcfg.patience:
                break
    return param_views(best_theta, cfg), history


def predict_track(feat: FeatureMatrix, params: dict,
                  cfg: LrcnConfig) -> PredictionTrack:
    """One posterior per frame via stride-1 blocks with edge replication.

    The blocks are a window view of one padded matrix, so forward_blocks
    projects each frame once rather than once per block it falls in.
    """
    x = blockify(feat.values, cfg.block_len)
    post = np.empty(len(x))
    for rows in row_chunks(len(x), PREDICT_BATCH):
        post[rows] = forward_blocks(x[rows], params, cfg)
    return PredictionTrack(posteriors=post)


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(path, params: dict, cfg: LrcnConfig, stats: NormStats,
                    front_end: dict) -> None:
    """npz container: a __meta__ JSON (format version, model config and
    the front-end settings the features were made with), one array per
    parameter and the normalization statistics."""
    meta = {"format_version": CHECKPOINT_VERSION, "config": asdict(cfg),
            "front_end": front_end}
    np.savez(path, __meta__=np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8), **params,
        __norm_min__=stats.col_min, __norm_max__=stats.col_max)


def read_checkpoint(path):
    """(params, cfg, stats, front_end) from a checkpoint file.

    A file that is missing, truncated, not an npz or holds pickled data,
    or whose __meta__, parameters (shapes too) or normalization
    statistics are missing or malformed, is a DataError; so is a
    parameter or statistic whose dtype is not bool, int or float, or that
    holds a non-finite value.
    """
    try:
        # opened here, so a file np.load refuses is closed by the with
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            version = meta["format_version"]
            if version == CHECKPOINT_VERSION:
                cfg = LrcnConfig(**meta["config"])
                params = {n: data[n] for n, _ in param_shapes(cfg)}
                norm = {n: data[n] for n in ("__norm_min__", "__norm_max__")}
                front_end = dict(meta["front_end"])
    except (BadZipFile, EOFError, KeyError, OSError, TypeError,
            ValueError) as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from None
    # outside the try: a DataError is a ValueError and would be re-wrapped
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    for name, shape in param_shapes(cfg):
        if params[name].shape != shape:
            raise DataError(f"checkpoint parameter {name} has shape "
                            f"{params[name].shape}, its config needs {shape}")
    for name, value in {**params, **norm}.items():
        if value.dtype.kind not in "biuf":
            raise DataError(f"checkpoint array {name} has dtype {value.dtype}, "
                            f"not bool, int or float")
        if not np.all(np.isfinite(value)):
            raise DataError(f"checkpoint array {name} holds a non-finite "
                            f"value")
    try:
        stats = NormStats(col_min=norm["__norm_min__"],
                          col_max=norm["__norm_max__"])
    except DataError as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from None
    return params, cfg, stats, front_end
