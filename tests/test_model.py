import gc
import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from svdet import model
from svdet.audio import row_chunks
from svdet.errors import DataError, DivergenceError
from svdet.features import (FeatureMatrix, NormStats, apply_norm, blockify,
                            fit_norm_stats)
from svdet.model import (KERNEL_WIDTH, POOL_LEN, LrcnConfig, bce_loss,
                         binary_f1, forward_blocks, init_params, lrcn_backward,
                         lrcn_cell_step, param_shapes, param_views,
                         params_to_vector, predict_track, read_checkpoint,
                         save_checkpoint, train_lrcn, zero_params)
from svdet.pipeline import PipelineConfig, train_classifier
from svdet.tracks import LabelTrack

SMALL = LrcnConfig(input_dim=6, block_len=5, n_filters=8, hidden_size=8,
                   dense_sizes=(4,))
GATES = ("i", "f", "c", "o")


def small_params(seed=0):
    return init_params(SMALL, seed=seed)


def per_gate(p, cfg):
    """Views of the stacked gate rows under their per-gate names: W*_z,
    W*_h and b_* for gates i, f, c, o, and the peepholes Wi_c, Wf_c and
    Wo_c. Writing into a view writes into the stacked array."""
    n = cfg.hidden_size
    views = {"Wi_c": p["W_c"][:n], "Wf_c": p["W_c"][n:], "Wo_c": p["Wo_c"]}
    for r, g in enumerate(GATES):
        rows = slice(r * n, (r + 1) * n)
        views.update({f"W{g}_z": p["W_z"][rows], f"W{g}_h": p["W_h"][rows],
                      f"b_{g}": p["b"][rows]})
    return views


# ---------------------------------------------------------------------------
# independent straight-line scalar oracle for one cell step

def scalar_cell_oracle(x, h_prev, c_prev, params, cfg):
    params = {**params, **per_gate(params, cfg)}
    d = cfg.input_dim
    kw = KERNEL_WIDTH
    pad_l = (kw - 1) // 2
    z = []
    for f in range(cfg.n_filters):
        for j in range(d):
            acc = params["conv_b"][f]
            for k in range(kw):
                src = j + k - pad_l
                if 0 <= src < d:
                    acc += params["conv_k"][f, k] * x[src]
            z.append(acc)
    z = np.array(z)

    def gate(wz, wh, wc, b, cell):
        pre = np.zeros(cfg.hidden_size)
        for m in range(cfg.hidden_size):
            s = b[m]
            for n in range(len(z)):
                s += wz[m, n] * z[n]
            for n in range(cfg.hidden_size):
                s += wh[m, n] * h_prev[n]
                if wc is not None:
                    s += wc[m, n] * cell[n]
            pre[m] = s
        return pre

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(gate(params["Wi_z"], params["Wi_h"], params["Wi_c"], params["b_i"], c_prev))
    f = sig(gate(params["Wf_z"], params["Wf_h"], params["Wf_c"], params["b_f"], c_prev))
    g = np.tanh(gate(params["Wc_z"], params["Wc_h"], None, params["b_c"], None))
    c = f * c_prev + i * g
    o = sig(gate(params["Wo_z"], params["Wo_h"], params["Wo_c"], params["b_o"], c))
    h = o * np.tanh(c)
    return h, c


# ---------------------------------------------------------------------------
# independent unfolded reference: explicit "same" conv, four separate gate
# matmuls per step, the max-pool/dense/sigmoid head, and BPTT through all of
# it; the model under test folds the conv into one fused gate projection

def _sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def unfolded_forward(x, p, cfg):
    p = {**p, **per_gate(p, cfg)}
    B, T, d = x.shape
    kw = KERNEL_WIDTH
    pad_l = (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad_l, kw - 1 - pad_l)))
    z = np.zeros((B, T, cfg.n_filters, d))
    for f in range(cfg.n_filters):
        for k in range(kw):
            z[:, :, f] += p["conv_k"][f, k] * xp[:, :, k : k + d]
        z[:, :, f] += p["conv_b"][f]
    z = z.reshape(B, T, cfg.conv_dim)
    h = np.zeros((B, cfg.hidden_size))
    c = np.zeros((B, cfg.hidden_size))
    steps = []
    for t in range(T):
        zt = z[:, t]
        i = _sig(zt @ p["Wi_z"].T + h @ p["Wi_h"].T + c @ p["Wi_c"].T + p["b_i"])
        f = _sig(zt @ p["Wf_z"].T + h @ p["Wf_h"].T + c @ p["Wf_c"].T + p["b_f"])
        g = np.tanh(zt @ p["Wc_z"].T + h @ p["Wc_h"].T + p["b_c"])
        c_new = f * c + i * g
        o = _sig(zt @ p["Wo_z"].T + h @ p["Wo_h"].T + c_new @ p["Wo_c"].T
                 + p["b_o"])
        steps.append((zt, h, c, i, f, g, o, c_new))
        h, c = o * np.tanh(c_new), c_new
    hp = h.reshape(B, -1, POOL_LEN)
    us = [hp.max(axis=2)]
    for li in range(len(cfg.dense_sizes)):
        us.append(np.tanh(us[-1] @ p[f"dense_W{li}"].T + p[f"dense_b{li}"]))
    post = _sig(us[-1] @ p["out_w"] + p["out_b"])
    return post, (xp, steps, hp.argmax(axis=2), us)


def unfolded_backward(x, y, p, cfg):
    post, (xp, steps, pool_idx, us) = unfolded_forward(x, p, cfg)
    p = {**p, **per_gate(p, cfg)}
    B, T, d = x.shape
    grads = {name: np.zeros(shape) for name, shape in param_shapes(cfg)}
    # the per-gate gradients accumulate into the stacked arrays
    grads.update(per_gate(grads, cfg))
    dlogit = (post - y) / B
    grads["out_w"] = dlogit @ us[-1]
    grads["out_b"] = np.array(dlogit.sum())
    du = np.outer(dlogit, p["out_w"])
    for li in reversed(range(len(cfg.dense_sizes))):
        da = du * (1.0 - us[li + 1] ** 2)
        grads[f"dense_W{li}"] = da.T @ us[li]
        grads[f"dense_b{li}"] = da.sum(axis=0)
        du = da @ p[f"dense_W{li}"]
    dh = np.zeros((B, cfg.hidden_size // POOL_LEN, POOL_LEN))
    np.put_along_axis(dh, pool_idx[:, :, None], du[:, :, None], axis=2)
    dh = dh.reshape(B, cfg.hidden_size)
    dc_next = np.zeros_like(dh)
    dz = np.zeros((B, T, cfg.conv_dim))
    for t in reversed(range(T)):
        zt, h, c, i, f, g, o, c_new = steps[t]
        tc = np.tanh(c_new)
        dao = dh * tc * o * (1.0 - o)
        dc = dh * o * (1.0 - tc ** 2) + dc_next + dao @ p["Wo_c"]
        dai = dc * g * i * (1.0 - i)
        daf = dc * c * f * (1.0 - f)
        dag = dc * i * (1.0 - g ** 2)
        for gate, da, cell in (("i", dai, c), ("f", daf, c), ("c", dag, None),
                               ("o", dao, c_new)):
            grads[f"W{gate}_z"] += da.T @ zt
            grads[f"W{gate}_h"] += da.T @ h
            grads[f"b_{gate}"] += da.sum(axis=0)
            if cell is not None:
                grads[f"W{gate}_c"] += da.T @ cell
        dz[:, t] = (dai @ p["Wi_z"] + daf @ p["Wf_z"] + dag @ p["Wc_z"]
                    + dao @ p["Wo_z"])
        dh = (dai @ p["Wi_h"] + daf @ p["Wf_h"] + dag @ p["Wc_h"]
              + dao @ p["Wo_h"])
        dc_next = dc * f + dai @ p["Wi_c"] + daf @ p["Wf_c"]
    dz = dz.reshape(B, T, cfg.n_filters, d)
    for k in range(KERNEL_WIDTH):
        grads["conv_k"][:, k] = np.einsum("btfj,btj->f", dz, xp[:, :, k : k + d])
    grads["conv_b"] = dz.sum(axis=(0, 1, 3))
    return bce_loss(post, y), grads


# ---------------------------------------------------------------------------
# the time loops as first written, kept to check the model's bytes against:
# the conv folded into A and b' with every gate row as stored, a sigmoid
# that negates its input each step, and a step that allocates its products

def reference_fuse_params(params, cfg):
    d = cfg.input_dim
    pad_l = (KERNEL_WIDTH - 1) // 2
    W3 = params["W_z"].reshape(4 * cfg.hidden_size, cfg.n_filters, d)
    G = np.dot(W3.transpose(0, 2, 1).reshape(-1, cfg.n_filters),
               params["conv_k"]).reshape(len(W3), d, KERNEL_WIDTH)
    A_pad = np.zeros((len(W3), d + KERNEL_WIDTH - 1))
    for k in range(KERNEL_WIDTH):
        A_pad[:, k : k + d] += G[:, :, k]
    b = params["b"] + W3.sum(axis=2) @ params["conv_b"]
    return {"W3": W3, "A": np.ascontiguousarray(A_pad[:, pad_l : pad_l + d]),
            "b": b}


def reference_sigmoid(a):
    np.negative(a, out=a)
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def reference_cell_step(proj, h, c, params, a, h_new, c_new, tanh_c,
                        sigmoid):
    n = len(h)
    np.matmul(params["W_h"], h, out=a)
    a += proj
    a[: 2 * n] += params["W_c"] @ c
    sigmoid(a[: 2 * n])
    np.tanh(a[2 * n : 3 * n], out=a[2 * n : 3 * n])
    np.multiply(a[n : 2 * n], c, out=c_new)
    c_new += a[:n] * a[2 * n : 3 * n]
    a[3 * n :] += params["Wo_c"] @ c_new
    sigmoid(a[3 * n :])
    np.tanh(c_new, out=tanh_c)
    np.multiply(a[3 * n :], tanh_c, out=h_new)


def reference_forward_blocks(x, params, cfg, want_cache=False,
                             sigmoid=reference_sigmoid):
    B, T, d = x.shape
    n = cfg.hidden_size
    fused = reference_fuse_params(params, cfg)
    if B and x.strides[0] == x.strides[1]:
        frames = np.concatenate([x[:, 0], x[-1, 1:]])
        proj = np.lib.stride_tricks.sliding_window_view(
            np.ascontiguousarray((frames @ fused["A"].T + fused["b"]).T), B,
            axis=1).swapaxes(0, 1)
    else:
        proj = np.empty((T, 4 * n, B))
        k = max(B // model.PROJ_BLOCKS, 1)
        edges = np.arange(k + 1) * B // k
        for lo, hi in zip(edges[:-1], edges[1:]):
            chunk = x[lo:hi].reshape(-1, d) @ fused["A"].T
            chunk += fused["b"]
            proj[:, :, lo:hi] = chunk.reshape(-1, T, 4 * n).transpose(1, 2, 0)
    S, G = (T + 1, T) if want_cache else (2, 1)
    hs = np.zeros((S, n, B))
    cs = np.zeros((S, n, B))
    gates = np.empty((G, 4 * n, B))
    tanh_cs = np.empty((G, n, B))
    for t in range(T):
        reference_cell_step(proj[t], hs[t % S], cs[t % S], params,
                            gates[t % G], hs[(t + 1) % S], cs[(t + 1) % S],
                            tanh_cs[t % G], sigmoid)
    h = hs[T % S].T
    hp = h.reshape(B, n // POOL_LEN, POOL_LEN)
    pool_idx = hp.argmax(axis=2)
    u = hp.max(axis=2)
    dense_us = [u]
    for li in range(len(cfg.dense_sizes)):
        u = np.tanh(u @ params[f"dense_W{li}"].T + params[f"dense_b{li}"])
        dense_us.append(u)
    logit = u @ params["out_w"] + params["out_b"]
    p = sigmoid(logit)
    if not want_cache:
        return p
    cache = {"fused": fused, "h": hs, "c": cs, "gates": gates,
             "tanh_c": tanh_cs, "pool_idx": pool_idx, "dense_us": dense_us}
    return p, cache


def reference_bce_loss(p, y):
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(np.mean(-y * np.log(pc) - (1.0 - y) * np.log(1.0 - pc)))


def reference_lrcn_backward(x, y, params, cfg):
    y = np.asarray(y, dtype=np.float64)
    p, cache = reference_forward_blocks(x, params, cfg, want_cache=True)
    B, T, d = x.shape
    n = cfg.hidden_size
    loss = reference_bce_loss(p, y)
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
    dh = np.zeros((B, n // POOL_LEN, POOL_LEN))
    np.put_along_axis(dh, cache["pool_idx"][:, :, None], du[:, :, None], axis=2)
    dh = np.ascontiguousarray(dh.reshape(B, n).T)
    hs, cs, tanh_cs = cache["h"], cache["c"], cache["tanh_c"]
    i, f, g, o = cache["gates"].reshape(T, 4, n, B).swapaxes(0, 1)
    dc_to_ifc = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                          i * (1.0 - g ** 2)], axis=1)
    dh_to_o = tanh_cs * o * (1.0 - o)
    dh_to_c = o * (1.0 - tanh_cs ** 2)
    dpre = np.empty((4 * n, T, B))
    dpre_ifc = dpre.reshape(4, n, T, B)[:3]
    W_hT, W_cT, Wo_cT = params["W_h"].T, params["W_c"].T, params["Wo_c"].T
    dc, dc_carry = np.empty((n, B)), np.zeros((n, B))
    for t in reversed(range(T)):
        da = dpre[:, t]
        np.multiply(dh, dh_to_o[t], out=da[3 * n :])
        np.multiply(dh, dh_to_c[t], out=dc)
        dc += dc_carry
        dc += Wo_cT @ da[3 * n :]
        np.multiply(dc, dc_to_ifc[t], out=dpre_ifc[:, :, t])
        np.matmul(W_hT, da, out=dh)
        np.multiply(dc, f[t], out=dc_carry)
        dc_carry += W_cT @ da[: 2 * n]
    dpre = dpre.reshape(4 * n, T * B)
    h_in = hs[:-1].transpose(1, 0, 2).reshape(n, T * B)
    c_all = cs.transpose(1, 0, 2).reshape(n, (T + 1) * B)
    dA = np.dot(dpre, x.transpose(1, 0, 2).reshape(T * B, d))
    db = dpre.sum(axis=1, out=grads["b"])
    np.dot(dpre, h_in.T, out=grads["W_h"])
    np.dot(dpre[: 2 * n], c_all[:, : T * B].T, out=grads["W_c"])
    np.dot(dpre[3 * n :], c_all[:, B:].T, out=grads["Wo_c"])
    pad_l = (KERNEL_WIDTH - 1) // 2
    W3 = cache["fused"]["W3"]
    dA_pad = np.zeros((4 * n, d + KERNEL_WIDTH - 1))
    dA_pad[:, pad_l : pad_l + d] = dA
    dG = np.lib.stride_tricks.sliding_window_view(
        dA_pad, KERNEL_WIDTH, axis=1).reshape(-1, KERNEL_WIDTH)
    grads["conv_k"][...] = np.dot(
        W3.transpose(1, 0, 2).reshape(cfg.n_filters, -1), dG)
    np.matmul(W3.sum(axis=2).T, db, out=grads["conv_b"])
    dW3 = (np.dot(dG, params["conv_k"].T).reshape(4 * n, d, cfg.n_filters)
           .transpose(0, 2, 1) + np.outer(db, params["conv_b"])[:, :, None])
    grads["W_z"][...] = dW3.reshape(4 * n, cfg.conv_dim)
    return loss, grads


FOLD = LrcnConfig(input_dim=7, block_len=6, n_filters=3, hidden_size=6,
                  dense_sizes=(5,))


class TestFoldedProjection:
    def _params(self, seed):
        # every parameter random and non-zero, biases and conv_b included
        r = np.random.default_rng(seed)
        return {name: 0.5 * r.standard_normal(shape)
                for name, shape in param_shapes(FOLD)}

    def test_posteriors_match_unfolded(self, rng):
        p = self._params(1)
        x = rng.standard_normal((5, FOLD.block_len, FOLD.input_dim))
        ref, _ = unfolded_forward(x, p, FOLD)
        assert np.abs(forward_blocks(x, p, FOLD) - ref).max() <= 1e-12

    def test_gradients_match_unfolded(self, rng):
        p = self._params(2)
        x = rng.standard_normal((5, FOLD.block_len, FOLD.input_dim))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        loss, grads = lrcn_backward(x, y, p, FOLD)
        ref_loss, ref = unfolded_backward(x, y, p, FOLD)
        assert abs(loss - ref_loss) <= 1e-12
        for name, shape in param_shapes(FOLD):
            assert np.shape(grads[name]) == shape
            assert np.abs(grads[name] - ref[name]).max() <= 1e-12, name


class TestLrcnConfig:
    @pytest.mark.parametrize("dense_sizes", [4, None, "16"])
    def test_dense_sizes_not_a_sequence_refused(self, dense_sizes):
        with pytest.raises(DataError) as exc:
            LrcnConfig(input_dim=3, block_len=5, n_filters=2, hidden_size=4,
                       dense_sizes=dense_sizes)
        assert str(exc.value) == (f"dense_sizes must be a tuple or list, "
                                  f"got {dense_sizes!r}")

    def test_dense_sizes_list_stored_as_tuple(self):
        cfg = LrcnConfig(input_dim=3, block_len=5, n_filters=2, hidden_size=4,
                         dense_sizes=[4, 2])
        assert cfg.dense_sizes == (4, 2)


class TestInitParams:
    @pytest.mark.parametrize("cfg", [
        SMALL, FOLD,
        LrcnConfig(input_dim=3, block_len=4, n_filters=2, hidden_size=4,
                   dense_sizes=()),
        LrcnConfig(input_dim=5, block_len=4, n_filters=1, hidden_size=6,
                   dense_sizes=(5, 3)),
    ])
    def test_draws_in_format_2_order(self, cfg):
        # format 2 stored the gates one array each and drew them in
        # param order: conv_k, then per gate i, f, c, o its input,
        # recurrent and peephole weights, then the dense and output weights
        rng = np.random.default_rng(21)

        def draw(*shape):
            s = 1.0 / np.sqrt(shape[-1])
            return rng.uniform(-s, s, size=shape)

        h = cfg.hidden_size
        want = {"conv_k": draw(cfg.n_filters, KERNEL_WIDTH),
                "conv_b": np.zeros(cfg.n_filters)}
        gate = {}
        for g in GATES:
            gate[f"W{g}_z"] = draw(h, cfg.conv_dim)
            gate[f"W{g}_h"] = draw(h, h)
            if g != "c":
                gate[f"W{g}_c"] = draw(h, h)
        prev = h // POOL_LEN
        for li, m in enumerate(cfg.dense_sizes):
            want[f"dense_W{li}"] = draw(m, prev)
            want[f"dense_b{li}"] = np.zeros(m)
            prev = m
        want["out_w"] = draw(prev)
        want["out_b"] = np.zeros(())
        want["W_z"] = np.concatenate([gate[f"W{g}_z"] for g in GATES])
        want["W_h"] = np.concatenate([gate[f"W{g}_h"] for g in GATES])
        want["W_c"] = np.concatenate([gate["Wi_c"], gate["Wf_c"]])
        want["Wo_c"] = gate["Wo_c"]
        want["b"] = np.concatenate([np.zeros(h), np.ones(h), np.zeros(2 * h)])
        got = init_params(cfg, seed=21)
        assert sorted(got) == sorted(want)
        for name, shape in param_shapes(cfg):
            assert got[name].shape == shape, name
            assert got[name].tobytes() == want[name].tobytes(), name


def strided_cell_step(proj, h, c, p, products=None):
    """Reference: one cell step on the stacked (B, 4h) gate rows, each gate
    a strided column slice, with the same products (W_h @ h.T, ...) and
    order of operations as the units x blocks step. products(W, v) forms
    the (B, rows of W) product of W and v (B, h) instead. Returns (gates
    (B, 4h), h, c, tanh(c))."""
    def units_x_blocks(W, v):
        return (W @ np.ascontiguousarray(v.T)).T

    products = products or units_x_blocks
    n = h.shape[1]
    a = products(p["W_h"], h) + proj
    a[:, : 2 * n] += products(p["W_c"], c)
    model._sigmoid(a[:, : 2 * n])
    a[:, 2 * n : 3 * n] = np.tanh(a[:, 2 * n : 3 * n])
    c_new = a[:, n : 2 * n] * c + a[:, :n] * a[:, 2 * n : 3 * n]
    a[:, 3 * n :] += products(p["Wo_c"], c_new)
    model._sigmoid(a[:, 3 * n :])
    tanh_c = np.tanh(c_new)
    return a, a[:, 3 * n :] * tanh_c, c_new, tanh_c


def blocks_x_units(W, v):
    """The products of a step on (B, 4h) rows of blocks: v @ W.T."""
    return v @ W.T


class TestCellStep:
    # includes shapes (h = 32 at B = 32 and 33, h = 64 at B = 5) where a
    # batched per-gate product np.matmul(h, W_h as (4, h, h)) rounded
    # differently from the stacked h @ W_h.T (scipy-openblas 0.3.31)
    CASES = pytest.mark.parametrize("B, n", [
        (B, n) for B in (1, 2, 3, 5, 32, 33) for n in (2, 16, 32, 64)])

    @staticmethod
    def _step(B, n):
        """A random (proj, h, c, params) at B blocks and h = n, as rows of
        blocks, and the units x blocks step's (gates, h, c, tanh(c)) on
        them, transposed back to rows of blocks."""
        cfg = LrcnConfig(input_dim=13, block_len=5, n_filters=4,
                         hidden_size=n, dense_sizes=())
        r = np.random.default_rng(100 * B + n)
        p = {name: 0.5 * r.standard_normal(shape)
             for name, shape in param_shapes(cfg)}
        proj, h, c = (r.standard_normal((B, m)) for m in (4 * n, n, n))
        # as forward_blocks feeds it: i, f, o rows of proj and weights
        # negated, states in the first of two slots
        hs, cs, gates, tanh_cs = model._cell_slots(n, B, 1, False)
        hs[0], cs[0] = h.T, c.T
        neg_proj = model._negate_sigmoid_rows(proj.T.copy(), n)
        model._run_cells(neg_proj[None], hs, cs, gates, tanh_cs,
                         model._fuse_params(p, cfg))
        return (proj, h, c, p), (gates[0].T, hs[1].T, cs[1].T, tanh_cs[0].T)

    @CASES
    def test_gate_major_bitwise_equal_to_strided(self, B, n):
        inputs, got = self._step(B, n)
        for g, want in zip(got, strided_cell_step(*inputs)):
            assert np.array_equal(g, want)

    @CASES
    def test_close_to_blocks_x_units_products(self, B, n):
        # W @ v.T is the transpose of v @ W.T, and BLAS rounds some of
        # its elements differently (8 of these 24 cases, by up to 1e-15)
        inputs, got = self._step(B, n)
        for g, want in zip(got, strided_cell_step(*inputs, blocks_x_units)):
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-15)

    def test_gates_dict(self, rng):
        p = small_params(seed=3)
        x, h_prev, c_prev = rng.standard_normal(6), *rng.standard_normal((2, 8))
        h, c, gates = lrcn_cell_step(x, h_prev, c_prev, p, SMALL)
        fused = reference_fuse_params(p, SMALL)
        a_ref, h_ref, c_ref, _ = strided_cell_step(
            x[None] @ fused["A"].T + fused["b"], h_prev[None], c_prev[None], p)
        assert sorted(gates) == ["f", "i", "o"]
        for r, name in ((0, "i"), (1, "f"), (3, "o")):
            assert np.array_equal(gates[name], a_ref[0, r * 8 : (r + 1) * 8])
        assert np.array_equal(h, h_ref[0]) and np.array_equal(c, c_ref[0])

    def test_zero_params_cprev_one(self):
        p = zero_params(SMALL)
        h, c, gates = lrcn_cell_step(np.ones(6), np.zeros(8), np.ones(8), p, SMALL)
        assert np.allclose(gates["i"], 0.5)
        assert np.allclose(gates["f"], 0.5)
        assert np.allclose(gates["o"], 0.5)
        assert np.allclose(c, 0.5)
        assert np.allclose(h, 0.5 * math.tanh(0.5))

    def test_zero_params_fixed_point(self):
        p = zero_params(SMALL)
        h, c, _ = lrcn_cell_step(np.zeros(6), np.zeros(8), np.zeros(8), p, SMALL)
        assert np.all(c == 0.0)
        assert np.all(h == 0.0)

    def test_forgetting_halves_cell_state(self):
        p = zero_params(SMALL)
        c = np.ones(8)
        h = np.zeros(8)
        for t in range(1, 6):
            h, c, _ = lrcn_cell_step(np.zeros(6), h, c, p, SMALL)
            assert np.allclose(c, 0.5 ** t)
            assert np.allclose(h, 0.5 * np.tanh(c))

    def test_matches_scalar_oracle(self, rng):
        p = small_params(seed=5)
        x = rng.standard_normal(6)
        h_prev = 0.1 * rng.standard_normal(8)
        c_prev = 0.1 * rng.standard_normal(8)
        h, c, _ = lrcn_cell_step(x, h_prev, c_prev, p, SMALL)
        h_ref, c_ref = scalar_cell_oracle(x, h_prev, c_prev, p, SMALL)
        assert np.abs(h - h_ref).max() < 1e-12
        assert np.abs(c - c_ref).max() < 1e-12

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_gate_bounds(self, seed):
        r = np.random.default_rng(seed)
        p = init_params(SMALL, seed=seed)
        h, c, gates = lrcn_cell_step(5.0 * r.standard_normal(6),
                                     r.standard_normal(8),
                                     r.standard_normal(8), p, SMALL)
        for name in ("i", "f", "o"):
            assert np.all(gates[name] > 0.0) and np.all(gates[name] < 1.0)
        assert np.all(np.abs(h) < 1.0)


class TestForwardBlock:
    def test_zero_params_posterior_half(self, rng):
        p = zero_params(SMALL)
        block = rng.standard_normal((5, 6))
        assert forward_blocks(block[None], p, SMALL)[0] == pytest.approx(0.5)

    def test_posterior_in_open_interval(self, rng):
        p = small_params(seed=2)
        block = 10.0 * rng.standard_normal((5, 6))
        post = forward_blocks(block[None], p, SMALL)[0]
        assert 0.0 < post < 1.0

    def test_deterministic(self, rng):
        p = small_params(seed=9)
        block = rng.standard_normal((5, 6))
        a = forward_blocks(block[None], p, SMALL)[0]
        b = forward_blocks(block[None], p, SMALL)[0]
        assert a == b

    def test_wrong_block_length(self, rng):
        p = small_params()
        with pytest.raises(DataError):
            forward_blocks(rng.standard_normal((7, 6))[None], p, SMALL)


class TestSigmoid:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 800.0])
    def test_matches_expit(self, scale):
        x = scale * np.random.default_rng(int(10 * scale)).standard_normal(
            100_000)
        got = model._sigmoid(x.copy())
        # atol: below about -709.8 exp(-x) overflows and the result is
        # 0.0 where expit gives a subnormal
        np.testing.assert_allclose(got, expit(x), rtol=2e-15, atol=1e-300)

    def test_exact_at_extremes(self):
        x = np.array([np.inf, -np.inf, 1e308, -1e308, 800.0, -800.0, 0.0,
                      -0.0, np.nan])
        want = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.5, np.nan])
        got = model._sigmoid(x.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got, expit(x), equal_nan=True)

    def test_no_warning(self):
        x = np.array([-np.inf, -1e308, -800.0, -710.0, -709.0, 0.0, 745.0,
                      800.0, 1e308, np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model._sigmoid(x)

    def test_forward_blocks_close_to_expit(self):
        # prediction's batch on a padded window view, at the default shape;
        # the reference loop runs every gate and the head on expit
        cfg = PipelineConfig().lrcn_config(input_dim=39)
        p = init_params(cfg, seed=16)
        values = np.random.default_rng(16).standard_normal((999, 39))
        x = blockify(values, cfg.block_len)[: model.PREDICT_BATCH]
        got = forward_blocks(x, p, cfg)
        want = reference_forward_blocks(x, p, cfg,
                                        sigmoid=lambda a: expit(a, out=a))
        assert np.abs(got - want).max() <= 1e-13


CACHE_KEYS = ("h", "c", "gates", "tanh_c", "pool_idx")


def random_model(data):
    """A drawn model shape with every parameter random and non-zero, and an
    input scale: at 1e3 the gate pre-activations reach +-800, where exp
    overflows."""
    cfg = LrcnConfig(input_dim=data.draw(st.integers(1, 40), label="d"),
                     block_len=data.draw(st.integers(1, 29), label="T"),
                     n_filters=data.draw(st.integers(1, 8), label="filters"),
                     hidden_size=2 * data.draw(st.integers(1, 16), label="h/2"),
                     dense_sizes=data.draw(st.sampled_from([(), (16, 8)]),
                                           label="dense_sizes"))
    r = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                        label="seed"))
    p = {name: 0.5 * r.standard_normal(shape)
         for name, shape in param_shapes(cfg)}
    return cfg, p, r, data.draw(st.sampled_from([1.0, 1e3]), label="scale")


def assert_forward_bytes_equal(x, p, cfg):
    """forward_blocks on x, with and without the cache, byte-equal to the
    reference loop, raising no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = forward_blocks(x, p, cfg)
        got_c, cache = forward_blocks(x, p, cfg, want_cache=True)
        want = reference_forward_blocks(x, p, cfg)
        want_c, ref_cache = reference_forward_blocks(x, p, cfg, want_cache=True)
    assert got.tobytes() == want.tobytes() == got_c.tobytes() == want_c.tobytes()
    for key in CACHE_KEYS:
        assert cache[key].tobytes() == ref_cache[key].tobytes(), key
    for u, ref_u in zip(cache["dense_us"], ref_cache["dense_us"], strict=True):
        assert u.tobytes() == ref_u.tobytes()


def assert_backward_bytes_equal(x, y, p, cfg):
    """lrcn_backward's loss and gradients byte-equal to the reference
    loop's, raising no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grads = lrcn_backward(x, y, p, cfg)
        ref_loss, ref = reference_lrcn_backward(x, y, p, cfg)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    for name, _ in param_shapes(cfg):
        assert grads[name].tobytes() == ref[name].tobytes(), name


class TestReferenceLoops:
    """Posteriors, cache, loss and every gradient byte-equal to the loops
    as first written (reference_forward_blocks, reference_lrcn_backward)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_gathered_batch(self, data):
        cfg, p, r, scale = random_model(data)
        B = data.draw(st.integers(1, 40), label="B")
        values = scale * r.standard_normal((B + cfg.block_len, cfg.input_dim))
        blocks = blockify(values, cfg.block_len)
        x = blocks[r.integers(0, len(blocks), B)]
        assert_forward_bytes_equal(x, p, cfg)
        assert_backward_bytes_equal(x, (r.random(B) < 0.5).astype(np.float64),
                                    p, cfg)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_window_view_batches(self, data):
        # prediction's stride-1 window view, cut into batches of any size
        # as predict_track cuts it: the first batch and the last, of any
        # length
        cfg, p, r, scale = random_model(data)
        n_frames = data.draw(st.integers(1, 600), label="frames")
        batch = data.draw(st.integers(1, 600), label="batch")
        x = blockify(scale * r.standard_normal((n_frames, cfg.input_dim)),
                     cfg.block_len)
        chunks = row_chunks(len(x), batch)
        for rows in chunks[:1] + chunks[1:][-1:]:
            assert_forward_bytes_equal(x[rows], p, cfg)

    def test_saturated_gates(self):
        # the scale of 1e3 does push gate pre-activations past +-800
        cfg = LrcnConfig(input_dim=13, block_len=29, n_filters=4,
                         hidden_size=16, dense_sizes=(16, 8))
        r = np.random.default_rng(17)
        p = {name: 0.5 * r.standard_normal(shape)
             for name, shape in param_shapes(cfg)}
        x = 1e3 * r.standard_normal((32, cfg.block_len, cfg.input_dim))
        fused = reference_fuse_params(p, cfg)
        pre = x.reshape(-1, cfg.input_dim) @ fused["A"].T + fused["b"]
        assert pre.min() < -800.0 and pre.max() > 800.0
        assert_forward_bytes_equal(x, p, cfg)
        assert_backward_bytes_equal(x, (r.random(32) < 0.5).astype(np.float64),
                                    p, cfg)


class TestBackward:
    def test_gradient_vs_finite_differences(self, rng):
        p = small_params(seed=3)
        x = rng.standard_normal((2, 5, 6))
        y = np.array([1.0, 0.0])
        loss, grads = lrcn_backward(x, y, p, SMALL)
        theta = params_to_vector(p, SMALL)
        g = params_to_vector(grads, SMALL)
        delta = 1e-5
        idx = rng.choice(len(theta), size=120, replace=False)
        for i in idx:
            tp = theta.copy(); tp[i] += delta
            tm = theta.copy(); tm[i] -= delta
            lp = bce_loss(forward_blocks(x, param_views(tp, SMALL), SMALL), y)
            lm = bce_loss(forward_blocks(x, param_views(tm, SMALL), SMALL), y)
            fd = (lp - lm) / (2 * delta)
            rel = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8)
            assert rel < 1e-4

    def test_bce_stationarity_zero_bias_grad(self, rng):
        p = small_params(seed=4)
        x = rng.standard_normal((3, 5, 6))
        post = forward_blocks(x, p, SMALL)
        _, grads = lrcn_backward(x, post, p, SMALL)
        assert abs(float(grads["out_b"])) < 1e-12

    def test_duplicated_block_mean(self, rng):
        p = small_params(seed=6)
        x = rng.standard_normal((1, 5, 6))
        y = np.array([1.0])
        loss1, g1 = lrcn_backward(x, y, p, SMALL)
        loss2, g2 = lrcn_backward(np.repeat(x, 2, axis=0),
                                  np.array([1.0, 1.0]), p, SMALL)
        assert loss1 == pytest.approx(loss2)
        assert np.abs(params_to_vector(g1, SMALL)
                      - params_to_vector(g2, SMALL)).max() < 1e-12

    def test_empty_batch(self):
        with pytest.raises(DataError):
            lrcn_backward(np.zeros((0, 5, 6)), np.zeros(0), small_params(), SMALL)


class TestTraining:
    def _separable(self, rng, n=8):
        x = np.zeros((n, 5, 6))
        y = np.zeros(n)
        for i in range(n):
            if i % 2:
                x[i] += 1.0
                y[i] = 1.0
            x[i] += 0.05 * rng.standard_normal((5, 6))
        return x, y

    def test_overfits_separable_blocks(self, rng):
        x, y = self._separable(rng)
        cfg = PipelineConfig(learning_rate=0.05, momentum=0.9, epochs=200,
                             batch_size=8, seed=0, patience=10)
        params, history = train_lrcn(x, y, np.arange(len(x)), [], SMALL, cfg)
        post = forward_blocks(x, params, SMALL)
        assert np.all((post >= 0.5) == (y == 1.0))

    def test_zero_learning_rate_no_change(self, rng):
        x, y = self._separable(rng)
        cfg = PipelineConfig(learning_rate=0.0, momentum=0.9, epochs=5,
                             batch_size=4, seed=1, patience=10)
        params, history = train_lrcn(x, y, np.arange(len(x)), [], SMALL, cfg)
        init = init_params(SMALL, seed=1)
        assert np.array_equal(params_to_vector(params, SMALL),
                              params_to_vector(init, SMALL))
        losses = [h["train_loss"] for h in history]
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_identical_history(self, rng):
        x, y = self._separable(rng)
        cfg = PipelineConfig(learning_rate=0.01, momentum=0.9, epochs=10,
                             batch_size=4, seed=7, patience=10)
        _, h1 = train_lrcn(x, y, np.arange(len(x)), [], SMALL, cfg)
        _, h2 = train_lrcn(x, y, np.arange(len(x)), [], SMALL, cfg)
        assert h1 == h2

    def test_divergence_aborts(self, rng):
        x, y = self._separable(rng)
        x[0, 0, 0] = np.nan  # poisons the posterior, so the loss goes non-finite
        cfg = PipelineConfig(learning_rate=0.01, momentum=0.9, epochs=5,
                             batch_size=8, seed=0, patience=10)
        with pytest.raises(DivergenceError):
            train_lrcn(x, y, np.arange(len(x)), [], SMALL, cfg)

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            train_lrcn(np.zeros((0, 5, 6)), np.zeros(0),
                       np.zeros(0, dtype=int), [], SMALL, PipelineConfig())


def dict_loop_train(train_x, train_y, cfg, pcfg, valid_x=None, valid_y=None,
                    valid_batch=None):
    """Reference: train_lrcn's loop over parameter dicts and out-of-place
    vectors, which rebuilt the dict, took fresh gradients and flattened
    them again on every batch. Validation runs valid_batch blocks (all,
    by default) per forward_blocks call."""
    rng = np.random.default_rng(pcfg.seed)
    theta = params_to_vector(init_params(cfg, seed=pcfg.seed), cfg)
    velocity = np.zeros_like(theta)
    history, best_theta, best_score, stale = [], theta.copy(), -np.inf, 0
    for epoch in range(pcfg.epochs):
        order = rng.permutation(len(train_x))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(train_x), pcfg.batch_size):
            idx = order[start : start + pcfg.batch_size]
            params = param_views(theta.copy(), cfg)
            loss, grads = lrcn_backward(train_x[idx], train_y[idx], params, cfg)
            gvec = params_to_vector(grads, cfg)
            velocity = pcfg.momentum * velocity - pcfg.learning_rate * gvec
            theta = theta + velocity
            epoch_loss += loss
            n_batches += 1
        entry = {"epoch": epoch, "train_loss": epoch_loss / n_batches}
        if valid_x is not None:
            step = valid_batch or len(valid_x)
            vp = np.concatenate([
                forward_blocks(valid_x[s : s + step],
                               param_views(theta.copy(), cfg), cfg)
                for s in range(0, len(valid_x), step)])
            score = binary_f1((vp >= 0.5).astype(int), valid_y.astype(int))
            entry["valid_f1"] = score
            if score > best_score:
                best_score, best_theta, stale = score, theta.copy(), 0
            else:
                stale += 1
            if stale > pcfg.patience:
                history.append(entry)
                break
        else:
            best_theta = theta.copy()
        history.append(entry)
    return best_theta, history


class TestFlatBufferTraining:
    @pytest.mark.parametrize("n_train, batch_size, n_valid, patience", [
        (11, 4, 4, 10),   # ragged last batch of 3
        (16, 8, 6, 0),    # validation with early stopping
        (12, 6, 0, 10),   # no validation set
    ])
    def test_matches_dict_loop_bitwise(self, n_train, batch_size, n_valid,
                                       patience):
        rng = np.random.default_rng(n_train)
        x = rng.standard_normal((n_train + n_valid, 5, 6))
        y = (rng.random(n_train + n_valid) < 0.5).astype(np.float64)
        valid = (x[n_train:], y[n_train:]) if n_valid else ()
        pcfg = PipelineConfig(learning_rate=0.3, momentum=0.9, epochs=8,
                              batch_size=batch_size, seed=3, patience=patience)
        params, history = train_lrcn(x, y, np.arange(n_train),
                                     np.arange(n_train, len(x)), SMALL, pcfg)
        ref_theta, ref_history = dict_loop_train(x[:n_train], y[:n_train],
                                                 SMALL, pcfg, *valid)
        assert params_to_vector(params, SMALL).tobytes() == ref_theta.tobytes()
        assert history == ref_history
        if patience == 0:
            assert len(history) < pcfg.epochs  # it did stop early

    @pytest.mark.parametrize("n_valid", [9, 11, 12])
    def test_validation_in_predict_batches(self, n_valid, monkeypatch):
        # more held-out blocks than PREDICT_BATCH: validation gathers and
        # scores them a batch at a time, in the batches of the reference
        rng = np.random.default_rng(n_valid)
        n_train = 10
        x = rng.standard_normal((n_train + n_valid, 5, 6))
        y = (rng.random(len(x)) < 0.5).astype(np.float64)
        valid = n_train + rng.permutation(n_valid)
        pcfg = PipelineConfig(learning_rate=0.3, momentum=0.9, epochs=6,
                              batch_size=4, seed=5, patience=2)
        sizes, forward = [], model.forward_blocks

        def spy(blocks, *args, want_cache=False):
            if not want_cache:
                sizes.append(len(blocks))
            return forward(blocks, *args, want_cache=want_cache)

        monkeypatch.setattr(model, "PREDICT_BATCH", 4)
        monkeypatch.setattr(model, "forward_blocks", spy)
        params, history = train_lrcn(x, y, np.arange(n_train), valid, SMALL,
                                     pcfg)
        assert sizes and max(sizes) <= 4
        ref_theta, ref_history = dict_loop_train(
            x[:n_train], y[:n_train], SMALL, pcfg, x[valid], y[valid],
            valid_batch=4)
        assert history == ref_history
        assert params_to_vector(params, SMALL).tobytes() == ref_theta.tobytes()

    def test_backward_overwrites_nan_views(self, rng):
        p = small_params(seed=5)
        x = rng.standard_normal((3, 5, 6))
        y = np.array([1.0, 0.0, 1.0])
        loss, ref = lrcn_backward(x, y, p, SMALL)
        gvec = np.full(len(params_to_vector(p, SMALL)), np.nan)
        grads = param_views(gvec, SMALL)
        loss_views, out = lrcn_backward(x, y, p, SMALL, grads)
        assert out is grads and loss_views == loss
        assert gvec.tobytes() == params_to_vector(ref, SMALL).tobytes()

    @pytest.mark.parametrize("batch", [1, 3, 17])
    def test_inference_equals_cached_posteriors(self, batch, rng):
        p = small_params(seed=8)
        x = rng.standard_normal((batch, 5, 6))
        cached, _ = forward_blocks(x, p, SMALL, want_cache=True)
        assert forward_blocks(x, p, SMALL).tobytes() == cached.tobytes()


def materialized_training_arrays(stems, feats, labels, stats, cfg):
    """Reference: every training block copied out, one stem at a time, as
    the unpadded windows that start every train_stride frames, with the
    labels of their center frames."""
    xs, ys = [], []
    for stem in stems:
        values = apply_norm(feats[stem], stats).values
        x = np.lib.stride_tricks.sliding_window_view(
            values, cfg.block_len, axis=0).transpose(0, 2, 1)
        x = x[:: cfg.train_stride]
        centers = np.arange(len(x)) * cfg.train_stride + cfg.block_len // 2
        xs.append(x)
        ys.append(labels[stem].labels[centers].astype(np.float64))
    return np.concatenate(xs), np.concatenate(ys)


class TestCenterIndexedTraining:
    @pytest.mark.parametrize("block_len, stride, lens", [
        (29, 5, (60, 45, 29, 80, 52)),
        (4, 3, (20, 4, 13, 31, 9)),
        (5, 7, (26, 5, 40, 18, 12)),
        (29, 5, (90,)),  # one stem: no validation
    ])
    def test_matches_materialized_blocks_bitwise(self, block_len, stride,
                                                 lens):
        rng = np.random.default_rng(block_len * 100 + stride)
        stems = [f"clip{i}" for i in range(len(lens))]
        feats = {s: FeatureMatrix(values=rng.standard_normal((n, 6)),
                                  feature_tag="mfcc")
                 for s, n in zip(stems, lens)}
        labels = {s: LabelTrack(labels=rng.integers(0, 2, n, dtype=np.int8))
                  for s, n in zip(stems, lens)}
        pcfg = PipelineConfig(block_len=block_len, train_stride=stride,
                              n_filters=4, hidden_size=8, dense_sizes=(4,),
                              learning_rate=0.3, epochs=4, batch_size=5,
                              patience=1, seed=2)
        params, lrcn_cfg, stats, history = train_classifier(
            stems, feats, labels, pcfg)
        # train_classifier holds out the last stem of five, none of one
        n_val = 1 if len(stems) > 1 else 0
        fit, valid = stems[:len(stems) - n_val], stems[len(stems) - n_val:]
        ref_stats = fit_norm_stats([feats[s] for s in fit])
        # the held-out stem's blocks follow the fit stems' in one array
        x_tr, _ = materialized_training_arrays(fit, feats, labels, ref_stats,
                                               pcfg)
        x, y = materialized_training_arrays(stems, feats, labels, ref_stats,
                                            pcfg)
        ref_params, ref_history = train_lrcn(x, y, np.arange(len(x_tr)),
                                             np.arange(len(x_tr), len(x)),
                                             lrcn_cfg, pcfg)
        assert stats.col_min.tobytes() == ref_stats.col_min.tobytes()
        assert (params_to_vector(params, lrcn_cfg).tobytes()
                == params_to_vector(ref_params, lrcn_cfg).tobytes())
        assert history == ref_history
        assert all(("valid_f1" in e) == bool(valid) for e in history)


class TestPredictTrack:
    def _feat(self, values):
        return FeatureMatrix(values=values, feature_tag="mfcc")

    def test_constant_features_constant_track(self, rng):
        p = small_params(seed=11)
        feat = self._feat(np.tile(rng.standard_normal(6), (40, 1)))
        track = predict_track(feat, p, SMALL)
        assert np.allclose(track.posteriors, track.posteriors[0])

    def test_track_length_equals_frames(self, rng):
        p = small_params(seed=11)
        feat = self._feat(rng.standard_normal((33, 6)))
        assert len(predict_track(feat, p, SMALL).posteriors) == 33

    def test_agrees_with_forward_block(self, rng):
        p = small_params(seed=12)
        values = rng.standard_normal((9, 6))
        feat = self._feat(values)
        track = predict_track(feat, p, SMALL)
        half = SMALL.block_len // 2
        padded = np.concatenate([np.repeat(values[:1], half, axis=0), values,
                                 np.repeat(values[-1:], SMALL.block_len - 1 - half,
                                           axis=0)])
        for i in range(9):
            block = padded[i : i + SMALL.block_len]
            assert abs(track.posteriors[i]
                       - forward_blocks(block[None], p, SMALL)[0]) < 1e-12


    def test_batches_match_stacked_blocks(self, rng, monkeypatch):
        p = small_params(seed=13)
        values = rng.standard_normal((9, 6))
        monkeypatch.setattr(model, "PREDICT_BATCH", 4)
        track = predict_track(self._feat(values), p, SMALL)
        half = SMALL.block_len // 2
        idx = np.clip(np.arange(9)[:, None] + np.arange(SMALL.block_len) - half,
                      0, 8)
        blocks = np.stack([values[row] for row in idx])
        assert np.abs(track.posteriors
                      - forward_blocks(blocks, p, SMALL)).max() <= 1e-12

    def test_window_view_matches_contiguous_copy(self, rng):
        p = small_params(seed=14)
        x = blockify(rng.standard_normal((40, 6)), block_len=SMALL.block_len)
        assert x.strides[0] == x.strides[1]
        assert np.array_equal(forward_blocks(x, p, SMALL),
                              forward_blocks(np.ascontiguousarray(x), p, SMALL))

    @pytest.mark.parametrize("n_frames", [1, 3, 29, 600])
    def test_equals_stacked_blocks_bitwise(self, n_frames, monkeypatch):
        cfg = LrcnConfig(input_dim=6, block_len=29, n_filters=4,
                         hidden_size=8, dense_sizes=(4,))
        p = init_params(cfg, seed=15)
        values = np.random.default_rng(n_frames).standard_normal((n_frames, 6))
        half = cfg.block_len // 2
        idx = np.clip(np.arange(n_frames)[:, None]
                      + np.arange(cfg.block_len) - half, 0, n_frames - 1)
        blocks = values[idx]
        for batch_size in (1, 4, 512):
            # the same batches of stacked blocks: a batch of a few blocks
            # can differ from a larger one in the last bit (the matmuls
            # round differently by row count), so batches must match
            ref = np.concatenate([
                forward_blocks(blocks[s : s + batch_size], p, cfg)
                for s in range(0, n_frames, batch_size)])
            monkeypatch.setattr(model, "PREDICT_BATCH", batch_size)
            track = predict_track(self._feat(values), p, cfg)
            assert np.array_equal(track.posteriors, ref)


class TestCheckpoint:
    STATS = NormStats(col_min=np.arange(6.0), col_max=np.arange(6.0) + 2.0)
    FRONT_END = {**PipelineConfig(feature_tag="plp").front_end(), "hop_ms": 10.0}

    def test_roundtrip_bit_identical_posteriors(self, tmp_path, rng):
        p = small_params(seed=8)
        path = tmp_path / "model.npz"
        save_checkpoint(path, p, SMALL, self.STATS, self.FRONT_END)
        p2, cfg2, stats2, front_end2 = read_checkpoint(path)
        assert cfg2 == SMALL
        assert front_end2 == self.FRONT_END
        assert np.array_equal(stats2.col_min, self.STATS.col_min)
        assert np.array_equal(stats2.col_max, self.STATS.col_max)
        x = rng.standard_normal((4, 5, 6))
        assert np.array_equal(forward_blocks(x, p, SMALL),
                              forward_blocks(x, p2, cfg2))
        for name, _ in param_shapes(SMALL):
            assert np.array_equal(p[name], p2[name])


    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, small_params(seed=8), SMALL, self.STATS,
                        self.FRONT_END)
        return path

    def _drop(self, saved, key):
        with np.load(saved) as data:
            arrays = {k: data[k] for k in data.files if k != key}
        np.savez(saved, **arrays)

    def test_truncated_file(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[: len(data) // 2])
        with pytest.raises(DataError, match="unreadable checkpoint"):
            read_checkpoint(saved)

    def test_garbage_file(self, saved):
        saved.write_bytes(b"not a checkpoint\n" * 8)
        with pytest.raises(DataError, match="unreadable checkpoint"):
            read_checkpoint(saved)

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_refused_file_is_closed(self, saved, damage):
        data = saved.read_bytes()
        saved.write_bytes(data[: len(data) // 2] if damage == "truncated"
                          else b"not a checkpoint\n" * 8)
        # a file left open warns when it is collected, where no error
        # can reach the caller, so the warnings are recorded
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="unreadable checkpoint"):
                read_checkpoint(saved)
            gc.collect()
        assert [str(w.message) for w in caught] == []

    def test_pickled_array_not_loaded(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.array([{"format_version": 1}], dtype=object))
        with pytest.raises(DataError, match="unreadable checkpoint"):
            read_checkpoint(path)

    def test_bad_meta_json(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, __meta__=np.frombuffer(b"{not json", dtype=np.uint8),
                 **small_params())
        with pytest.raises(DataError, match="unreadable checkpoint"):
            read_checkpoint(path)

    def test_missing_parameter(self, saved):
        self._drop(saved, "out_b")
        with pytest.raises(DataError, match="out_b"):
            read_checkpoint(saved)

    def test_misshapen_parameter(self, saved):
        with np.load(saved) as data:
            arrays = {k: data[k] for k in data.files}
        want = arrays["W_h"].shape
        arrays["W_h"] = np.zeros((want[0], want[1] + 1))
        np.savez(saved, **arrays)
        with pytest.raises(DataError) as info:
            read_checkpoint(saved)
        assert str(info.value) == (
            f"checkpoint parameter W_h has shape {(want[0], want[1] + 1)}, "
            f"its config needs {want}")

    @pytest.mark.parametrize("key", ["__norm_min__", "__norm_max__"])
    def test_missing_norm_stats(self, saved, key):
        self._drop(saved, key)
        with pytest.raises(DataError, match=key):
            read_checkpoint(saved)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_rejected(self, tmp_path, version):
        # formats 1 and 2 stored one array per gate and the conv and pool
        # widths in the config
        path = tmp_path / "model.npz"
        p = small_params()
        arrays = {**{k: v for k, v in p.items()
                     if k not in ("W_z", "W_h", "W_c", "b")},
                  **per_gate(p, SMALL)}
        meta = {"format_version": version,
                "config": {**asdict(SMALL), "kernel_width": 4, "pool_len": 2},
                "front_end": self.FRONT_END}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                              dtype=np.uint8),
                 **arrays, __norm_min__=self.STATS.col_min,
                 __norm_max__=self.STATS.col_max)
        with pytest.raises(DataError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"unsupported checkpoint version {version}"
