"""The signed trilinear form, its bitile decomposition, and exact identities.

The form pairs three two-variable functions along the diagonal
x0 ^ x1 ^ x2 = 0 against Haar functions of a triple of equal-length
intervals, weighted by signs epsilon per triple and by the inverse
interval length.  Summing over all scales with unit signs telescopes to a
difference of two averaging kernels; grouping by bitiles reproduces the
form exactly, which is the identity the whole tile machinery rests on.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from ._kernels import haar_signs, pair_blocks, triform_scale_sum
from .gridfn import GridFunction1D, GridFunction2D, _interval_slice
from .tiles import Bitile
from .walsh import DyadicInterval
from .wavelets import WavePacketSpec, coefficient_rows, walsh_fn, wave_packet

ScaleWeights = Dict[int, np.ndarray]  # per-scale 1D weight arrays


class EpsilonField:
    """Per-scale sign weights epsilon[k][m0, m2] in [-1, 1].

    Scale k covers the interval triples of length 2^k; the middle index
    is implied by XOR.  Missing scales count as zero.
    """

    def __init__(self, resolution: int, data: Mapping[int, np.ndarray]):
        self.resolution = int(resolution)
        self.data = {}
        for k, arr in data.items():
            if not -resolution + 1 <= k <= 0:
                raise ValueError("scale outside resolution range")
            a = np.asarray(arr, dtype=np.float64)
            if a.shape != (1 << -k, 1 << -k):
                raise ValueError("weight array shape must be (2^-k, 2^-k)")
            if np.any(np.abs(a) > 1.0 + 1e-12):
                raise ValueError("weights must lie in [-1, 1]")
            self.data[int(k)] = a

    @property
    def scales(self):
        return sorted(self.data)

    def weight(self, p: Bitile) -> float:
        arr = self.data.get(p.scale)
        return float(arr[p.m0, p.m2]) if arr is not None else 0.0

    def transpose(self) -> "EpsilonField":
        """Swap the roles of the outer intervals (m0 <-> m2)."""
        return EpsilonField(self.resolution, {k: a.T for k, a in self.data.items()})

    @classmethod
    def constant(cls, resolution: int, value: float = 1.0, scales=None) -> "EpsilonField":
        if scales is None:
            scales = range(-resolution + 1, 1)
        return cls(
            resolution,
            {k: np.full((1 << -k, 1 << -k), value) for k in scales},
        )

    @classmethod
    def random(cls, resolution: int, rng, signs_only: bool = True) -> "EpsilonField":
        data = {}
        for k in range(-resolution + 1, 1):
            shape = (1 << -k, 1 << -k)
            if signs_only:
                data[k] = rng.choice([-1.0, 1.0], size=shape)
            else:
                data[k] = rng.uniform(-1.0, 1.0, size=shape)
        return cls(resolution, data)

    @classmethod
    def from_interval_weights(cls, weights: ScaleWeights, resolution: int) -> "EpsilonField":
        """epsilon depends on the slot-0 interval only."""
        data = {}
        for k, w in weights.items():
            w = np.asarray(w, dtype=np.float64)
            data[k] = np.repeat(w[:, None], 1 << -k, axis=1)
        return cls(resolution, data)

    @classmethod
    def from_offset_weights(
        cls, weights: ScaleWeights, resolution: int, shift: int
    ) -> "EpsilonField":
        """epsilon depends on I0 ^ 2^-shift I2 (index m0 ^ (m2 >> shift))."""
        data = {}
        for k, w in weights.items():
            w = np.asarray(w, dtype=np.float64)
            m0 = np.arange(1 << -k)[:, None]
            m2 = np.arange(1 << -k)[None, :]
            data[k] = w[m0 ^ (m2 >> shift)]
        return cls(resolution, data)


def constant_interval_weights(resolution: int, value: float = 1.0) -> ScaleWeights:
    return {k: np.full(1 << -k, value) for k in range(-resolution + 1, 1)}


def random_interval_weights(resolution: int, rng) -> ScaleWeights:
    return {
        k: rng.choice([-1.0, 1.0], size=1 << -k) for k in range(-resolution + 1, 1)
    }


# -- the form ----------------------------------------------------------------


def lambda_direct(
    eps: EpsilonField, F0: GridFunction2D, F1: GridFunction2D, F2: GridFunction2D
) -> float:
    """Scale-by-scale kernel evaluation of the signed form."""
    K = F0.resolution
    if eps.resolution != K or F1.resolution != K or F2.resolution != K:
        raise ValueError("resolution mismatch")
    parts = []
    for k in eps.scales:
        s = triform_scale_sum(F0.values, F1.values, F2.values, eps.data[k], K + k)
        parts.append(2.0 ** (-k) * s)
    return math.fsum(parts) * 8.0 ** (-K)


def telescoping_profile(resolution: int, coarsest: int):
    """Scale-summed kernel over scales coarsest+1..0 and its closed form.

    Returns (kernel, target) as arrays over the diagonal offset cell s;
    the closed form is 2^-coarsest on offsets below 2^(K+coarsest), minus
    one on all of [0, 2^K).
    """
    K = resolution
    if not -K <= coarsest <= 0:
        raise ValueError("coarsest scale outside resolution range")
    s = np.arange(1 << K)
    kernel = np.zeros(1 << K)
    for k in range(coarsest + 1, 1):
        sign = 1.0 - 2.0 * ((s >> (K + k - 1)) & 1)
        kernel += 2.0 ** (-k) * sign * (s < (1 << (K + k)))
    target = 2.0 ** (-coarsest) * (s < (1 << (K + coarsest))) - 1.0
    return kernel, target


# -- bitile decomposition ----------------------------------------------------


def lambda_bitile(
    P: Bitile, F0: GridFunction2D, F1: GridFunction2D, F2: GridFunction2D
) -> float:
    """Contribution of one bitile, via explicitly constructed packets.

    Pairs the slot-1 data against Haar signs on I2 x I0 and against the
    packet coefficients of slots 0 and 2 on the two spatial halves of I1,
    lower half minus upper half, weighted |I1|^-1.
    """
    K = F0.resolution
    if P.scale < -K + 1:
        raise ValueError("interval below resolution")
    if (P.n + 1) << (1 - P.scale) > 1 << K:
        raise ValueError("frequency beyond resolution")
    sl0 = _interval_slice(P.time_interval(0), K)
    sl1 = _interval_slice(P.time_interval(1), K)
    sl2 = _interval_slice(P.time_interval(2), K)
    h = haar_signs(K + P.scale)
    total = 0.0
    for j in (1, -1):
        w = wave_packet(WavePacketSpec(P.time_interval(1).half(j), P.freq), K)
        c0 = (w.values @ F0.values[:, sl2]) * 2.0 ** (-K)  # <F0(.,x2), w>
        c2 = (F2.values[sl0, :] @ w.values) * 2.0 ** (-K)  # <F2(x0,.), w>
        pairing = (h * c0) @ F1.values[sl2, sl0] @ (h * c2)
        total += j * 2.0 ** (-P.scale) * 4.0 ** (-K) * pairing
    return float(total)


def lambda_bitile_sum(
    eps: EpsilonField, F0: GridFunction2D, F1: GridFunction2D, F2: GridFunction2D
) -> float:
    """Sum of eps-weighted bitile contributions over all localized bitiles.

    Per scale, the packet coefficients of every half-block come from one
    batched transform.  Over the interval pairs (m0, m2) with eps nonzero,
    the rows (half j, n) of U_p = C0[I1, I2] and V_p = C2[I1, I0] pair
    against the Haar-signed block F1[I2, I0] in one contraction, which
    gives every bitile of the scale at once; agrees with summing
    lambda_bitile.
    """
    K = F0.resolution
    n = 1 << K
    parts = []
    for k in eps.scales:
        shift = K + k
        half = 1 << (shift - 1)  # cells per half interval
        m0, m2 = np.nonzero(eps.data[k])
        m1 = m0 ^ m2
        # C0[i2, b * half + nu] ~ packet coefficients of F0 fibers on half-blocks
        C0 = coefficient_rows(F0.values.T.reshape(n, -1, half), shift - 1)
        C2 = coefficient_rows(F2.values.reshape(n, -1, half), shift - 1)
        U = pair_blocks(C0.reshape(n, n).T, shift, m1, m2)  # [p, (j, nu), a2]
        V = pair_blocks(C2.reshape(n, n).T, shift, m1, m0)  # [p, (j, nu), a0]
        hs = haar_signs(shift)
        F1blk = pair_blocks(F1.values, shift, m2, m0) * np.outer(hs, hs)
        rows = np.einsum("prb,prb->pr", np.einsum("pra,pab->prb", U, F1blk), V)
        values = eps.data[k][m0, m2][:, None] * (rows[:, :half] - rows[:, half:])
        # packet-coefficient scaling 2^(k-1) per slot pair, |I1|^-1 = 2^-k
        parts.append(math.fsum(values.ravel()) * 2.0 ** (k - 1) * 2.0 ** (-k))
    return math.fsum(parts) * 4.0 ** (-K)


def lambda_tree(
    tree, eps: EpsilonField, F0: GridFunction2D, F1: GridFunction2D, F2: GridFunction2D
) -> float:
    """eps-weighted sum of bitile contributions over an explicit collection."""
    return math.fsum(
        eps.weight(P) * lambda_bitile(P, F0, F1, F2) for P in tree
    )


# -- exact identities --------------------------------------------------------


def haar_multiplier(weights: ScaleWeights, f: GridFunction1D) -> GridFunction1D:
    """Signed Haar expansion sum_I eps_I |I|^-1 <f, h_I> h_I."""
    K = f.resolution
    out = np.zeros_like(f.values)
    for k, w in sorted(weights.items()):
        if k < -K + 1 or k > 0:
            raise ValueError("scale outside resolution range")
        w = np.asarray(w, dtype=np.float64)
        block = 1 << (K + k)
        v = f.values.reshape(-1, 2, block // 2).sum(axis=2)
        coeff = (v[:, 0] - v[:, 1]) * 2.0 ** (-K)  # <f, h_I> per interval
        contrib = (w * coeff * 2.0 ** (-k))[:, None] * haar_signs(K + k)[None, :]
        out += contrib.reshape(-1)
    return GridFunction1D(K, out)


def max_mod_haar(
    weights: ScaleWeights, labels, f: GridFunction1D
) -> GridFunction1D:
    """x -> w_N(x)(x) H^eps(w_N(x) f)(x): modulation by a per-cell label."""
    K = f.resolution
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != f.values.shape:
        raise ValueError("labels must give one frequency per cell")
    out = np.zeros_like(f.values)
    for nu in np.unique(labels):
        w = walsh_fn(int(nu), K)
        g = haar_multiplier(weights, w * f)
        sel = labels == nu
        out[sel] = w.values[sel] * g.values[sel]
    return GridFunction1D(K, out)


def substitution_modulated(f: GridFunction1D, g: GridFunction1D, labels):
    """Data triple whose form reproduces the modulated Haar pairing."""
    K = f.resolution
    n = 1 << K
    labels = np.asarray(labels, dtype=np.int64)
    idx = np.arange(n)
    F0 = GridFunction2D(K, f.values[idx[:, None] ^ idx[None, :]])
    root = np.sqrt(np.abs(g.values))
    sign = np.sign(g.values)
    W = np.stack([walsh_fn(int(nu), K).values for nu in labels])  # W[x0, x2]
    F1 = GridFunction2D(K, (sign * root)[None, :] * W.T)  # F1[x2, x0]
    F2v = root[:, None] * np.take_along_axis(
        W, idx[:, None] ^ idx[None, :], axis=1
    )  # w_{N(x0)}(x1 ^ x0)
    F2 = GridFunction2D(K, F2v)
    return F0, F1, F2


def substitution_endpoint(
    f: GridFunction1D, g: GridFunction1D, h: GridFunction1D
):
    """Data triple for the endpoint pairing f against H^eps(g h)."""
    K = f.resolution
    idx = np.arange(1 << K)
    F0 = GridFunction2D(K, f.values[idx[:, None] ^ idx[None, :]])
    F1 = GridFunction2D(K, np.tile(h.values[None, :], (1 << K, 1)))
    F2 = GridFunction2D(K, np.tile(g.values[:, None], (1, 1 << K)))
    return F0, F1, F2


def substitution_offset(
    f: GridFunction1D, g: GridFunction1D, h: GridFunction1D, shift: int
):
    """Data triple realizing the two-function offset pairing at 2^-shift.

    F0(x1,x2) = f(x1^x2^(x2 >> shift)), F1(x2,x0) = h((x2 >> shift)^x0),
    F2(x0,x1) = g(x0^(x0 >> shift)^(x1 >> shift)), all cell-exact.
    """
    if shift < 1:
        raise ValueError("shift must be at least 1")
    K = f.resolution
    idx = np.arange(1 << K)
    i1, i2 = idx[:, None], idx[None, :]
    F0 = GridFunction2D(K, f.values[i1 ^ i2 ^ (i2 >> shift)])
    i2, i0 = idx[:, None], idx[None, :]
    F1 = GridFunction2D(K, h.values[(i2 >> shift) ^ i0])
    i0, i1 = idx[:, None], idx[None, :]
    F2 = GridFunction2D(K, g.values[i0 ^ (i0 >> shift) ^ (i1 >> shift)])
    return F0, F1, F2


def offset_form(
    weights: ScaleWeights,
    shift: int,
    f: GridFunction1D,
    g: GridFunction1D,
    h: GridFunction1D,
):
    """Two evaluations of the offset trilinear pairing at dilation 2^shift.

    Route one multiplies three packet projections per interval and
    modulation index and integrates; route two contracts local packet
    coefficients directly.  Both apply the identical resolution caps, and
    both equal the signed form under substitution_offset with weights
    carried by the interval I0 ^ 2^-shift I2.
    """
    if shift < 1:
        raise ValueError("shift must be at least 1")
    K = f.resolution
    n = 1 << K
    L = shift
    route_proj = []
    route_coef = []
    for k in sorted(weights):
        if k < -K + 1 or k > 0:
            raise ValueError("scale outside resolution range")
        w = np.asarray(weights[k], dtype=np.float64)
        B = 1 << (K + k)
        blocks = 1 << -k
        cf = coefficient_rows(f.values.reshape(blocks, B), K + k)
        cg = coefficient_rows(g.values.reshape(blocks, B), K + k)
        ch = coefficient_rows(h.values.reshape(blocks, B), K + k)
        chars = np.stack([walsh_fn(nu, K + k).values for nu in range(B)])
        for I in range(blocks):
            eI = w[I]
            if eI == 0.0:
                continue
            proj_acc = 0.0
            coef_acc = 0.0
            for m in range(B):
                jf = m ^ 1
                if jf >= B:
                    continue
                # coefficient route: diagonal sum over the modulation cells
                terms = 0.0
                cells_g = []
                cells_h = []
                for t in range(1 << L):
                    jg = (m << L) ^ t
                    jh = jg ^ jf
                    if jg < B and jh < B:
                        cells_g.append(jg)
                        cells_h.append(jh)
                        terms += cg[I, jg] * ch[I, jh]
                if not cells_g:
                    continue
                coef_acc += cf[I, jf] * terms
                # projection route: build the three projected functions
                pf = cf[I, jf] * chars[jf]
                pg = np.zeros(B)
                for jg in cells_g:
                    pg += cg[I, jg] * chars[jg]
                ph = np.zeros(B)
                for jh in cells_h:
                    ph += ch[I, jh] * chars[jh]
                proj_acc += float((pf * pg * ph).sum()) * 2.0 ** (-K)
            route_proj.append(eI * proj_acc)
            route_coef.append(eI * coef_acc * 2.0 ** k)
    return math.fsum(route_proj), math.fsum(route_coef)

