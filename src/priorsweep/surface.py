"""Stage 2: sweep a hyperparameter grid, estimating Bayes factors (plain and
control-variate-adjusted) and posterior expectations, each with its plug-in
variance, from the pooled stage-2 chains and the stage-1 ratio estimate.
`surface` is the one stage-2 estimator: every estimate, sensitivity vector
and variance term comes from it.

The mixture denominator sum_s a_s nu_{h_s}(theta)/d_s does not depend on the
grid point, so it is computed once per workspace, with the chains' batch
layout, the control-variate map and the draws' order by cell.  The family
splits the grid into lines and the draws into cells (`DensityFamily.lines`
and `cells`): along a line, the term of a draw of cell s at a point is a
term e shared by the line times the point's coefficient C_s.  Every sum
the sweep needs is linear in the terms, so one pass over the draws per
line tabulates each by cell (`_pass`), and a point is then a contraction
of the tables with its coefficients, whose cost does not grow with the
number of draws.  For BLVS a line is a distinct g and a cell a model size;
for the toy each point is a line of its own, with one cell.  Consecutive
lines are passed together in blocks when they are small.  All
accumulation happens after subtracting the cached log denominator, each
cell's largest log term on the line and a per-point max shift, which
keeps the sums finite even when nu_h is many orders of magnitude away
from the skeleton mixture."""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesignWarning, SupportWarning
from .ratio import LogWeightMatrix, Mixture
from .variance import BatchLayout

_RANK_RTOL = 1e-10
# floats of the rows of a block of lines swept together, and of its
# points' sums by cell and batch of a pair of rows
LINES_BLOCK = 1 << 16


class Stage2Workspace:
    """Cached denominators, control variates, the control-variate map, and
    the draws' order for the sweep; psi is held in that order alone
    (`sweep_psi`), Z and log_den also in the draws' own."""

    def __init__(self, W: LogWeightMatrix, d_hat):
        d_hat = np.asarray(d_hat, dtype=float)
        if d_hat.shape != (W.k,):
            raise ValueError(f"d_hat must have length k={W.k}")
        if not math.isclose(d_hat[0], 1.0, rel_tol=1e-12):
            raise ValueError("d_hat must be normalized with first entry 1")
        if np.any(d_hat <= 0):
            raise ValueError("d_hat entries must be positive")
        self.W = W
        self.d_hat = d_hat
        a = W.proportions
        # log_den and the membership probabilities P_s = a_s nu_s / (d_s den)
        # from the stage-1 kernel at eta = log d_hat, P written over its E
        mix = Mixture(W, np.log(d_hat))
        _, s, self.log_den = mix.objective(mix.ref)
        P = mix.probabilities(mix.ref, s, mix.E)
        # Z_j = nu_j/(d_j den) - nu_1/den and psi_j = a_j nu_j/(d_j^2 den),
        # (k-1, n) arrays with the samples along the last axis
        self.Z = P[1:] / a[1:, None] - P[0] / a[0]
        psi = P[1:] / d_hat[1:, None]
        self.z_means = self.Z.mean(axis=1)
        # w = c + beta M: M is diag(1/d_t) plus, in row t, the chain-1 less
        # the chain-t means of psi (direct per-chain means, as chains from
        # both posteriors exist)
        means = np.stack([chain.mean(axis=1) for chain in np.split(
            psi, np.cumsum(W.counts)[:-1], axis=1)])                   # (k, k-1)
        self.M = np.diag(1.0 / d_hat[1:]) + (means[0] - means[1:])     # (k-1, k-1)
        self.batches = BatchLayout(W.counts)
        # least squares onto (1, Z) is the pseudo-inverse of the design; its
        # rows past the intercept map any u to beta.  Singular values at or
        # below _RANK_RTOL * s_max count as zero (numpy's rcond rule), which
        # gives the minimum-norm solution; with k = 1 the map has no rows.
        U, s, Vt = np.linalg.svd(np.vstack([np.ones(self.n), self.Z]).T,
                                 full_matrices=False)
        keep = s > _RANK_RTOL * s[0]
        cv_map = (Vt[keep, 1:].T / s[keep]) @ U[:, keep].T             # (k-1, n)
        self._rank_warning_due = not keep.all()
        # The sweep's order of the draws: by cell, and in time order within
        # one, so that the draws of a cell are one run, and so are those of
        # each group, the draws of a cell in one batch (or in the chains'
        # tails, which fall in no batch).  The h-free per-draw arrays the
        # sweep reads are held in that order.
        lay = self.batches
        batches = len(lay.chain)
        batch_of = np.full(len(lay.cuts), batches)
        batch_of[lay.keep if lay.keep is not None else slice(None)] = np.arange(batches)
        # each draw's group, numbered by cell and then batch, a tail last
        self._group = np.repeat(batch_of, np.diff(lay.cuts, append=self.n))
        cells = W.family.cells(W.stats)
        if cells is None:                   # one cell, the draws in their order
            self.order, self.cells = slice(None), np.zeros(1, dtype=np.intp)
            self.cell_first, self._run_first = np.zeros(1, dtype=np.intp), lay.cuts
        else:
            self.order = np.argsort(cells, kind="stable")
            cells = cells[self.order]
            self.cell_first = np.flatnonzero(np.diff(cells, prepend=-1))
            self.cells = cells[self.cell_first]
            self._group = self._group[self.order] + (batches + 1) * np.repeat(
                np.arange(len(self.cells)), np.diff(self.cell_first, append=self.n))
            self._run_first = np.flatnonzero(np.diff(self._group, prepend=-1))
        self.cell_sizes = np.diff(self.cell_first, append=self.n)
        self._run_group = self._group[self._run_first]
        self.sweep_log_den = self.log_den[self.order]
        self.sweep_psi = psi[:, self.order]
        self.sweep_cv_map = cv_map[:, self.order]
        # the batch sums of Z, for sigma^2's series u - Z beta
        self.batch_Z = np.add.reduceat(self.Z, lay.cuts, axis=1)
        if lay.keep is not None:
            self.batch_Z = np.take(self.batch_Z, lay.keep, axis=1)

    @property
    def n(self) -> int:
        return self.W.total

    def group_sums(self, rows: np.ndarray) -> np.ndarray:
        """Each of rows (..., n), in the sweep's order, summed over the draws
        of each group: (..., cells, batches).  Where the groups' runs
        average 8 draws or more, by reduceat over them, else by bincount,
        whose cost does not grow with the number of runs."""
        *lead, n = rows.shape
        groups = len(self.cells) * (len(self.batches.chain) + 1)
        if n >= 8 * len(self._run_first):
            out = np.zeros((*lead, groups))
            out[..., self._run_group] = np.add.reduceat(rows, self._run_first, axis=-1)
        else:
            count = math.prod(lead)
            labels = self._group + groups * np.arange(count)[:, None]
            out = np.bincount(labels.ravel(), weights=rows.ravel(), minlength=count * groups)
        return out.reshape(*lead, len(self.cells), -1)[..., :-1]


class Surface(NamedTuple):
    """Every estimate at every grid point, one row per point; the variance
    columns are those of bf, bf_cv and each function's pe, in that order.
    ess is the Kish effective sample size (sum u)^2 / sum u^2 of the terms
    and max_weight_share the largest term's share of their sum."""

    h: np.ndarray                  # (G, d)
    bf: np.ndarray                 # (G,)
    bf_cv: np.ndarray              # (G,)
    beta: np.ndarray               # (G, k-1)
    pe: np.ndarray                 # (G, J) nan where nu_h vanishes
    ess: np.ndarray                # (G,) nan where nu_h vanishes
    max_weight_share: np.ndarray   # (G,) nan where nu_h vanishes
    stage1: np.ndarray             # (G, 2 + J) q vec' Sigma vec
    stage2: np.ndarray             # (G, 2 + J) tau^2, sigma^2, rho_j
    n: int

    @property
    def total(self) -> np.ndarray:
        return self.stage1 + self.stage2

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(self.total / self.n)


def _blocks(lines, most: int, per_point: int):
    """The lines in blocks of consecutive lines: up to `most` lines, and
    up to LINES_BLOCK // per_point points unless a block is one line."""
    block, points = [], 0
    for line in lines:
        if block and (len(block) == most or (points + len(line[0])) * per_point > LINES_BLOCK):
            yield block
            block, points = [], 0
        block.append(line)
        points += len(line[0])
    if block:
        yield block


def _pass(ws: Stage2Workspace, log_e: np.ndarray, log_c: np.ndarray, line_of: np.ndarray,
          F: np.ndarray, E: np.ndarray):
    """One pass over the draws for a block of lines, the line l sharing
    the log weights log_e[l], and each point having the log coefficients
    of its row of log_c and its line's index in line_of (`lines`).  With
    top, each line's largest log_e - log_den in each cell (-inf where nu_h
    vanishes on the whole cell), a line's terms are
    e = exp(log_e - log_den - top), at most 1, and its rows of E are e,
    then f_j e and (1 - f_j) e for each function row f_j of F, all in the
    sweep's order.  A point's terms are u = C_s e
    on the draws of cell s of its line, C = exp(log_c + top - shift), its
    shift the largest log_c + top, so its largest term is 1.  Returns C,
    shift and, by line and cell: tab (lines, cells, R, 1 + k-1), each row's
    sum and its product with psi; cv (lines, cells, k-1), the
    control-variate map times e; and sq, the sums of e^2."""
    L, R = E.shape[:2]
    ell = np.subtract(log_e[:, ws.order], ws.sweep_log_den)
    top = np.maximum.reduceat(ell, ws.cell_first, axis=1)
    ell -= np.repeat(np.where(np.isneginf(top), 0.0, top), ws.cell_sizes, axis=1)
    e = np.exp(ell, out=E[:, 0])
    if isinstance(ws.order, slice):
        E[:, 1::2] = F
    else:
        for rows in E[:, 1::2]:
            np.take(F, ws.order, axis=1, out=rows, mode="clip")
    E[:, 1::2] *= e[:, None]
    np.subtract(e[:, None], E[:, 1::2], out=E[:, 2::2])
    tab = np.empty((L, len(ws.cells), R, ws.W.k))
    cv = np.empty((L, len(ws.cells), ws.W.k - 1))
    sq = np.empty((L, len(ws.cells)))
    ends = ws.cell_first + ws.cell_sizes
    for i, (a, b) in enumerate(zip(ws.cell_first.tolist(), ends.tolist())):
        tab[:, i, :, 0] = E[:, :, a:b].sum(axis=2)
        tab[:, i, :, 1:] = np.matmul(ws.sweep_psi[:, a:b], E[:, :, a:b].transpose(0, 2, 1)
                                     ).transpose(0, 2, 1)
        cv[:, i] = np.matmul(ws.sweep_cv_map[:, a:b], e[:, a:b, None])[..., 0]
        sq[:, i] = np.square(e[:, a:b]).sum(axis=1)
    log_c = log_c[:, ws.cells] + top[line_of]
    shift = log_c.max(axis=1)
    shift[np.isneginf(shift)] = 0.0
    return np.exp(log_c - shift[:, None]), shift, tab, cv, sq


def surface(ws: Stage2Workspace, grid, F: np.ndarray,
            sigma_hat: np.ndarray, q: float) -> Surface:
    """Evaluate every estimator and its plug-in variance at every grid point,
    for the functions whose values at the pooled samples are the rows of the
    (J, n) array F.

    Line by line (`_blocks`, `_pass`), a point's sums are contractions of
    its line's tables with its C: sum u, so bf = e^shift sum u / n; sum f_j u
    and sum (1 - f_j) u over sum u, pe_j and 1 - pe_j, each from its own sum,
    so f == 1 gives pe exactly 1 and 0/1-valued f stays in [0, 1]; and
    beta, a fixed linear map of u.  The stage-2 terms tau^2, sigma^2 and
    Ybar^2 rho_j are the batch-means long-run variances of the series u,
    u - Z beta and (f_j - pe_j) u, from their batch sums S(u),
    S(u) - beta S(Z) and (1 - pe_j) S(f_j u) - pe_j S((1 - f_j) u), in which
    neither part is a difference of near-equal sums; batch means are
    bilinear with per-chain centering, so the last equals
    (1, -I_j) Gamma (1, -I_j)' for the joint long-run covariance Gamma of
    (f_j Y, Y), and f == 1 gives rho = 0 exactly.  The stage-1 terms are
    q vec' Sigma vec, clipped at 0, for the sensitivities to d_hat:
    c = psi u e^shift / n, w = c + beta M and v_j = psi (f_j - pe_j) u /
    sum u, split as the series are.  Each contraction sums over its middle
    index outside its loop over the output's last index, and each other
    per-point quantity is a row reduction, so a point's numbers take the
    same steps whatever the other points of its block are (a BLAS
    product's need not).  With q = 0 or Sigma = 0 each estimator behaves as
    if d were known; with k = 1 the vectors are empty and the forms 0.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != ws.n:
        raise ValueError(f"function rows have shape {F.shape}, need (J, {ws.n})")
    if not np.isfinite(F).all():
        raise ValueError("function rows hold non-finite values")
    J = len(F)
    H = ws.W.family.validate_grid(grid)
    G, K = len(H), ws.W.k - 1
    out = Surface(H, *(np.empty((G, *shape)) for shape in
                       ((), (), (K,), (J,), (), (), (2 + J,), (2 + J,))), n=ws.n)
    if G and ws._rank_warning_due:
        warnings.warn("control-variate design is rank deficient; using the "
                      "minimum-norm least-squares solution",
                      DegenerateDesignWarning, stacklevel=2)
        ws._rank_warning_due = False
    batches = ws.batch_Z.shape[1]
    most = max(1, LINES_BLOCK // ((2 * J + 1) * ws.n))
    buffer = np.empty((min(most, G), 2 * J + 1, ws.n))
    dead = np.zeros(G, dtype=bool)
    # a block's lines hold at most about LINES_BLOCK floats of rows E, and
    # its points about as many of their lines' sums of a pair of rows
    blocks = _blocks(ws.W.family.lines(H, ws.W.stats), most,
                     2 * len(ws.cells) * (batches + 1))
    for block in blocks:
        rows = np.concatenate([r for r, _, _ in block])
        L, B = len(block), len(rows)
        line_of = np.repeat(np.arange(L), [len(r) for r, _, _ in block])
        E = buffer[:L]
        C, shift, tab, cv, sq = _pass(ws, np.array([e for _, e, _ in block]),
                                      np.concatenate([c for _, _, c in block]), line_of, F, E)
        # each point's C contracted with its line's tables: one einsum,
        # which sums over the cells outside its loop over the last index,
        # so a point's numbers take the same steps whatever the other
        # points are (a BLAS product's need not)
        each = "bs,sx->bx" if L == 1 else "bs,bsx->bx"

        def by_point(T):
            return T[0] if L == 1 else T[line_of]

        X = np.einsum(each, C, by_point(tab.reshape(*tab.shape[:2], -1))).reshape(
            B, *tab.shape[2:])
        beta_u = np.einsum(each, C, by_point(cv))
        u_sum = X[:, 0, 0]
        live = u_sum > 0.0
        dead[rows] = ~live
        # pe_j and 1 - pe_j, in pairs, 0 where nu_h vanishes everywhere
        ratio = np.zeros((B, 2 * J))
        np.divide(X[:, 1:, 0], u_sum[:, None], out=ratio, where=live[:, None])
        out.pe[rows] = np.where(live[:, None], ratio[:, ::2], math.nan)
        mean_u = u_sum / ws.n
        scale = np.exp(shift)
        out.bf[rows] = scale * mean_u
        out.bf_cv[rows] = scale * (mean_u - (beta_u * ws.z_means).sum(axis=1))
        out.beta[rows] = beta = beta_u * scale[:, None]
        # the series' batch sums: S(u), S(u) - beta_u S(Z), then for
        # each j (1 - pe_j) S(f_j u) - pe_j S((1 - f_j) u), from the sums of
        # a line's row, or pair of rows, by cell and batch
        series = np.empty((B, J + 2, batches))
        pair = (ratio.reshape(B, J, 2, 1)[:, :, ::-1] * np.array([[1.0], [-1.0]])
                * C[:, None, None, :]).reshape(B, J, 2 * C.shape[1])
        np.einsum(each, C, by_point(ws.group_sums(E[:, 0])), out=series[:, 0])
        for j in range(J):
            sums = ws.group_sums(E[:, 1 + 2 * j:3 + 2 * j]).reshape(L, -1, batches)
            np.einsum(each, pair[:, j], by_point(sums), out=series[:, 2 + j])
        np.subtract(series[:, 0], np.einsum("bk,kx->bx", beta_u, ws.batch_Z), out=series[:, 1])
        S = ws.batches.centred(series)
        lrv = np.einsum("...i,...i->...", S, S)
        del series, S
        vecs = np.empty((B, J + 2, K))
        vecs[:, 0] = X[:, 0, 1:] / ws.n * scale[:, None]
        np.add(vecs[:, 0], np.einsum("bk,kx->bx", beta, ws.M), out=vecs[:, 1])
        stage2 = np.empty((B, J + 2))
        np.multiply(lrv[:, :2], np.exp(2.0 * shift)[:, None], out=stage2[:, :2])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(ratio[:, 1::2, None] * X[:, 1::2, 1:] - ratio[:, ::2, None] * X[:, 2::2, 1:],
                      u_sum[:, None, None], out=vecs[:, 2:])
            np.divide(lrv[:, 2:], (mean_u * mean_u)[:, None], out=stage2[:, 2:])
            out.ess[rows] = u_sum * u_sum / (C * C * sq[line_of]).sum(axis=1)
            out.max_weight_share[rows] = C.max(axis=1) / u_sum
        out.stage2[rows] = stage2
        form = q * (np.einsum("bjk,kl->bjl", vecs, sigma_hat) * vecs).sum(axis=-1)
        out.stage1[rows] = np.where(form < 0.0, 0.0, form)
    for h in H[dead]:
        warnings.warn(f"nu_h vanishes on every pooled sample at h={tuple(map(float, h))}: "
                      f"the Bayes factor is 0 and posterior expectations are "
                      f"undefined", SupportWarning, stacklevel=2)
    return out
