"""Monte Carlo estimation of the layered scheme's per-level rates, and the
SNR sweep that sets them beside the analytic bounds.

Chain level nu's input has a log-uniform magnitude on the level's window of
the allocation and a uniform phase.  ``_log_uniform_quantile`` is the one
place that magnitude law is written: ``_level_inputs`` draws it i.i.d. with
the phase, and a quadrature level maps lattice points through it.  The
witness, the weaker levels it hears and the means and covariance of the
level's entries come from the one per-level record the analytic bounds
read (``fadenet.bounds._ChainLevel``, made by ``_chain_level``).  No
receiver sees the fading, only its law; Gaussian fading integrates out in
closed form, and given the level's inputs w = (x, xi_1..xi_d) the witness
output is complex Gaussian (``_output_law``).  The estimate averages
log f(y|x) - log f(y) over outer samples.

With no interferer heard, or one zero-mean interferer uncorrelated with the
witness entry, y given the input magnitudes is CN(mu x, v) with v fixed by
the magnitudes, so neither density reads a phase (Lapidoth & Moser, IEEE
Trans. IT 49(10), 2003).  Such a quadrature level (``_quadrature_terms``)
takes magnitudes only, and not from i.i.d. draws but from a randomly
shifted lattice rule: ``_LATTICE_REPLICATES`` independent uniform shifts of
one rank-1 Korobov lattice (``_korobov_lattice``), folded by the baker's
(tent) transform u -> 1 - |2u - 1| (``_folded_lattice``) and mapped through
the inverse CDFs of the magnitude laws (Cranley & Patterson, SIAM J.
Numer. Anal. 13(6), 1976; L'Ecuyer & Lemieux, Management Science 46(9),
2000; Hickernell, MCQMC 2000, 2002).  Each replicate's mean is unbiased
and the replicates are independent, so their mean is the estimate and
their spread gives its stderr.  Each density is a plain array function
of one entry per row, and its rule states how many rows one call may take
within ``_BLOCK_ELEMENTS``; ``_quadrature_terms`` is the one loop over a
level's rows, in blocks of that many.  Both densities are deterministic,
with the phases averaged exactly (a Bessel factor when the fading has a
mean): composite Gauss-Legendre over the interferer's log-magnitude, and
over the target's log-magnitude an exact average through the exponential
integral on every row when the fading has zero mean, and Gauss-Legendre
with a mean.  Other levels, and every level when the caller supplies its
own magnitude law, draw complex inputs and outputs through ``_output_law``
and use a nested plug-in (``_nested_terms``): each density is an
equal-weight mixture of output laws over fresh inner draws of the inputs
it does not condition on, so the only approximation error is Monte Carlo;
a chunk takes as many outer rows as fill the element budget with inner
draws, and the stderr comes from the outer rows' spread.  Both paths sum their exponentials with one
in-place log-sum-exp (``_logsumexp_rows``), and scipy is imported only by
the quadrature levels whose fading has a mean (the Bessel factor).

A sweep evaluates the bounds through :func:`fadenet.bounds.evaluate` on one
budget-free plan of the network, estimates each level from the plan's own
record of it, and adds the summed per-level estimates at each feasible
point; each estimate is the one :func:`estimate_pair_mi` returns for the
same level, budget and seed.

Determinism contract: every public operation takes a seed, and a sweep
expands its root seed into one independent stream per (grid point, level),
so the worker count never changes the output bytes.  The sweep's workers are
threads, at most one per CPU.  On 2 cores a second one pays on nested-path
levels, which are long numpy calls (a Z-channel with an interferer mean,
2000 outer by 2000 inner samples at 3 points: 3.8-4.2 s with one, 2.6-2.7 s
with two), and ties with one on quadrature levels (``diagonal:2`` at 5
points: 20.5 against 21.1 ms at 20000 outer samples, 5.2 against 5.1 ms at
3000).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .bounds import PowerAllocation, _chain_level, _ChainLevel, evaluate, plan
from .fading import FadingModel, _standard_complex
from .powerchain import PowerChain, validate_chain
from .topology import _is_int

__all__ = [
    "MiEstimate",
    "SweepRecord",
    "estimate_pair_mi",
    "snr_sweep",
    "fit_loglog_slope",
]

_MIN_SAMPLES = 100
# composite Gauss-Legendre over log-magnitudes: panels at most this wide in
# s = log|x| (or in (1/2) log of the output variance on an interferer axis),
# each with this many nodes
_GL_PANEL_WIDTH = 0.25
_GL_NODES_PER_PANEL = 8
# with a fading mean the s panels are also at most this many sqrt(eps2)/|mu|
# wide, which first binds above Rician K-factor 100
_GL_RICIAN_PANELS = 2.5
# array elements evaluated at once: outer rows times quadrature nodes, or
# outer rows times inner draws on the nested path (64 rows at the default
# m_inner of 2000).  A quadrature rule's ``rows`` is the outer rows one
# density call may take: an eighth of this over the interferer nodes (one
# with no interferer), and on a Rician rule at most this over the s nodes
# times the interferer nodes.  The zero-mean marginal's convergent series
# takes pairs times their tier's terms
_BLOCK_ELEMENTS = 128_000
# zero-mean closed form of the s-average (``_magnitude_quadrature``): the
# asymptotic series of e^-q Ei(q) is used from this q on and summed until a
# term falls below the floor.  Where delta = a^2 (1/v_lo - 1/v_hi) is below
# the last value the difference of its two end terms would lose digits, so
# that interval is integrated directly
_EI_SERIES_MIN = 40.0
_EI_TERM_FLOOR = 1e-17
_EI_MIN_DELTA = 1e-3
# the asymptotic series' term counts: the k-th term, k! / q^k, is below
# the floor once q exceeds (k! / floor)^(1/k).  The table lists that q for
# k from the most terms any q >= 40 runs down to 6, so it ascends in q
_EI_MAX_TERMS = 41
_EI_TERMS_FROM = np.array(
    [
        math.exp((math.lgamma(k + 1) - math.log(_EI_TERM_FLOOR)) / k)
        for k in range(_EI_MAX_TERMS, 5, -1)
    ]
)
# Ei's convergent series sum_k q^k / (k k!) below q = 40, by tiers of q:
# (tier's top, terms), each count leaving a tail below 2e-18 of the sum at
# the tier's top
_EI_CONVERGENT_TIERS = ((4.0, 32), (16.0, 64), (_EI_SERIES_MIN, 108))
# three-node Gauss-Legendre on [0, 1], for an interval shorter than
# _EI_MIN_DELTA, where e^u / (q + u) is nearly constant: it leaves a
# relative error below 1e-20.  Written out, so that no zero-mean level
# imports numpy.polynomial
_EI_SHORT_NODES = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])
_EI_SHORT_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
# a quadrature level's outer average: this many independent random shifts of
# one rank-1 Korobov lattice, whose generator is the best by P2 of at most
# this many candidates (about 2 ms at 1251 points in 4 dimensions)
_LATTICE_REPLICATES = 16
_LATTICE_CANDIDATES = 32


def __getattr__(name: str):
    # perfbench/run.py traces scipy's logsumexp as ``simulate.logsumexp``;
    # resolve it on access, so that loading this module imports no scipy
    if name == "logsumexp":
        from scipy.special import logsumexp

        return logsumexp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _log_uniform_quantile(u: np.ndarray, x_min: float, x_max: float) -> np.ndarray:
    """The inverse CDF of one chain level's magnitude law at uniforms u:
    log|x| uniform on [log x_min, log x_max], so log|x|^2 is uniform too."""
    log_min = math.log(x_min)
    return np.exp(log_min + (math.log(x_max) - log_min) * u)


def _level_inputs(
    rng: np.random.Generator, x_min: float, x_max: float, shape
) -> np.ndarray:
    """The input law of one chain level: ``_log_uniform_quantile`` at i.i.d.
    uniforms, times a uniform phase drawn after the magnitudes."""
    mags = _log_uniform_quantile(rng.random(shape), x_min, x_max)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return mags * np.exp(1j * phases)


def _check_samples(n_outer: int, m_inner: int) -> tuple[int, int]:
    """The sample counts as ints, after checking that each is an integer of
    at least ``_MIN_SAMPLES``."""
    for name, count in (("n_outer", n_outer), ("m_inner", m_inner)):
        if not _is_int(count):
            raise ValueError(f"{name} must be an integer, not {count!r}")
    if n_outer < _MIN_SAMPLES or m_inner < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} outer and inner samples")
    return int(n_outer), int(m_inner)


class MiEstimate(NamedTuple):
    value: float
    stderr: float


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], made once per
    node count."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gl_rule(lo: float, hi: float, max_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of composite Gauss-Legendre for the uniform
    average over [lo, hi], on equal panels at most ``max_width`` wide."""
    width = hi - lo
    panels = max(1, math.ceil(width / max_width))
    nodes, weights = _legendre(_GL_NODES_PER_PANEL)
    half = 0.5 * width / panels
    centres = lo + half * (2.0 * np.arange(panels) + 1.0)
    s = (centres[:, None] + half * nodes).ravel()
    # the uniform density 1/width folds into the weights
    return s, np.log(np.tile(weights * half / width, panels))


def _logsumexp_rows(block: np.ndarray) -> np.ndarray:
    """log sum exp along each row of a 2-D float block of finite values:
    the row max plus the log of the sum of exp(entry - max).

    Overwrites ``block`` (with exp(entry - row max)); pass a scratch block.
    """
    peak = block.max(axis=-1)
    block -= peak[:, None]
    np.exp(block, out=block)
    total = block.sum(axis=-1)
    np.log(total, out=total)
    total += peak
    return total


def _log_scaled_ei(q: np.ndarray) -> np.ndarray:
    """log(q e^-q Ei(q)) for q >= ``_EI_SERIES_MIN``, elementwise: the log
    of the asymptotic series sum_k k! / q^k (Abramowitz & Stegun, section
    5.1), summed until a term falls below ``_EI_TERM_FLOOR`` or would stop
    shrinking (k > q).  At q = 40 the series stops at its smallest term,
    about 7e-17; from q = 2040 on, six terms are enough.

    Each element runs the term count its own q needs, so its bits never
    depend on the elements beside it."""
    # the terms from k = 1 on, summed apart from the leading 1 and added
    # back by log1p, so that a sum near 1/q keeps its relative precision.
    # The first six, by Horner in t = 1/q, over the whole array
    flat = q.ravel()
    t = 1.0 / flat
    rest = t * 720.0
    for coef in (120.0, 24.0, 6.0, 2.0, 1.0):
        rest += coef
        rest *= t
    live = np.flatnonzero(flat <= _EI_TERMS_FROM[-1])
    if live.size:
        # each live element's count: the least k whose term k! / q^k is
        # below the floor, and at most q.  Sorted by count, longest first,
        # the elements still running at step k are a prefix
        q_live = flat[live]
        counts = np.minimum(_EI_MAX_TERMS + 1 - np.searchsorted(_EI_TERMS_FROM, q_live), q_live)
        counts = counts.astype(np.int8)
        live = live[np.argsort(-counts, kind="stable")]
        running = np.cumsum(np.bincount(counts, minlength=_EI_MAX_TERMS + 1)[::-1])[::-1]
        t_live = t[live]
        term = t_live**6 * 720.0
        tail = np.zeros(live.size)
        for k in range(7, int(counts.max()) + 1):
            head = term[: running[k]]
            head *= t_live[: running[k]]
            head *= k
            tail[: running[k]] += head
        rest[live] += tail
    return np.log1p(rest, out=rest).reshape(q.shape)


class _MagnitudeQuadrature(NamedTuple):
    log_conditional: Callable[[np.ndarray, np.ndarray], np.ndarray]
    log_marginal: Callable[[np.ndarray], np.ndarray]
    # the most outer rows one call of either density may take
    rows: int


def _magnitude_quadrature(
    mu: complex,
    eps2: float,
    x_lo: float,
    x_hi: float,
    sigma2: float = 0.0,
    xi_window: tuple[float, float] | None = None,
) -> _MagnitudeQuadrature:
    """log f(y | x) and log f(y) of y = h x + g xi + z, with h ~ CN(mu, eps2),
    z ~ CN(0, 1), log|x| uniform on [log x_lo, log x_hi] and the phase of x
    uniform.  With ``xi_window`` there is one interferer: g ~ CN(0, sigma2)
    independent of h, log|xi| uniform on the window; without it g xi = 0.

    Both densities read magnitudes only: ``log_conditional(d2, r2)`` takes
    d2 = |y - mu x|^2 and r2 = |x|^2, and ``log_marginal(a2)`` takes
    a2 = |y|^2, each a real array with one entry per outer row, and at most
    the rule's ``rows`` rows per call.

    Given |x| = r and |xi| = rho the phase averages are closed form,
        f(y | r, rho) = exp(-(|y|^2 + |mu|^2 r^2) / v) I0(z) / (pi v),
    with v = 1 + eps2 r^2 + sigma2 rho^2 and z = 2 |mu| r |y| / v.  The
    average over s' = log rho is a composite Gauss-Legendre rule, whose
    panels are at most 0.25 wide in (1/2) log v, whose slope in s' is at most
    B / (A + B), with A = 1 + eps2 x_lo^2 and B = sigma2 xi_hi^2; a weak
    interferer thus needs a single panel.

    With mu = 0 the average over s = log r is exact.  Given the interferer
    node, c = 1 + sigma2 rho^2 (c = 1 with no interferer), and with
    W = log(x_hi / x_lo) and v_lo, v_hi the ends of v's range,
        E_s[exp(-a^2 / v) / (pi v)]
            = e^(-a^2 / c) [Ei(q_hi) - Ei(q_lo)] / (2 pi W c),
    where q = a^2 (1/c - 1/v) at each end, so that
    delta = q_hi - q_lo = a^2 (1/v_lo - 1/v_hi) and rho = q_hi / q_lo is
    the same at every a.  Each (row, interferer node) pair takes one of four
    forms of the bracket, in log space:
      - asymptotic (q_lo >= 40, delta >= 1e-3): e^-q Ei(q) from its
        asymptotic series (``_log_scaled_ei``) at both ends, whose log-ratio
        is delta - log1p(delta / q_lo) plus the series' change;
      - short interval (q_hi >= 40, delta < 1e-3):
        e^(-a^2 / v_lo) times the integral of e^u / (q_lo + u) over
        [0, delta], by three-node Gauss-Legendre, where the difference of
        the two end terms would lose digits;
      - convergent (q_hi < 40): log rho + sum_k q_hi^k (1 - rho^-k) / (k k!)
        (Abramowitz & Stegun 5.1.10), which is a sum of positive terms;
      - mixed (q_lo < 40 <= q_hi, delta >= 1e-3): the asymptotic Ei(q_hi)
        less the convergent Ei(q_lo).
    The asymptotic form runs on every pair of a block; the few other pairs
    (an output far below the window, an interferer node comparable to the
    target's floor) are evaluated on their compressed subset and written
    over it.

    With mu != 0 the average over s is composite Gauss-Legendre too, in a
    tensor product with the s' rule.  The s panels are at most 0.25 wide,
    and narrower with a strong mean, whose peak in s is about
    sqrt(eps2) / |mu| wide.
    """
    if xi_window is None:
        b, log_wb = np.zeros(1), np.zeros(1)
    else:
        xi_lo, xi_hi = xi_window
        a_min, b_max = 1.0 + eps2 * x_lo * x_lo, sigma2 * xi_hi * xi_hi
        s_b, log_wb = _gl_rule(
            math.log(xi_lo), math.log(xi_hi), _GL_PANEL_WIDTH * (a_min + b_max) / b_max
        )
        b = sigma2 * np.exp(2.0 * s_b)
    # rows per call of a rule over the interferer nodes alone: an eighth of
    # the element budget, since the closed form below keeps up to about ten
    # arrays of that shape alive at once.  On perfbench's mc_interf sweep
    # (2 workers, 2-core VM) a 32nd took 0.023 s and 64.0 MiB of peak RSS, an
    # eighth 0.015 s and 65.1 MiB, and a quarter 0.016 s and 65.1 MiB
    rows = max(1, _BLOCK_ELEMENTS // (8 * len(b)))

    def log_conditional(d2: np.ndarray, r2: np.ndarray) -> np.ndarray:
        var = (1.0 + eps2 * r2)[:, None] + b
        comp = log_wb - np.log(math.pi * var) - d2[:, None] / var
        # a one-node rule (no interferer) needs no logsumexp
        return comp[:, 0] if len(b) == 1 else _logsumexp_rows(comp)

    if mu != 0:
        log_marginal, nodes = _rician_marginal(mu, eps2, x_lo, x_hi, b, log_wb)
        # the tensor rule's rows times its nodes fill the element budget
        return _MagnitudeQuadrature(
            log_conditional, log_marginal, min(rows, max(1, _BLOCK_ELEMENTS // nodes))
        )

    # per interferer node: c, and q / a^2 at both ends of v's range and
    # delta / a^2, each written without cancellation
    c = 1.0 + b
    g_lo, g_hi = eps2 * x_lo * x_lo, eps2 * x_hi * x_hi
    v_lo, v_hi = c + g_lo, c + g_hi
    # each divided twice: a product of two output variances leaves double
    # range once they reach about 1e154, as at a full:1,1 fading variance of
    # about 4e128 at E = 1e16
    q_lo_unit, q_hi_unit = g_lo / c / v_lo, g_hi / c / v_hi
    delta_unit = (g_hi - g_lo) / v_lo / v_hi
    log_rho = np.log1p(delta_unit / q_lo_unit)
    log_scale = log_wb - np.log(2.0 * math.pi * math.log(x_hi / x_lo) * c)
    # the convergent series' weights of x^k / k!: (1 - rho^-k) / k at each
    # interferer node, and in a last row 1 / k, for Ei itself
    k = np.arange(1, _EI_CONVERGENT_TIERS[-1][1] + 1)
    series_weights = np.vstack([np.expm1(-log_rho[:, None] * k) / -k, 1.0 / k])

    def other_pairs(a2, node, q_lo, q_hi, delta):
        # the log bracket at the pairs the asymptotic form misses, less
        # log_scale; each array holds one entry per pair
        out = np.empty(len(a2))
        conv = q_hi < _EI_SERIES_MIN
        short = ~conv & (delta < _EI_MIN_DELTA)
        mixed = ~(conv | short)
        if short.any():
            q, d = q_lo[short], delta[short]
            u = d[:, None] * _EI_SHORT_NODES
            f = np.exp(u) / (q[:, None] + u)
            f *= _EI_SHORT_WEIGHTS
            out[short] = np.log(d * f.sum(axis=1)) - a2[short] / v_lo[node[short]]
        series = ~short
        if series.any():
            # convergent pairs sum from q_hi with their node's weights,
            # mixed ones from q_lo with Ei's
            sums = _ei_series(
                np.where(conv, q_hi, q_lo)[series],
                series_weights,
                np.where(conv, node, len(b))[series],
            )
            at = node[conv]
            out[conv] = np.log(log_rho[at] + sums[conv[series]]) - a2[conv] / c[at]
            if mixed.any():
                q, d, q_top = q_lo[mixed], delta[mixed], q_hi[mixed]
                log_s_hi = _log_scaled_ei(q_top)
                # Ei(q_lo) / Ei(q_hi), from e^-q_lo Ei(q_lo), delta and the
                # series at q_hi, whose rounding errors do not grow with q
                ratio = np.exp(-q) * (np.euler_gamma + np.log(q) + sums[mixed[series]])
                ratio *= np.exp(-d) * q_top / np.exp(log_s_hi)
                out[mixed] = (
                    log_s_hi - np.log(q_top) - a2[mixed] / v_hi[node[mixed]] + np.log1p(-ratio)
                )
        return out

    def log_marginal(a2: np.ndarray) -> np.ndarray:
        a2_col = a2[:, None]
        q_lo, q_hi, delta = a2_col * q_lo_unit, a2_col * q_hi_unit, a2_col * delta_unit
        # the pairs the asymptotic form misses, as flat indices
        other = np.flatnonzero((q_lo < _EI_SERIES_MIN) | (delta < _EI_MIN_DELTA))
        if other.size:
            at, node = np.divmod(other, len(b))
            patch = other_pairs(
                a2.take(at), node, q_lo.take(other), q_hi.take(other), delta.take(other)
            )
            patch += log_scale[node]
            # values the asymptotic form takes cheaply and finitely (six
            # terms of the series) on the pairs the patch then overwrites
            q_lo.put(other, 1e4)
            q_hi.put(other, 1e4 + 1.0)
            delta.put(other, 1.0)
        log_s_hi = _log_scaled_ei(q_hi)
        # log(e^-p G(q)) at v_hi less the same at v_lo: positive, and at
        # least about 1e-3
        log_ratio = delta - np.log1p(delta / q_lo) + log_s_hi - _log_scaled_ei(q_lo)
        terms = log_scale - a2_col / v_hi - np.log(q_hi) + log_s_hi
        terms += np.log(-np.expm1(-log_ratio))
        if other.size:
            terms.put(other, patch)
        return terms[:, 0] if len(b) == 1 else _logsumexp_rows(terms)

    return _MagnitudeQuadrature(log_conditional, log_marginal, rows)


def _ei_series(x: np.ndarray, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k x^k / k! weights[row, k - 1] over k >= 1, for each element x of
    ``x`` in [0, ``_EI_SERIES_MIN``) and its ``rows`` entry: with weights
    1 / k, the series of Ei(x) - gamma - log x (Abramowitz & Stegun
    5.1.10).  Each element takes the term count of its tier of
    ``_EI_CONVERGENT_TIERS``, and each tier's block is one (elements x
    terms) array summed along its rows."""
    out = np.empty(len(x))
    tier = np.searchsorted([top for top, _ in _EI_CONVERGENT_TIERS], x, side="right")
    for j, (_, count) in enumerate(_EI_CONVERGENT_TIERS):
        at = np.flatnonzero(tier == j)
        k = np.arange(1, count + 1)
        block = _BLOCK_ELEMENTS // count
        for i in range(0, len(at), block):
            part = at[i : i + block]
            terms = x[part, None] / k
            np.cumprod(terms, axis=1, out=terms)  # x^k / k!
            terms *= weights[:, :count][rows[part]]
            out[part] = terms.sum(axis=1)
    return out


def _rician_marginal(
    mu: complex, eps2: float, x_lo: float, x_hi: float, b: np.ndarray, log_wb: np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """``_magnitude_quadrature``'s log f(y) with a fading mean, and its node
    count: the tensor product of composite Gauss-Legendre over s = log|x|
    with the rule over the interferer nodes, whose output-variance terms are
    b and log-weights log_wb."""
    from scipy.special import i0e

    # nodes flattened target-major, interferer-minor: each node's output
    # variance, log-weight less log(pi v), and |mu| r
    max_width = min(_GL_PANEL_WIDTH, _GL_RICIAN_PANELS * math.sqrt(eps2) / abs(mu))
    s, log_w = _gl_rule(math.log(x_lo), math.log(x_hi), max_width)
    r = np.exp(s)
    v = ((1.0 + eps2 * r * r)[:, None] + b).ravel()
    base = (log_w[:, None] + log_wb).ravel() - np.log(math.pi * v)
    mu_r = np.repeat(abs(mu) * r, len(b))

    def log_marginal(a2: np.ndarray) -> np.ndarray:
        a = np.sqrt(a2)[:, None]
        # -(a^2 + mu_r^2) / v + log I0(z) = -(a - mu_r)^2 / v + log i0e(z),
        # with z = 2 mu_r a / v, which avoids cancelling two large terms
        e = base - np.square(a - mu_r) / v
        e += np.log(i0e(mu_r * a * 2.0 / v))
        return _logsumexp_rows(e)

    return log_marginal, len(v)


def _output_law(mu: np.ndarray, sigma: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of y = h.w + z given the inputs w (trailing axis),
    with h ~ CN(mu, sigma) and z ~ CN(0, 1) integrated out: CN(w.mu,
    1 + w^T sigma conj(w)), conjugate on the right as sigma = E[(h-mu)(h-mu)^H]."""
    mean = w @ mu
    var = 1.0 + np.sum((w @ sigma) * w.conj(), axis=-1).real
    return mean, var


def _gaussian_given_magnitudes(level: _ChainLevel) -> bool:
    """Whether the level's output is Gaussian given the input magnitudes:
    no interferer heard, or one zero-mean interferer independent of the
    witness entry."""
    return len(level.interferers) <= 1 and not level.mu[1:].any() and not level.sigma[0, 1:].any()


@functools.lru_cache(maxsize=8)
def _korobov_lattice(m: int, dims: int) -> np.ndarray:
    """The m points {k z / m}, k = 0..m-1, of a rank-1 Korobov lattice in
    [0, 1)^dims, as a read-only (dims, m) array (coordinate-major), made
    once per (m, dims).

    z = (1, g, g^2, ...) mod m with g coprime to m, so every coordinate is
    a permutation of {0, ..., m-1} / m.  g minimises
        P2 = -1 + (1/m) sum_k prod_j (1 + 2 pi^2 B2({k z_j / m})),
    B2(x) = x^2 - x + 1/6, the rule's squared worst-case error in the
    Korobov space with alpha = 2 (Sloan & Joe, Lattice Methods for Multiple
    Integration, 1994), among at most ``_LATTICE_CANDIDATES`` coprime g
    spread evenly over [1, m/2]; g and m - g score alike.
    """
    g = np.arange(1, m // 2 + 1)
    g = g[np.gcd(g, m) == 1]
    if len(g) > _LATTICE_CANDIDATES:
        g = g[np.linspace(0, len(g) - 1, _LATTICE_CANDIDATES).round().astype(int)]
    z = np.ones((len(g), dims), dtype=np.int64)
    for j in range(1, dims):
        z[:, j] = z[:, j - 1] * g % m

    def factor(k: np.ndarray, z_j) -> np.ndarray:
        x = k * z_j % m / m
        return 1.0 + 2.0 * math.pi**2 * (x * x - x + 1.0 / 6.0)

    score = np.zeros(len(g))
    # a fixed number of k per block (1 MiB of products at 32 candidates), so
    # that the summation order, and thus g, never depends on anything but m
    rows = 4096
    for lo in range(0, m, rows):
        k = np.arange(lo, min(lo + rows, m))[:, None]
        # the first coordinate, k / m, is the same for every candidate
        prod = factor(k, 1) * factor(k, z[:, 1])
        for j in range(2, dims):
            prod *= factor(k, z[:, j])
        score += prod.sum(axis=0)
    points = z[np.argmin(score)][:, None] * np.arange(m) % m / m
    points.flags.writeable = False
    return points


def _shifted_lattice(rng: np.random.Generator, n_outer: int, dims: int) -> np.ndarray:
    """``n_outer`` points of [0, 1)^dims, coordinate-major, as a (dims,
    n_outer) array: ``_LATTICE_REPLICATES`` replicates one after another,
    each a Korobov lattice plus its own uniform shift, wrapped (Cranley &
    Patterson, SIAM J. Numer. Anal. 13(6), 1976).  The first n_outer % R
    replicates hold n_outer // R + 1 points, the rest one fewer.  Every
    point is uniform on the cube, and the replicates are independent.
    """
    size, extra = divmod(n_outer, _LATTICE_REPLICATES)
    shifts = rng.random((dims, _LATTICE_REPLICATES, 1))
    u = np.concatenate(
        [
            (_korobov_lattice(m, dims)[:, None, :] + group).reshape(dims, -1)
            for m, group in ((size + 1, shifts[:, :extra]), (size, shifts[:, extra:]))
            if group.size
        ],
        axis=1,
    )
    # back into [0, 1): each sum is below 2, so this subtracts 1 from those
    # at 1 or above, exactly.  numpy's float % costs several times as much,
    # and subtracting the comparison's bools about twice as much
    u -= np.floor(u)
    return u


def _folded_lattice(rng: np.random.Generator, n_outer: int, dims: int) -> np.ndarray:
    """``_shifted_lattice``'s points through the baker's (tent) fold
    u -> 1 - |2u - 1| in every coordinate.

    The fold maps the uniform law to itself, so every point stays uniform on
    the cube, each replicate mean stays unbiased and the replicates stay
    independent.  On a smooth integrand that is not periodic the folded rule
    errs as O(n^(-2+eps)) where the shifted lattice alone errs as
    O(n^(-1+eps)) (Hickernell, MCQMC 2000, 2002), with the worst-case error
    the Korobov generator was chosen by (Cools, Kuo, Nuyens & Suryanarayana,
    J. Complexity 36, 2016).  The fold's image includes 1, from a point at
    exactly 0.5, where an exponential's inverse CDF is infinite; such a
    coordinate is taken to the largest double below 1, so the points stay in
    [0, 1).  Every other |2u - 1| is at least 2^-53, so no other point
    moves.
    """
    u = _shifted_lattice(rng, n_outer, dims)
    u *= 2.0
    u -= 1.0
    np.abs(u, out=u)
    np.maximum(u, 2.0**-53, out=u)
    np.subtract(1.0, u, out=u)
    return u


def _replicate_means(vals: np.ndarray) -> np.ndarray:
    """The mean of each replicate of ``_shifted_lattice``'s points."""
    size, extra = divmod(len(vals), _LATTICE_REPLICATES)
    split = extra * (size + 1)
    return np.concatenate(
        [
            vals[:split].reshape(extra, size + 1).sum(axis=1) / (size + 1),
            vals[split:].reshape(-1, size).sum(axis=1) / size,
        ]
    )


def _quadrature_terms(
    level: _ChainLevel, alloc: PowerAllocation, n_outer: int, rng: np.random.Generator
) -> np.ndarray:
    """The ``_LATTICE_REPLICATES`` replicate means of log f(y|x) - log f(y)
    over ``n_outer`` outer rows in all, of a level whose output is Gaussian
    given the input magnitudes, from the magnitudes alone.

    Given r = |x| and rho = |xi| (the one interferer, if heard) the output
    is CN(mu x, v) with v = 1 + eps2 r^2 + sigma2 rho^2.  Turned by the phase
    of mu x, which neither density reads, it is |mu| r + sqrt(v) z with z
    standard complex; with mu = 0, |y|^2 is v times a unit exponential.  The
    rows are the points of ``_folded_lattice`` (the shifted lattice through
    the baker's fold) through those laws' inverse CDFs: log r, then log rho,
    then the exponential |z|^2, then (with mu != 0) the phase of z.  Every
    row is finite: the fold's one point at 1 is kept below it, where the
    exponential's inverse CDF is finite, and a zero output is in the
    marginal's domain; a level whose output power leaves double range
    raises ``ValueError``.  The points are made at once (at most four times
    the memory of the rows' values); this is the level's one loop over its
    rows, in blocks of the rule's ``rows``, so that no density call
    outgrows the element budget.
    """
    mu, eps2 = level.mu[0], level.eps2
    sigma2 = level.sigma[1:, 1:].trace().real
    (x_lo, x_hi), windows = level.windows(alloc)
    # a row's |y - mu x|^2 is under 37 times the output variance at the
    # window's top (the exponential's inverse CDF below 1), its |y|^2 at most
    # twice that plus |mu x|^2 twice, and the densities scale either by at
    # most 2 pi: 512 times the mean output power covers all three
    power = abs(mu) ** 2 * x_hi * x_hi + 1.0 + eps2 * x_hi * x_hi
    power += sum(sigma2 * xi_hi * xi_hi for _, xi_hi in windows)
    if not math.isfinite(512.0 * power):
        raise ValueError(
            f"level {level.nu}'s output power at E = {alloc.snr_budget:g} is beyond double range"
        )
    rule = _magnitude_quadrature(mu, eps2, x_lo, x_hi, sigma2, *windows)
    points = _folded_lattice(rng, n_outer, 2 + len(windows) + int(mu != 0))
    vals = np.empty(n_outer)
    for lo in range(0, n_outer, rule.rows):
        u = points[:, lo : lo + rule.rows]
        r = _log_uniform_quantile(u[0], x_lo, x_hi)
        r2 = r * r
        v = 1.0 + eps2 * r2
        for j, (xi_lo, xi_hi) in enumerate(windows, start=1):
            rho = _log_uniform_quantile(u[j], xi_lo, xi_hi)
            v += sigma2 * rho * rho
        d2 = v * -np.log1p(-u[1 + len(windows)])
        if mu == 0:
            a2 = d2
        else:
            noise = np.sqrt(d2) * np.exp(2j * math.pi * u[-1])
            a2 = np.abs(abs(mu) * r + noise) ** 2
        vals[lo : lo + len(r)] = rule.log_conditional(d2, r2) - rule.log_marginal(a2)
    return _replicate_means(vals)


def _nested_terms(
    level: _ChainLevel,
    alloc: PowerAllocation,
    n_outer: int,
    m_inner: int,
    rng: np.random.Generator,
    magnitude_sampler: Callable[[np.random.Generator, tuple], np.ndarray] | None,
) -> np.ndarray:
    """log f(y|x) - log f(y) at ``n_outer`` outer rows, each density a
    mixture of output laws over ``m_inner`` fresh inner draws of the inputs
    it does not condition on (with no interferer, the conditional is its
    one exact component)."""
    mu, sigma = level.mu, level.sigma
    (x_lo, x_hi), windows = level.windows(alloc)

    def draw_target(shape: tuple) -> np.ndarray:
        if magnitude_sampler is None:
            return _level_inputs(rng, x_lo, x_hi, shape)
        mags = np.asarray(magnitude_sampler(rng, shape), dtype=float)
        if mags.shape != shape:
            raise ValueError("magnitude_sampler returned wrong shape")
        return mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=shape))

    def draw_output_law(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # x beside fresh interferer inputs, one per heard level
        xi = [_level_inputs(rng, lo, hi, x.shape + (1,)) for lo, hi in windows]
        return _output_law(mu, sigma, np.concatenate([x[..., None]] + xi, axis=-1))

    def mixture_logpdf(y: np.ndarray, x: np.ndarray) -> np.ndarray:
        # log of the equal-weight mixture of output laws at y, one component
        # per column of x
        mean, var = draw_output_law(x)
        comp = -np.log(math.pi * var) - np.abs(y[:, None] - mean) ** 2 / var
        return _logsumexp_rows(comp) - math.log(x.shape[-1])

    # outer rows per chunk: a chunk's inner draws fill the element budget
    chunk = max(1, _BLOCK_ELEMENTS // m_inner)
    conditioned = m_inner if windows else 1
    vals = np.empty(n_outer)
    for done in range(0, n_outer, chunk):
        n = min(chunk, n_outer - done)
        x = draw_target((n,))
        mean, var = draw_output_law(x)
        y = mean + np.sqrt(var) * _standard_complex(rng, (n,))
        log_cond = mixture_logpdf(y, np.broadcast_to(x[:, None], (n, conditioned)))
        log_marg = mixture_logpdf(y, draw_target((n, m_inner)))
        vals[done : done + n] = log_cond - log_marg
    return vals


def _estimate_level(
    level: _ChainLevel,
    alloc: PowerAllocation,
    n_outer: int,
    m_inner: int,
    seed,
    magnitude_sampler: Callable[[np.random.Generator, tuple], np.ndarray] | None = None,
) -> MiEstimate:
    """``estimate_pair_mi`` on checked arguments, from the level's
    budget-free record: its quadrature when the output is Gaussian given the
    input magnitudes and no ``magnitude_sampler`` is given, else the nested
    plug-in."""
    rng = np.random.default_rng(seed)
    # independent unbiased estimates: the replicate means of the lattice, or
    # the nested path's outer rows
    if magnitude_sampler is None and _gaussian_given_magnitudes(level):
        samples = _quadrature_terms(level, alloc, n_outer, rng)
    else:
        samples = _nested_terms(level, alloc, n_outer, m_inner, rng, magnitude_sampler)
    stderr = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    return MiEstimate(value=float(np.mean(samples)), stderr=stderr)


def estimate_pair_mi(
    model: FadingModel,
    chain: PowerChain,
    alloc: PowerAllocation,
    nu: int,
    n_outer: int = 20000,
    m_inner: int = 2000,
    *,
    seed,
    magnitude_sampler: Callable[[np.random.Generator, tuple], np.ndarray] | None = None,
) -> MiEstimate:
    """Monte Carlo estimate of I(X(t_nu); Y(r_nu)) in nats.

    The witness receiver sees the level-nu transmitter plus whichever weaker
    chain members it can hear; stronger members are structurally silent at it
    (guaranteed by ``validate_chain``).  The level's witness law, its
    interferers included, comes from the same per-level helper as the
    analytic bounds, with the fading integrated out in closed form.  Outer
    samples are drawn through that law.

    On an interferer-free level log f(y|x) is exact, and log f(y) averages
    log|x| out deterministically with the phase averaged in closed form.
    With one hearable interferer whose entry has zero mean and no
    correlation with the witness entry, log f(y|x) is a Gauss-Legendre rule
    over the interferer's log-magnitude, and log f(y) the same rule around
    the average over log|x|.  That average is exact, an exponential-integral
    form at every output, when the witness entry has zero mean, and a
    Gauss-Legendre rule when it has a mean.  On both, y given the input
    magnitudes is circularly symmetric about mu x, so only magnitudes are
    taken, and neither path makes inner draws, so ``m_inner`` is not used.
    There the ``n_outer`` samples are the points of 16 independent random
    shifts of one lattice rule, each point folded by the baker's transform
    u -> 1 - |2u - 1|, not i.i.d. draws: the estimate is the mean of the 16
    replicate means and the standard error is their standard error, which
    shrinks faster than 1/sqrt(n_outer).  From 2000 rows on the fold cuts it
    to 0.2-0.6 times the unfolded rule's; below about 1000 rows a
    one-interferer level's can exceed the unfolded rule's.  On any other
    level log f(y|x) averages
    the output law over ``m_inner`` fresh draws of the interferer inputs,
    and log f(y) over ``m_inner`` fresh draws of all the level's inputs;
    the outer samples are i.i.d., and the standard error comes from their
    variance alone.

    ``seed`` is a non-negative integer or a ``numpy.random.SeedSequence``
    (a sweep passes ``SeedSequence([seed, i, nu])``); the same seed gives
    the same estimate.

    ``magnitude_sampler(rng, shape)``, when given, replaces the level-nu
    magnitude law in the channel input and the marginal, and puts the level
    on the nested path whatever its interferers (with none, the conditional
    is its one exact component); phases stay uniform.  Meant for diagnostics
    (constant or two-point magnitudes) where the estimate has a closed-form
    or zero target, and as the quadrature's test oracle.
    """
    validate_chain(model.topo, chain)
    kappa = len(chain)
    if len(alloc.levels) != kappa:
        raise ValueError("allocation level count and chain length differ")
    if not (_is_int(nu) and 1 <= nu <= kappa):
        raise ValueError(f"level nu={nu!r} out of range 1..{kappa}")
    if not (isinstance(seed, np.random.SeedSequence) or (_is_int(seed) and seed >= 0)):
        raise ValueError(f"seed must be a non-negative integer or a SeedSequence, not {seed!r}")
    n_outer, m_inner = _check_samples(n_outer, m_inner)
    level = _chain_level(model, chain, nu)
    return _estimate_level(level, alloc, n_outer, m_inner, seed, magnitude_sampler)


@dataclass(frozen=True)
class SweepRecord:
    """Everything computed at one grid point of an SNR sweep.

    Infeasible points (budget below the allocation threshold) carry None in
    the estimate and bound fields, a False flag, and the reason in ``note``.
    """

    snr: float
    kappa_star: int
    loglog_term: float | None
    analytic_lower: float | None
    mc_estimate: float | None
    mc_stderr: float | None
    analytic_upper: float | None
    n_outer: int
    m_inner: int
    seed: int
    feasible: bool
    note: str | None = None


def _check_grid(e_grid: Iterable[float]) -> list[float]:
    """The budget grid contract of ``snr_sweep`` and ``fadenet bounds``:
    non-empty, every value positive and finite, strictly increasing."""
    grid = [float(v) for v in e_grid]
    if not grid:
        raise ValueError("grid is empty")
    if not all(0 < v < math.inf for v in grid):
        raise ValueError("grid values must be positive and finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def snr_sweep(
    model: FadingModel,
    e_grid: Sequence[float],
    n_outer: int = 20000,
    m_inner: int = 2000,
    *,
    seed: int,
    workers: int = 1,
) -> list[SweepRecord]:
    """Evaluate bounds and the summed per-level MC estimate over an SNR grid,
    on the model's topology.

    Each grid point and chain level gets its own child seed derived from the
    root by position, and records are assembled in grid order, so the result
    is byte-identical for any ``workers`` count.  At most ``os.cpu_count()``
    worker threads share one queue of (point, level) estimates in grid
    order; a second worker pays on nested-path levels only.  On a quadrature
    level ``n_outer`` counts the points of 16 shifted lattices folded by the
    baker's transform: from 2000 rows on, their stderr is 0.2-0.6 times the
    unfolded rule's on every level kind, but below about 1000 rows a
    one-interferer level's can exceed it.
    Each point is :func:`fadenet.bounds.evaluate`'s report, plus the
    per-level estimates when it is feasible: level nu at point i is
    :func:`estimate_pair_mi` with ``seed=SeedSequence([seed, i, nu])``, from
    the plan's record of level nu.  Points below the allocation
    threshold come back infeasible, with the report's note, instead of
    failing the sweep.
    """
    if not model.topo.is_pruned:
        raise ValueError("sweep requires a pruned topology")
    grid = _check_grid(e_grid)
    if not _is_int(seed) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if not _is_int(workers) or workers < 1:
        raise ValueError("workers must be an integer of at least 1")
    root_seed = int(seed)
    n_outer, m_inner = _check_samples(n_outer, m_inner)

    bounds_plan = plan(model)
    reports = [evaluate(bounds_plan, e) for e in grid]
    # one task per (point, level), in grid order
    tasks = [(i, nu) for i, r in enumerate(reports) if r.feasible for nu in range(1, r.kappa + 1)]

    def estimate(task: tuple[int, int]) -> MiEstimate:
        i, nu = task
        seed = np.random.SeedSequence([root_seed, i, nu])
        return _estimate_level(bounds_plan.levels[nu - 1], reports[i].alloc, n_outer, m_inner, seed)

    # the pool starts a thread per queued task up to its size, so more than
    # the cores would only contend
    with ThreadPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        # the estimates come back in task order, so each feasible point takes
        # its kappa levels off the front
        estimates = pool.map(estimate, tasks)
        levels = [list(islice(estimates, r.kappa)) if r.feasible else None for r in reports]

    return [
        SweepRecord(
            snr=report.snr,
            kappa_star=report.kappa,
            loglog_term=report.loglog_term,
            analytic_lower=report.lower_bound,
            mc_estimate=None if ests is None else sum(est.value for est in ests),
            mc_stderr=None if ests is None else math.sqrt(sum(est.stderr**2 for est in ests)),
            analytic_upper=report.upper_bound,
            n_outer=n_outer,
            m_inner=m_inner,
            seed=root_seed,
            feasible=report.feasible,
            note=report.note,
        )
        for report, ests in zip(reports, levels)
    ]


def fit_loglog_slope(
    records: Sequence[SweepRecord], field: str = "mc_estimate"
) -> tuple[float, float, float]:
    """Least-squares fit of ``field`` against log log E over feasible records.

    Returns (slope, intercept, rms_residual); the slope is the empirical
    estimate of the chain-length pre-factor.  ``field`` may also name one of
    the analytic bounds to fit the same line through them.
    """
    if field not in ("mc_estimate", "analytic_lower", "analytic_upper"):
        raise ValueError(f"cannot fit field {field!r}")
    pts = [
        (math.log(math.log(rec.snr)), getattr(rec, field))
        for rec in records
        if rec.feasible and getattr(rec, field) is not None
    ]
    if len(pts) < 3:
        raise ValueError("need at least 3 feasible records to fit")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.ptp(x) == 0:
        raise ValueError("all grid points equal; slope undefined")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), resid

