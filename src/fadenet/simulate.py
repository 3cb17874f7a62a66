"""Monte Carlo estimation of the layered scheme's per-level rates, and the
SNR sweep that sets them beside the analytic bounds.

Chain level nu's input has a log-uniform magnitude on the level's window of
the allocation and a uniform phase (``_level_inputs``).  Outer samples come
from the true channel and the estimate averages log f(y|x) - log f(y) over
them.  On an interferer-free level the output is complex Gaussian given |x|,
and log|x| is uniform on the level window, so the marginal f(y) is a smooth
one-dimensional integral; it is evaluated by deterministic composite
Gauss-Legendre quadrature over s = log|x|, with the input phase averaged
exactly (a Bessel factor when the fading has a mean).  A level whose witness
hears one zero-mean interferer uncorrelated with the witness entry is
Gaussian given both input magnitudes, so f(y|x) is a one-dimensional rule
over the interferer's log-magnitude and f(y) a tensor rule over both.
Levels with more interferers or a dependent one, and callers that supply
their own magnitude law, use a nested plug-in instead: both densities are
approximated by Gaussian-mixture averages over fresh inner draws of whatever
the density does not condition on.  Conditioned on the interfering fading
entries and inputs the output is exactly complex Gaussian, so every mixture
component is closed form and the only approximation error is Monte Carlo.

A sweep evaluates the bounds through :func:`fadenet.bounds.evaluate` on one
budget-free plan of the network, and adds the summed per-level estimates.

Determinism contract: every public operation takes a seed, and a sweep
expands its root seed into one independent stream per (grid point, level),
so the worker count never changes the output bytes.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import i0e, logsumexp

from .bounds import AllocationInfeasibleError, Plan, PowerAllocation, evaluate, plan
from .fading import FadingModel, _as_generator, _standard_complex
from .powerchain import PowerChain, validate_chain
from .topology import Topology

__all__ = [
    "MiEstimate",
    "SweepRecord",
    "estimate_pair_mi",
    "snr_sweep",
    "records_to_csv",
    "records_to_json",
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
# outer rows times quadrature nodes evaluated at once; 256 rows of the
# widest zero-mean interferer-free rule (480 nodes) fit in one block
_QUADRATURE_ELEMENTS = 1 << 17


def _level_magnitudes(
    rng: np.random.Generator, x_min: float, x_max: float, shape
) -> np.ndarray:
    # log|X|^2 uniform on [log x_min^2, log x_max^2] <=> log|X| uniform
    return np.exp(rng.uniform(math.log(x_min), math.log(x_max), size=shape))


def _level_inputs(
    rng: np.random.Generator, x_min: float, x_max: float, shape
) -> np.ndarray:
    mags = _level_magnitudes(rng, x_min, x_max, shape)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return mags * np.exp(1j * phases)


class MiEstimate(NamedTuple):
    value: float
    stderr: float


def _gl_rule(lo: float, hi: float, max_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log-weights of composite Gauss-Legendre for the uniform
    average over [lo, hi], on equal panels at most ``max_width`` wide."""
    width = hi - lo
    panels = max(1, math.ceil(width / max_width))
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES_PER_PANEL)
    half = 0.5 * width / panels
    centres = lo + half * (2.0 * np.arange(panels) + 1.0)
    s = (centres[:, None] + half * nodes).ravel()
    # the uniform density 1/width folds into the weights
    return s, np.log(np.tile(weights * half / width, panels))


class _MagnitudeQuadrature(NamedTuple):
    log_conditional: Callable[[np.ndarray, np.ndarray], np.ndarray]
    log_marginal: Callable[[np.ndarray], np.ndarray]


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

    Given |x| = r and |xi| = rho the phase averages are closed form,
        f(y | r, rho) = exp(-(|y|^2 + |mu|^2 r^2) / v) I0(z) / (pi v),
    with v = 1 + eps2 r^2 + sigma2 rho^2 and z = 2 |mu| r |y| / v, and the
    averages over s = log r and s' = log rho are a tensor product of
    composite Gauss-Legendre rules.  The s panels are at most 0.25 wide, and
    narrower with a strong mean, whose peak in s is about sqrt(eps2) / |mu|
    wide.  The s' panels are at most 0.25 wide in (1/2) log v, whose slope in
    s' is at most B / (A + B), with A = 1 + eps2 x_lo^2 and
    B = sigma2 xi_hi^2; a weak interferer thus needs a single panel.
    """
    max_width = _GL_PANEL_WIDTH
    if mu != 0:
        max_width = min(max_width, _GL_RICIAN_PANELS * math.sqrt(eps2) / abs(mu))
    s, log_w = _gl_rule(math.log(x_lo), math.log(x_hi), max_width)
    if xi_window is None:
        b, log_wb = np.zeros(1), np.zeros(1)
    else:
        xi_lo, xi_hi = xi_window
        a_min, b_max = 1.0 + eps2 * x_lo * x_lo, sigma2 * xi_hi * xi_hi
        s_b, log_wb = _gl_rule(
            math.log(xi_lo), math.log(xi_hi), _GL_PANEL_WIDTH * (a_min + b_max) / b_max
        )
        b = sigma2 * np.exp(2.0 * s_b)
    # nodes flattened target-major, interferer-minor
    r = np.exp(s)
    v = ((1.0 + eps2 * r * r)[:, None] + b).ravel()
    base = (log_w[:, None] + log_wb).ravel() - np.log(math.pi * v)
    mu_r = np.repeat(abs(mu) * r, len(b))
    rows = max(1, _QUADRATURE_ELEMENTS // len(v))

    def log_conditional(y: np.ndarray, x: np.ndarray) -> np.ndarray:
        var = (1.0 + eps2 * np.abs(x) ** 2)[:, None] + b
        dist = np.abs(y - mu * x)[:, None] ** 2
        comp = log_wb - np.log(math.pi * var) - dist / var
        # a one-node rule (no interferer) needs no logsumexp
        return comp[:, 0] if len(b) == 1 else logsumexp(comp, axis=-1)

    def log_marginal(y: np.ndarray) -> np.ndarray:
        out = np.empty(len(y))
        for i in range(0, len(y), rows):
            a = np.abs(y[i : i + rows])[:, None]
            if mu == 0:
                out[i : i + rows] = logsumexp(base - a * a / v, axis=-1)
                continue
            z = 2.0 * mu_r * a / v
            # -(a^2 + mu_r^2) / v + log I0(z) = -(a - mu_r)^2 / v + log i0e(z),
            # which avoids cancelling two large terms
            out[i : i + rows] = logsumexp(
                base - (a - mu_r) ** 2 / v + np.log(i0e(z)), axis=-1
            )
        return out

    return _MagnitudeQuadrature(log_conditional, log_marginal)


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
    (checked, not assumed).  Outer samples (x_i, y_i) come from the true
    channel, and the standard error comes from the outer-sample variance
    alone.

    On an interferer-free level log f(y|x) is exact and log f(y) is a
    deterministic Gauss-Legendre quadrature over log|x| with the phase
    averaged in closed form.  With one hearable interferer whose entry has
    zero mean and no correlation with the witness entry, log f(y|x) is a
    Gauss-Legendre rule over the interferer's log-magnitude and log f(y) a
    tensor rule over both log-magnitudes.  Neither path makes inner draws,
    so ``m_inner`` is not used.  On any other level with hearable
    interferers log f(y|x) averages, over ``m_inner`` fresh draws of their
    fading and inputs, the exact conditional Gaussian density whose mean
    interpolates the witness entry from the drawn interferer entries and
    whose variance is the Schur-complement residual; log f(y) repeats this
    with fresh input draws included.

    ``magnitude_sampler(rng, shape)``, when given, replaces the level-nu
    magnitude law in both the channel input and the marginal, which then
    takes ``m_inner`` fresh draws on every level, and on a level with
    interferers the conditional too; phases stay uniform.  Meant for
    diagnostics (constant or two-point magnitudes) where the estimate has a
    closed-form or zero target, and as the quadrature's test oracle.
    """
    topo = model.topo
    validate_chain(topo, chain)
    kappa = len(chain)
    if len(alloc.levels) != kappa:
        raise ValueError("allocation level count and chain length differ")
    if not 1 <= nu <= kappa:
        raise ValueError(f"level {nu} out of range 1..{kappa}")
    if n_outer < _MIN_SAMPLES or m_inner < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} outer and inner samples")

    r = chain.witnesses[nu - 1]
    t = chain.transmitters[nu - 1]
    for eta in range(1, nu):
        if (r, chain.transmitters[eta - 1]) not in topo.zeros:
            raise ValueError(
                f"stronger chain member {chain.transmitters[eta - 1]} reaches witness {r}"
            )

    interferers = [
        eta
        for eta in range(nu + 1, kappa + 1)
        if (r, chain.transmitters[eta - 1]) not in topo.zeros
    ]
    d = len(interferers)
    mu_t = model.entry_mean(r, t)
    if d:
        g_entries = [(r, chain.transmitters[eta - 1]) for eta in interferers]
        joint = model.submatrix([(r, t)] + g_entries)
        chol_joint = np.linalg.cholesky(joint)
        mu_g = np.array([model.entry_mean(*e) for e in g_entries])
        mu_joint = np.concatenate(([mu_t], mu_g))
        chol_g = np.linalg.cholesky(joint[1:, 1:])
        # conditional mean of the witness entry: mu_t + (g - mu_g) @ coef
        coef = np.linalg.solve(joint[1:, 1:].conj(), joint[0, 1:])
        eps2 = model.conditional_variance((r, t), g_entries)
        windows = [alloc.levels[eta - 1] for eta in interferers]
    else:
        eps2 = model.entry_variance(r, t)

    x_lo, x_hi = alloc.levels[nu - 1]
    rng = _as_generator(seed)
    log_m = math.log(m_inner)
    # y is Gaussian given the input magnitudes when no interferer is heard, or
    # one zero-mean interferer independent of the witness entry; a custom
    # magnitude law keeps an interfering level wholly on the nested path
    quadrature = None
    if not d:
        quadrature = _magnitude_quadrature(mu_t, eps2, x_lo, x_hi)
    elif d == 1 and magnitude_sampler is None and mu_g[0] == 0 and joint[0, 1] == 0:
        quadrature = _magnitude_quadrature(
            mu_t, eps2, x_lo, x_hi, joint[1, 1].real, windows[0]
        )

    def draw_target(shape) -> np.ndarray:
        if magnitude_sampler is None:
            mags = _level_magnitudes(rng, x_lo, x_hi, shape)
        else:
            mags = np.asarray(magnitude_sampler(rng, shape), dtype=float)
            if mags.shape != (shape if isinstance(shape, tuple) else (shape,)):
                raise ValueError("magnitude_sampler returned wrong shape")
        return mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=shape))

    def draw_interferer_inputs(shape) -> np.ndarray:
        xi = np.empty(shape + (d,), dtype=complex)
        for j, (lo, hi) in enumerate(windows):
            xi[..., j] = _level_inputs(rng, lo, hi, shape)
        return xi

    def mixture_logpdf(y: np.ndarray, x: np.ndarray) -> np.ndarray:
        # log of the m-component mixture density at y, components indexed by
        # the trailing axis of x (and the fresh interference draws)
        if d:
            g = mu_g + _standard_complex(rng, x.shape + (d,)) @ chol_g.T
            xi = draw_interferer_inputs(x.shape)
            mean = (mu_t + (g - mu_g) @ coef) * x + np.sum(g * xi, axis=-1)
        else:
            mean = mu_t * x
        var = 1.0 + eps2 * np.abs(x) ** 2
        comp = -np.log(math.pi * var) - np.abs(y[:, None] - mean) ** 2 / var
        return logsumexp(comp, axis=-1) - log_m

    chunk = 64 if quadrature is None else 256
    vals = np.empty(n_outer)
    done = 0
    while done < n_outer:
        n = min(chunk, n_outer - done)
        x = draw_target((n,))
        if d:
            # true draw: witness and interferer entries jointly, then inputs
            hv = mu_joint + _standard_complex(rng, (n, d + 1)) @ chol_joint.T
            xi_true = draw_interferer_inputs((n,))
            signal = hv[:, 0] * x + np.sum(hv[:, 1:] * xi_true, axis=-1)
        else:
            h_t = mu_t + math.sqrt(eps2) * _standard_complex(rng, (n,))
            signal = h_t * x
        y = signal + _standard_complex(rng, (n,))

        if quadrature is None:
            log_cond = mixture_logpdf(y, np.broadcast_to(x[:, None], (n, m_inner)))
        else:
            log_cond = quadrature.log_conditional(y, x)
        if quadrature is None or magnitude_sampler is not None:
            log_marg = mixture_logpdf(y, draw_target((n, m_inner)))
        else:
            log_marg = quadrature.log_marginal(y)
        vals[done : done + n] = log_cond - log_marg
        done += n

    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_outer)) if n_outer > 1 else 0.0
    return MiEstimate(value=float(np.mean(vals)), stderr=stderr)


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

    def to_json_dict(self) -> dict:
        return {
            "snr": self.snr,
            "kappa_star": self.kappa_star,
            "loglog_term": self.loglog_term,
            "analytic_lower": self.analytic_lower,
            "mc_estimate": self.mc_estimate,
            "mc_stderr": self.mc_stderr,
            "analytic_upper": self.analytic_upper,
            "n_outer": self.n_outer,
            "m_inner": self.m_inner,
            "seed": self.seed,
            "feasible": self.feasible,
            "note": self.note,
        }


def _sweep_point(
    bounds_plan: Plan,
    model: FadingModel,
    index: int,
    snr: float,
    n_outer: int,
    m_inner: int,
    root_seed: int,
) -> SweepRecord:
    kappa_star = bounds_plan.kappa_star
    loglog = kappa_star * math.log(math.log(snr)) if snr > math.e else None
    base = {
        "snr": snr,
        "kappa_star": kappa_star,
        "n_outer": n_outer,
        "m_inner": m_inner,
        "seed": root_seed,
    }
    try:
        report = evaluate(bounds_plan, snr)
    except AllocationInfeasibleError as exc:
        return SweepRecord(
            loglog_term=loglog,
            analytic_lower=None,
            mc_estimate=None,
            mc_stderr=None,
            analytic_upper=None,
            feasible=False,
            note=f"below feasibility threshold {exc.threshold:.6g}",
            **base,
        )
    total = 0.0
    var = 0.0
    for nu in range(1, kappa_star + 1):
        est = estimate_pair_mi(
            model,
            bounds_plan.chain,
            report.alloc,
            nu,
            n_outer,
            m_inner,
            seed=np.random.SeedSequence([root_seed, index, nu]),
        )
        total += est.value
        var += est.stderr**2
    return SweepRecord(
        loglog_term=loglog,
        analytic_lower=report.lower_bound,
        mc_estimate=total,
        mc_stderr=math.sqrt(var),
        analytic_upper=report.upper_bound,
        feasible=True,
        **base,
    )


def snr_sweep(
    topo: Topology,
    model: FadingModel,
    e_grid: Sequence[float],
    n_outer: int = 20000,
    m_inner: int = 2000,
    *,
    seed: int,
    workers: int = 1,
) -> list[SweepRecord]:
    """Evaluate bounds and the summed per-level MC estimate over an SNR grid.

    Each grid point and chain level gets its own child seed derived from the
    root by position, and records are assembled in grid order, so the result
    is byte-identical for any ``workers`` count.  Points below the allocation
    threshold come back flagged infeasible instead of failing the sweep.
    """
    if model.topo != topo:
        raise ValueError("model was built for a different topology")
    if not topo.is_pruned:
        raise ValueError("sweep requires a pruned topology")
    grid = [float(v) for v in e_grid]
    if not grid:
        raise ValueError("grid is empty")
    if any(v <= 0 for v in grid):
        raise ValueError("grid values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    root_seed = int(seed)
    if root_seed < 0:
        raise ValueError("seed must be non-negative")
    if workers < 1:
        raise ValueError("workers must be at least 1")

    bounds_plan = plan(topo, model)

    def point(i: int) -> SweepRecord:
        return _sweep_point(bounds_plan, model, i, grid[i], n_outer, m_inner, root_seed)

    if workers == 1:
        return [point(i) for i in range(len(grid))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, range(len(grid))))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _to_csv(rows: Iterable[Sequence]) -> str:
    """CSV text with one line per row of cells.

    Floats are written with repr, the shortest round-trip form, so equal
    values always produce equal bytes.
    """
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render sweep records as CSV with a fixed schema."""
    header = ("E", "kappa_star", "loglog", "lower", "mc", "mc_stderr", "upper", "feasible")
    return _to_csv(
        [header]
        + [
            (
                rec.snr,
                rec.kappa_star,
                rec.loglog_term,
                rec.analytic_lower,
                rec.mc_estimate,
                rec.mc_stderr,
                rec.analytic_upper,
                rec.feasible,
            )
            for rec in records
        ]
    )


def records_to_json(records: Sequence[SweepRecord]) -> str:
    return json.dumps([rec.to_json_dict() for rec in records], indent=2) + "\n"


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

