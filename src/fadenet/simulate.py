"""Monte Carlo estimation of the layered scheme's per-level rates, and the
SNR sweep that sets them beside the analytic bounds.

Chain level nu's input has a log-uniform magnitude on the level's window of
the allocation and a uniform phase (``_level_inputs``, the one place that law
is drawn).  The witness and the weaker levels it hears come from the
per-level helper the analytic bounds use (``fadenet.bounds._chain_level``).
No receiver sees the fading, only its law; Gaussian fading integrates out in
closed form, and given the level's inputs w = (x, xi_1..xi_d) the witness
output is complex Gaussian (``_output_law``).  Outer samples are drawn
through that law and the estimate averages log f(y|x) - log f(y) over them.
With no interferer heard, or one zero-mean interferer uncorrelated with the
witness entry, y is Gaussian given the input magnitudes, so both densities
are deterministic composite Gauss-Legendre rules over log-magnitudes, with
the phases averaged exactly (a Bessel factor when the fading has a mean).
The quadrature sums its exponentials with its own in-place log-sum-exp
(``_logsumexp_rows``); the nested path keeps scipy's as an independent oracle.
scipy is imported only by the levels that need it: those with a fading mean
(the Bessel factor) and those on the nested path.
Other levels, and every level when the caller supplies its own magnitude
law, use a nested plug-in: each density is an equal-weight mixture of output
laws over fresh inner draws of the inputs it does not condition on, so the
only approximation error is Monte Carlo.

A sweep evaluates the bounds through :func:`fadenet.bounds.evaluate` on one
budget-free plan of the network, and adds the summed per-level estimates at
each feasible point.

Determinism contract: every public operation takes a seed, and a sweep
expands its root seed into one independent stream per (grid point, level),
so the worker count never changes the output bytes.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .bounds import BoundReport, PowerAllocation, _chain_level, evaluate, plan
from .fading import FadingModel, _as_generator, _standard_complex
from .powerchain import PowerChain, validate_chain

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
# array elements evaluated at once: outer rows times quadrature nodes, or
# outer rows times inner draws on the nested path (64 rows at the default
# m_inner of 2000).  256 rows of the widest zero-mean interferer-free rule
# (480 nodes) fit in one block.  It also sizes the one scratch block (two
# with a fading mean) that each quadrature log f(y) call allocates
_BLOCK_ELEMENTS = 128_000


def __getattr__(name: str):
    # perfbench/run.py traces scipy's logsumexp as ``simulate.logsumexp``;
    # resolve it on access, so that loading this module imports no scipy
    if name == "logsumexp":
        from scipy.special import logsumexp

        return logsumexp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _level_inputs(
    rng: np.random.Generator, x_min: float, x_max: float, shape
) -> np.ndarray:
    """The input law of one chain level: log|x| uniform on
    [log x_min, log x_max] (so log|x|^2 is uniform too) and a uniform phase."""
    mags = np.exp(rng.uniform(math.log(x_min), math.log(x_max), size=shape))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return mags * np.exp(1j * phases)


def _check_samples(n_outer: int, m_inner: int) -> None:
    if n_outer < _MIN_SAMPLES or m_inner < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} outer and inner samples")


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
        from scipy.special import i0e

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
    two_mu_r = 2.0 * mu_r
    rows = max(1, _BLOCK_ELEMENTS // len(v))

    def log_conditional(y: np.ndarray, x: np.ndarray) -> np.ndarray:
        var = (1.0 + eps2 * np.abs(x) ** 2)[:, None] + b
        dist = np.abs(y - mu * x)[:, None] ** 2
        comp = log_wb - np.log(math.pi * var) - dist / var
        # a one-node rule (no interferer) needs no logsumexp
        return comp[:, 0] if len(b) == 1 else _logsumexp_rows(comp)

    def log_marginal(y: np.ndarray) -> np.ndarray:
        out = np.empty(len(y))
        # scratch for the exponents (and the Bessel arguments), made per call
        # so that sweep threads never share one
        block = np.empty((min(rows, len(y)), len(v)))
        z_block = None if mu == 0 else np.empty_like(block)
        for i in range(0, len(y), rows):
            a = np.abs(y[i : i + rows])[:, None]
            e = block[: len(a)]
            if mu == 0:
                # base - a^2 / v
                np.divide(a * a, v, out=e)
                np.subtract(base, e, out=e)
            else:
                # -(a^2 + mu_r^2) / v + log I0(z) = -(a - mu_r)^2 / v + log i0e(z),
                # with z = 2 mu_r a / v, which avoids cancelling two large terms
                np.subtract(a, mu_r, out=e)
                np.square(e, out=e)
                np.divide(e, v, out=e)
                np.subtract(base, e, out=e)
                z = z_block[: len(a)]
                np.multiply(two_mu_r, a, out=z)
                np.divide(z, v, out=z)
                i0e(z, out=z)
                np.log(z, out=z)
                e += z
            out[i : i + rows] = _logsumexp_rows(e)
        return out

    return _MagnitudeQuadrature(log_conditional, log_marginal)


def _output_law(mu: np.ndarray, sigma: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of y = h.w + z given the inputs w (trailing axis),
    with h ~ CN(mu, sigma) and z ~ CN(0, 1) integrated out: CN(w.mu,
    1 + w^T sigma conj(w)), conjugate on the right as sigma = E[(h-mu)(h-mu)^H]."""
    mean = w @ mu
    var = 1.0 + np.sum((w @ sigma) * w.conj(), axis=-1).real
    return mean, var


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
    samples (x_i, y_i) are drawn through that law, and the standard error
    comes from the outer-sample variance alone.

    On an interferer-free level log f(y|x) is exact and log f(y) is a
    deterministic Gauss-Legendre quadrature over log|x| with the phase
    averaged in closed form.  With one hearable interferer whose entry has
    zero mean and no correlation with the witness entry, log f(y|x) is a
    Gauss-Legendre rule over the interferer's log-magnitude and log f(y) a
    tensor rule over both log-magnitudes.  Neither path makes inner draws,
    so ``m_inner`` is not used.  On any other level log f(y|x) averages the
    output law over ``m_inner`` fresh draws of the interferer inputs, and
    log f(y) over ``m_inner`` fresh draws of all the level's inputs.

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
    if not 1 <= nu <= kappa:
        raise ValueError(f"level {nu} out of range 1..{kappa}")
    _check_samples(n_outer, m_inner)

    level = _chain_level(model, chain, nu)
    d = len(level.interferers)
    # the level's inputs w = (x, xi_1..xi_d) meet the witness entry first,
    # then the interferer entries
    entries = ((level.witness, level.transmitter),) + level.interferer_entries
    mu = np.array([model.entry_mean(*e) for e in entries], dtype=complex)
    sigma = model.submatrix(entries)
    windows = [alloc.levels[eta - 1] for eta in level.interferers]

    x_lo, x_hi = alloc.levels[nu - 1]
    rng = _as_generator(seed)
    # y is Gaussian given the input magnitudes when no interferer is heard, or
    # one zero-mean interferer independent of the witness entry; with none,
    # the interferer variance is an empty trace and no window is passed
    quadrature = None
    if magnitude_sampler is None and d <= 1 and not mu[1:].any() and not sigma[0, 1:].any():
        quadrature = _magnitude_quadrature(
            mu[0], level.eps2, x_lo, x_hi, sigma[1:, 1:].trace().real, *windows
        )
    else:
        from scipy.special import logsumexp

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
        return logsumexp(comp, axis=-1) - math.log(x.shape[-1])

    chunk = max(1, _BLOCK_ELEMENTS // m_inner) if quadrature is None else 256
    vals = np.empty(n_outer)
    done = 0
    while done < n_outer:
        n = min(chunk, n_outer - done)
        x = draw_target((n,))
        mean, var = draw_output_law(x)
        y = mean + np.sqrt(var) * _standard_complex(rng, (n,))

        if quadrature is None:
            # with no interferer the conditional is one exact component
            log_cond = mixture_logpdf(y, np.broadcast_to(x[:, None], (n, m_inner if d else 1)))
            log_marg = mixture_logpdf(y, draw_target((n, m_inner)))
        else:
            log_cond = quadrature.log_conditional(y, x)
            log_marg = quadrature.log_marginal(y)
        vals[done : done + n] = log_cond - log_marg
        done += n

    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_outer))
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
    is byte-identical for any ``workers`` count.  The workers share one
    queue of (point, level) estimates, first levels first.  Each point is
    :func:`fadenet.bounds.evaluate`'s report, plus the per-level estimates
    when it is feasible; points below the allocation threshold come back
    infeasible, with the report's note, instead of failing the sweep.
    """
    if not model.topo.is_pruned:
        raise ValueError("sweep requires a pruned topology")
    grid = _check_grid(e_grid)
    root_seed = int(seed)
    if root_seed < 0:
        raise ValueError("seed must be non-negative")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _check_samples(n_outer, m_inner)

    bounds_plan = plan(model)
    reports = [evaluate(bounds_plan, e) for e in grid]
    # one task per (point, level), every first level before any second: the
    # costliest estimates start first and the short later levels fill in at
    # the end, so no worker is left alone with a long last task
    tasks = sorted(
        ((i, nu) for i, r in enumerate(reports) if r.feasible for nu in range(1, r.kappa + 1)),
        key=lambda task: (task[1], task[0]),
    )

    def estimate(task: tuple[int, int]) -> MiEstimate:
        i, nu = task
        return estimate_pair_mi(
            model,
            bounds_plan.chain,
            reports[i].alloc,
            nu,
            n_outer,
            m_inner,
            seed=np.random.SeedSequence([root_seed, i, nu]),
        )

    if workers == 1:
        estimates = dict(zip(tasks, map(estimate, tasks)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = dict(zip(tasks, pool.map(estimate, tasks)))

    def record(i: int, report: BoundReport) -> SweepRecord:
        total = stderr = None
        if report.feasible:
            total = var = 0.0
            for nu in range(1, report.kappa + 1):
                est = estimates[i, nu]
                total += est.value
                var += est.stderr**2
            stderr = math.sqrt(var)
        return SweepRecord(
            snr=report.snr,
            kappa_star=report.kappa,
            loglog_term=report.loglog_term,
            analytic_lower=report.lower_bound,
            mc_estimate=total,
            mc_stderr=stderr,
            analytic_upper=report.upper_bound,
            n_outer=n_outer,
            m_inner=m_inner,
            seed=root_seed,
            feasible=report.feasible,
            note=report.note,
        )

    return [record(i, report) for i, report in enumerate(reports)]


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
    return json.dumps([asdict(rec) for rec in records], indent=2) + "\n"


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

