"""Analytic capacity bounds for non-coherent fading networks.

The achievable side layers one log-uniform power level per chain member and
lower-bounds each level's rate with a scalar formula whose only channel
inputs are the witness entry's statistics and a pessimistic interference
variance.  The converse side upper-bounds each decomposition phase with a
duality argument whose dominant term is log log of the power budget.  Both
sides are exact finite-SNR formulas, in nats, so they can be compared point
by point against Monte Carlo estimates.

Only the allocation windows and the duality bound's alpha term depend on the
budget.  :func:`plan` computes everything else once per network;
:meth:`Plan.upper_bound` is the converse at one budget, and :func:`evaluate`
gives both bounds at one grid point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fading import FadingModel, block_mutual_information, log_h_squared_mean
from .powerchain import PowerChain, decompose, longest_chain, validate_chain
from .topology import _is_int

__all__ = [
    "AllocationInfeasibleError",
    "PowerAllocation",
    "BoundReport",
    "min_valid_snr",
    "allocation",
    "scalar_mi_lower_bound",
    "interference_penalty",
    "scheme_rate_lower_bound",
    "alpha_penalty",
    "duality_upper_bound",
    "Plan",
    "plan",
    "evaluate",
]

_LOG_PI = math.log(math.pi)
_LOG_PI_E = math.log(math.pi) + 1.0
_LOG_2 = math.log(2.0)


class AllocationInfeasibleError(ValueError):
    """Raised when the power budget is below the layered-scheme threshold."""

    def __init__(self, snr: float, kappa: int, threshold: float):
        super().__init__(
            f"budget {snr:g} below the {kappa}-level feasibility threshold {threshold:g}"
        )
        self.snr = snr
        self.kappa = kappa
        self.threshold = threshold


def _check_budget(snr: float) -> None:
    """Both bounds are defined only on finite budgets E >= 0."""
    if not (math.isfinite(snr) and snr >= 0):
        raise ValueError(f"power budget {snr:g} must be finite and non-negative")


@dataclass(frozen=True)
class PowerAllocation:
    """Nested magnitude windows, one per chain level, strongest first.

    ``levels[k]`` is the (x_min, x_max) magnitude window of level k+1.  The
    windows produced by :func:`allocation` are strictly nested with gaps, so
    a receiver can sort the levels by received magnitude alone.
    """

    snr_budget: float
    levels: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        _check_budget(self.snr_budget)
        for x_min, x_max in self.levels:
            if not (0 < x_min <= x_max):
                raise ValueError(f"level window ({x_min:g}, {x_max:g}) is not ordered")

    @property
    def kappa(self) -> int:
        return len(self.levels)


# typed, so that a bool or a float never finds a cached integer's entry
@functools.lru_cache(maxsize=None, typed=True)
def min_valid_snr(kappa: int) -> float:
    """Smallest budget above which the layered allocation is well ordered.

    The binding constraint sits at the weakest level: with u = log E and
    k = kappa*(kappa+1) it reads exp(u/k) > u.  For kappa = 1 that holds for
    every E > 1, so e is reported as a safe floor; otherwise the threshold is
    the upper root of exp(u/k) = u, found by Newton's method on
    u - k log u = 0.  A pure function of kappa, so it is memoised:
    :func:`allocation` asks for it at every grid point.
    """
    if not (_is_int(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be an integer of at least 1, not {kappa!r}")
    k = float(kappa * (kappa + 1))
    if k < math.e:  # exp(u/k) - u is then positive for every u
        return math.e
    # Newton from u = 2k log k, which lies above the root for every k >= 6;
    # u - k log u is convex and increasing there, so the iterates fall
    # monotonically onto the root
    u = 2.0 * k * math.log(k)
    while True:
        step = (u - k * math.log(u)) / (1.0 - k / u)
        u -= step
        if step <= 4e-16 * u:
            break
    # The root sits on the boundary, where rounding can leave allocation()
    # with an empty weakest window; step 1e-12 relative onto the feasible side.
    return math.exp(u * (1.0 + 1e-12))


def allocation(snr: float, kappa: int) -> PowerAllocation:
    """Layered magnitude windows for a ``kappa``-level scheme at budget ``snr``.

    Level nu spans magnitudes from E^(1/(nu+1)) * log E up to E^(1/nu); the
    log E factor opens a multiplicative guard gap of (log E)^2 in squared
    magnitude between consecutive levels.

    Raises:
        ValueError: ``snr`` is not finite and non-negative.
        AllocationInfeasibleError: below :func:`min_valid_snr`, where the
            weakest window would be empty.  The error carries the threshold.
    """
    _check_budget(snr)
    threshold = min_valid_snr(kappa)
    if snr < threshold:
        raise AllocationInfeasibleError(snr, kappa, threshold)
    log_e = math.log(snr)
    levels = []
    for nu in range(1, kappa + 1):
        x_max = snr ** (1.0 / nu)
        x_min = snr ** (1.0 / (nu + 1)) * log_e
        if not x_min < x_max:
            raise AllocationInfeasibleError(snr, kappa, threshold)
        levels.append((x_min, x_max))
    return PowerAllocation(snr_budget=snr, levels=tuple(levels))


def scalar_mi_lower_bound(
    x_min: float, x_max: float, sigma_h: float, sigma_w: float, e_log_h2: float
) -> float:
    """Rate guarantee (nats) of one scalar fading channel with a log-uniform
    magnitude input on [x_min, x_max].

        log log(x_max^2/x_min^2) + log pi + E[log|H|^2]
            - log(pi e (sigma_h + sigma_w / x_min)^2)

    ``sigma_h`` and ``sigma_w`` are standard deviations of the fading entry
    and of the additive noise.  As sigma_w -> 0 with sigma_h = 1 the last two
    corrections collapse to -1 nat.
    """
    if not 0 < x_min < x_max < math.inf:
        raise ValueError("need 0 < x_min < x_max < inf (degenerate window has no spread)")
    if not (0 < sigma_h < math.inf and 0 <= sigma_w < math.inf):
        raise ValueError("sigma_h must be positive and sigma_w non-negative, both finite")
    if not -math.inf < e_log_h2 < math.inf:
        raise ValueError("e_log_h2 must be finite")
    spread = 2.0 * (math.log(x_max) - math.log(x_min))
    return (
        math.log(spread)
        + _LOG_PI
        + e_log_h2
        - (_LOG_PI_E + 2.0 * math.log(sigma_h + sigma_w / x_min))
    )


def interference_penalty(
    nu: int, alloc: PowerAllocation, frob2: float, eps2: float
) -> float:
    """Rate cost (nats) of decoding level nu without knowing the weaker levels.

    The numerator is the worst-case weaker-level power; the denominator is
    the useful signal floor, scaled by ``eps2``, the conditional variance of
    the witness entry given the interfering entries of the same row.  Zero at
    the weakest level, and shrinking like 1/(log E)^2 as the budget grows.
    """
    if not (_is_int(nu) and 1 <= nu <= alloc.kappa):
        raise ValueError(f"level nu={nu!r} out of range 1..{alloc.kappa}")
    if not 0 < frob2 < math.inf:
        raise ValueError("frob2 must be positive and finite")
    if not 0 < eps2 < math.inf:
        raise ValueError("eps2 must be positive and finite")
    power = _weaker_level_powers(alloc, frob2)[nu - 1]
    return _penalty(power, alloc.levels[nu - 1][0], eps2)


def _penalty(power: float, x_min: float, eps2: float) -> float:
    return math.log1p(power / (1.0 + eps2 * x_min**2))


def _weaker_level_powers(alloc: PowerAllocation, frob2: float) -> list[float]:
    """Per level, the worst-case received power of the weaker levels: each
    at the strongest weaker level's peak through the whole matrix's second
    moment.  One walk from the weakest level up, keeping the running peak;
    0.0 at the weakest level."""
    powers = [0.0] * alloc.kappa
    peak = 0.0
    for nu in range(alloc.kappa - 1, 0, -1):
        peak = max(peak, alloc.levels[nu][1])  # x_max of level nu + 1
        powers[nu - 1] = frob2 * (alloc.kappa - nu) * peak**2
    return powers


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds at one power budget.

    ``per_level_terms`` pairs each level's scalar rate guarantee with its
    interference penalty.  ``upper_bound`` is the converse,
    :meth:`Plan.upper_bound`, in a report from :func:`evaluate`, and None in
    one from :func:`scheme_rate_lower_bound`.  ``sigma_w`` holds each
    level's witness noise deviation: thermal noise plus every weaker level
    at its worst-case power.  ``alloc`` is the allocation the bounds were
    evaluated on.

    Below the feasibility threshold (see :func:`evaluate`) the report is
    infeasible: no allocation, bounds or per-level terms, ``loglog_term``
    still filled when E >= e, and the threshold in ``note``.
    """

    snr: float
    kappa: int
    loglog_term: float | None
    lower_bound: float | None
    upper_bound: float | None
    per_level_terms: tuple[tuple[float, float], ...]
    sigma_w: tuple[float, ...]
    alloc: PowerAllocation | None
    note: str | None = None

    @property
    def feasible(self) -> bool:
        return self.alloc is not None


# eq=False: numpy fields would make the generated == ambiguous
@dataclass(frozen=True, eq=False)
class _ChainLevel:
    """Budget-free law of one chain level's witness output, shared by the
    bounds and the Monte Carlo estimator.

    ``interferers`` are the weaker chain levels (1-based) the witness hears;
    no stronger member reaches a valid chain's witness.  ``mu`` and ``sigma``
    are the means and covariance of the level's entries at the witness, the
    witness entry first and then the interferers', read-only since sweep
    threads share them.  ``eps2`` is the witness entry's variance given the
    interferer entries, ``sigma_h`` its standard deviation and ``e_log_h2``
    its E[log|H|^2].
    """

    nu: int
    transmitter: int
    witness: int
    interferers: tuple[int, ...]
    mu: np.ndarray
    sigma: np.ndarray
    eps2: float
    sigma_h: float
    e_log_h2: float

    def windows(self, alloc: PowerAllocation) -> tuple[tuple[float, float], list[tuple[float, float]]]:
        """The level's own magnitude window under ``alloc``, and those of the
        weaker levels its witness hears."""
        return alloc.levels[self.nu - 1], [alloc.levels[eta - 1] for eta in self.interferers]


def _chain_level(model: FadingModel, chain: PowerChain, nu: int) -> _ChainLevel:
    t, r = chain.transmitters[nu - 1], chain.witnesses[nu - 1]
    masks = model.topo.hearer_masks
    interferers = tuple(
        eta
        for eta in range(nu + 1, len(chain) + 1)
        if masks[chain.transmitters[eta - 1] - 1] >> (r - 1) & 1
    )
    entries = [(r, t)] + [(r, chain.transmitters[eta - 1]) for eta in interferers]
    idx = [model.entry_index(*entry) for entry in entries]
    # take() copies like fancy indexing, at a third of np.ix_'s cost here
    mu, sigma = model.means.take(idx), model.covariance.take(idx, 0).take(idx, 1)
    mu.flags.writeable = sigma.flags.writeable = False
    variance = float(sigma[0, 0].real)
    return _ChainLevel(
        nu=nu,
        transmitter=t,
        witness=r,
        interferers=interferers,
        mu=mu,
        sigma=sigma,
        # conditioning on nothing leaves the variance, the same float
        eps2=model.conditional_variance(entries[0], entries[1:]) if interferers else variance,
        sigma_h=math.sqrt(variance),
        e_log_h2=log_h_squared_mean(mu[0], variance),
    )


def _chain_levels(model: FadingModel, chain: PowerChain) -> tuple[_ChainLevel, ...]:
    return tuple(_chain_level(model, chain, nu) for nu in range(1, len(chain) + 1))


def _loglog_term(kappa: int, snr: float) -> float | None:
    """kappa * log log E, or None below E = e, where log log E is negative."""
    return kappa * math.log(math.log(snr)) if snr >= math.e else None


def _scheme_report(
    levels: Sequence[_ChainLevel], frob2: float, alloc: PowerAllocation, upper: float | None
) -> BoundReport:
    terms = []
    sigma_w = []
    powers = _weaker_level_powers(alloc, frob2)
    for nu, level in enumerate(levels, start=1):
        (x_min, x_max), power = alloc.levels[nu - 1], powers[nu - 1]
        # the witness's noise: thermal plus every weaker level at worst case
        sigma_w.append(math.sqrt(1.0 + power))
        term = scalar_mi_lower_bound(x_min, x_max, level.sigma_h, sigma_w[-1], level.e_log_h2)
        terms.append((term, _penalty(power, x_min, level.eps2)))
    snr, kappa = alloc.snr_budget, alloc.kappa
    return BoundReport(
        snr=snr,
        kappa=kappa,
        loglog_term=_loglog_term(kappa, snr),
        lower_bound=float(sum(term for term, _ in terms)),
        upper_bound=upper,
        per_level_terms=tuple(terms),
        sigma_w=tuple(sigma_w),
        alloc=alloc,
    )


def scheme_rate_lower_bound(model: FadingModel, chain: PowerChain, snr: float) -> BoundReport:
    """Total rate guarantee of the layered scheme riding the given chain of
    the model's topology.

    Each chain member transmits one level of the allocation and is decoded by
    its witness receiver alone, with every weaker level treated as noise at
    its worst-case variance.  The report sums the per-level guarantees; the
    interference penalties are reported alongside, not subtracted, since the
    guarantee already prices interference into its noise term.
    """
    validate_chain(model.topo, chain)
    if len(chain) == 0:
        raise ValueError("chain must have at least one member")
    alloc = allocation(snr, len(chain))
    return _scheme_report(_chain_levels(model, chain), model.frob_second_moment, alloc, None)


def alpha_penalty(alpha: float) -> float:
    """log Gamma(alpha) - alpha log alpha, the free part of the duality bound."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return math.lgamma(alpha) - alpha * math.log(alpha)


def duality_upper_bound(model: FadingModel, snr: float) -> float:
    """Upper bound (nats) on the information the whole network can convey at
    budget ``snr``, by the duality method of Lapidoth & Moser (IEEE Trans.
    IT 49(10), 2003).

    Needs a dominant transmitter heard by every receiver; the smallest such
    one is taken, and the transmitted vector is assumed to peak on it.  The
    bound is built from an output-distribution family whose tuning parameter
    is optimised in closed form; the supremum over the dominant magnitude is
    also closed form, attained where the two conditional-entropy floors
    cross.  On a full network this is :func:`plan`'s one phase.
    """
    _check_budget(snr)
    topo = model.topo
    if not topo.is_pruned:
        raise ValueError("duality bound requires a pruned topology")
    every = (1 << topo.n_r) - 1
    fully_heard = [t for t, mask in enumerate(topo.hearer_masks, start=1) if mask == every]
    if not fully_heard:
        raise ValueError("no transmitter is heard by every receiver")
    rx, tx = list(range(1, topo.n_r + 1)), list(range(1, topo.n_t + 1))
    return _duality_phase(model, rx, tx, fully_heard[0]).upper_bound(snr)


@dataclass(frozen=True)
class _Phase:
    """The duality bound of one block (:func:`_duality_phase`), less its
    budget-dependent alpha term: ``head`` is n_r log pi - log Gamma(n_r) +
    sup + 1."""

    head: float
    log_frob2: float
    log_nr: float
    digamma_nr: float

    def upper_bound(self, snr: float) -> float:
        if snr == 0:
            log_energy = self.log_nr
        else:
            log_energy = _logaddexp(self.log_frob2 + math.log(snr), self.log_nr)
        delta = 1.0 + log_energy - self.digamma_nr
        return self.head + alpha_penalty(1.0 / delta)


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) for finite floats, by numpy's ``logaddexp``
    formula and to its last bit, without a ufunc call."""
    if x == y:
        return x + _LOG_2
    if x > y:
        return x + math.log1p(math.exp(y - x))
    return y + math.log1p(math.exp(x - y))


def _digamma_int(n: int) -> float:
    """digamma(n) for an integer n >= 1: the harmonic number H_{n-1} minus
    the Euler-Mascheroni constant."""
    return math.fsum(1.0 / j for j in range(1, n)) - float(np.euler_gamma)


def _duality_phase(model: FadingModel, rx: list[int], tx: list[int], t_star: int) -> _Phase:
    """The duality bound on block rx x tx, led by t_star, which every r in rx hears."""
    n_r = len(rx)
    n_t = len(tx)
    masks = model.topo.hearer_masks
    block_entries = [(r, t) for r in rx for t in tx if masks[t - 1] >> (r - 1) & 1]
    frob2 = sum(
        abs(model.entry_mean(r, t)) ** 2 + model.entry_variance(r, t)
        for r, t in block_entries
    )
    targets = [(r, t_star) for r in rx]
    given = [(r, t) for r, t in block_entries if t != t_star]
    cond = model.conditional_covariance(targets, given)
    try:
        chol = np.linalg.cholesky(cond)
    except np.linalg.LinAlgError as exc:
        raise ValueError("conditional covariance of the dominant column is singular") from exc
    logdet = 2.0 * float(np.sum(np.log(np.real(np.diagonal(chol)))))
    h_cond = n_r * _LOG_PI_E + logdet

    log_a = math.log(frob2 * n_t)
    log_nr = math.log(n_r)

    # The supremum over log rho of the output-energy growth
    # n_r logaddexp(log_a + log_rho, log n_r) minus the larger of the two
    # conditional-entropy floors n_r log(pi e) and n_r log_rho + h_cond.
    # Below the crossing rho0 the floor is constant and the growth rises;
    # above it the difference is n_r logaddexp(log_a, log n_r - log_rho) -
    # h_cond, which falls.  So the supremum is attained at rho0.
    rho0 = _LOG_PI_E - h_cond / n_r
    sup_term = n_r * _logaddexp(log_a + rho0, log_nr) - n_r * _LOG_PI_E
    return _Phase(
        head=n_r * _LOG_PI - math.lgamma(n_r) + sup_term + 1.0,
        log_frob2=math.log(frob2),
        log_nr=log_nr,
        digamma_nr=_digamma_int(n_r),
    )


@dataclass(frozen=True)
class Plan:
    """Everything the bounds of one network need that does not depend on the
    budget: the longest chain, each chain level's witness law (one
    ``_ChainLevel`` per level, which a sweep's estimator reads too), and
    the converse's per-phase constants, cross-block MIs and log n_t!.

    Built once by :func:`plan`; :func:`evaluate` adds the budget-dependent
    half at each grid point.
    """

    chain: PowerChain
    frob2: float
    levels: tuple[_ChainLevel, ...]
    phases: tuple[_Phase, ...]
    cross_block_mi: tuple[float, ...]
    log_permutation_count: float

    @property
    def kappa_star(self) -> int:
        return len(self.chain)

    def upper_bound(self, snr: float) -> float:
        """Converse upper envelope (nats) at budget ``snr``, for the identity
        ordering of the network, at every finite budget including E = 0.

        Each phase of :func:`plan`'s decomposition is bounded by the
        duality bound of :func:`_duality_phase` on its block, led by its
        chain member, the cross-phase coupling adds block
        mutual informations, and the receiver's freedom to re-sort the
        transmitters costs at most log n_t!.  The headline shape is
        kappa_star * log(1 + log(1 + E)) plus everything else folded into a
        bounded constant.
        """
        _check_budget(snr)
        loglog = math.log1p(math.log1p(snr))
        constant = (
            sum(phase.upper_bound(snr) - loglog for phase in self.phases)
            + sum(self.cross_block_mi)
            + self.log_permutation_count
        )
        return self.kappa_star * loglog + constant


def plan(model: FadingModel) -> Plan:
    """The budget-free half of both bounds on the model's topology, from one
    :func:`longest_chain` call.

    The converse decomposes along the identity ordering: phase nu is the
    duality bound of :func:`_duality_phase` on the block of its receiver
    group against all not-yet-decoded transmitters, and the cross-phase
    coupling of the fading matrix is priced by block mutual informations.
    """
    topo = model.topo
    if not topo.is_pruned:
        raise ValueError("plan requires a pruned topology")
    decomp = decompose(topo, tuple(range(1, topo.n_t + 1)))
    _, chain = longest_chain(topo)
    masks = topo.hearer_masks

    phases = []
    cross_terms = []
    for k in range(decomp.kappa):
        rx = sorted(decomp.receiver_blocks[k])
        tx = sorted(set().union(*decomp.transmitter_blocks[k:]))
        # chain member k hears its whole receiver block by construction
        phases.append(_duality_phase(model, rx, tx, decomp.chain.transmitters[k]))
        if k < decomp.kappa - 1:
            later_rx = set().union(*decomp.receiver_blocks[k + 1 :])
            a = [(r, t) for r in rx for t in tx if masks[t - 1] >> (r - 1) & 1]
            b = [(r, t) for r in sorted(later_rx) for t in tx if masks[t - 1] >> (r - 1) & 1]
            cross_terms.append(block_mutual_information(model, a, b))
    return Plan(
        chain=chain,
        frob2=model.frob_second_moment,
        levels=_chain_levels(model, chain),
        phases=tuple(phases),
        cross_block_mi=tuple(cross_terms),
        log_permutation_count=math.lgamma(topo.n_t + 1),
    )


def evaluate(plan: Plan, snr: float) -> BoundReport:
    """Both bounds at budget ``snr``: :func:`scheme_rate_lower_bound` along the
    plan's chain, with :meth:`Plan.upper_bound` as ``upper_bound``.

    Defined for every finite budget E >= 0: below :func:`min_valid_snr` of
    kappa* the layered scheme does not exist, and the report comes back
    infeasible with the threshold in its ``note``.
    """
    try:
        alloc = allocation(snr, plan.kappa_star)
    except AllocationInfeasibleError as exc:
        return BoundReport(
            snr=snr,
            kappa=plan.kappa_star,
            loglog_term=_loglog_term(plan.kappa_star, snr),
            lower_bound=None,
            upper_bound=None,
            per_level_terms=(),
            sigma_w=(),
            alloc=None,
            note=f"below feasibility threshold {exc.threshold:.6g}",
        )
    return _scheme_report(plan.levels, plan.frob2, alloc, plan.upper_bound(snr))
