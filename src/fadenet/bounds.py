"""Analytic capacity bounds for non-coherent fading networks.

The achievable side layers one log-uniform power level per chain member and
lower-bounds each level's rate with a scalar formula whose only channel
inputs are the witness entry's statistics and a pessimistic interference
variance.  The converse side upper-bounds each decomposition phase with a
duality argument whose dominant term is log log of the power budget.  Both
sides are exact finite-SNR formulas, in nats, so they can be compared point
by point against Monte Carlo estimates.

Only the allocation windows and the duality bound's alpha term depend on the
budget.  :func:`plan` computes everything else once per network, and
:func:`evaluate` adds the budget-dependent half at one grid point.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fading import FadingModel, block_mutual_information, log_h_squared_mean
from .powerchain import PowerChain, decompose, longest_chain, validate_chain

__all__ = [
    "AllocationInfeasibleError",
    "PowerAllocation",
    "BoundReport",
    "min_valid_snr",
    "allocation",
    "effective_noise_variance",
    "scalar_mi_lower_bound",
    "interference_penalty",
    "scheme_rate_lower_bound",
    "alpha_penalty",
    "duality_upper_bound",
    "converse_envelope",
    "converse_envelope_report",
    "Plan",
    "plan",
    "evaluate",
]

_LOG_PI = math.log(math.pi)
_LOG_PI_E = math.log(math.pi) + 1.0


class AllocationInfeasibleError(ValueError):
    """Raised when the power budget is below the layered-scheme threshold."""

    def __init__(self, snr: float, kappa: int, threshold: float):
        super().__init__(
            f"budget {snr:g} below the {kappa}-level feasibility threshold {threshold:g}"
        )
        self.snr = snr
        self.kappa = kappa
        self.threshold = threshold


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
        if self.snr_budget < 0:
            raise ValueError("power budget must be non-negative")
        for x_min, x_max in self.levels:
            if not (0 < x_min <= x_max):
                raise ValueError(f"level window ({x_min:g}, {x_max:g}) is not ordered")

    @property
    def kappa(self) -> int:
        return len(self.levels)

    def separation_ratios(self) -> tuple[float, ...]:
        """Per level, x_min^2 over the largest x_max^2 of the weaker levels."""
        out = []
        for k in range(self.kappa - 1):
            x_min = self.levels[k][0]
            strongest_below = max(x_max for _, x_max in self.levels[k + 1 :])
            out.append((x_min / strongest_below) ** 2)
        return tuple(out)

    def log_spread(self, nu: int) -> float:
        """log(x_max^2 / x_min^2) of level ``nu`` (1-based), overflow-safe."""
        x_min, x_max = self.levels[nu - 1]
        return 2.0 * (math.log(x_max) - math.log(x_min))


def min_valid_snr(kappa: int) -> float:
    """Smallest budget above which the layered allocation is well ordered.

    The binding constraint sits at the weakest level: with u = log E and
    k = kappa*(kappa+1) it reads exp(u/k) > u.  For kappa = 1 that holds for
    every E > 1, so e is reported as a safe floor; otherwise the threshold is
    the upper root of exp(u/k) = u, found by Newton's method on
    u - k log u = 0.
    """
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
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
        AllocationInfeasibleError: below :func:`min_valid_snr`, where the
            weakest window would be empty.  The error carries the threshold.
    """
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


def effective_noise_variance(nu: int, alloc: PowerAllocation, frob2: float) -> float:
    """Worst-case variance of noise plus weaker-level interference at level nu.

    Uses the budget of every weaker level at full strength and the whole
    matrix's second moment, so it is valid for any topology; the weakest
    level sees thermal noise only.
    """
    _check_level(nu, alloc)
    if frob2 <= 0:
        raise ValueError("frob2 must be positive")
    return 1.0 + _weaker_level_power(nu, alloc, frob2)


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
    if not 0 < x_min < x_max:
        raise ValueError("need 0 < x_min < x_max (degenerate window has no spread)")
    if sigma_h <= 0 or sigma_w < 0:
        raise ValueError("sigma_h must be positive and sigma_w non-negative")
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
    _check_level(nu, alloc)
    if eps2 <= 0:
        raise ValueError("eps2 must be positive")
    x_min = alloc.levels[nu - 1][0]
    return math.log1p(_weaker_level_power(nu, alloc, frob2) / (1.0 + eps2 * x_min**2))


def _check_level(nu: int, alloc: PowerAllocation) -> None:
    if not 1 <= nu <= alloc.kappa:
        raise ValueError(f"level {nu} out of range 1..{alloc.kappa}")


def _weaker_level_power(nu: int, alloc: PowerAllocation, frob2: float) -> float:
    """Worst-case received power of the levels weaker than nu: each at the
    strongest weaker level's peak through the whole matrix's second moment.
    0.0 at the weakest level."""
    weaker = alloc.levels[nu:]
    if not weaker:
        return 0.0
    return frob2 * len(weaker) * max(x_max for _, x_max in weaker) ** 2


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds at one power budget.

    ``per_level_terms`` pairs each level's scalar rate guarantee with its
    interference penalty.  ``upper_bound`` is None until a converse value is
    attached.  ``constants`` keeps the raw ingredients for inspection.
    ``alloc`` is the allocation the bounds were evaluated on;
    :meth:`to_json_dict` leaves it out.

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
    constants: dict
    alloc: PowerAllocation | None
    note: str | None = None

    @property
    def feasible(self) -> bool:
        return self.alloc is not None

    def to_json_dict(self) -> dict:
        head = {
            "snr": self.snr,
            "kappa": self.kappa,
            "loglog_term": self.loglog_term,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
        }
        if not self.feasible:
            return {**head, "feasible": False, "note": self.note}
        return {
            **head,
            "per_level_terms": [list(pair) for pair in self.per_level_terms],
            "constants": self.constants,
            "feasible": True,
        }


@dataclass(frozen=True)
class _ChainLevel:
    """Budget-free statistics of one chain level's witness entry.

    ``interferers`` are the weaker chain levels (1-based) the witness hears,
    and ``interferer_entries`` their fading entries at the witness; no
    stronger member reaches a valid chain's witness.  ``eps2`` is the witness
    entry's variance given those entries.
    """

    transmitter: int
    witness: int
    sigma_h: float
    e_log_h2: float
    eps2: float
    interferers: tuple[int, ...]
    interferer_entries: tuple[tuple[int, int], ...]


def _chain_level(model: FadingModel, chain: PowerChain, nu: int) -> _ChainLevel:
    t, r = chain.transmitters[nu - 1], chain.witnesses[nu - 1]
    interferers = tuple(
        eta
        for eta in range(nu + 1, len(chain) + 1)
        if (r, chain.transmitters[eta - 1]) not in model.topo.zeros
    )
    entries = tuple((r, chain.transmitters[eta - 1]) for eta in interferers)
    mean = model.entry_mean(r, t)
    variance = model.entry_variance(r, t)
    return _ChainLevel(
        transmitter=t,
        witness=r,
        sigma_h=math.sqrt(variance),
        e_log_h2=log_h_squared_mean(mean, variance),
        eps2=model.conditional_variance((r, t), entries),
        interferers=interferers,
        interferer_entries=entries,
    )


def _chain_levels(model: FadingModel, chain: PowerChain) -> tuple[_ChainLevel, ...]:
    return tuple(_chain_level(model, chain, nu) for nu in range(1, len(chain) + 1))


def _loglog_term(kappa: int, snr: float) -> float | None:
    """kappa * log log E, or None below E = e, where log log E is negative."""
    return kappa * math.log(math.log(snr)) if snr >= math.e else None


def _scheme_report(
    levels: Sequence[_ChainLevel], frob2: float, alloc: PowerAllocation
) -> BoundReport:
    terms = []
    level_details = []
    for nu, level in enumerate(levels, start=1):
        x_min, x_max = alloc.levels[nu - 1]
        sigma_w = math.sqrt(effective_noise_variance(nu, alloc, frob2))
        term = scalar_mi_lower_bound(x_min, x_max, level.sigma_h, sigma_w, level.e_log_h2)
        penalty = interference_penalty(nu, alloc, frob2, level.eps2)
        terms.append((term, penalty))
        level_details.append(
            {
                "level": nu,
                "transmitter": level.transmitter,
                "witness": level.witness,
                "x_min": x_min,
                "x_max": x_max,
                "sigma_h": level.sigma_h,
                "sigma_w": sigma_w,
                "e_log_h2": level.e_log_h2,
                "eps2": level.eps2,
                "rate_term": term,
                "interference_penalty": penalty,
            }
        )
    snr, kappa = alloc.snr_budget, alloc.kappa
    return BoundReport(
        snr=snr,
        kappa=kappa,
        loglog_term=_loglog_term(kappa, snr),
        lower_bound=float(sum(term for term, _ in terms)),
        upper_bound=None,
        per_level_terms=tuple(terms),
        constants={"frob_second_moment": frob2, "levels": level_details},
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
    return _scheme_report(_chain_levels(model, chain), model.frob_second_moment, alloc)


def alpha_penalty(alpha: float) -> float:
    """log Gamma(alpha) - alpha log alpha, the free part of the duality bound."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return math.lgamma(alpha) - alpha * math.log(alpha)


def duality_upper_bound(
    model: FadingModel,
    snr: float,
    *,
    t_star: int | None = None,
    receivers: Sequence[int] | None = None,
    transmitters: Sequence[int] | None = None,
) -> float:
    """Upper bound (nats) on the information one block can convey at budget ``snr``.

    Applies to a block with a dominant transmitter heard by every receiver in
    it; the transmitted vector is assumed to peak on that transmitter.  The
    bound is built from an output-distribution family whose tuning parameter
    is optimised in closed form; the supremum over the dominant magnitude is
    also closed form, attained where the two conditional-entropy floors
    cross.

    Defaults cover the model's whole topology; pass ``receivers``/
    ``transmitters`` to restrict to a sub-block and ``t_star`` to pin the
    dominant transmitter (otherwise the smallest fully heard one is chosen).
    """
    topo = model.topo
    if snr < 0:
        raise ValueError("power budget must be non-negative")
    if not topo.is_pruned:
        raise ValueError("duality bound requires a pruned topology")
    rx = sorted(set(receivers)) if receivers is not None else list(range(1, topo.n_r + 1))
    tx = sorted(set(transmitters)) if transmitters is not None else list(range(1, topo.n_t + 1))
    if not rx or not tx:
        raise ValueError("block needs at least one receiver and transmitter")
    for r in rx:
        topo._check_receiver(r)
    for t in tx:
        topo._check_transmitter(t)
    if t_star is None:
        fully_heard = [t for t in tx if all((r, t) not in topo.zeros for r in rx)]
        if not fully_heard:
            raise ValueError("no transmitter in the block is heard by every receiver")
        t_star = fully_heard[0]
    else:
        if t_star not in tx:
            raise ValueError(f"t_star {t_star} is not in the block")
        if any((r, t_star) in topo.zeros for r in rx):
            raise ValueError(f"t_star {t_star} is not heard by every receiver in the block")

    return _duality_phase(model, rx, tx, t_star).upper_bound(snr)


@dataclass(frozen=True)
class _Phase:
    """:func:`duality_upper_bound` on one block, less its budget-dependent
    alpha term: ``head`` is n_r log pi - log Gamma(n_r) + sup + 1."""

    head: float
    log_frob2: float
    log_nr: float
    digamma_nr: float

    def upper_bound(self, snr: float) -> float:
        if snr == 0:
            log_energy = self.log_nr
        else:
            log_energy = float(np.logaddexp(self.log_frob2 + math.log(snr), self.log_nr))
        delta = 1.0 + log_energy - self.digamma_nr
        return self.head + alpha_penalty(1.0 / delta)


def _digamma_int(n: int) -> float:
    """digamma(n) for an integer n >= 1: the harmonic number H_{n-1} minus
    the Euler-Mascheroni constant."""
    return math.fsum(1.0 / j for j in range(1, n)) - float(np.euler_gamma)


def _duality_phase(model: FadingModel, rx: list[int], tx: list[int], t_star: int) -> _Phase:
    n_r = len(rx)
    n_t = len(tx)
    block_entries = [(r, t) for r in rx for t in tx if (r, t) not in model.topo.zeros]
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
    sup_term = n_r * float(np.logaddexp(log_a + rho0, log_nr)) - n_r * _LOG_PI_E
    return _Phase(
        head=n_r * _LOG_PI - math.lgamma(n_r) + sup_term + 1.0,
        log_frob2=math.log(frob2),
        log_nr=log_nr,
        digamma_nr=_digamma_int(n_r),
    )


@dataclass(frozen=True)
class Plan:
    """Everything the bounds of one network need that does not depend on the
    budget: the longest chain, each chain level's witness statistics, and
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


def plan(model: FadingModel) -> Plan:
    """The budget-free half of both bounds on the model's topology, from one
    :func:`longest_chain` call.

    The converse decomposes along the identity ordering: phase nu is the
    duality bound on the block of its receiver group against all
    not-yet-decoded transmitters, and the cross-phase coupling of the fading
    matrix is priced by block mutual informations.
    """
    topo = model.topo
    if not topo.is_pruned:
        raise ValueError("converse envelope requires a pruned topology")
    decomp = decompose(topo, tuple(range(1, topo.n_t + 1)))
    _, chain = longest_chain(topo)

    phases = []
    cross_terms = []
    for k in range(decomp.kappa):
        rx = sorted(decomp.receiver_blocks[k])
        tx = sorted(set().union(*decomp.transmitter_blocks[k:]))
        # chain member k hears its whole receiver block by construction
        phases.append(_duality_phase(model, rx, tx, decomp.chain.transmitters[k]))
        if k < decomp.kappa - 1:
            later_rx = set().union(*decomp.receiver_blocks[k + 1 :])
            a = [(r, t) for r in rx for t in tx if (r, t) not in topo.zeros]
            b = [(r, t) for r in sorted(later_rx) for t in tx if (r, t) not in topo.zeros]
            cross_terms.append(block_mutual_information(model, a, b))
    return Plan(
        chain=chain,
        frob2=model.frob_second_moment,
        levels=_chain_levels(model, chain),
        phases=tuple(phases),
        cross_block_mi=tuple(cross_terms),
        log_permutation_count=math.lgamma(topo.n_t + 1),
    )


def _converse_report(plan: Plan, snr: float) -> dict:
    loglog = math.log1p(math.log1p(snr))
    per_phase = [phase.upper_bound(snr) for phase in plan.phases]
    constant = (
        sum(u - loglog for u in per_phase) + sum(plan.cross_block_mi) + plan.log_permutation_count
    )
    return {
        "snr": snr,
        "kappa_star": plan.kappa_star,
        "loglog_term": plan.kappa_star * loglog,
        "constant": constant,
        "per_phase_upper": per_phase,
        "cross_block_mi": list(plan.cross_block_mi),
        "log_permutation_count": plan.log_permutation_count,
        "value": plan.kappa_star * loglog + constant,
    }


def converse_envelope_report(model: FadingModel, snr: float) -> dict:
    """Converse upper envelope with its breakdown, for the identity ordering
    of the model's topology.

    Each phase of :func:`plan`'s decomposition is bounded by
    :func:`duality_upper_bound`, the cross-phase coupling adds block mutual
    informations, and the receiver's freedom to re-sort the transmitters
    costs at most log n_t!.  The headline shape is
    kappa_star * log(1 + log(1 + E)) plus everything else folded into a
    bounded constant.
    """
    return _converse_report(plan(model), snr)


def converse_envelope(model: FadingModel, snr: float) -> float:
    """Converse upper envelope (nats); see :func:`converse_envelope_report`."""
    return float(converse_envelope_report(model, snr)["value"])


def evaluate(plan: Plan, snr: float) -> BoundReport:
    """Both bounds at budget ``snr``: :func:`scheme_rate_lower_bound` along the
    plan's chain, with :func:`converse_envelope` as ``upper_bound``.

    Defined for every budget: below :func:`min_valid_snr` of kappa* the
    layered scheme does not exist, and the report comes back infeasible with
    the threshold in its ``note``.
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
            constants={},
            alloc=None,
            note=f"below feasibility threshold {exc.threshold:.6g}",
        )
    report = _scheme_report(plan.levels, plan.frob2, alloc)
    return dataclasses.replace(report, upper_bound=_converse_report(plan, snr)["value"])
