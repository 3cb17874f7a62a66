"""Oracles only the tests use: independent re-derivations of quantities the
package computes or relies on, kept out of ``src``."""

import math

import numpy as np

from fadenet.bounds import PowerAllocation
from fadenet.fading import FadingModel, _standard_complex
from fadenet.powerchain import SizeGuardError
from fadenet.topology import Topology


def log_h_squared_mean_mc(
    mean: complex, variance: float, n_samples: int = 10**6, seed=0
) -> tuple[float, float]:
    """Monte Carlo E[log |H|^2] with its standard error; an independent
    sampling check on the exponential-integral identity of
    :func:`fadenet.fading.log_h_squared_mean`."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    rng = np.random.default_rng(seed)
    h = complex(mean) + math.sqrt(variance) * _standard_complex(rng, n_samples)
    values = np.log(np.abs(h) ** 2)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_samples))


def separation_ratios(alloc: PowerAllocation) -> tuple[float, ...]:
    """Per level, x_min^2 over the largest x_max^2 of the weaker levels."""
    out = []
    for k in range(alloc.kappa - 1):
        x_min = alloc.levels[k][0]
        strongest_below = max(x_max for _, x_max in alloc.levels[k + 1 :])
        out.append((x_min / strongest_below) ** 2)
    return tuple(out)


def weaker_level_power(alloc: PowerAllocation, nu: int, frob2: float) -> float:
    """Worst-case received power of the levels weaker than ``nu`` (1-based),
    from their slice alone: frob2 times their count times the square of
    their largest x_max, and 0.0 at the weakest level."""
    weaker = alloc.levels[nu:]
    if not weaker:
        return 0.0
    return frob2 * len(weaker) * max(x_max for _, x_max in weaker) ** 2


def log_spread(alloc: PowerAllocation, nu: int) -> float:
    """log(x_max^2 / x_min^2) of level ``nu`` (1-based), overflow-safe."""
    x_min, x_max = alloc.levels[nu - 1]
    return 2.0 * (math.log(x_max) - math.log(x_min))


def dense_conditional_covariance(model: FadingModel, targets, given) -> np.ndarray:
    """Schur complement of the given entries over the whole covariance,
    blind to its independent blocks; the oracle for
    :meth:`fadenet.fading.FadingModel.conditional_covariance`."""
    t_idx = [model.entry_index(r, t) for r, t in targets]
    g_idx = [model.entry_index(r, t) for r, t in given]
    cov = model.covariance
    s_tt = cov[np.ix_(t_idx, t_idx)]
    if not g_idx:
        return s_tt
    s_tg = cov[np.ix_(t_idx, g_idx)]
    s_gg = cov[np.ix_(g_idx, g_idx)]
    return s_tt - s_tg @ np.linalg.solve(s_gg, s_tg.conj().T)


def dense_covariance(model: FadingModel, entries) -> np.ndarray:
    """The covariance of the given entries, read from the whole matrix."""
    idx = [model.entry_index(r, t) for r, t in entries]
    return model.covariance[np.ix_(idx, idx)]


def dense_mutual_information(model: FadingModel, entries_a, entries_b) -> float:
    """log det of the two marginal covariances minus log det of the joint
    one, each over every entry of its group; the oracle for
    :func:`fadenet.fading.block_mutual_information`."""
    a, b = list(entries_a), list(entries_b)
    if not a or not b:
        return 0.0
    _, logdet_a = np.linalg.slogdet(dense_covariance(model, a))
    _, logdet_b = np.linalg.slogdet(dense_covariance(model, b))
    _, logdet_ab = np.linalg.slogdet(dense_covariance(model, a + b))
    return float(logdet_a + logdet_b - logdet_ab)


def generate_from_zeros(kind: str, *params, seed=None) -> Topology:
    """The standard families built from their zero pairs through the public
    constructor, and ``random`` pruned pair by pair; the oracle for
    :func:`fadenet.topology.generate`, which builds hearer masks."""
    if kind == "full":
        n_t, n_r = params
        return Topology(n_t=n_t, n_r=n_r)
    if kind == "diagonal":
        (n,) = params
        zeros = {(r, t) for t in range(1, n + 1) for r in range(1, n + 1) if r != t}
        return Topology(n_t=n, n_r=n, zeros=frozenset(zeros))
    if kind == "wyner_linear":
        (n,) = params
        zeros = {(r, t) for t in range(1, n + 1) for r in range(1, n + 2) if r not in (t, t + 1)}
        return Topology(n_t=n, n_r=n + 1, zeros=frozenset(zeros))
    if kind == "wyner_cyclic":
        (n,) = params
        zeros = {
            (r, t) for t in range(1, n + 1) for r in range(1, n + 1) if r not in (t, (t % n) + 1)
        }
        return Topology(n_t=n, n_r=n, zeros=frozenset(zeros))
    if kind == "random":
        n_t, n_r, p = params
        mask = np.random.default_rng(seed).random((n_r, n_t)) < p
        zeros = {(int(r) + 1, int(t) + 1) for r, t in zip(*np.nonzero(mask))}
        return prune_pairs(Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros)))
    raise ValueError(f"unknown topology kind {kind!r}")


def prune_pairs(topo: Topology) -> Topology:
    """Silent transmitters and deaf receivers dropped by relabelling the
    zero pairs of the survivors; the oracle for
    :func:`fadenet.topology.prune`, which works on the masks."""
    heard = 0
    for mask in topo.hearer_masks:
        heard |= mask
    kept_t = [t for t, mask in enumerate(topo.hearer_masks, start=1) if mask]
    kept_r = [r for r in range(1, topo.n_r + 1) if heard >> (r - 1) & 1]
    t_new = {t: i for i, t in enumerate(kept_t, start=1)}
    r_new = {r: i for i, r in enumerate(kept_r, start=1)}
    zeros = {(r_new[r], t_new[t]) for r, t in topo.zeros if r in r_new and t in t_new}
    return Topology(n_t=len(kept_t), n_r=len(kept_r), zeros=frozenset(zeros))


def brute_force_kappa(topo: Topology, *, max_transmitters: int = 7) -> int:
    """Longest-chain length by exhaustive enumeration of ordered tuples; the
    oracle for :func:`fadenet.powerchain.longest_chain`.  Factorial in n_t,
    hence the guard."""
    if topo.is_empty:
        raise ValueError("brute_force_kappa needs a non-empty topology")
    if topo.n_t > max_transmitters:
        raise SizeGuardError(
            f"{topo.n_t} transmitters exceeds the enumeration guard of {max_transmitters}"
        )
    masks = topo.hearer_masks

    def extend(used: int, covered: int) -> int:
        length = 0
        for i, mask in enumerate(masks):
            if used & (1 << i) or not mask & ~covered:
                continue
            length = max(length, 1 + extend(used | (1 << i), covered | mask))
        return length

    return extend(0, 0)
