"""Power chains: ordered transmitter tuples in which every member reaches a
receiver that none of its predecessors reach.

The length of the longest such chain is the pre-log factor of the double-log
capacity growth of a non-coherent fading network, so everything downstream
(allocations, bounds, sweeps) starts here.  Chains are found exactly by a
dynamic program over covered-receiver subsets; a brute-force enumerator is
kept alongside as an independent oracle for small networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from .topology import Topology

__all__ = [
    "SizeGuardError",
    "PowerChain",
    "ChainDecomposition",
    "validate_chain",
    "is_power_chain",
    "longest_chain",
    "decompose",
]


class SizeGuardError(RuntimeError):
    """Raised when an exact algorithm would exceed its configured size guard."""


@dataclass(frozen=True)
class PowerChain:
    """An ordered chain of transmitters with one witness receiver per member.

    Witness ``witnesses[k]`` hears ``transmitters[k]`` but none of the earlier
    chain members, which is what makes the chain useful: each witness can be
    pointed at one power level of a layered transmission scheme.
    """

    transmitters: tuple[int, ...]
    witnesses: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.transmitters) != len(self.witnesses):
            raise ValueError("chain needs exactly one witness per transmitter")

    def __len__(self) -> int:
        return len(self.transmitters)


def validate_chain(topo: Topology, chain: PowerChain) -> None:
    """Check chain conditions and witness admissibility against a topology."""
    if not is_power_chain(topo, chain.transmitters):
        raise ValueError(f"{chain.transmitters} is not a power chain of the topology")
    covered: set[int] = set()
    for t, r in zip(chain.transmitters, chain.witnesses):
        fresh = topo.hearers(t) - covered
        if r not in fresh:
            raise ValueError(f"witness {r} for transmitter {t} is not newly reached")
        covered |= topo.hearers(t)


def is_power_chain(topo: Topology, transmitters: Sequence[int]) -> bool:
    """True when every transmitter in the tuple reaches a receiver missed by
    all of its predecessors.  The empty tuple is trivially a chain.

    Raises on duplicate or out-of-range transmitter indices.
    """
    seen: set[int] = set()
    for t in transmitters:
        topo._check_transmitter(t)
        if t in seen:
            raise ValueError(f"duplicate transmitter {t} in chain tuple")
        seen.add(t)
    masks = topo.hearer_masks
    covered = 0
    for t in transmitters:
        if not masks[t - 1] & ~covered:
            return False
        covered |= masks[t - 1]
    return True


def longest_chain(topo: Topology, *, max_receivers: int = 24) -> tuple[int, PowerChain]:
    """Exact longest power chain via dynamic programming over receiver subsets.

    Whether a tuple can be extended depends only on the union of hearer sets
    covered so far, so memoising on that subset explores each reachable
    coverage state once.  Reconstruction prefers the smallest transmitter
    index at every step and picks the smallest newly reached receiver as the
    witness.

    Args:
        topo: the network; unheard transmitters simply never join a chain.
        max_receivers: guard on the 2**n_r state space; raise it explicitly
            for larger exact runs.

    Returns:
        ``(kappa_star, chain)`` with ``len(chain) == kappa_star``.
    """
    if topo.is_empty:
        raise ValueError("longest_chain needs a non-empty topology")
    if topo.n_r > max_receivers:
        raise SizeGuardError(
            f"{topo.n_r} receivers exceeds the exact-search guard of {max_receivers}"
        )
    masks = topo.hearer_masks
    memo: dict[int, int] = {}

    def best(covered: int) -> int:
        cached = memo.get(covered)
        if cached is not None:
            return cached
        value = 0
        for mask in masks:
            if mask & ~covered:
                value = max(value, 1 + best(covered | mask))
        memo[covered] = value
        return value

    kappa_star = best(0)
    transmitters: list[int] = []
    witnesses: list[int] = []
    covered = 0
    while best(covered) > 0:
        for t, mask in enumerate(masks, start=1):
            fresh = mask & ~covered
            if fresh and 1 + best(covered | mask) == best(covered):
                transmitters.append(t)
                witnesses.append((fresh & -fresh).bit_length())
                covered |= mask
                break
    chain = PowerChain(tuple(transmitters), tuple(witnesses))
    return kappa_star, chain


def brute_force_kappa(topo: Topology, *, max_transmitters: int = 7) -> int:
    """Longest-chain length by exhaustive enumeration of ordered tuples.

    Independent oracle for :func:`longest_chain`; factorial in n_t, hence the
    guard.
    """
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


@dataclass(frozen=True)
class ChainDecomposition:
    """Chain and block structure carved out of a transmitter ordering.

    ``chain_positions`` are 1-based positions into ``permutation`` of the
    transmitters kept for the chain.  ``receiver_blocks[k]`` holds the
    receivers first reached by chain member k (they partition the receivers);
    ``transmitter_blocks[k]`` holds the slice of the ordering led by chain
    member k (they partition the transmitters).
    """

    permutation: tuple[int, ...]
    chain_positions: tuple[int, ...]
    chain: PowerChain
    receiver_blocks: tuple[frozenset[int], ...]
    transmitter_blocks: tuple[frozenset[int], ...]

    @property
    def kappa(self) -> int:
        return len(self.chain)


def decompose(topo: Topology, permutation: Sequence[int]) -> ChainDecomposition:
    """Scan a transmitter ordering and keep every member that still reaches a
    new receiver, producing a power chain plus receiver/transmitter blocks.

    The first transmitter of the ordering is always kept.  A later one is kept
    exactly when it reaches a receiver missed by all kept predecessors; the
    skipped transmitters are grouped with the most recent kept one.  Requires
    a pruned topology so that the receiver blocks partition all receivers.
    """
    perm = tuple(int(t) for t in permutation)
    if sorted(perm) != list(range(1, topo.n_t + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{topo.n_t}")
    if not topo.is_pruned:
        raise ValueError("decompose requires a pruned topology")

    masks = topo.hearer_masks
    positions = [1]
    covered = masks[perm[0] - 1]
    blocks_r = [covered]
    for pos in range(2, topo.n_t + 1):
        fresh = masks[perm[pos - 1] - 1] & ~covered
        if fresh:
            positions.append(pos)
            blocks_r.append(fresh)
            covered |= masks[perm[pos - 1] - 1]

    kappa = len(positions)
    transmitters = tuple(perm[p - 1] for p in positions)
    witnesses = tuple((b & -b).bit_length() for b in blocks_r)
    bounds = positions + [topo.n_t + 1]
    blocks_t = tuple(
        frozenset(perm[i - 1] for i in range(bounds[k], bounds[k + 1]))
        for k in range(kappa)
    )
    receiver_blocks = tuple(_bits_to_set(b) for b in blocks_r)
    return ChainDecomposition(
        permutation=perm,
        chain_positions=tuple(positions),
        chain=PowerChain(transmitters, witnesses),
        receiver_blocks=receiver_blocks,
        transmitter_blocks=blocks_t,
    )


def _bits_to_set(mask: int) -> frozenset[int]:
    out = set()
    i = 1
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)
