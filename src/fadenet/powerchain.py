"""Power chains: ordered transmitter tuples in which every member reaches a
receiver that none of its predecessors reach.

The length of the longest such chain is the pre-log factor of the double-log
capacity growth of a non-coherent fading network, so everything downstream
(allocations, bounds, sweeps) starts here.  Chains are found exactly by
raising a target length over memoised bounds on what each covered-receiver
set can still reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from .topology import Topology, _bits, _is_int

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


# longest_chain's default guard on the receivers its states can hold
_MAX_RECEIVERS = 24


def _check_receivers(n_r: int, max_receivers: int = _MAX_RECEIVERS) -> None:
    """Raise SizeGuardError when an exact search over ``n_r`` receivers
    would exceed the guard."""
    if n_r > max_receivers:
        raise SizeGuardError(f"{n_r} receivers exceeds the exact-search guard of {max_receivers}")


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
    fresh = _fresh_receivers(topo, chain.transmitters)
    if not all(fresh):
        raise ValueError(f"{chain.transmitters} is not a power chain of the topology")
    for t, r, new in zip(chain.transmitters, chain.witnesses, fresh):
        if not _is_int(r):
            raise ValueError(f"witness labels must be integers, not {r!r}")
        if not (1 <= r <= topo.n_r and new >> (r - 1) & 1):
            raise ValueError(f"witness {r} for transmitter {t} is not newly reached")


def is_power_chain(topo: Topology, transmitters: Sequence[int]) -> bool:
    """True when every transmitter in the tuple reaches a receiver missed by
    all of its predecessors.  The empty tuple is trivially a chain.

    Raises on duplicate, non-integer or out-of-range transmitter labels.
    """
    return all(_fresh_receivers(topo, transmitters))


def _fresh_receivers(topo: Topology, transmitters: Sequence[int]) -> list[int]:
    """Per member, the bitmask of receivers it reaches and no predecessor does."""
    masks = topo.hearer_masks
    seen: set[int] = set()
    covered = 0
    fresh = []
    for t in transmitters:
        if not (_is_int(t) and 1 <= t <= topo.n_t):
            raise ValueError(f"transmitter index {t!r} is not one of the integers 1..{topo.n_t}")
        if t in seen:
            raise ValueError(f"duplicate transmitter {t} in chain tuple")
        seen.add(t)
        fresh.append(masks[t - 1] & ~covered)
        covered |= masks[t - 1]
    return fresh


def longest_chain(topo: Topology, *, max_receivers: int = _MAX_RECEIVERS) -> tuple[int, PowerChain]:
    """Exact longest power chain by a decision search over receiver subsets.

    Whether a tuple can be extended depends only on the union of hearer sets
    covered so far, so the search memoises on that subset.  For each state it
    keeps the masks of its live transmitters (those that still reach an
    uncovered receiver), filtered once from the live masks of the state that
    first reached it, and a proven interval [lo, hi] of how many more
    members a chain from there can have.  ``hi`` starts at the state's
    ceiling, the smaller of its live transmitters and the uncovered receivers
    they reach: every later chain member is a distinct live transmitter that
    brings at least one of those receivers.  Asking
    whether a state reaches ``need`` more members is answered from the
    interval when it can be; otherwise its children are tried in transmitter
    order, each only while its uncovered receivers can still hold the
    remaining ``need - 1`` members (so a child that ceiling refutes is never
    memoised), and a success raises ``lo`` to ``need`` while a failure lowers
    ``hi`` to ``need - 1``.  kappa* is found by raising the target at the
    empty set one member at a time, and on chain-rich topologies the search
    touches a few states per receiver instead of 2**n.  Reconstruction
    prefers the smallest transmitter index whose child still reaches the
    remaining length, and picks the smallest newly reached receiver as the
    witness.

    Args:
        topo: the network; unheard transmitters simply never join a chain.
        max_receivers: guard on how many receivers hear some transmitter;
            only those enter a state, so there are at most 2**count states.
            Raise it explicitly for larger exact runs.

    Returns:
        ``(kappa_star, chain)`` with ``len(chain) == kappa_star``.
    """
    if topo.is_empty:
        raise ValueError("longest_chain needs a non-empty topology")
    masks = topo.hearer_masks
    heard = 0
    for mask in masks:
        heard |= mask
    _check_receivers(heard.bit_count(), max_receivers)
    # covered -> [lo, hi, live]: a chain of lo more members is proven to
    # start there, none longer than hi can, and live holds the masks, in
    # transmitter order, that still reach an uncovered receiver
    memo: dict[int, list] = {}

    # parent_live: the live masks of a state whose covered set is a subset
    # of this one's, so that filtering them gives this state's
    def reaches(covered: int, need: int, parent_live: Sequence[int]) -> bool:
        if need <= 0:
            return True
        proven = memo.get(covered)
        if proven is None:
            live = [mask for mask in parent_live if mask & ~covered]
            proven = memo[covered] = [0, min(len(live), (heard & ~covered).bit_count()), live]
        if need <= proven[0]:
            return True
        if need > proven[1]:
            return False
        live = proven[2]
        for mask in live:
            child = covered | mask
            if (heard & ~child).bit_count() >= need - 1 and reaches(child, need - 1, live):
                proven[0] = need
                return True
        proven[1] = need - 1
        return False

    kappa_star = 0
    while reaches(0, kappa_star + 1, masks):
        kappa_star += 1
    transmitters: list[int] = []
    witnesses: list[int] = []
    covered = 0
    for left in range(kappa_star, 0, -1):
        for t, mask in enumerate(masks, start=1):
            fresh = mask & ~covered
            if fresh and reaches(covered | mask, left - 1, masks):
                transmitters.append(t)
                witnesses.append((fresh & -fresh).bit_length())
                covered |= mask
                break
    chain = PowerChain(tuple(transmitters), tuple(witnesses))
    return kappa_star, chain


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

    A transmitter is kept exactly when it reaches a receiver missed by all of
    its predecessors (its fresh receivers, the walk ``validate_chain``
    checks), and those receivers are its block; the skipped transmitters are
    grouped with the most recent kept one.  Requires a pruned topology, so
    that the first transmitter is always kept and the receiver blocks
    partition all receivers.
    """
    perm = tuple(permutation)
    if not all(map(_is_int, perm)) or sorted(perm) != list(range(1, topo.n_t + 1)):
        raise ValueError(f"{perm!r} is not a permutation of the integers 1..{topo.n_t}")
    perm = tuple(map(int, perm))
    if not topo.is_pruned:
        raise ValueError("decompose requires a pruned topology")

    fresh = _fresh_receivers(topo, perm)
    positions = [pos for pos, mask in enumerate(fresh, start=1) if mask]
    blocks_r = [fresh[p - 1] for p in positions]
    bounds = positions + [topo.n_t + 1]
    return ChainDecomposition(
        permutation=perm,
        chain_positions=tuple(positions),
        chain=PowerChain(
            tuple(perm[p - 1] for p in positions),
            tuple((b & -b).bit_length() for b in blocks_r),
        ),
        receiver_blocks=tuple(frozenset(_bits(b)) for b in blocks_r),
        transmitter_blocks=tuple(
            frozenset(perm[lo - 1 : hi - 1]) for lo, hi in zip(bounds, bounds[1:])
        ),
    )
