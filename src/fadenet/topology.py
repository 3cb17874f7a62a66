"""Zero patterns of fading networks: hearing relations, pruning, generators.

A network is described purely by which (receiver, transmitter) pairs carry a
deterministically zero channel gain; every other pair fades randomly.  All
public indices are 1-based.  The cached boolean hearing matrix is the source
of truth for the algorithms built on top of this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "GENERATOR_KINDS",
    "Topology",
    "PruneResult",
    "prune",
    "generate",
    "parse_generator_spec",
    "topology_to_dict",
    "topology_from_dict",
    "load_topology",
    "save_topology",
]

GENERATOR_KINDS = ("full", "diagonal", "wyner_linear", "wyner_cyclic", "random")


@dataclass(frozen=True)
class Topology:
    """Connectivity pattern of a fading network.

    ``zeros`` holds the (receiver, transmitter) pairs whose fading entry is
    deterministically zero.  Instances are immutable, hashable, and safe to
    share across worker threads.
    """

    n_t: int
    n_r: int
    zeros: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.n_t < 0 or self.n_r < 0:
            raise ValueError("transmitter and receiver counts must be non-negative")
        pairs = set()
        for pair in self.zeros:
            r, t = int(pair[0]), int(pair[1])
            if not (1 <= r <= self.n_r and 1 <= t <= self.n_t):
                raise ValueError(f"zero pair {(r, t)} out of range for {self.n_r}x{self.n_t} network")
            pairs.add((r, t))
        object.__setattr__(self, "zeros", frozenset(pairs))

    @cached_property
    def hearing(self) -> np.ndarray:
        """Boolean matrix; ``hearing[r-1, t-1]`` is True iff (r, t) is not a zero pair."""
        h = np.ones((self.n_r, self.n_t), dtype=bool)
        for r, t in self.zeros:
            h[r - 1, t - 1] = False
        h.setflags(write=False)
        return h

    @cached_property
    def hearer_masks(self) -> tuple[int, ...]:
        """Per-transmitter bitmasks of hearing receivers (bit r-1 set for receiver r)."""
        masks = []
        for t in range(self.n_t):
            mask = 0
            for r in np.flatnonzero(self.hearing[:, t]):
                mask |= 1 << int(r)
            masks.append(mask)
        return tuple(masks)

    def hearers(self, t: int) -> set[int]:
        """Receivers that hear transmitter ``t``."""
        self._check_transmitter(t)
        return {int(r) + 1 for r in np.flatnonzero(self.hearing[:, t - 1])}

    def heard(self, r: int) -> set[int]:
        """Transmitters heard by receiver ``r``."""
        self._check_receiver(r)
        return {int(t) + 1 for t in np.flatnonzero(self.hearing[r - 1, :])}

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        """All (receiver, transmitter) pairs that fade randomly, sorted."""
        rs, ts = np.nonzero(self.hearing)
        return sorted((int(r) + 1, int(t) + 1) for r, t in zip(rs, ts))

    @property
    def is_empty(self) -> bool:
        return self.n_t == 0 or self.n_r == 0

    @property
    def is_pruned(self) -> bool:
        """True when every transmitter has a hearer and every receiver hears someone."""
        if self.is_empty:
            return False
        return bool(self.hearing.any(axis=0).all() and self.hearing.any(axis=1).all())

    def _check_transmitter(self, t: int) -> None:
        if not 1 <= t <= self.n_t:
            raise ValueError(f"transmitter index {t} out of range 1..{self.n_t}")

    def _check_receiver(self, r: int) -> None:
        if not 1 <= r <= self.n_r:
            raise ValueError(f"receiver index {r} out of range 1..{self.n_r}")


@dataclass(frozen=True)
class PruneResult:
    """Outcome of :func:`prune`, with index maps from old labels to new ones."""

    topology: Topology
    removed_transmitters: tuple[int, ...]
    removed_receivers: tuple[int, ...]
    transmitter_map: dict[int, int]
    receiver_map: dict[int, int]
    degenerate: bool


def prune(topo: Topology) -> PruneResult:
    """Drop receivers that hear nothing and transmitters that nobody hears.

    Removal is iterated to a fixed point, since deleting a receiver can leave a
    transmitter unheard and vice versa.  Surviving indices are re-compacted in
    ascending order; the result records both removals and the index maps.  A
    network that prunes away entirely is flagged ``degenerate``.
    """
    h = topo.hearing
    keep_r = np.ones(topo.n_r, dtype=bool)
    keep_t = np.ones(topo.n_t, dtype=bool)
    while True:
        new_r = keep_r & h[:, keep_t].any(axis=1) if keep_t.any() else np.zeros_like(keep_r)
        new_t = keep_t & h[new_r, :].any(axis=0) if new_r.any() else np.zeros_like(keep_t)
        if np.array_equal(new_r, keep_r) and np.array_equal(new_t, keep_t):
            break
        keep_r, keep_t = new_r, new_t

    r_map = {int(old) + 1: new + 1 for new, old in enumerate(np.flatnonzero(keep_r))}
    t_map = {int(old) + 1: new + 1 for new, old in enumerate(np.flatnonzero(keep_t))}
    zeros = {
        (r_map[r], t_map[t])
        for r, t in topo.zeros
        if r in r_map and t in t_map
    }
    pruned = Topology(n_t=len(t_map), n_r=len(r_map), zeros=frozenset(zeros))
    return PruneResult(
        topology=pruned,
        removed_transmitters=tuple(t for t in range(1, topo.n_t + 1) if t not in t_map),
        removed_receivers=tuple(r for r in range(1, topo.n_r + 1) if r not in r_map),
        transmitter_map=t_map,
        receiver_map=r_map,
        degenerate=pruned.is_empty,
    )


def generate(kind: str, *params: float, seed: int | None = None) -> Topology:
    """Build one of the standard topology families.

    Args:
        kind: one of ``full``, ``diagonal``, ``wyner_linear``, ``wyner_cyclic``,
            ``random``.
        params: family parameters.  ``full(n_t, n_r)`` has no zeros.
            ``diagonal(n)`` pairs transmitter t with receiver t only.
            ``wyner_linear(n)`` has n transmitters and n+1 receivers, with
            transmitter t heard by receivers {t, t+1}.  ``wyner_cyclic(n)``
            wraps the chain: t is heard by {t, (t mod n)+1}.
            ``random(n_t, n_r, p)`` zeroes each pair independently with
            probability p and prunes the result.
        seed: required for ``random``; ignored otherwise.

    Returns:
        The topology.  ``random`` may return a degenerate (empty) topology if
        pruning removes everything.
    """
    sizes = params[:2] if kind == "random" else params
    if not all(float(p).is_integer() for p in sizes):
        raise ValueError(f"{kind} topology sizes must be whole numbers, got {list(sizes)}")
    ints = [int(p) for p in sizes]
    if kind == "full":
        n_t, n_r = _two(kind, ints)
        return Topology(n_t=n_t, n_r=n_r)
    if kind == "diagonal":
        n = _one(kind, ints)
        zeros = {(r, t) for t in range(1, n + 1) for r in range(1, n + 1) if r != t}
        return Topology(n_t=n, n_r=n, zeros=frozenset(zeros))
    if kind == "wyner_linear":
        n = _one(kind, ints)
        zeros = {
            (r, t)
            for t in range(1, n + 1)
            for r in range(1, n + 2)
            if r not in (t, t + 1)
        }
        return Topology(n_t=n, n_r=n + 1, zeros=frozenset(zeros))
    if kind == "wyner_cyclic":
        n = _one(kind, ints)
        zeros = {
            (r, t)
            for t in range(1, n + 1)
            for r in range(1, n + 1)
            if r not in (t, (t % n) + 1)
        }
        return Topology(n_t=n, n_r=n, zeros=frozenset(zeros))
    if kind == "random":
        if len(params) != 3:
            raise ValueError("random topology takes (n_t, n_r, p)")
        n_t, n_r = ints
        p = float(params[2])
        if n_t < 1 or n_r < 1:
            raise ValueError("random topology needs at least one transmitter and receiver")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"zero probability {p} outside [0, 1]")
        if seed is None:
            raise ValueError("random topology requires a seed")
        rng = np.random.default_rng(seed)
        mask = rng.random((n_r, n_t)) < p
        zeros = {(int(r) + 1, int(t) + 1) for r, t in zip(*np.nonzero(mask))}
        raw = Topology(n_t=n_t, n_r=n_r, zeros=frozenset(zeros))
        return prune(raw).topology
    raise ValueError(f"unknown topology kind {kind!r}; expected one of {GENERATOR_KINDS}")


def _one(kind: str, ints: list[int]) -> int:
    if len(ints) != 1:
        raise ValueError(f"{kind} topology takes exactly one size parameter")
    if ints[0] < 1:
        raise ValueError(f"{kind} topology needs a positive size")
    return ints[0]


def _two(kind: str, ints: list[int]) -> tuple[int, int]:
    if len(ints) != 2:
        raise ValueError(f"{kind} topology takes (n_t, n_r)")
    if ints[0] < 1 or ints[1] < 1:
        raise ValueError(f"{kind} topology needs positive sizes")
    return ints[0], ints[1]


def parse_generator_spec(spec: str, seed: int | None = None) -> Topology:
    """Parse a compact generator string such as ``full:3,3`` or ``random:5,5,0.4``."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if not rest:
        raise ValueError(f"generator spec {spec!r} has no parameters (expected kind:p1,p2,...)")
    try:
        params = [float(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"generator spec {spec!r} has non-numeric parameters") from exc
    return generate(kind, *params, seed=seed)


def topology_to_dict(topo: Topology) -> dict:
    """JSON-ready dictionary with 1-based zero pairs in sorted order."""
    return {
        "n_t": topo.n_t,
        "n_r": topo.n_r,
        "zeros": [[r, t] for r, t in sorted(topo.zeros)],
    }


def _is_int(value) -> bool:
    """Whether a decoded JSON value is an integer (JSON true and false decode
    to bools, which Python counts as ints)."""
    return isinstance(value, int) and not isinstance(value, bool)


def topology_from_dict(doc: dict) -> Topology:
    """Validate and build a topology from its JSON dictionary form.

    Rejects missing fields, non-integer sizes, malformed pairs, out-of-range
    indices, and duplicated zero entries.
    """
    if not isinstance(doc, dict):
        raise ValueError("topology document must be a JSON object")
    for key in ("n_t", "n_r", "zeros"):
        if key not in doc:
            raise ValueError(f"topology document missing {key!r}")
    n_t, n_r = doc["n_t"], doc["n_r"]
    if not (_is_int(n_t) and _is_int(n_r)):
        raise ValueError("n_t and n_r must be integers")
    raw = doc["zeros"]
    if not isinstance(raw, list):
        raise ValueError("zeros must be a list of [receiver, transmitter] pairs")
    pairs = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"malformed zero entry {item!r}")
        r, t = item
        if not (_is_int(r) and _is_int(t)):
            raise ValueError(f"zero entry {item!r} must hold integers")
        pairs.append((r, t))
    if len(set(pairs)) != len(pairs):
        raise ValueError("duplicate zero entries in topology document")
    return Topology(n_t=n_t, n_r=n_r, zeros=frozenset(pairs))


def load_topology(path: str | Path) -> Topology:
    with open(path, encoding="utf-8") as fh:
        return topology_from_dict(json.load(fh))


def save_topology(topo: Topology, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(topology_to_dict(topo), fh, indent=2)
        fh.write("\n")
