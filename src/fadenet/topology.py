"""Zero patterns of fading networks: hearing relations, pruning, generators.

A network is described purely by which (receiver, transmitter) pairs carry a
deterministically zero channel gain; every other pair fades randomly.  All
public indices are 1-based.  The set ``zeros`` is the one stored form of the
pattern and ``hearer_masks``, one bitmask of hearing receivers per
transmitter, the one index derived from it; the chain algorithms walk the
masks.

Pruning drops silent transmitters and deaf receivers in a single pass: none
of them is in a hearing pair, so removing them strands no other node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from pathlib import Path

import numpy as np

__all__ = [
    "GENERATOR_KINDS",
    "Topology",
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
        if not (_is_int(self.n_t) and _is_int(self.n_r)):
            raise ValueError("n_t and n_r must be integers")
        if self.n_t < 0 or self.n_r < 0:
            raise ValueError("transmitter and receiver counts must be non-negative")
        # numpy integers are stored as int, so that a topology always serialises
        object.__setattr__(self, "n_t", int(self.n_t))
        object.__setattr__(self, "n_r", int(self.n_r))
        pairs = set()
        for r, t in self.zeros:
            if not (_is_int(r) and _is_int(t)):
                raise ValueError(f"zero pair {(r, t)!r} must hold integers")
            if not (1 <= r <= self.n_r and 1 <= t <= self.n_t):
                raise ValueError(f"zero pair {(r, t)} out of range for {self.n_r}x{self.n_t} network")
            pairs.add((int(r), int(t)))
        object.__setattr__(self, "zeros", frozenset(pairs))

    @cached_property
    def hearer_masks(self) -> tuple[int, ...]:
        """Per-transmitter bitmasks of hearing receivers: bit r-1 of entry t-1
        is set iff (r, t) is not a zero pair."""
        masks = [(1 << self.n_r) - 1] * self.n_t
        for r, t in self.zeros:
            masks[t - 1] &= ~(1 << (r - 1))
        return tuple(masks)

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        """All (receiver, transmitter) pairs that fade randomly, sorted."""
        pairs = ((r, t) for r in range(1, self.n_r + 1) for t in range(1, self.n_t + 1))
        return [pair for pair in pairs if pair not in self.zeros]

    @property
    def is_empty(self) -> bool:
        return self.n_t == 0 or self.n_r == 0

    @property
    def is_pruned(self) -> bool:
        """True when every transmitter has a hearer and every receiver hears someone."""
        if self.is_empty:
            return False
        masks = self.hearer_masks
        return all(masks) and reduce(or_, masks) == (1 << self.n_r) - 1

    def _check_transmitter(self, t: int) -> None:
        if not (_is_int(t) and 1 <= t <= self.n_t):
            raise ValueError(f"transmitter index {t!r} is not one of the integers 1..{self.n_t}")


def prune(topo: Topology) -> Topology:
    """Drop receivers that hear nothing and transmitters that nobody hears.

    One pass reaches the fixed point: a deaf receiver or a silent transmitter
    is in no hearing pair, so removing it leaves every other node's hearing
    pairs, and hence its survival, as they were.  Survivors are relabelled
    in ascending order, so the fading entries keep their sorted order.  A
    network that prunes away entirely comes back empty (``is_empty``).
    """
    heard = reduce(or_, topo.hearer_masks, 0)
    kept_t = [t for t, mask in enumerate(topo.hearer_masks, start=1) if mask]
    kept_r = [r for r in range(1, topo.n_r + 1) if heard >> (r - 1) & 1]
    t_new = {t: i for i, t in enumerate(kept_t, start=1)}
    r_new = {r: i for i, r in enumerate(kept_r, start=1)}
    zeros = {
        (r_new[r], t_new[t])
        for r, t in topo.zeros
        if r in r_new and t in t_new
    }
    return Topology(n_t=len(kept_t), n_r=len(kept_r), zeros=frozenset(zeros))


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
        seed: required for ``random``; ignored otherwise, but when given it
            must be an integer.

    Returns:
        The topology.  ``random`` may return a degenerate (empty) topology if
        pruning removes everything.
    """
    sizes = params[:2] if kind == "random" else params
    # an int, or a whole float as parse_generator_spec passes; _is_int turns
    # away bools and strings, which float() would read as numbers
    if not all(_is_int(p) or (isinstance(p, float) and p.is_integer()) for p in sizes):
        raise ValueError(f"{kind} topology sizes must be whole numbers, got {list(sizes)}")
    if seed is not None and not _is_int(seed):
        raise ValueError(f"seed must be an integer, not {seed!r}")
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
        p = params[2]
        if isinstance(p, (bool, np.bool_)) or not isinstance(p, (int, float, np.integer, np.floating)):
            raise ValueError(f"zero probability must be a number, not {p!r}")
        p = float(p)
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
        return prune(raw)
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
    kind, params = _split_spec(spec)
    return generate(kind, *params, seed=seed)


def _split_spec(spec: str) -> tuple[str, list[float]]:
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValueError(f"generator spec {spec!r} has no parameters (expected kind:p1,p2,...)")
    try:
        return kind.strip(), [float(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise ValueError(f"generator spec {spec!r} has non-numeric parameters") from exc


def _spec_receivers(spec: str) -> int | None:
    """The receiver count of the topology a well-formed ``full``, ``diagonal``
    or Wyner spec builds, read off the spec without building its zero set.

    None for ``random``, whose pruning can drop receivers, and for sizes
    ``generate`` rejects, which it then reports.
    """
    kind, params = _split_spec(spec)
    if not all(p.is_integer() and p >= 1 for p in params):
        return None
    sizes = [int(p) for p in params]
    if kind == "full" and len(sizes) == 2:
        return sizes[1]
    if kind in ("diagonal", "wyner_linear", "wyner_cyclic") and len(sizes) == 1:
        return sizes[0] + (kind == "wyner_linear")
    return None


def topology_to_dict(topo: Topology) -> dict:
    """JSON-ready dictionary with 1-based zero pairs in sorted order."""
    return {
        "n_t": topo.n_t,
        "n_r": topo.n_r,
        "zeros": [[r, t] for r, t in sorted(topo.zeros)],
    }


def _is_int(value) -> bool:
    """Whether a node label or count is an integer: a Python or numpy int,
    but not a bool (which Python counts as an int), a float or a string.
    Plain ints, by far the most common, are settled by their type alone."""
    if type(value) is int:
        return True
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    raw = doc["zeros"]
    if not isinstance(raw, list):
        raise ValueError("zeros must be a list of [receiver, transmitter] pairs")
    pairs = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ValueError(f"malformed zero entry {item!r}")
        r, t = item
        if not (_is_int(r) and _is_int(t)):  # before the duplicate test hashes them
            raise ValueError(f"zero entry {item!r} must hold integers")
        pairs.append((r, t))
    if len(set(pairs)) != len(pairs):
        raise ValueError("duplicate zero entries in topology document")
    return Topology(n_t=doc["n_t"], n_r=doc["n_r"], zeros=frozenset(pairs))


def load_topology(path: str | Path) -> Topology:
    with open(path, encoding="utf-8") as fh:
        return topology_from_dict(json.load(fh))


def save_topology(topo: Topology, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(topology_to_dict(topo), fh, indent=2)
        fh.write("\n")
