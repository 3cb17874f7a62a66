"""Zero patterns of fading networks: hearing relations, pruning, generators.

A network is described purely by which (receiver, transmitter) pairs carry a
deterministically zero channel gain; every other pair fades randomly.  All
public indices are 1-based.  A topology is stored as ``hearer_masks``, one
bitmask of hearing receivers per transmitter, which is all the chain
algorithms and the bounds read; the set ``zeros`` of zero pairs is a view
derived from the masks on first use, for JSON and for the tests.  The
generators and ``prune`` work on the masks directly, so a family with O(n)
hearing pairs is built without its O(n²) zero pairs.

Pruning drops silent transmitters and deaf receivers in a single pass: none
of them is in a hearing pair, so removing them strands no other node.
"""

from __future__ import annotations

import json
import numbers
from collections import Counter
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


@dataclass(frozen=True, init=False)
class Topology:
    """Connectivity pattern of a fading network.

    ``hearer_masks[t - 1]`` has bit r-1 set iff receiver r hears transmitter
    t, that is iff (r, t) is not a zero pair.  The constructor takes the
    pattern as ``zeros``, the (receiver, transmitter) pairs whose fading
    entry is deterministically zero, and validates each of them; ``zeros``
    reads the same set back.  Instances are immutable, hashable, and safe to
    share across worker threads.
    """

    n_t: int
    n_r: int
    hearer_masks: tuple[int, ...]

    def __init__(self, n_t: int, n_r: int, zeros: frozenset[tuple[int, int]] = frozenset()) -> None:
        n_t, n_r = _check_sizes(n_t, n_r)
        masks = [(1 << n_r) - 1] * n_t
        for r, t in zeros:
            _check_pair(r, t, n_t, n_r)
            masks[int(t) - 1] &= ~(1 << (int(r) - 1))
        self._store(n_t, n_r, tuple(masks))

    @classmethod
    def _from_masks(cls, n_t: int, n_r: int, masks) -> Topology:
        """The topology whose transmitter t is heard by the receivers of the
        set bits of ``masks[t - 1]``: n_t ints, each in [0, 2**n_r), for
        sizes that are already checked ints."""
        topo = cls.__new__(cls)
        topo._store(n_t, n_r, tuple(masks))
        return topo

    def _store(self, n_t: int, n_r: int, masks: tuple[int, ...]) -> None:
        object.__setattr__(self, "n_t", n_t)
        object.__setattr__(self, "n_r", n_r)
        object.__setattr__(self, "hearer_masks", masks)

    @cached_property
    def zeros(self) -> frozenset[tuple[int, int]]:
        """The (receiver, transmitter) pairs whose fading entry is zero."""
        full = (1 << self.n_r) - 1
        return frozenset(
            (r, t) for t, mask in enumerate(self.hearer_masks, start=1) for r in _bits(full & ~mask)
        )

    def nonzero_pairs(self) -> list[tuple[int, int]]:
        """All (receiver, transmitter) pairs that fade randomly, sorted."""
        heard_by: list[list[int]] = [[] for _ in range(self.n_r)]
        for t, mask in enumerate(self.hearer_masks, start=1):
            for r in _bits(mask):
                heard_by[r - 1].append(t)
        return [(r, t) for r, ts in enumerate(heard_by, start=1) for t in ts]

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


def _check_sizes(n_t, n_r) -> tuple[int, int]:
    """The transmitter and receiver counts as ints (numpy integers too, so
    that a topology always serialises); raises unless both are integers >= 0."""
    if not (_is_int(n_t) and _is_int(n_r)):
        raise ValueError("n_t and n_r must be integers")
    if n_t < 0 or n_r < 0:
        raise ValueError("transmitter and receiver counts must be non-negative")
    return int(n_t), int(n_r)


def _check_pair(r, t, n_t: int, n_r: int) -> None:
    """Raise unless (r, t) is a (receiver, transmitter) pair of integers
    within an n_r x n_t network."""
    if not (_is_int(r) and _is_int(t)):
        raise ValueError(f"zero pair {(r, t)!r} must hold integers")
    if not (1 <= r <= n_r and 1 <= t <= n_t):
        raise ValueError(f"zero pair {(r, t)} out of range for {n_r}x{n_t} network")


def _hearing_receivers(n_t: int, n_r: int, zeros) -> int:
    """How many receivers hear some transmitter, counted from checked
    sizes and distinct checked zero pairs without building a mask: a
    receiver is deaf exactly when all n_t of its pairs are zeros."""
    if n_t == 0:
        return 0
    zeros_at = Counter(r for r, _ in zeros)
    return n_r - sum(count == n_t for count in zeros_at.values())


def _bits(mask: int):
    """The 1-based positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def prune(topo: Topology) -> Topology:
    """Drop receivers that hear nothing and transmitters that nobody hears.

    One pass reaches the fixed point: a deaf receiver or a silent transmitter
    is in no hearing pair, so removing it leaves every other node's hearing
    pairs, and hence its survival, as they were.  Survivors are relabelled
    in ascending order, so the fading entries keep their sorted order.  A
    network with nothing to drop comes back as it is, and one that prunes
    away entirely comes back empty (``is_empty``).
    """
    masks = topo.hearer_masks
    heard = reduce(or_, masks, 0)
    deaf = ((1 << topo.n_r) - 1) & ~heard
    if all(masks) and not deaf:
        return topo
    kept = [mask for mask in masks if mask]
    # close each deaf receiver's gap, highest first, so that the positions
    # of the gaps still to close have not moved
    for r in reversed(list(_bits(deaf))):
        low = (1 << (r - 1)) - 1
        kept = [(mask & low) | (mask >> r << (r - 1)) for mask in kept]
    return Topology._from_masks(len(kept), topo.n_r - deaf.bit_count(), kept)


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
    n_t, n_r = _shape(kind, params, seed)
    if kind == "full":
        masks = ((1 << n_r) - 1,) * n_t
    elif kind == "diagonal":
        masks = (1 << t for t in range(n_t))
    elif kind == "wyner_linear":
        masks = (0b11 << t for t in range(n_t))
    elif kind == "wyner_cyclic":
        masks = (1 << t | 1 << (t + 1) % n_t for t in range(n_t))
    else:  # random, whose p and seed _shape has checked
        rng = np.random.default_rng(seed)
        # entry (r, t) of the draw zeroes the pair; row t-1 of the packed
        # transposed complement is transmitter t's mask, bit r-1 first
        hears = np.packbits(rng.random((n_r, n_t)).T >= float(params[2]), axis=1, bitorder="little")
        masks = [int.from_bytes(row.tobytes(), "little") for row in hears]
        return prune(Topology._from_masks(n_t, n_r, masks))
    return Topology._from_masks(n_t, n_r, masks)


def _shape(kind: str, params, seed: int | None = None) -> tuple[int, int]:
    """The (n_t, n_r) of ``generate(kind, *params, seed=seed)``, before
    ``random``'s pruning, read off the parameters without building a mask.

    Raises every ``ValueError`` that ``generate`` raises, in the same order,
    so that a caller can size a spec (each mask holds n_r bits) before it is
    built.
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
        if len(ints) != 2:
            raise ValueError(f"{kind} topology takes (n_t, n_r)")
        if min(ints) < 1:
            raise ValueError(f"{kind} topology needs positive sizes")
        return ints[0], ints[1]
    if kind in ("diagonal", "wyner_linear", "wyner_cyclic"):
        if len(ints) != 1:
            raise ValueError(f"{kind} topology takes exactly one size parameter")
        if ints[0] < 1:
            raise ValueError(f"{kind} topology needs a positive size")
        return ints[0], ints[0] + (kind == "wyner_linear")
    if kind == "random":
        if len(params) != 3:
            raise ValueError("random topology takes (n_t, n_r, p)")
        p = params[2]
        if not _is_number(p):
            raise ValueError(f"zero probability must be a number, not {p!r}")
        p = float(p)
        if min(ints) < 1:
            raise ValueError("random topology needs at least one transmitter and receiver")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"zero probability {p} outside [0, 1]")
        if seed is None:
            raise ValueError("random topology requires a seed")
        return ints[0], ints[1]
    raise ValueError(f"unknown topology kind {kind!r}; expected one of {GENERATOR_KINDS}")


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


def _is_number(value) -> bool:
    """Whether a value is a real number, Python's or numpy's: not a bool, a
    string, bytes or a complex."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def topology_from_dict(doc: dict) -> Topology:
    """Validate and build a topology from its JSON dictionary form.

    Rejects missing fields, non-integer sizes, malformed pairs, out-of-range
    indices, and duplicated zero entries.
    """
    return Topology(*_topology_fields(doc))


def _topology_fields(doc: dict) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """The sizes and zero pairs of a topology's JSON dictionary form, checked
    as ``topology_from_dict`` checks them, before any mask is built."""
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
    n_t, n_r = _check_sizes(doc["n_t"], doc["n_r"])
    for r, t in pairs:
        _check_pair(r, t, n_t, n_r)
    return n_t, n_r, frozenset(pairs)


def _load_topology_fields(path: str | Path) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """``_topology_fields`` of the JSON file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        return _topology_fields(json.load(fh))


def load_topology(path: str | Path) -> Topology:
    return Topology(*_load_topology_fields(path))


def save_topology(topo: Topology, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(topology_to_dict(topo), fh, indent=2)
        fh.write("\n")
