"""Jointly Gaussian fading models over a zero pattern.

Conventions used throughout the package:

* A scalar complex Gaussian CN(mu, v) has independent real and imaginary
  parts, each of variance v/2, so E|H - mu|^2 = v and the differential
  entropy of a CN(0, v) variable is log(pi e v).
* All logarithms are natural; information quantities are in nats.
* Model entries are the (receiver, transmitter) pairs outside the zero set,
  ordered by sorted (r, t); the covariance matrix is indexed in that order
  and describes the circularly symmetric part around the mean vector.
* The optional ``ar1_rho`` is the per-entry correlation coefficient of a
  first-order autoregressive evolution of the fading process in time.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .topology import Topology, _is_int, _is_number

__all__ = [
    "FadingModel",
    "log_h_squared_mean",
    "block_mutual_information",
    "memory_gap_ar1",
    "fading_model_to_dict",
    "fading_model_from_dict",
    "load_fading_model",
    "save_fading_model",
]

_EULER_GAMMA = float(np.euler_gamma)
_HERMITIAN_TOL = 1e-10
_RHO_DIVERGENCE_GUARD = 1.0 - 1e-6


@dataclass(frozen=True)
class FadingModel:
    """Gaussian law of the random fading entries of a topology.

    Construction labels each entry with its independent block of the
    covariance, the connected component of its nonzero off-diagonal pattern,
    by the block's smallest entry index.  Entries of different blocks are
    independent, so validation and the conditional and mutual-information
    algebra work block by block.  Validation checks the Hermitian rule of
    ``np.allclose(cov, cov^H, atol=1e-10)`` on the cells where either side
    is nonzero (every other cell passes it trivially), a positive real
    diagonal and a Cholesky factorisation of each block of two or more
    entries, which together hold exactly when the whole matrix is positive
    definite.

    Args:
        topo: the zero pattern; entries exist only off the zero set.
        means: complex mean per entry, in sorted (r, t) order.
        covariance: Hermitian positive-definite matrix over the entries
            (circularly symmetric part).
        ar1_rho: optional AR(1) correlation coefficient in [0, 1).
    """

    topo: Topology
    means: np.ndarray
    covariance: np.ndarray
    ar1_rho: float | None = None

    def __post_init__(self) -> None:
        m = len(self.entries)
        means = np.array(self.means, dtype=np.complex128).reshape(-1)
        if means.shape != (m,):
            raise ValueError(f"means must have one value per fading entry ({m})")
        cov = np.array(self.covariance, dtype=np.complex128)
        if cov.shape != (m, m):
            raise ValueError(f"covariance must be {m}x{m} over the fading entries")
        if not (np.isfinite(means).all() and np.isfinite(cov).all()):
            raise ValueError("means and covariance must be finite")
        rows, cols = np.nonzero(cov)
        # np.allclose(cov, cov^H) compares each cell with its mirror's
        # conjugate, scaling the tolerance by the mirror; a cell whose mirror
        # is zero is listed here alone, so both scalings are checked
        here, mirror = cov[rows, cols], cov[cols, rows].conj()
        if not (
            np.allclose(here, mirror, atol=_HERMITIAN_TOL)
            and np.allclose(mirror, here, atol=_HERMITIAN_TOL)
        ):
            raise ValueError("covariance is not Hermitian")
        # the model's own copies: freezing them leaves the caller's arrays writable
        means.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariance", cov)
        block_of = _independent_blocks(m, rows.tolist(), cols.tolist())
        object.__setattr__(self, "_block_of", block_of)
        if not (cov.real.diagonal() > 0).all():
            raise ValueError("covariance is not positive definite")
        blocks: dict[int, list[int]] = {}
        for i, label in enumerate(block_of):
            blocks.setdefault(label, []).append(i)
        for block in blocks.values():
            if len(block) > 1:
                try:
                    np.linalg.cholesky(cov[np.ix_(block, block)])
                except np.linalg.LinAlgError as exc:
                    raise ValueError("covariance is not positive definite") from exc
        if self.ar1_rho is not None:
            if not _is_number(self.ar1_rho):
                raise ValueError(f"ar1_rho {self.ar1_rho!r} must be a real number")
            rho = float(self.ar1_rho)
            if not 0.0 <= rho < 1.0:
                raise ValueError(f"ar1_rho {rho} outside [0, 1)")
            object.__setattr__(self, "ar1_rho", rho)

    @cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """Fading entries as (receiver, transmitter) pairs in index order."""
        return tuple(self.topo.nonzero_pairs())

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {pair: i for i, pair in enumerate(self.entries)}

    @classmethod
    def iid_rayleigh(cls, topo: Topology) -> "FadingModel":
        """Zero-mean IID CN(0, 1) entries."""
        m = sum(mask.bit_count() for mask in topo.hearer_masks)
        return cls(
            topo=topo,
            means=np.zeros(m, dtype=np.complex128),
            covariance=np.eye(m, dtype=np.complex128),
        )

    @classmethod
    def from_mapping(
        cls,
        topo: Topology,
        means: Mapping[tuple[int, int], complex] | None = None,
        covariance: np.ndarray | None = None,
        ar1_rho: float | None = None,
    ) -> "FadingModel":
        """Build a model from a sparse mean mapping; missing means default to 0."""
        pairs = topo.nonzero_pairs()
        index = {pair: i for i, pair in enumerate(pairs)}
        mean_vec = np.zeros(len(pairs), dtype=np.complex128)
        for (r, t), value in (means or {}).items():
            if not (_is_int(r) and _is_int(t)):
                raise ValueError(f"mean label {(r, t)!r} must be integers")
            if (r, t) not in index:
                raise ValueError(f"{(r, t)} is not a fading entry of the topology")
            mean_vec[index[r, t]] = complex(value)
        if covariance is None:
            covariance = np.eye(len(pairs), dtype=np.complex128)
        return cls(topo=topo, means=mean_vec, covariance=covariance, ar1_rho=ar1_rho)

    def entry_index(self, r: int, t: int) -> int:
        # True and 1.0 hash like the label 1, so the lookup alone would take them
        if not (_is_int(r) and _is_int(t)):
            raise ValueError(f"entry label {(r, t)!r} must be integers")
        try:
            return self._index[(r, t)]
        except KeyError:
            raise ValueError(f"({r}, {t}) is not a fading entry of the topology") from None

    def entry_mean(self, r: int, t: int) -> complex:
        return complex(self.means[self.entry_index(r, t)])

    def entry_variance(self, r: int, t: int) -> float:
        i = self.entry_index(r, t)
        return float(self.covariance[i, i].real)

    @property
    def frob_second_moment(self) -> float:
        """E of the squared Frobenius norm of the fading matrix."""
        return float(np.sum(np.abs(self.means) ** 2) + np.trace(self.covariance).real)

    def conditional_covariance(
        self,
        targets: Sequence[tuple[int, int]],
        given: Sequence[tuple[int, int]],
    ) -> np.ndarray:
        """Covariance of the target entries conditioned on the given entries.

        Jointly Gaussian, so this is the Schur complement and does not depend
        on the conditioning values.  Only the given entries in the targets'
        covariance blocks enter it; the others are independent of the targets.
        """
        t_idx = [self.entry_index(r, t) for r, t in targets]
        g_idx = [self.entry_index(r, t) for r, t in given]
        if set(t_idx) & set(g_idx):
            raise ValueError("target and conditioning entries overlap")
        s_tt = self.covariance[np.ix_(t_idx, t_idx)]
        # given entries outside the targets' blocks are independent of them
        block_of = self._block_of  # type: ignore[attr-defined]
        target_blocks = {block_of[i] for i in t_idx}
        g_idx = [i for i in g_idx if block_of[i] in target_blocks]
        if not g_idx:
            return s_tt
        s_tg = self.covariance[np.ix_(t_idx, g_idx)]
        s_gg = self.covariance[np.ix_(g_idx, g_idx)]
        return s_tt - s_tg @ np.linalg.solve(s_gg, s_tg.conj().T)

    def conditional_variance(
        self, target: tuple[int, int], given: Sequence[tuple[int, int]]
    ) -> float:
        value = float(self.conditional_covariance([target], given)[0, 0].real)
        if value <= 0:
            raise ValueError("conditional variance is not positive")
        return value


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def log_h_squared_mean(mean: complex, variance: float) -> float:
    """E[log |H|^2] for H ~ CN(mean, variance), in nats.

    Exact by the exponential-integral identity: with K = |mean|^2/variance,
    E[log |H|^2] = log(variance) + log K + E1(K).  Below K = 1e-14 the
    K -> 0 limit, log(variance) - Euler-Mascheroni, is returned instead,
    since log K is undefined at 0.  Raises ValueError unless the mean is a
    finite number (not a bool or a string) and the variance a finite
    positive real.
    """
    if not (isinstance(mean, numbers.Complex) and not isinstance(mean, bool) and cmath.isfinite(mean)):
        raise ValueError(f"mean {mean!r} must be a finite number")
    if not (_is_number(variance) and math.isfinite(variance) and variance > 0):
        raise ValueError(f"variance {variance!r} must be a finite positive real number")
    ratio = abs(complex(mean)) ** 2 / variance
    if ratio < 1e-14:
        return math.log(variance) - _EULER_GAMMA
    from scipy.special import exp1

    return math.log(variance) + math.log(ratio) + float(exp1(ratio))


def block_mutual_information(
    model: FadingModel,
    entries_a: Iterable[tuple[int, int]],
    entries_b: Iterable[tuple[int, int]],
) -> float:
    """Mutual information (nats) between two disjoint groups of fading entries.

    Gaussian groups, so the value is log det of the two marginal covariances
    minus log det of the joint one.  Independent covariance blocks add their
    informations: the sum runs over the blocks both groups touch, and is 0.0
    without any linear algebra when they share none.  Perfectly correlated
    groups make a joint covariance singular; that is reported as ``inf``
    rather than an arbitrary large number.
    """
    a = [(r, t) for r, t in entries_a]
    b = [(r, t) for r, t in entries_b]
    if not all(_is_int(r) and _is_int(t) for r, t in a + b):
        raise ValueError("entry labels must be integers")
    if len(set(a)) != len(a) or len(set(b)) != len(b) or set(a) & set(b):
        raise ValueError("entry groups must be disjoint and free of duplicates")
    if not a or not b:
        return 0.0
    a_idx = [model.entry_index(r, t) for r, t in a]
    b_idx = [model.entry_index(r, t) for r, t in b]
    block_of = model._block_of  # type: ignore[attr-defined]
    shared = {block_of[i] for i in a_idx} & {block_of[i] for i in b_idx}
    cov = model.covariance
    total = 0.0
    for block in sorted(shared):
        a_k = [i for i in a_idx if block_of[i] == block]
        b_k = [i for i in b_idx if block_of[i] == block]
        # Hermitian covariances have real determinants; slogdet's sign comes
        # back complex for complex input, so compare its real part.
        sign_a, logdet_a = np.linalg.slogdet(cov[np.ix_(a_k, a_k)])
        sign_b, logdet_b = np.linalg.slogdet(cov[np.ix_(b_k, b_k)])
        sign_ab, logdet_ab = np.linalg.slogdet(cov[np.ix_(a_k + b_k, a_k + b_k)])
        if np.real(sign_a) <= 0 or np.real(sign_b) <= 0:
            raise ValueError("marginal covariance is numerically singular")
        if np.real(sign_ab) <= 0 or not np.isfinite(logdet_ab):
            return math.inf
        total += float(logdet_a + logdet_b - logdet_ab)
    return max(0.0, total)


def _independent_blocks(m: int, rows: list[int], cols: list[int]) -> tuple[int, ...]:
    """Each of m indices' block label: the smallest index of its connected
    component of the pattern of nonzero cells (rows[k], cols[k]), found by
    union-find."""
    root = list(range(m))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in zip(rows, cols):
        ri, rj = find(i), find(j)
        if ri != rj:  # the smaller index roots the union, so roots are minima
            root[max(ri, rj)] = min(ri, rj)
    return tuple(map(find, range(m)))


def memory_gap_ar1(model: FadingModel) -> float:
    """Long-run information the fading past carries about the present, in nats.

    For independent entries each following an AR(1) recursion with
    correlation ``rho``, one step of conditioning is all that matters and each
    entry contributes -log(1 - rho^2).  Diverges as rho approaches 1, so
    values beyond 1 - 1e-6 are rejected.
    """
    if model.ar1_rho is None:
        raise ValueError("model has no ar1_rho coefficient")
    rho = model.ar1_rho
    if rho >= _RHO_DIVERGENCE_GUARD:
        raise ValueError(f"ar1_rho {rho} too close to 1; memory diverges")
    return -len(model.entries) * math.log1p(-rho * rho)


def fading_model_to_dict(model: FadingModel) -> dict:
    """JSON-ready form: means as [r, t, re, im] rows, covariance dense
    row-major with [re, im] cells, both in sorted entry order."""
    doc: dict = {
        "means": [
            [r, t, float(mu.real), float(mu.imag)]
            for (r, t), mu in zip(model.entries, model.means)
        ],
        "covariance": [
            [[float(c.real), float(c.imag)] for c in row] for row in model.covariance
        ],
    }
    if model.ar1_rho is not None:
        doc["ar1_rho"] = model.ar1_rho
    return doc


def fading_model_from_dict(topo: Topology, doc: dict) -> FadingModel:
    """Validate and build a model for ``topo`` from its JSON dictionary form.

    ``means`` rows must address fading entries of the topology; omitted
    entries default to zero mean.  ``covariance`` may be omitted for the
    identity.
    """
    if not isinstance(doc, dict):
        raise ValueError("fading model document must be a JSON object")
    means: dict[tuple[int, int], complex] = {}
    for row in doc.get("means", []):
        if not (isinstance(row, (list, tuple)) and len(row) == 4):
            raise ValueError(f"malformed mean entry {row!r}; expected [r, t, re, im]")
        if not (_is_int(row[0]) and _is_int(row[1])):  # before the duplicate test hashes them
            raise ValueError(f"mean entry {row!r} must label its entry with integers")
        key = (row[0], row[1])
        if key in means:
            raise ValueError(f"duplicate mean entry {key}")
        if not (_is_number(row[2]) and _is_number(row[3])):
            raise ValueError(f"mean entry {row!r} must give re and im as numbers")
        means[key] = complex(row[2], row[3])
    cov = None
    if "covariance" in doc:
        try:
            cells = [[_complex_cell(cell) for cell in row] for row in doc["covariance"]]
        except TypeError as exc:
            raise ValueError("covariance must be a list of rows of [re, im] cells") from exc
        cov = np.asarray(cells, dtype=np.complex128)
    return FadingModel.from_mapping(topo, means, cov, doc.get("ar1_rho"))


def _complex_cell(cell) -> complex:
    """The value of one decoded covariance cell, which must be [re, im]."""
    if not (isinstance(cell, (list, tuple)) and len(cell) == 2 and all(map(_is_number, cell))):
        raise ValueError(f"covariance cells must be [re, im] pairs of numbers, not {cell!r}")
    return complex(cell[0], cell[1])


def load_fading_model(path: str | Path, topo: Topology) -> FadingModel:
    with open(path, encoding="utf-8") as fh:
        return fading_model_from_dict(topo, json.load(fh))


def save_fading_model(model: FadingModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fading_model_to_dict(model), fh, indent=2)
        fh.write("\n")
