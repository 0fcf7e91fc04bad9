"""Discrete demand laws on a regular lattice.

Everything downstream (transition rows, cost kernels, horizon sums) works
with exact finite sums, so demand is restricted to finitely many probability
atoms sitting on nonnegative multiples of a common lattice step.  Arbitrary
demand curves enter through :func:`quantize`, which snaps a sampled CDF onto
the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvLabError

PROB_TOL = 1e-12
LATTICE_TOL = 1e-9


def _require_finite(what: str, values: np.ndarray) -> None:
    """Reject NaN and infinite entries, naming the first one."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise InvLabError("NOT_FINITE", f"{what} {float(values[bad][0])!r} is not finite")


def _require_step(step: float) -> None:
    if not 0 < step < np.inf:
        raise InvLabError("OFF_LATTICE", f"lattice step must be positive and finite, got {step}")


def _require_offset_range(what: str, values: np.ndarray, offsets: np.ndarray) -> None:
    """Reject offsets an int64 cannot hold, naming the first such value."""
    far = np.abs(offsets) >= 2.0**63
    if far.any():
        raise InvLabError("SUPPORT_TOO_LARGE", f"{what} {float(values[far][0])!r} is beyond the int64 lattice range")


def _lattice_offsets(x, step: float, origin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nearest offsets ``k`` of ``x``, a number or an array, on the lattice ``origin + k step``, and where ``x`` is on it.

    On means within ``LATTICE_TOL max(1, step)``; NaN, infinite values and offsets past the int64 range are off, ``k`` 0.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x - origin may overflow to inf, which is off
        k = np.rint((x - origin) / step)
        on = np.abs(k) < 2.0**63  # False for NaN and infinite offsets
        k = np.where(on, k, 0.0).astype(np.int64)
        on &= np.abs(x - (origin + k * step)) <= LATTICE_TOL * max(1.0, step)
    return k, on


def _lattice_index(points: np.ndarray, x, step: float):
    """Index of ``x`` on the uniform lattice ``points``, or -1 where ``x`` is off it; ``x`` is a number or an array."""
    k, on = _lattice_offsets(x, step, float(points[0]))
    return np.where(on & (k < len(points)) & (k >= 0), k, -1)[()]


def _atom_offsets(values: np.ndarray, step: float) -> np.ndarray:
    """Lattice offsets of demand atoms, rejecting a bad step and non-finite, negative, off-lattice or out-of-range atoms."""
    _require_step(step)
    _require_finite("demand atom at", values)
    if np.any(values < -LATTICE_TOL * step):
        raise InvLabError("NEGATIVE_VALUE", f"demand atom at {float(values.min())} is negative")
    _require_offset_range("demand atom at", values, values / step)
    offsets, on = _lattice_offsets(values, step)
    if not on.all():
        raise InvLabError("OFF_LATTICE", f"demand atom at {float(values[~on][0])} is not a multiple of step {step}")
    return offsets


@dataclass(frozen=True)
class DemandDistribution:
    """Finite demand law with atoms at nonnegative multiples of ``step``.

    Direct construction checks the structural invariants (sorted distinct
    lattice values, positive probabilities summing to one).  The
    nontriviality rule "some mass above zero" is enforced by the public
    builders; direct construction still accepts the point mass at zero,
    the law of the empty (zero-fold) sum.
    """

    values: np.ndarray
    probs: np.ndarray
    step: float

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.size == 0:
            raise InvLabError("EMPTY_INPUT", "a demand law needs at least one atom")
        if values.shape != probs.shape:
            raise ValueError("values and probs must have matching shapes")
        offsets = _atom_offsets(values, self.step)
        if values.size > 1 and np.any(np.diff(offsets) <= 0):
            raise ValueError("atoms must be sorted by value with no duplicates")
        if not np.all(probs > 0):  # NaN fails too
            raise InvLabError("PROB_SUM", "atom probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise InvLabError("PROB_SUM", f"probabilities sum to {total!r}, not 1")

    def offsets(self) -> np.ndarray:
        """Atom positions in lattice units (exact integers)."""
        return _lattice_offsets(self.values, self.step)[0]

    @property
    def max_value(self) -> float:
        return float(self.values[-1])


def _from_offset_masses(offsets: np.ndarray, masses: np.ndarray, step: float) -> DemandDistribution:
    uniq, inverse = np.unique(offsets, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, masses)  # unbuffered: equal offsets add up in input order
    keep = merged > 0
    return DemandDistribution(uniq[keep] * step, merged[keep], step)


def from_atoms(pairs, step: float) -> DemandDistribution:
    """Build a validated demand law from ``(value, probability)`` pairs.

    Pairs landing on the same lattice point are merged; zero-probability
    atoms are dropped.  Raises ``ALL_MASS_AT_ZERO`` when no mass sits above
    zero, since a demand that is almost surely zero makes the control
    problem degenerate.
    """
    pairs = list(pairs)
    if not pairs:
        raise InvLabError("EMPTY_INPUT", "no demand atoms given")
    values = np.asarray([p[0] for p in pairs], dtype=float)
    masses = np.asarray([p[1] for p in pairs], dtype=float)
    offsets = _atom_offsets(values, step)
    _require_finite("atom probability", masses)
    if np.any(masses < 0):
        raise InvLabError("PROB_SUM", "negative atom probability")
    total = float(masses.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise InvLabError("PROB_SUM", f"probabilities sum to {total!r}, not 1")
    dist = _from_offset_masses(offsets, masses, step)
    if dist.max_value <= 0:
        raise InvLabError("ALL_MASS_AT_ZERO", "demand must place positive mass above zero")
    return dist


def quantize(cdf_samples, step: float) -> DemandDistribution:
    """Snap a sampled CDF onto the lattice.

    Each CDF increment is assigned to the nearest lattice point, with exact
    half-step ties rounding up.  The result is renormalized to sum exactly
    to one so that rounding drift in the input cannot leak through.
    """
    samples = list(cdf_samples)
    if not samples:
        raise InvLabError("EMPTY_INPUT", "no CDF samples given")
    values = np.asarray([s[0] for s in samples], dtype=float)
    cums = np.asarray([s[1] for s in samples], dtype=float)
    _require_step(step)
    _require_finite("CDF value", values)
    _require_finite("cumulative probability", cums)
    if np.any(np.diff(values) < -LATTICE_TOL) or np.any(np.diff(cums) < -PROB_TOL):
        raise InvLabError("NON_MONOTONE_CDF", "CDF samples must be nondecreasing in value and probability")
    if abs(float(cums[-1]) - 1.0) > 1e-9:
        raise InvLabError("PROB_SUM", f"final cumulative probability is {float(cums[-1])!r}, not 1")
    masses = np.diff(cums, prepend=0.0)
    keep = masses > 0
    values, masses = values[keep], masses[keep]
    if values.size == 0:
        raise InvLabError("EMPTY_INPUT", "CDF carries no probability mass")
    offsets = np.floor(values / step + 0.5)  # nearest lattice point, ties up
    _require_offset_range("CDF value", values, offsets)
    if np.any(offsets < 0):
        raise InvLabError("NEGATIVE_VALUE", "CDF mass rounds to a negative lattice point")
    masses = masses / masses.sum()
    dist = _from_offset_masses(offsets.astype(np.int64), masses, step)
    if dist.max_value <= 0:
        raise InvLabError("ALL_MASS_AT_ZERO", "quantized demand has no mass above zero")
    return dist
