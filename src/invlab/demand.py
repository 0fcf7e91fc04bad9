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


def _lattice_offsets(values: np.ndarray, step: float) -> np.ndarray:
    """Lattice offsets of demand atoms, rejecting a bad step and non-finite, negative or off-lattice atoms."""
    _require_step(step)
    _require_finite("demand atom at", values)
    if np.any(values < -LATTICE_TOL * step):
        raise InvLabError("NEGATIVE_VALUE", f"demand atom at {float(values.min())} is negative")
    offsets = np.rint(values / step)
    off = np.abs(values - offsets * step) > LATTICE_TOL * max(step, 1.0)
    if np.any(off):
        raise InvLabError("OFF_LATTICE", f"demand atom at {float(values[off][0])} is not a multiple of step {step}")
    return offsets


@dataclass(frozen=True)
class DemandDistribution:
    """Finite demand law with atoms at nonnegative multiples of ``step``.

    Direct construction checks the structural invariants (sorted distinct
    lattice values, positive probabilities summing to one).  The
    nontriviality rule "some mass above zero" is enforced by the public
    builders; the point mass at zero is still a legal *internal* value
    because it is the identity for convolution (the zero-fold sum).
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
        offsets = _lattice_offsets(values, self.step)
        if values.size > 1 and np.any(np.diff(offsets) <= 0):
            raise ValueError("atoms must be sorted by value with no duplicates")
        if not np.all(probs > 0):  # NaN fails too
            raise InvLabError("PROB_SUM", "atom probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise InvLabError("PROB_SUM", f"probabilities sum to {total!r}, not 1")

    def offsets(self) -> np.ndarray:
        """Atom positions in lattice units (exact integers)."""
        return np.rint(self.values / self.step).astype(np.int64)

    def mean(self) -> float:
        return float(self.values @ self.probs)

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    def pmf_dense(self) -> np.ndarray:
        """Probability vector indexed by lattice offset 0..max."""
        offs = self.offsets()
        dense = np.zeros(int(offs[-1]) + 1)
        dense[offs] = self.probs
        return dense


def _from_offset_masses(offsets: np.ndarray, masses: np.ndarray, step: float) -> DemandDistribution:
    order = np.argsort(offsets, kind="stable")
    offsets = offsets[order]
    masses = masses[order]
    uniq, inverse = np.unique(offsets, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, masses)
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
    offsets = _lattice_offsets(values, step)
    _require_finite("atom probability", masses)
    if np.any(masses < 0):
        raise InvLabError("PROB_SUM", "negative atom probability")
    total = float(masses.sum())
    if abs(total - 1.0) > PROB_TOL:
        raise InvLabError("PROB_SUM", f"probabilities sum to {total!r}, not 1")
    dist = _from_offset_masses(offsets.astype(np.int64), masses, step)
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
    if np.any(offsets < 0):
        raise InvLabError("NEGATIVE_VALUE", "CDF mass rounds to a negative lattice point")
    masses = masses / masses.sum()
    dist = _from_offset_masses(offsets.astype(np.int64), masses, step)
    if dist.max_value <= 0:
        raise InvLabError("ALL_MASS_AT_ZERO", "quantized demand has no mass above zero")
    return dist


def convolve(a: DemandDistribution, b: DemandDistribution) -> DemandDistribution:
    """Exact law of the sum of two independent lattice demands."""
    if abs(a.step - b.step) > LATTICE_TOL:
        raise ValueError(f"mismatched lattice steps {a.step} and {b.step}")
    dense = np.convolve(a.pmf_dense(), b.pmf_dense())
    offs = np.nonzero(dense > 0)[0]
    return DemandDistribution(offs * a.step, dense[offs], a.step)


def convolve_power(d: DemandDistribution, t: int, *, support_cap: int = 1 << 21) -> DemandDistribution:
    """Exact law of the t-fold sum of independent copies of ``d``.

    ``t = 0`` returns the point mass at zero (the empty sum).  Uses
    square-and-multiply on dense probability vectors, so the error after
    many folds stays at roundoff level.
    """
    if t < 0:
        raise ValueError(f"fold count must be nonnegative, got {t}")
    if t == 0:
        return DemandDistribution(np.array([0.0]), np.array([1.0]), d.step)
    max_offset = int(d.offsets()[-1])
    if t * max_offset + 1 > support_cap:
        raise InvLabError(
            "SUPPORT_TOO_LARGE",
            f"support of the {t}-fold sum has {t * max_offset + 1} lattice points, cap is {support_cap}",
        )
    base = d.pmf_dense()
    result = np.array([1.0])
    power = base
    k = t
    while k:
        if k & 1:
            result = np.convolve(result, power)
        k >>= 1
        if k:
            power = np.convolve(power, power)
    offs = np.nonzero(result > 0)[0]
    return DemandDistribution(offs * d.step, result[offs], d.step)
