"""Demand lattice laws: builders, quantization, and the convolution-power oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.demand import DemandDistribution, from_atoms, quantize
from invlab.errors import InvLabError
from oracles import SUPPORT_CAP, convolve, convolve_power, demand_mean


def brute_force_sum_law(atoms, t):
    """Oracle: enumerate all t-tuples of atoms and accumulate the sum law."""
    law = {}
    for combo in itertools.product(atoms, repeat=t):
        total = sum(v for v, _ in combo)
        prob = 1.0
        for _, p in combo:
            prob *= p
        law[total] = law.get(total, 0.0) + prob
    return law


class TestFromAtoms:
    def test_deterministic_unit_demand(self):
        d = from_atoms([(1, 1.0)], step=1)
        assert d.values.tolist() == [1.0]
        assert d.probs.tolist() == [1.0]

    def test_two_atom_mean(self):
        d = from_atoms([(0, 0.3), (1, 0.7)], step=1)
        assert demand_mean(d) == pytest.approx(0.7)

    def test_all_mass_at_zero_rejected(self):
        with pytest.raises(InvLabError) as err:
            from_atoms([(0, 1.0)], step=1)
        assert err.value.code == "ALL_MASS_AT_ZERO"

    def test_negative_value_rejected(self):
        with pytest.raises(InvLabError) as err:
            from_atoms([(-1, 0.5), (1, 0.5)], step=1)
        assert err.value.code == "NEGATIVE_VALUE"

    def test_off_lattice_rejected(self):
        with pytest.raises(InvLabError) as err:
            from_atoms([(0.5, 0.5), (1, 0.5)], step=1)
        assert err.value.code == "OFF_LATTICE"

    def test_bad_probability_sum_rejected(self):
        with pytest.raises(InvLabError) as err:
            from_atoms([(0, 0.5), (1, 0.4)], step=1)
        assert err.value.code == "PROB_SUM"

    def test_empty_rejected(self):
        with pytest.raises(InvLabError) as err:
            from_atoms([], step=1)
        assert err.value.code == "EMPTY_INPUT"

    def test_duplicates_merge(self):
        d = from_atoms([(1, 0.25), (0, 0.5), (1, 0.25)], step=1)
        assert d.values.tolist() == [0.0, 1.0]
        assert d.probs.tolist() == [0.5, 0.5]


class TestQuantize:
    def test_point_mass_already_on_lattice(self):
        d = quantize([(1.0, 1.0)], step=1)
        assert d.values.tolist() == [1.0]
        assert d.probs.tolist() == [1.0]

    def test_nearest_lattice_rounding(self):
        # mass 0.5 at 0.4 goes to 0, mass 0.5 at 0.6 goes to 1
        d = quantize([(0.4, 0.5), (0.6, 1.0)], step=1)
        assert d.values.tolist() == [0.0, 1.0]
        assert np.allclose(d.probs, [0.5, 0.5])

    def test_tie_rounds_up(self):
        d = quantize([(1.0, 0.5), (2.5, 1.0)], step=1)
        assert d.values.tolist() == [1.0, 3.0]

    def test_non_monotone_rejected(self):
        with pytest.raises(InvLabError) as err:
            quantize([(1.0, 0.8), (2.0, 0.5), (3.0, 1.0)], step=1)
        assert err.value.code == "NON_MONOTONE_CDF"

    def test_empty_rejected(self):
        with pytest.raises(InvLabError) as err:
            quantize([], step=1)
        assert err.value.code == "EMPTY_INPUT"

    def test_final_mass_must_reach_one(self):
        with pytest.raises(InvLabError) as err:
            quantize([(0.0, 0.3), (1.0, 0.8)], step=1)
        assert err.value.code == "PROB_SUM"

    def test_identity_on_lattice_distribution(self):
        d = from_atoms([(0, 0.2), (2, 0.5), (3, 0.3)], step=1)
        cdf = list(zip(d.values, np.cumsum(d.probs)))
        q = quantize(cdf, step=1)
        assert q.values.tolist() == d.values.tolist()
        assert np.allclose(q.probs, d.probs, atol=1e-12)


class TestConvolvePower:
    def test_deterministic_sum(self):
        d = from_atoms([(1, 1.0)], step=1)
        s3 = convolve_power(d, 3)
        assert s3.values.tolist() == [3.0]
        assert s3.probs.tolist() == [1.0]

    def test_zero_fold_is_point_mass_at_zero(self):
        d = from_atoms([(0, 0.5), (2, 0.5)], step=1)
        s0 = convolve_power(d, 0)
        assert s0.values.tolist() == [0.0]
        assert s0.probs.tolist() == [1.0]

    def test_two_fold_binomial(self):
        d = from_atoms([(0, 0.5), (1, 0.5)], step=1)
        s2 = convolve_power(d, 2)
        oracle = brute_force_sum_law([(0, 0.5), (1, 0.5)], 2)
        assert s2.values.tolist() == sorted(oracle)
        for v, p in zip(s2.values, s2.probs):
            assert p == pytest.approx(oracle[v], abs=1e-12)

    def test_matches_enumeration_on_irregular_law(self):
        atoms = [(0, 0.2), (1, 0.3), (3, 0.5)]
        d = from_atoms(atoms, step=1)
        for t in (1, 2, 3):
            law = brute_force_sum_law(atoms, t)
            st_ = convolve_power(d, t)
            assert st_.values.tolist() == sorted(law)
            for v, p in zip(st_.values, st_.probs):
                assert p == pytest.approx(law[v], abs=1e-12)

    def test_support_cap(self):
        d = from_atoms([(0, 0.5), (1, 0.5)], step=1)
        with pytest.raises(InvLabError) as err:
            convolve_power(d, SUPPORT_CAP)  # support of SUPPORT_CAP + 1 points
        assert err.value.code == "SUPPORT_TOO_LARGE"


@st.composite
def lattice_demands(draw):
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n = draw(st.integers(min_value=1, max_value=5))
    offsets = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n, unique=True))
    if all(o == 0 for o in offsets):
        offsets.append(1)
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=len(offsets), max_size=len(offsets)))
    total = sum(weights)
    return from_atoms([(o * step, w / total) for o, w in zip(offsets, weights)], step)


class TestProperties:
    @given(lattice_demands(), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_convolution_is_additive_in_fold_count(self, d, s, t):
        left = convolve_power(d, s + t)
        right = convolve(convolve_power(d, s), convolve_power(d, t))
        assert left.values.tolist() == right.values.tolist()
        assert np.allclose(left.probs, right.probs, atol=1e-12)

    @given(lattice_demands(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_mean_scales_linearly(self, d, t):
        assert demand_mean(convolve_power(d, t)) == pytest.approx(t * demand_mean(d), abs=1e-9)

    @given(lattice_demands())
    @settings(max_examples=30, deadline=None)
    def test_quantize_is_identity_on_lattice(self, d):
        cdf = list(zip(d.values, np.cumsum(d.probs)))
        cdf[-1] = (cdf[-1][0], 1.0)
        q = quantize(cdf, d.step)
        assert q.values.tolist() == d.values.tolist()
        assert np.allclose(q.probs, d.probs, atol=1e-9)

    def test_probabilities_validated_on_direct_construction(self):
        with pytest.raises(InvLabError):
            DemandDistribution(np.array([0.0, 1.0]), np.array([0.6, 0.6]), 1.0)

    def test_convolve_rejects_mismatched_steps(self):
        a = from_atoms([(1, 1.0)], step=1)
        b = from_atoms([(0.5, 1.0)], step=0.5)
        with pytest.raises(ValueError):
            convolve(a, b)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "pairs, name",
        [
            ([(0, 0.5), (1, np.nan), (2, 0.5)], "atom probability nan"),
            ([(0, np.nan), (1, 0.5)], "atom probability nan"),
            ([(0, 0.3), (np.nan, 0.4), (2, 0.3)], "demand atom at nan"),
            ([(0, 0.3), (np.inf, 0.4), (2, 0.3)], "demand atom at inf"),
        ],
    )
    def test_from_atoms_names_the_value(self, pairs, name):
        with pytest.raises(InvLabError) as err:
            from_atoms(pairs, step=1)
        assert err.value.code == "NOT_FINITE"
        assert f"{name} is not finite" in str(err.value)

    @pytest.mark.parametrize(
        "samples, name",
        [
            ([(0.0, 0.3), (1.0, np.nan), (2.0, 1.0)], "cumulative probability nan"),
            ([(0.0, 0.3), (np.nan, 0.7), (2.0, 1.0)], "CDF value nan"),
            ([(0.0, 0.3), (np.inf, 1.0)], "CDF value inf"),
        ],
    )
    def test_quantize_names_the_value(self, samples, name):
        with pytest.raises(InvLabError) as err:
            quantize(samples, step=1)
        assert err.value.code == "NOT_FINITE"
        assert f"{name} is not finite" in str(err.value)

    @pytest.mark.parametrize("step", [np.inf, np.nan, 0.0])
    def test_bad_step_rejected(self, step):
        for build in (from_atoms, quantize):
            with pytest.raises(InvLabError, match="step must be positive and finite"):
                build([(0.0, 0.5), (1.0, 1.0)] if build is quantize else [(0.0, 0.5), (1.0, 0.5)], step)

    def test_direct_construction_rejects_nan_probability(self):
        with pytest.raises(InvLabError):
            DemandDistribution(np.array([0.0, 1.0]), np.array([1.0, np.nan]), 1.0)


class TestOffsetRange:
    """Atoms whose lattice offsets an int64 cannot hold are named, not cast."""

    @pytest.mark.parametrize("far", [1e30, 2.0**63])
    def test_from_atoms_names_the_value(self, far):
        with pytest.raises(InvLabError) as err:
            from_atoms([(0, 0.5), (far, 0.5)], step=1)
        assert err.value.code == "SUPPORT_TOO_LARGE"
        assert f"demand atom at {far!r} is beyond the int64 lattice range" in str(err.value)

    def test_quantize_names_the_value(self):
        with pytest.raises(InvLabError) as err:
            quantize([(0.0, 0.5), (1e30, 1.0)], step=1)
        assert err.value.code == "SUPPORT_TOO_LARGE"
        assert "CDF value 1e+30 is beyond the int64 lattice range" in str(err.value)

    def test_direct_construction_rejects_the_value(self):
        with pytest.raises(InvLabError, match="beyond the int64 lattice range"):
            DemandDistribution(np.array([0.0, 1e30]), np.array([0.5, 0.5]), 1.0)

    def test_largest_offsets_kept(self):
        d = from_atoms([(0, 0.5), (2.0**62, 0.5)], step=1)
        assert d.offsets().tolist() == [0, 2**62]
