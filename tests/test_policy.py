import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdyn.errors import DimensionError, DomainError
from fairdyn.metrics import OutcomeModel
from fairdyn.policy import (
    GroupThreshold,
    InstitutionModel,
    Policy,
    RandomizedThresholdPolicy,
    acceptance_rate,
    institution_utility,
    threshold_levels,
    threshold_policy_for_rate,
    threshold_values,
)
from fairdyn.policy import _threshold_at, _threshold_levels, _with_threshold
from fairdyn.population import GroupState

from conftest import make_grid, make_population


def group(pmf):
    return GroupState("a", 1.0, tuple(pmf))


class TestAcceptanceRate:
    def test_accept_all(self):
        g = group((0.3, 0.7))
        pol = Policy.from_arrays({"a": np.ones(2)})
        assert acceptance_rate(pol, g) == 1.0

    def test_accept_none(self):
        g = group((0.3, 0.7))
        pol = Policy.from_arrays({"a": np.zeros(2)})
        assert acceptance_rate(pol, g) == 0.0

    def test_top_bin_only(self):
        # enumerate: only the 0.2 mass in the top bin is accepted
        g = group((0.8, 0.2))
        pol = Policy.from_arrays({"a": np.array([0.0, 1.0])})
        assert acceptance_rate(pol, g) == pytest.approx(0.2, abs=1e-15)

    def test_missing_group(self):
        pol = Policy.from_arrays({"other": np.ones(2)})
        with pytest.raises(KeyError):
            acceptance_rate(pol, group((0.5, 0.5)))

    def test_monotone_in_tau(self, rng):
        for _ in range(100):
            pmf = rng.random(4) + 1e-9
            g = group(pmf / pmf.sum())
            t1 = rng.random(4)
            t2 = np.clip(t1 + rng.random(4) * (1 - t1), 0, 1)
            r1 = acceptance_rate(Policy.from_arrays({"a": t1}), g)
            r2 = acceptance_rate(Policy.from_arrays({"a": t2}), g)
            assert r1 <= r2 + 1e-12


class TestThresholdForRate:
    def test_target_zero(self):
        g = group((0.8, 0.2))
        thp = threshold_policy_for_rate(g, 0.0)
        th = thp.thresholds["a"]
        assert th.threshold_bin == len(g.pmf) - 1
        assert th.boundary_acceptance == 0.0
        grid = make_grid(2)
        assert acceptance_rate(thp.expand(grid), g) == 0.0

    def test_target_one(self):
        g = group((0.8, 0.2))
        thp = threshold_policy_for_rate(g, 1.0)
        th = thp.thresholds["a"]
        assert th.threshold_bin == 0
        assert th.boundary_acceptance == 1.0

    def test_partial_boundary(self):
        # solve 0.8*b + 0.2 = 0.5 -> b = 0.375
        g = group((0.8, 0.2))
        thp = threshold_policy_for_rate(g, 0.5)
        tau = thp.expand(make_grid(2)).tau("a")
        assert tau == pytest.approx([0.375, 1.0], abs=1e-15)

    def test_out_of_range_target(self):
        with pytest.raises(DomainError):
            threshold_policy_for_rate(group((0.5, 0.5)), 1.2)

    @pytest.mark.parametrize("rate", [True, np.True_, "0.5", None, [0.5]])
    def test_target_rate_that_is_not_a_real_number(self, rate):
        with pytest.raises(DomainError, match=r"^target_rate must be a real number, got "):
            threshold_policy_for_rate(group((0.5, 0.5)), rate)

    def test_nan_target_rate(self):
        with pytest.raises(DomainError, match=r"^target_rate nan outside \[0,1\]$"):
            threshold_policy_for_rate(group((0.5, 0.5)), float("nan"))

    def test_expansion_monotone_in_score(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            pmf = rng.random(n) + 1e-9
            g = group(pmf / pmf.sum())
            tau = (
                threshold_policy_for_rate(g, float(rng.random()))
                .expand(make_grid(n))
                .tau("a")
            )
            assert np.all(np.diff(tau) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        target=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_round_trip(self, seed, target):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        pmf = rng.random(n) + 1e-6
        g = group(pmf / pmf.sum())
        pol = threshold_policy_for_rate(g, target).expand(make_grid(n))
        assert abs(acceptance_rate(pol, g) - target) <= 1e-12

    def test_round_trip_bulk(self, rng):
        # 1000 random (pmf, target) pairs as a direct loop
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            pmf = rng.random(n) + 1e-9
            g = group(pmf / pmf.sum())
            target = float(rng.random())
            pol = threshold_policy_for_rate(g, target).expand(make_grid(n))
            assert abs(acceptance_rate(pol, g) - target) <= 1e-12


def scan_threshold(pmf, target):
    """Bin-by-bin top-down scan: the reference that ``threshold_levels``
    must reproduce bit for bit."""
    cum_above = 0.0
    for i in range(len(pmf) - 1, -1, -1):
        if cum_above + pmf[i] >= target or i == 0:
            b = (target - cum_above) / pmf[i] if pmf[i] > 0 else 0.0
            return i, min(max(b, 0.0), 1.0)
        cum_above += pmf[i]


# Integer weights put zero-mass bins, and so repeated cumulative masses, into
# most draws.
weights = st.lists(st.integers(0, 5), min_size=2, max_size=12).filter(
    lambda w: sum(w) > 0
)


class TestThresholdLevels:
    @settings(max_examples=200, deadline=None)
    @given(w=weights, rates=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_equals_scalar_scan(self, w, rates):
        pmf = np.array(w, dtype=float) / sum(w)
        # Rates on the cumulative masses sit exactly on bin boundaries (their
        # sum can round above 1).
        boundaries = np.minimum(np.cumsum(pmf[::-1]), 1.0)
        rates = np.array([0.0, 1.0, *rates, *boundaries])
        bins, fractions = threshold_levels(pmf, rates)
        for r, b, f in zip(rates, bins, fractions):
            assert (int(b), float(f)) == scan_threshold(pmf, float(r))

    @settings(max_examples=100, deadline=None)
    @given(w=weights, seed=st.integers(0, 2**31))
    def test_values_match_expanded_policy(self, w, seed):
        rng = np.random.default_rng(seed)
        pmf = np.array(w, dtype=float) / sum(w)
        weight = rng.normal(size=len(pmf))
        rates = np.concatenate(([0.0, 1.0], rng.random(10)))
        bins, fractions = threshold_levels(pmf, rates)
        values = threshold_values(pmf, weight, bins, fractions)
        g = group(pmf)
        for r, v in zip(rates, values):
            tau = threshold_policy_for_rate(g, r).expand(make_grid(len(pmf))).tau("a")
            assert abs(v - float(pmf @ (tau * weight))) <= 1e-12

    def test_nan_rate_rejected(self):
        with pytest.raises(DomainError):
            threshold_levels(np.array([0.5, 0.5]), np.array([0.2, np.nan]))

    @pytest.mark.parametrize(
        "rates, shape",
        [(0.5, r"\(\)"), (np.float64(0.5), r"\(\)"), ([[0.5]], r"\(1, 1\)"),
         (np.zeros((2, 1)), r"\(2, 1\)")],
    )
    def test_rates_that_are_not_a_vector(self, rates, shape):
        with pytest.raises(
            DimensionError, match=rf"^rates must be a 1-D vector, got shape {shape}$"
        ):
            threshold_levels(np.array([0.5, 0.5]), rates)

    @pytest.mark.parametrize(
        "rates, bad",
        [(["0.5"], "'0.5'"), ([True], "True"), (np.array([True]), "True"),
         ([0.2, None], "None"), ([0.2, 1j], "1j"), (np.array(["0.5"]), "'0.5'"),
         ([[0.5], [0.5, 0.2]], r"\[0.5\]")],
    )
    def test_rate_entries_that_are_not_real_numbers(self, rates, bad):
        i = 1 if len(rates) == 2 and not isinstance(rates[0], list) else 0
        with pytest.raises(
            DomainError, match=rf"^rates\[{i}\] must be a real number, got {bad}$"
        ):
            threshold_levels(np.array([0.5, 0.5]), rates)

    def test_rates_of_integers_and_tuples(self):
        pmf = np.array([0.5, 0.5])
        for rates in ((0, 1), np.array([0, 1]), [np.float32(0.0), 1]):
            bins, fractions = threshold_levels(pmf, rates)
            assert bins.tolist() == [1, 0] and fractions.tolist() == [0.0, 1.0]


@st.composite
def zeroed_pmfs(draw):
    """A pmf over 1-400 bins with exact zeros: at the top bin, the bottom
    bin and inside, each or not, and a share of the rest."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random(n) * (rng.random(n) < draw(st.sampled_from([0.3, 0.8, 1.0])))
    for i, zero in ((n - 1, draw(st.booleans())), (0, draw(st.booleans()))):
        if zero:
            raw[i] = 0.0
    if raw.sum() == 0:
        raw[rng.integers(n)] = 1.0
    return raw / raw.sum()


def _bits(threshold):
    """A threshold ``(bin, boundary)`` as ``(int, hex)``, so that equal
    tuples are equal bit for bit, the sign of a zero included."""
    b, boundary = threshold
    return int(b), float(boundary).hex()


class TestThresholdAtOneRate:
    @settings(max_examples=200, deadline=None)
    @given(pmf=zeroed_pmfs(), seed=st.integers(0, 2**31))
    def test_equals_the_array_form_and_the_scan(self, pmf, seed):
        # Each top-down cumulative mass sits exactly on a bin boundary; the
        # rounded total can be just below 1, and a rate just above it then
        # needs the bottom bin's whole mass and more.
        reach = np.cumsum(pmf[::-1])
        total = float(reach[-1])
        rates = [0.0, 1.0, *np.random.default_rng(seed).random(20).tolist()]
        rates += [r for r in reach.tolist() if r <= 1.0]
        if np.nextafter(total, 2.0) <= 1.0:
            rates.append(float(np.nextafter(total, 2.0)))
        # The scan in Python floats, the same IEEE doubles, runs faster.
        masses = pmf.tolist()
        for rate in rates:
            got = _threshold_at(pmf, rate)
            assert type(got[0]) is int and type(got[1]) is float
            bins, fractions = _threshold_levels(pmf, np.array([rate]))
            assert _bits(got) == _bits((bins[0], fractions[0])), rate
            assert _bits(got) == _bits(scan_threshold(masses, rate)), rate

    def test_threshold_policy_for_rate_takes_it(self):
        g = group((0.0, 0.8, 0.2, 0.0))
        for rate in (0.0, 0.1, 0.2, 0.5, 1.0):
            th = threshold_policy_for_rate(g, rate).thresholds["a"]
            assert (th.threshold_bin, th.boundary_acceptance) == _threshold_at(g.pmf, rate)


class TestExpand:
    grid = make_grid(3)

    def expand(self, threshold_bin, boundary):
        rule = RandomizedThresholdPolicy({"a": GroupThreshold(threshold_bin, boundary)})
        return rule.expand(self.grid).tau("a").tolist()

    def test_an_integral_float_bin_is_its_integer(self):
        assert self.expand(1.0, 0.5) == self.expand(1, 0.5) == [0.0, 0.5, 1.0]
        assert self.expand(np.int64(2), np.float32(0.25)) == [0.0, 0.0, 0.25]

    @pytest.mark.parametrize("value", [True, "1", 1.5, None, np.nan])
    def test_bin_that_is_not_an_integer(self, value):
        with pytest.raises(
            DomainError, match=r"^group 'a': threshold bin must be an integer, got "
        ):
            self.expand(value, 0.5)

    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
    def test_boundary_that_is_not_a_real_number(self, value):
        with pytest.raises(
            DomainError,
            match=r"^group 'a': boundary acceptance must be a real number, got ",
        ):
            self.expand(1, value)

    @pytest.mark.parametrize(
        "threshold_bin, boundary, message",
        [(3, 0.5, "threshold bin 3 outside grid"), (-1, 0.5, "threshold bin -1 outside grid"),
         (1, 1.5, r"boundary acceptance 1.5 outside \[0,1\]"),
         (1, np.nan, r"boundary acceptance nan outside \[0,1\]")],
    )
    def test_values_out_of_range(self, threshold_bin, boundary, message):
        with pytest.raises(DomainError, match=rf"^group 'a': {message}$"):
            self.expand(threshold_bin, boundary)


class TestInstitutionUtility:
    def setup_method(self):
        self.grid = make_grid(2)
        self.pop = make_population(self.grid, {"a": (0.5, 0.5)}, {"a": 1.0})
        self.outcome = OutcomeModel(
            rho={"a": (0.2, 0.8)}, steps_up=1, steps_down=1
        )

    def test_no_decisions_no_utility(self):
        pol = Policy.from_arrays({"a": np.zeros(2)})
        inst = InstitutionModel(3.0, -5.0)
        assert institution_utility(pol, self.pop, self.outcome, inst) == 0.0

    def test_all_succeed(self):
        pop = make_population(self.grid, {"a": (0.5, 0.5)}, {"a": 1.0})
        outcome = OutcomeModel(rho={"a": (1.0, 1.0)}, steps_up=1, steps_down=1)
        pol = Policy.from_arrays({"a": np.ones(2)})
        inst = InstitutionModel(1.0, -7.0)
        assert institution_utility(pol, pop, outcome, inst) == pytest.approx(1.0)

    def test_top_bin_enumeration(self):
        # only top bin accepted: 0.5 * (0.8*1 + 0.2*(-1)) = 0.3
        pol = Policy.from_arrays({"a": np.array([0.0, 1.0])})
        inst = InstitutionModel(1.0, -1.0)
        assert institution_utility(pol, self.pop, self.outcome, inst) == (
            pytest.approx(0.3, abs=1e-15)
        )

    def test_linear_in_tau(self, rng):
        inst = InstitutionModel(2.0, -3.0)
        for _ in range(100):
            t1 = rng.random(2)
            t2 = rng.random(2)
            alpha = float(rng.random())
            mix = alpha * t1 + (1 - alpha) * t2
            u_mix = institution_utility(
                Policy.from_arrays({"a": mix}), self.pop, self.outcome, inst
            )
            u1 = institution_utility(
                Policy.from_arrays({"a": t1}), self.pop, self.outcome, inst
            )
            u2 = institution_utility(
                Policy.from_arrays({"a": t2}), self.pop, self.outcome, inst
            )
            assert abs(u_mix - (alpha * u1 + (1 - alpha) * u2)) <= 1e-12


def test_non_finite_utilities_rejected():
    with pytest.raises(DomainError):
        InstitutionModel(float("inf"), 0.0)


@pytest.mark.parametrize("value", [True, None, "1.0", [1.0]])
def test_utility_that_is_not_a_real_number_rejected(value):
    with pytest.raises(DomainError, match=r"^u_minus must be a real number, got "):
        InstitutionModel(1.0, value)


def test_policy_entries_validated():
    with pytest.raises(DomainError):
        Policy.from_arrays({"a": np.array([0.5, 1.5])})


def test_nan_policy_entry_rejected():
    with pytest.raises(DomainError, match="NaN"):
        Policy.from_arrays({"a": np.array([0.5, np.nan])})


def test_acceptance_is_read_only():
    # The range check holds for the policy's lifetime: neither the mapping
    # nor its vectors can be written.
    pol = Policy({"a": [0.5, 0.5]})
    with pytest.raises(TypeError):
        pol.acceptance["a"] = np.array([10.0, 10.0])
    with pytest.raises(TypeError):
        del pol.acceptance["a"]
    with pytest.raises(ValueError):
        pol.tau("a")[0] = 10.0
    assert pol.tau("a").tolist() == [0.5, 0.5]
    # A copy with one group replaced is a new, checked policy.
    other = Policy({**pol.acceptance, "b": [1.0, 0.0]})
    assert other.group_ids == ("a", "b") and other.tau("a").tolist() == [0.5, 0.5]


def test_policy_pickles_and_copies():
    import copy
    import pickle

    pol = Policy({"b": [0.5, 0.25], "a": [1.0, 0.0]})
    for loaded in (pickle.loads(pickle.dumps(pol)), copy.deepcopy(pol)):
        assert loaded.group_ids == ("b", "a")
        for gid in pol.group_ids:
            assert np.array_equal(loaded.tau(gid), pol.tau(gid))
            assert not loaded.tau(gid).flags.writeable
        with pytest.raises(TypeError):
            loaded.acceptance["a"] = np.zeros(2)


def test_vectors_are_read_only_rows_of_one_matrix():
    pol = Policy({"b": [0.5, 0.25], "a": [1.0, 0.0]})
    matrix = pol._rows(("b", "a"))
    assert matrix.shape == (2, 2) and matrix.dtype == np.float64
    assert not matrix.flags.writeable
    for i, gid in enumerate(pol.group_ids):
        assert pol.tau(gid) is pol.acceptance[gid]
        assert pol.tau(gid).base is matrix and np.shares_memory(pol.tau(gid), matrix[i])
    # Another group order is a gathered copy; an unknown group is a KeyError.
    gathered = pol._rows(("a", "b"))
    assert gathered.tolist() == [[1.0, 0.0], [0.5, 0.25]]
    assert not np.shares_memory(gathered, matrix)
    with pytest.raises(KeyError, match="no acceptance vector for group 'c'"):
        pol._rows(("a", "c"))


def test_vectors_of_unequal_lengths_fail_at_construction():
    with pytest.raises(DimensionError, match="unequal lengths a=2 b=3"):
        Policy({"a": [0.5, 0.5], "b": [1.0, 0.0, 0.0]})
    with pytest.raises(DimensionError, match="1-D"):
        Policy({"a": 0.5, "b": 0.5})
    with pytest.raises(DimensionError, match="1-D"):
        Policy({"a": [[0.5, 0.5]], "b": [[1.0, 0.0]]})
    # A policy over no groups still constructs.
    assert Policy({}).group_ids == () and dict(Policy({}).acceptance) == {}


def test_replacing_one_vector_checks_only_that_vector(monkeypatch):
    pol = Policy({"a": [0.5, 0.5], "b": [1.0, 0.0], "c": [0.0, 1.0]})
    checked = []
    keep = Policy._keep

    def spy(self, group_ids, matrix, check=slice(None)):
        checked.append(matrix[check].tolist())
        return keep(self, group_ids, matrix, check)

    monkeypatch.setattr(Policy, "_keep", spy)
    new = _with_threshold(pol, "b", (0, 0.25))
    # The new row holds zeros, ones and its boundary, which lies in [0, 1],
    # so no row needs the check: the others are the policy's own.
    assert checked == [[]]
    assert new is not pol and new.group_ids == ("a", "b", "c")
    assert [new.tau(g).tolist() for g in new.group_ids] == [
        [0.5, 0.5], [0.25, 1.0], [0.0, 1.0]
    ]
    # The original is unchanged: the new policy fills a copy of its matrix.
    assert [pol.tau(g).tolist() for g in pol.group_ids] == [
        [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]
    ]
    assert not np.shares_memory(new._rows(new.group_ids), pol._rows(pol.group_ids))
    assert not new._rows(new.group_ids).flags.writeable
    assert not any(new.tau(g).flags.writeable for g in new.group_ids)
    with pytest.raises(TypeError):
        new.acceptance["b"] = np.zeros(2)
    # A boundary outside [0, 1] or NaN makes the new row, and only it, the
    # one checked, which fails naming its group.
    checked.clear()
    with pytest.raises(DomainError, match="group 'b'"):
        _with_threshold(pol, "b", (0, np.nan))
    assert len(checked) == 1 and checked[0][0][1] == 1.0
    assert np.isnan(checked[0][0][0]) and len(checked[0]) == 1
