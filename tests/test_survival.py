import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omicsurv import survival
from omicsurv.dataio import FeatureMatrix
from omicsurv.errors import DataError
from omicsurv.survival import SurvivalLabel

from conftest import record
from cross_checks import survival_at


class TestMakeLabel:
    def test_survived(self):
        assert survival.make_label(record(time=70, event=True), 60) is SurvivalLabel.SURVIVED
        assert survival.make_label(record(time=70, event=False), 60) is SurvivalLabel.SURVIVED

    def test_died(self):
        assert survival.make_label(record(time=50, event=True), 60) is SurvivalLabel.DIED

    def test_dropped(self):
        assert survival.make_label(record(time=50, event=False), 60) is SurvivalLabel.DROPPED

    def test_boundary_not_survived(self):
        assert survival.make_label(record(time=60, event=True), 60) is SurvivalLabel.DIED
        assert survival.make_label(record(time=60, event=False), 60) is SurvivalLabel.DROPPED

    def test_nonpositive_horizon(self):
        with pytest.raises(DataError):
            survival.make_label(record(), 0)
        with pytest.raises(DataError, match="horizon must be positive, got nan"):
            survival.make_label(record(), float("nan"))

    @given(st.floats(0, 200), st.booleans(), st.floats(0.1, 200))
    @settings(max_examples=200, deadline=None)
    def test_three_branch_oracle(self, c, event, t):
        expected = (SurvivalLabel.SURVIVED if c > t
                    else SurvivalLabel.DIED if event
                    else SurvivalLabel.DROPPED)
        assert survival.make_label(record(time=c, event=event), t) is expected


class TestMakeLabeledDataset:
    def test_drops_censored_and_unknown(self):
        feats = FeatureMatrix(["p0", "p1", "p2"], ["f"],
                              np.arange(3.0).reshape(3, 1))
        clinical = [record("p0", time=100.0, event=False),     # survived
                    record("p1", time=10.0, event=False)]      # dropped
        # p2 has no clinical record -> dropped
        ds = survival.make_labeled_dataset(feats, clinical, 60.0)
        assert ds.features.patient_ids == ["p0"]
        np.testing.assert_array_equal(ds.labels, [1])

    def test_all_dropped_raises(self):
        feats = FeatureMatrix(["p0"], ["f"], np.zeros((1, 1)))
        with pytest.raises(DataError, match="every patient was dropped"):
            survival.make_labeled_dataset(
                feats, [record("p0", time=5.0, event=False)], 60.0)


class TestKaplanMeier:
    def test_no_censoring_empirical(self):
        records = [record(f"p{i}", time=t) for i, t in enumerate([1, 2, 3, 4])]
        (curve,) = survival.kaplan_meier(records)
        np.testing.assert_array_equal(curve.event_times, [1, 2, 3, 4])
        np.testing.assert_allclose(curve.survival_probabilities,
                                   [0.75, 0.5, 0.25, 0.0])
        np.testing.assert_array_equal(curve.at_risk_counts, [4, 3, 2, 1])

    def test_hand_censored_case(self):
        records = [record("a", time=1, event=True),
                   record("b", time=2, event=False),
                   record("c", time=3, event=True)]
        (curve,) = survival.kaplan_meier(records)
        np.testing.assert_array_equal(curve.event_times, [1, 3])
        # (1 - 1/3) then * (1 - 1/1)
        assert curve.survival_probabilities[0] == pytest.approx(2 / 3, abs=1e-12)
        assert curve.survival_probabilities[1] == pytest.approx(0.0, abs=1e-12)

    def test_all_censored(self):
        records = [record(f"p{i}", time=t, event=False)
                   for i, t in enumerate([1, 2, 3])]
        (curve,) = survival.kaplan_meier(records)
        assert len(curve.event_times) == 0

    def test_deaths_before_censorings_at_ties(self):
        records = [record("a", time=2, event=True),
                   record("b", time=2, event=False),
                   record("c", time=3, event=True)]
        (curve,) = survival.kaplan_meier(records)
        # at t=2 all 3 at risk: S = 2/3; at t=3 one at risk: S = 0
        np.testing.assert_allclose(curve.survival_probabilities, [2 / 3, 0.0])
        np.testing.assert_array_equal(curve.at_risk_counts, [3, 1])

    def test_group_by(self):
        records = [record("a", time=1, group="g1"),
                   record("b", time=2, group="g2"),
                   record("c", time=3, group="g1")]
        curves = survival.kaplan_meier(records, group_by=True)
        assert [c.group_label for c in curves] == ["g1", "g2"]

    @given(st.lists(st.tuples(st.floats(0, 100), st.booleans()),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_curve_invariants(self, raw):
        records = [record(f"p{i}", time=t, event=e)
                   for i, (t, e) in enumerate(raw)]
        (curve,) = survival.kaplan_meier(records)
        s = curve.survival_probabilities
        assert (np.diff(s) <= 1e-12).all()
        assert ((s >= -1e-12) & (s <= 1 + 1e-12)).all()
        assert (np.diff(curve.at_risk_counts) <= 0).all()
        assert (np.diff(curve.event_times) > 0).all()


class TestSurvivalAt:
    def curve(self):
        records = [record(f"p{i}", time=t) for i, t in enumerate([1, 2, 3, 4])]
        return survival.kaplan_meier(records)[0]

    def test_before_first_event(self):
        assert survival_at(self.curve(), 0.0) == 1.0

    def test_step_lookup(self):
        assert survival_at(self.curve(), 2.5) == 0.5

    def test_beyond_last(self):
        assert survival_at(self.curve(), 100.0) == 0.0

    def test_negative_time(self):
        with pytest.raises(DataError):
            survival_at(self.curve(), -1.0)
