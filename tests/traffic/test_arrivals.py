"""The seeded arrival processes and the shared offset resolver."""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ClusterError
from repro.traffic import (
    ArrivalProcess,
    ClientChurn,
    Diurnal,
    FlashCrowd,
    ParetoHeavyTail,
    Poisson,
    resolve_offsets,
)
from repro.traffic.arrivals import POISSON_CHUNK, resolves_sorted

ALL_PROCESSES = [
    Poisson(rate=200.0, seed=3),
    ParetoHeavyTail(alpha=1.8, scale=0.002, seed=3),
    Diurnal(curve=(1.0, 3.0, 1.0), period=0.5, seed=3),
    FlashCrowd(at=0.05, magnitude=3.0, decay=0.01, rate=150.0, seed=3),
    ClientChurn(join_rate=300.0, leave_rate=100.0, seed=3),
]


class TestDeterminism:
    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_same_seed_same_offsets(self, process):
        # One seeded stream per process: offsets() is a pure function, so
        # consecutive calls (record, replay, rerun) never drift.
        assert process.offsets(64) == process.offsets(64)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_different_seed_different_offsets(self, process):
        from dataclasses import replace

        assert process.offsets(64) != replace(process, seed=99).offsets(64)

    @pytest.mark.parametrize("process", ALL_PROCESSES, ids=lambda p: type(p).__name__)
    def test_offsets_sorted_non_negative_exact_count(self, process):
        offsets = process.offsets(128)
        assert len(offsets) == 128
        assert offsets.tolist() == sorted(offsets)
        assert all(offset >= 0.0 for offset in offsets)

    def test_zero_count(self):
        assert Poisson(rate=10.0).offsets(0).tolist() == []
        assert resolve_offsets(Poisson(rate=10.0), 0).tolist() == []


class TestShapes:
    def test_poisson_mean_spacing(self):
        offsets = Poisson(rate=100.0, seed=1).offsets(2000)
        # Mean inter-arrival ~ 1/rate; generous tolerance, fixed seed.
        assert offsets[-1] / 2000 == pytest.approx(0.01, rel=0.2)

    def test_flash_crowd_clusters_at_the_spike(self):
        process = FlashCrowd(at=0.5, magnitude=4.0, decay=0.01, rate=10.0, seed=2)
        offsets = process.offsets(1000)
        crowd = [o for o in offsets if 0.5 <= o <= 0.5 + 0.1]
        # magnitude=4 puts ~80% of the mass in the crowd.
        assert len(crowd) > 600

    def test_diurnal_mass_follows_the_curve(self):
        process = Diurnal(curve=(1.0, 9.0), period=1.0, seed=4)
        offsets = process.offsets(2000)
        assert all(0.0 <= o < 1.0 for o in offsets)
        peak = sum(1 for o in offsets if o >= 0.5)
        assert peak > 1500  # 90% of intensity lives in the second half

    def test_client_churn_gates_joins_on_departures(self):
        process = ClientChurn(join_rate=1000.0, leave_rate=10.0, population=5, seed=5)
        offsets = process.offsets(50)
        # With a pool of 5 and slow departures, later joiners wait for a
        # slot: the 6th arrival is dominated by a session expiry, not by
        # the (fast) join stream.
        assert offsets[5] > offsets[4]
        assert offsets[-1] > offsets[4] * 2


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poisson(rate=0.0),
            lambda: ParetoHeavyTail(alpha=0.0),
            lambda: ParetoHeavyTail(scale=0.0),
            lambda: Diurnal(curve=()),
            lambda: Diurnal(curve=(1.0, -1.0)),
            lambda: Diurnal(curve=(0.0, 0.0)),
            lambda: Diurnal(period=0.0),
            lambda: FlashCrowd(at=-1.0),
            lambda: FlashCrowd(decay=0.0),
            lambda: ClientChurn(join_rate=0.0),
            lambda: ClientChurn(leave_rate=0.0),
            lambda: ClientChurn(population=0),
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ClusterError):
            build()

    def test_negative_count_rejected(self):
        with pytest.raises(ClusterError, match="count must be non-negative"):
            Poisson(rate=1.0).offsets(-1)
        with pytest.raises(ClusterError, match="count must be non-negative"):
            resolve_offsets(0.1, -1)

    def test_sample_count_mismatch_rejected(self):
        class Short(ArrivalProcess):
            def sample(self, rng, count):
                return [0.0] * (count - 1)

        with pytest.raises(ClusterError, match="produced 3 offsets for 4"):
            Short().offsets(4)


class TestResolveOffsets:
    def test_scalar_spacing(self):
        assert resolve_offsets(0.5, 4).tolist() == [0.0, 0.5, 1.0, 1.5]

    def test_callable(self):
        assert resolve_offsets(lambda i: i * i * 0.1, 4).tolist() == pytest.approx(
            [0.0, 0.1, 0.4, 0.9]
        )

    def test_process_delegates_to_offsets(self):
        process = Poisson(rate=50.0, seed=9)
        assert resolve_offsets(process, 16) == process.offsets(16)

    def test_negative_spacing_rejected(self):
        with pytest.raises(ClusterError, match="spacing must be non-negative"):
            resolve_offsets(-0.1, 4)

    def test_negative_callable_offset_rejected(self):
        with pytest.raises(ClusterError, match="offsets must be non-negative"):
            resolve_offsets(lambda i: -1.0, 2)

    def test_recorded_offsets_are_copied_verbatim(self):
        recorded = [0.3, 0.1, 0.2]
        for sequence in (recorded, tuple(recorded), array("d", recorded)):
            offsets = resolve_offsets(sequence, 3)
            assert offsets.tolist() == recorded
            assert offsets is not sequence

    @pytest.mark.parametrize(
        "arrival, presorted",
        [
            (0.5, True),
            (Poisson(rate=5.0), True),
            (lambda position: 1.0 - position, False),
            ([0.2, 0.1], False),
        ],
    )
    def test_resolves_sorted(self, arrival, presorted):
        assert resolves_sorted(arrival) is presorted
        if presorted:
            offsets = resolve_offsets(arrival, 50)
            assert offsets.tolist() == sorted(offsets)

    def test_recorded_offsets_must_match_the_count(self):
        with pytest.raises(ClusterError, match="2 recorded arrival offsets for 3"):
            resolve_offsets([0.0, 0.1], 3)

    @pytest.mark.parametrize(
        "arrival",
        [
            *ALL_PROCESSES,
            0.5,
            lambda position: 1.0 - position * 0.01,
            [0.3, 0.1] * 25,
            (0.3, 0.1) * 25,
            array("d", [0.3, 0.1] * 25),
        ],
        ids=lambda arrival: type(arrival).__name__,
    )
    def test_every_form_resolves_to_packed_doubles(self, arrival):
        offsets = resolve_offsets(arrival, 50)
        assert isinstance(offsets, array) and offsets.typecode == "d"
        assert len(offsets) == 50


class TestSortedSample:
    def test_only_monotone_processes_skip_the_sort(self):
        assert Poisson.sorted_sample and ParetoHeavyTail.sorted_sample
        for process in (Diurnal, FlashCrowd, ClientChurn, ArrivalProcess):
            assert not process.sorted_sample

    def test_flag_is_not_a_setting(self):
        from dataclasses import fields

        assert "sorted_sample" not in {field.name for field in fields(Poisson)}
        with pytest.raises(TypeError):
            Poisson(rate=1.0, sorted_sample=False)

    def test_subclass_overriding_sample_is_sorted_again(self):
        class Backwards(Poisson):
            def sample(self, rng, count):
                return reversed(list(super().sample(rng, count)))

        assert not Backwards.sorted_sample
        offsets = Backwards(rate=10.0, seed=1).offsets(40)
        assert offsets.tolist() == sorted(offsets)
        assert offsets == Poisson(rate=10.0, seed=1).offsets(40)


def _reference_poisson(rate, seed, count):
    """The pre-vectorised draw: expovariate gaps added one at a time."""
    rng = random.Random(seed)
    now = 0.0
    offsets = []
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return sorted(offsets)


class TestPoissonBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(min_value=1e-3, max_value=1e7),
        count=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_offsets_equal_the_expovariate_accumulation(self, seed, rate, count):
        offsets = Poisson(rate=rate, seed=seed).offsets(count)
        expected = _reference_poisson(rate, seed, count)
        assert [value.hex() for value in offsets] == [
            value.hex() for value in expected
        ]

    @pytest.mark.parametrize(
        "count",
        [0, 1, POISSON_CHUNK - 1, POISSON_CHUNK, POISSON_CHUNK + 1, 3 * POISSON_CHUNK + 7],
    )
    def test_running_sum_carries_across_chunks(self, count):
        offsets = Poisson(rate=250.0, seed=17).offsets(count)
        expected = _reference_poisson(250.0, 17, count)
        assert [value.hex() for value in offsets] == [
            value.hex() for value in expected
        ]


class TestNonFiniteSettingsRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build, setting",
        [
            (lambda v: Poisson(rate=v), "Poisson rate"),
            (lambda v: ParetoHeavyTail(alpha=v), "ParetoHeavyTail alpha"),
            (lambda v: ParetoHeavyTail(scale=v), "ParetoHeavyTail scale"),
            (lambda v: Diurnal(curve=(1.0, v)), "Diurnal curve weight"),
            (lambda v: Diurnal(period=v), "Diurnal period"),
            (lambda v: FlashCrowd(at=v), "FlashCrowd at"),
            (lambda v: FlashCrowd(magnitude=v), "FlashCrowd magnitude"),
            (lambda v: FlashCrowd(decay=v), "FlashCrowd decay"),
            (lambda v: FlashCrowd(rate=v), "FlashCrowd rate"),
            (lambda v: ClientChurn(join_rate=v), "ClientChurn join_rate"),
            (lambda v: ClientChurn(leave_rate=v), "ClientChurn leave_rate"),
        ],
    )
    def test_process_settings(self, build, setting, bad):
        with pytest.raises(ClusterError, match=f"{setting} must be finite"):
            build(bad)

    def test_nan_rate_no_longer_yields_nan_offsets(self):
        with pytest.raises(ClusterError, match="Poisson rate must be finite"):
            Poisson(rate=math.nan).offsets(3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_spacing(self, bad):
        with pytest.raises(ClusterError, match="arrival spacing must be finite"):
            resolve_offsets(bad, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_callable_offsets(self, bad):
        with pytest.raises(ClusterError, match="arrival offsets must be finite"):
            resolve_offsets(lambda i: bad if i == 1 else 0.0, 3)

    def test_recorded_offsets(self):
        with pytest.raises(ClusterError, match="arrival offsets must be finite"):
            resolve_offsets([0.0, math.nan, 0.2], 3)
