"""Profiled cost models: interpolation, extrapolation and memoization."""

import pytest

from repro.serving import (
    PROFILE_STATS,
    CallableCostModel,
    ProfiledCostModel,
    TraceCostModel,
    clear_cost_cache,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cost_cache()
    yield
    clear_cost_cache()


def snapshot() -> dict:
    return dict(PROFILE_STATS)


class TestMemoization:
    def test_same_key_never_reprofiles(self):
        cost = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        cost.latency("2080ti", 8)
        before = snapshot()
        # Same (workload, fusion, batch size, device) again — cache only.
        cost.latency("2080ti", 8)
        cost.latency("2080ti", 12)  # different batch, same anchors
        assert snapshot()["captures"] == before["captures"]
        assert snapshot()["pricings"] == before["pricings"]

    def test_fresh_instance_shares_module_cache(self):
        ProfiledCostModel("avmnist", anchors=(1, 4, 16)).latency("2080ti", 8)
        before = snapshot()
        other = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        other.latency("2080ti", 8)
        after = snapshot()
        assert after["captures"] == before["captures"]
        assert after["pricings"] == before["pricings"]
        assert after["hits"] > before["hits"]

    def test_new_device_reprices_but_does_not_recapture(self):
        cost = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        cost.latency("2080ti", 8)
        before = snapshot()
        cost.latency("nano", 8)  # traces are device-independent
        after = snapshot()
        assert after["captures"] == before["captures"]
        assert after["pricings"] == before["pricings"] + 3  # one per anchor

    def test_default_fusion_aliases_none(self):
        from repro.workloads.registry import get_workload

        default = get_workload("avmnist").default_fusion
        ProfiledCostModel("avmnist", None, anchors=(1, 4)).latency("2080ti", 2)
        before = snapshot()
        ProfiledCostModel("avmnist", default, anchors=(1, 4)).latency("2080ti", 2)
        assert snapshot()["captures"] == before["captures"]
        assert snapshot()["pricings"] == before["pricings"]

    def test_device_aliases_share_cache(self):
        cost = ProfiledCostModel("avmnist", anchors=(1, 4, 16))
        cost.latency("2080ti", 8)
        before = snapshot()
        cost.latency("rtx2080ti", 8)  # canonical name of the same device
        assert snapshot()["pricings"] == before["pricings"]


class TestCurve:
    @pytest.fixture(scope="class")
    def cost(self):
        return ProfiledCostModel("avmnist", anchors=(1, 8, 32, 128))

    def test_monotone_in_batch_size(self, cost):
        times = [cost.latency("2080ti", k) for k in (1, 8, 24, 64, 128)]
        assert times == sorted(times)

    def test_amortization(self, cost):
        assert cost.latency("2080ti", 128) / 128 < cost.latency("2080ti", 1)

    def test_extrapolates_beyond_last_anchor(self, cost):
        inside = cost.latency("2080ti", 128)
        beyond = cost.latency("2080ti", 512)
        far = cost.latency("2080ti", 2048)
        assert inside < beyond < far  # affine growth, not np.interp clamping

    def test_extrapolates_below_first_anchor(self):
        # Non-default anchors starting above 1: small batches must ride the
        # first segment's slope down, not flat-clamp at the k=8 price.
        cost = ProfiledCostModel("avmnist", anchors=(8, 32, 128))
        t8 = cost.latency("2080ti", 8)
        t32 = cost.latency("2080ti", 32)
        slope = (t32 - t8) / (32 - 8)
        for k in (1, 2, 4, 7):
            priced = cost.latency("2080ti", k)
            assert priced < t8  # the old code returned t8 for all of these
            assert priced == pytest.approx(t8 - slope * (8 - k))
            assert priced > 0

    def test_below_anchor_extrapolation_floors_positive(self):
        import numpy as np

        from repro.serving.costmodel import _interp_affine

        # Superlinear anchor pair: the affine extrapolation would cross
        # zero at small k; the floor keeps pricing proportional instead.
        anchors = np.array([8.0, 32.0])
        times = np.array([1.0, 10.0])  # slope 0.375 -> affine at k=1: -1.625
        priced = _interp_affine(1, anchors, times)
        assert priced == pytest.approx(1.0 * 1 / 8)
        # The normal (positive-intercept) case is untouched by the floor.
        gentle = np.array([1.0, 1.24])  # slope 0.01/k
        assert _interp_affine(4, anchors, gentle) == pytest.approx(
            1.0 - (0.24 / 24) * 4)

    def test_default_anchors_monotone_and_amortized(self):
        cost = ProfiledCostModel("avmnist")
        times = [cost.latency("2080ti", k) for k in (1, 8, 64, 256)]
        assert times == sorted(times)
        # Per-task cost falls with batch size (amortized overheads).
        assert times[-1] / 256 < times[0] / 1

    def test_edge_slower_than_server(self, cost):
        assert cost.latency("nano", 32) > cost.latency("2080ti", 32)

    def test_throughput_optimal_batch(self, cost):
        best = cost.throughput_optimal_batch("2080ti", max_batch=128)
        rate = best / cost.latency("2080ti", best)
        assert rate >= 1 / cost.latency("2080ti", 1)

    def test_validation(self, cost):
        with pytest.raises(ValueError):
            cost.latency("2080ti", 0)
        with pytest.raises(ValueError):
            ProfiledCostModel("avmnist", anchors=())
        with pytest.raises(ValueError):
            ProfiledCostModel("avmnist", anchors=(8, 1))
        with pytest.raises(ValueError):
            # Floats that collapse into duplicate ints after truncation.
            ProfiledCostModel("avmnist", anchors=(1.2, 1.8))


class TestCallable:
    def test_delegates_and_validates(self):
        cost = CallableCostModel(lambda k: 1e-3 * k)
        assert cost.latency("anything", 2) == pytest.approx(2e-3)
        with pytest.raises(ValueError):
            cost.latency("anything", 0)
        with pytest.raises(ValueError, match="positive duration"):
            CallableCostModel(lambda k: -1.0).latency("d", 1)


@pytest.fixture(scope="module")
def stored_b1():
    from repro.trace.store import TraceStore

    return TraceStore().get_or_capture("avmnist", batch_size=1, backend="meta")


def engine_time(stored, device: str) -> float:
    from repro.hw.device import get_device
    from repro.hw.engine import ExecutionEngine

    return ExecutionEngine(get_device(device)).run(
        stored.trace, model_bytes=stored.parameter_bytes,
        input_bytes=stored.input_bytes).total_time


class TestTraceCostModel:
    """The serving adapter for stored (e.g. ingested) traces."""

    @pytest.mark.parametrize("base", [1, 4])
    def test_base_batch_prices_the_stored_trace_unscaled(self, base):
        from repro.trace.store import TraceStore

        stored = TraceStore().get_or_capture("avmnist", batch_size=base,
                                             backend="meta")
        cost = TraceCostModel(stored, base_batch_size=base, anchors=(1, 4, 16))
        assert cost.latency("2080ti", base) == pytest.approx(
            engine_time(stored, "2080ti"), rel=1e-12)

    def test_monotone_and_amortized(self, stored_b1):
        cost = TraceCostModel(stored_b1)
        times = [cost.latency("2080ti", k) for k in (1, 8, 64, 256)]
        assert times == sorted(times)
        assert times[-1] / 256 < times[0] / 1

    def test_curve_priced_once_per_device(self, stored_b1):
        cost = TraceCostModel(stored_b1, anchors=(1, 4, 16))
        before = snapshot()["pricings"]
        cost.latency("2080ti", 8)
        assert snapshot()["pricings"] == before + 3  # one per anchor
        cost.latency("2080ti", 12)
        cost.latency("rtx2080ti", 8)  # canonical name of the same device
        assert snapshot()["pricings"] == before + 3
        cost.latency("nano", 8)
        assert snapshot()["pricings"] == before + 6

    def test_edge_slower_than_server(self, stored_b1):
        cost = TraceCostModel(stored_b1)
        assert cost.latency("nano", 32) > cost.latency("2080ti", 32)

    def test_drives_a_closed_batch_simulation(self, stored_b1):
        from repro.serving import FixedBatchPolicy, simulate

        cost = TraceCostModel(stored_b1)
        report = simulate(cost, FixedBatchPolicy(8), devices=("2080ti",),
                          n_requests=64)
        assert report.makespan == pytest.approx(8 * cost.latency("2080ti", 8))

    def test_name_defaults_to_model_name(self, stored_b1):
        assert TraceCostModel(stored_b1).name == stored_b1.model_name
        assert TraceCostModel(stored_b1, name="g").name == "g"

    def test_validation(self, stored_b1):
        with pytest.raises(ValueError, match="anchors"):
            TraceCostModel(stored_b1, anchors=(8, 1))
        with pytest.raises(ValueError, match="base_batch_size"):
            TraceCostModel(stored_b1, base_batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            TraceCostModel(stored_b1).latency("2080ti", 0)
