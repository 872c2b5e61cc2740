"""Named traffic scenarios: mix shapes and arrival processes."""

import math

import numpy as np
import pytest

from repro.serving import (
    FixedBatchPolicy,
    SCENARIO_NAMES,
    TenantSpec,
    get_scenario,
    scenario_columns,
    scenario_requests,
)
from repro.serving.scenarios import make_tenants


def tenants(n=3, weights=None):
    return [
        TenantSpec(f"t{i}", lambda k: 1e-4 + 1e-5 * k, FixedBatchPolicy(8),
                   weight=1.0 if weights is None else weights[i])
        for i in range(n)
    ]


def interarrivals(requests):
    arrivals = np.array([r.arrival for r in requests])
    return np.diff(arrivals)


class TestRegistry:
    def test_names(self):
        assert set(SCENARIO_NAMES) == {"uniform", "heavy-head", "diurnal",
                                       "bursty", "finetune"}
        for name in SCENARIO_NAMES:
            assert get_scenario(name).name == name

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("flat")


class TestStreams:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_sorted_tagged_and_deterministic(self, name):
        reqs = scenario_requests(name, tenants(), 2_000, arrival_rate=1_000.0,
                                 seed=3)
        again = scenario_requests(name, tenants(), 2_000, arrival_rate=1_000.0,
                                  seed=3)
        assert len(reqs) == 2_000
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
        assert [r.index for r in reqs] == list(range(2_000))
        assert {r.tenant for r in reqs} <= {"t0", "t1", "t2"}
        assert [(r.arrival, r.tenant) for r in reqs] == [
            (r.arrival, r.tenant) for r in again]

    def test_uniform_closed_batch(self):
        reqs = scenario_requests("uniform", tenants(), 100, arrival_rate=None)
        assert all(r.arrival == 0.0 for r in reqs)

    def test_uniform_respects_weights(self):
        reqs = scenario_requests("uniform", tenants(2, weights=(4.0, 1.0)),
                                 10_000, arrival_rate=1_000.0, seed=0)
        share = sum(1 for r in reqs if r.tenant == "t0") / len(reqs)
        assert 0.75 < share < 0.85

    def test_heavy_head_skews_to_the_first_tenant(self):
        reqs = scenario_requests("heavy-head", tenants(4), 10_000,
                                 arrival_rate=1_000.0, seed=0)
        counts = {f"t{i}": 0 for i in range(4)}
        for r in reqs:
            counts[r.tenant] += 1
        assert counts["t0"] > 2 * counts["t3"]
        assert counts["t0"] > counts["t1"] > counts["t3"]

    def test_diurnal_rate_actually_ramps(self):
        reqs = scenario_requests("diurnal", tenants(), 20_000,
                                 arrival_rate=2_000.0, seed=0)
        arrivals = np.array([r.arrival for r in reqs])
        # Eighth-of-span bins (a quarter cycle each, so peaks and troughs
        # don't cancel); request counts must swing with the sinusoid.
        edges = np.linspace(0.0, arrivals[-1], 9)
        counts = np.histogram(arrivals, bins=edges)[0]
        assert counts.max() > 2.0 * counts.min()

    def test_bursty_is_overdispersed(self):
        reqs = scenario_requests("bursty", tenants(), 20_000,
                                 arrival_rate=2_000.0, seed=0)
        gaps = interarrivals(reqs)
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 3.0  # Poisson interarrivals have cv^2 == 1

    def test_mean_rate_roughly_preserved(self):
        for name in ("diurnal", "bursty"):
            reqs = scenario_requests(name, tenants(), 50_000,
                                     arrival_rate=5_000.0, seed=1)
            span = reqs[-1].arrival - reqs[0].arrival
            realized = len(reqs) / span
            assert 0.7 * 5_000.0 < realized < 1.4 * 5_000.0, name


class TestValidation:
    def test_time_varying_scenarios_need_a_rate(self):
        for name in ("diurnal", "bursty"):
            with pytest.raises(ValueError, match="arrival rate"):
                scenario_requests(name, tenants(), 100, arrival_rate=None)

    def test_bad_args(self):
        with pytest.raises(ValueError, match="non-negative"):
            scenario_requests("uniform", tenants(), -1)
        with pytest.raises(ValueError, match="at least one tenant"):
            scenario_requests("uniform", [], 10)
        with pytest.raises(ValueError, match="positive"):
            scenario_requests("uniform", tenants(), 10, arrival_rate=0.0)
        assert scenario_requests("uniform", tenants(), 0) == []

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_raises(self, rate):
        for make in (scenario_requests, scenario_columns):
            with pytest.raises(ValueError, match="finite"):
                make("uniform", tenants(), 10, arrival_rate=rate)


class TestMakeTenants:
    def test_builds_profiled_specs(self):
        specs = make_tenants(("avmnist", "mmimdb"), slo=25e-3)
        assert [s.name for s in specs] == ["avmnist", "mmimdb"]
        assert all(s.slo == 25e-3 for s in specs)
        assert specs[0].cost.latency("2080ti", 4) > 0

    def test_weights_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            make_tenants(("avmnist",), weights=(1.0, 2.0))
