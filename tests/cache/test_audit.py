"""The cache leakage audit: honest policies pass, the LRU is caught."""

import pytest

from repro.cache.audit import (
    cache_subject,
    default_cache_workloads,
    replay_cache,
)
from repro.cache.policy import (
    CACHE_REGION,
    BatchResultCache,
    DecoderWeightCache,
    IndexKeyedLRUCache,
    StaticResidencyCache,
)
from repro.oblivious.trace import MemoryTracer
from repro.telemetry.audit import LeakageAuditor, LeakageError

FACTORIES = {
    "static-residency": lambda t: StaticResidencyCache(2 ** 24, tracer=t),
    "decoder-reuse": lambda t: DecoderWeightCache(tracer=t),
    "batch-shared": lambda t: BatchResultCache(tracer=t),
}


class TestHonestPolicies:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_exact_mode_audit_passes(self, name):
        finding = LeakageAuditor().audit(
            cache_subject(FACTORIES[name], name=name))
        assert finding.passed, finding
        assert not finding.leak_detected
        assert finding.divergence == 0.0

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_check_returns_finding(self, name):
        finding = LeakageAuditor().check(
            cache_subject(FACTORIES[name], name=name))
        assert finding.passed

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_decisions_are_traced(self, name):
        tracer = MemoryTracer()
        replay_cache(FACTORIES[name](tracer),
                     default_cache_workloads()[0])
        events = tracer.snapshot()
        assert events, "policy recorded no admission decisions"
        assert {event.region for event in events} == {CACHE_REGION}


class TestNegativeControl:
    def test_lru_is_flagged(self):
        finding = LeakageAuditor().audit(cache_subject(
            lambda t: IndexKeyedLRUCache(64, tracer=t),
            name="index-keyed-lru", expect_oblivious=False))
        assert finding.leak_detected
        assert finding.divergence > 0.0
        assert finding.passed      # leak expected -> finding passes

    def test_check_raises(self):
        auditor = LeakageAuditor()
        with pytest.raises(LeakageError, match="side channel") as caught:
            auditor.check(cache_subject(
                lambda t: IndexKeyedLRUCache(64, tracer=t),
                name="index-keyed-lru"))
        assert caught.value.subject == "index-keyed-lru"
        assert caught.value.divergence > auditor.divergence_threshold


class TestWorkloads:
    def test_default_workloads_are_contrasting(self):
        workloads = default_cache_workloads()
        assert len(workloads) == 3
        assert len({tuple(w) for w in workloads}) == 3
        lengths = {len(w) for w in workloads}
        assert len(lengths) == 1    # equal length: divergence is shape-free

    def test_validation(self):
        with pytest.raises(ValueError):
            default_cache_workloads(num_rows=0)
