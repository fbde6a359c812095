"""Property tests for the sharded device-memory plane.

These pin the *invariants* of :mod:`repro.hw.memory.sharding` rather than
point values (they run under the dev/ci hypothesis profiles registered in
``tests/conftest.py``):

* **conservation** — across any sequence of registrations, touches,
  promotions and fetch commits, every session's per-bank warm shards plus
  its cold remainder sum to its total off-chip bytes, the bank occupancy
  is exactly the sum of warm shards, and no bank exceeds its budget;
* **hot tokens are sacred** — bank eviction only ever moves warm shards to
  the cold tier; device-DRAM-resident (hot) bytes never change;
* **bank parallelism only helps** — for cluster-aligned layouts (bank
  count divides the cluster count) the fetch makespan is monotone
  non-increasing in the number of banks, and the single-bank split prices
  exactly like the unsharded KVMU fetch;
* **admission is a function of the fleet** — the residency-aware
  admission controller's admit/defer/evict decisions (and the resulting
  sojourns) are invariant under permutation of the profile listing order;
* **the incremental eviction index is the rescan it replaced** — random
  operation sequences on :class:`ShardedKVHierarchy` and on an oracle that
  rescans and sorts every session per promotion produce the same
  evictions, occupancy, fetch splits and promoted bytes at every step.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.dre.kvmu import KVFetchWork, KVMUModel
from repro.hw.memory.pcie import PCIE3_X4, PCIE4_X16, PCIeLink
from repro.hw.memory.sharding import (
    _COLD_SNAP_REL,
    EvictionRecord,
    ShardedKVHierarchy,
    ShardSplit,
    partition_by_cluster,
    sharded_fetch_makespan,
)
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import server_systems
from repro.sim.workload import default_llm_workload

GiB = 1024.0**3

session_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),  # offloaded
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),  # hot
        st.integers(min_value=1, max_value=64),  # clusters
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),  # hc tables
    ),
    min_size=1,
    max_size=6,
)
bank_configs = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.one_of(st.just(math.inf), st.floats(min_value=1e6, max_value=2e9)),
)
op_sequences = st.lists(
    st.tuples(st.sampled_from(["touch", "promote", "commit"]), st.integers(0, 5)),
    max_size=20,
)


def _build(bank_config, specs) -> ShardedKVHierarchy:
    num_banks, budget = bank_config
    hierarchy = ShardedKVHierarchy(num_banks=num_banks, bank_budget_bytes=budget)
    for session_id, (offloaded, hot, clusters, hc) in enumerate(specs):
        hierarchy.register(
            session_id,
            offloaded_bytes=offloaded,
            hot_bytes=hot,
            num_clusters=clusters,
            hc_table_bytes=hc,
        )
    return hierarchy


def _run_ops(hierarchy: ShardedKVHierarchy, ops, num_sessions: int) -> None:
    for op, index in ops:
        session = index % num_sessions
        if op == "touch":
            hierarchy.touch(session)
        elif op == "promote":
            hierarchy.promote(session)
        else:
            hierarchy.commit_fetch(session)


class TestShardConservation:
    @given(bank_config=bank_configs, specs=session_specs, ops=op_sequences)
    def test_shards_sum_to_offloaded_bytes(self, bank_config, specs, ops):
        """warm + cold == off-chip for every session, at every point."""
        hierarchy = _build(bank_config, specs)
        _run_ops(hierarchy, ops, len(specs))
        for session_id, (offloaded, _hot, _clusters, hc) in enumerate(specs):
            offchip = offloaded + hc
            warm = hierarchy.warm_bytes(session_id).sum()
            cold = hierarchy.cold_bytes(session_id)
            # the cold remainder snaps ulp-level float-sum residue to zero,
            # so conservation holds to that (relative) slack
            assert warm + cold == pytest.approx(offchip, rel=1e-9, abs=1e-3)
            assert hierarchy.offchip_bytes(session_id) == offchip
            assert -1e-6 <= cold <= offchip + 1e-6
            # the partition itself is exact by construction
            home = partition_by_cluster(_clusters, hierarchy.num_banks, offchip)
            assert home.sum() == offchip

    @given(bank_config=bank_configs, specs=session_specs, ops=op_sequences)
    def test_occupancy_is_sum_of_warm_shards_and_respects_budgets(
        self, bank_config, specs, ops
    ):
        hierarchy = _build(bank_config, specs)
        _run_ops(hierarchy, ops, len(specs))
        total = np.zeros(hierarchy.num_banks)
        for session_id in range(len(specs)):
            total += hierarchy.warm_bytes(session_id)
        occupancy = hierarchy.bank_occupancy_bytes()
        assert occupancy == pytest.approx(total, rel=1e-9, abs=1e-6)
        assert np.all(occupancy <= hierarchy.bank_budget_bytes * (1 + 1e-12) + 1e-6)

    @given(bank_config=bank_configs, specs=session_specs, ops=op_sequences)
    def test_eviction_never_drops_hot_tokens(self, bank_config, specs, ops):
        """Demotion moves warm bank shards cold; device-resident bytes never move."""
        hierarchy = _build(bank_config, specs)
        _run_ops(hierarchy, ops, len(specs))
        for session_id, (_offloaded, hot, _clusters, _hc) in enumerate(specs):
            assert hierarchy.hot_bytes(session_id) == hot
        for eviction in hierarchy.evictions:
            assert eviction.bytes > 0  # only warm bank shards are demoted
            assert 0 <= eviction.bank < hierarchy.num_banks

    @given(specs=session_specs, ops=op_sequences)
    def test_unbounded_single_bank_is_always_fully_warm(self, specs, ops):
        """The degenerate configuration never demotes and never evicts."""
        hierarchy = _build((1, math.inf), specs)
        _run_ops(hierarchy, ops, len(specs))
        assert hierarchy.evictions == []
        for session_id in range(len(specs)):
            assert hierarchy.residency(session_id) == 1.0
            split = hierarchy.fetch_split(session_id)
            assert split.cold_fraction == 0.0

    @given(
        num_banks=st.integers(min_value=1, max_value=8),
        num_clusters=st.integers(min_value=1, max_value=200),
        total_mib=st.floats(min_value=0.01, max_value=4096.0, allow_nan=False),
        ops=op_sequences,
    )
    def test_unbounded_banks_report_exactly_zero_cold_fraction(
        self, num_banks, num_clusters, total_mib, ops
    ):
        """Fully-warm sessions never price a spurious SSD leg.

        Regression: with a non-bank-aligned cluster count the per-bank
        float fractions can sum to 1 - 1ulp; the cold fraction must come
        from the (snapped) byte remainder, not from ``1 - sum(fractions)``
        — a 1e-16 "cold" share would otherwise pay the SSD's whole fixed
        access latency and break makespan monotonicity in bank count.
        """
        hierarchy = ShardedKVHierarchy(num_banks=num_banks)
        hierarchy.register(0, total_mib * 1024**2, num_clusters=num_clusters)
        _run_ops(hierarchy, ops, 1)
        split = hierarchy.fetch_split(0)
        assert split.cold_fraction == 0.0
        assert hierarchy.cold_bytes(0) == 0.0
        assert hierarchy.residency(0) == 1.0
        assert hierarchy.evictions == []


class TestShardedFetchMakespan:
    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        clusters_per_8=st.integers(min_value=1, max_value=64),
        contiguous_kib=st.floats(min_value=1.0, max_value=512.0, allow_nan=False),
        from_ssd=st.booleans(),
        link=st.sampled_from([PCIE3_X4, PCIE4_X16]),
    )
    def test_makespan_monotone_in_bank_count_for_aligned_layouts(
        self, total_mib, clusters_per_8, contiguous_kib, from_ssd, link
    ):
        """More banks never slow a cluster-aligned fetch down."""
        kvmu = KVMUModel(PCIeLink(link))
        total_bytes = total_mib * 1024**2
        num_clusters = clusters_per_8 * 8  # aligned with every tested bank count
        work = KVFetchWork(total_bytes, contiguous_kib * 1024.0, from_ssd=from_ssd)
        times = []
        for num_banks in (1, 2, 4, 8):
            hierarchy = ShardedKVHierarchy(num_banks=num_banks)
            hierarchy.register(0, total_bytes, num_clusters=num_clusters)
            times.append(kvmu.sharded_fetch_time_s(work, hierarchy.fetch_split(0)))
        for wider, narrower in zip(times[1:], times, strict=False):
            assert wider <= narrower * (1 + 1e-12)

    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        num_clusters=st.integers(min_value=8, max_value=200),
        contiguous_kib=st.floats(min_value=1.0, max_value=512.0, allow_nan=False),
    )
    def test_makespan_monotone_for_unaligned_layouts_too(
        self, total_mib, num_clusters, contiguous_kib
    ):
        """The ``c % N`` mapping leaves the fullest bank with ``ceil(C/N)``
        clusters, which is non-increasing in N even when N does not divide
        C — so (with the cold-fraction snap in place) monotonicity is not
        limited to aligned layouts."""
        kvmu = KVMUModel(PCIeLink(PCIE4_X16))
        total_bytes = total_mib * 1024**2
        work = KVFetchWork(total_bytes, contiguous_kib * 1024.0)
        times = []
        for num_banks in (1, 2, 4, 8):
            hierarchy = ShardedKVHierarchy(num_banks=num_banks)
            hierarchy.register(0, total_bytes, num_clusters=num_clusters)
            times.append(kvmu.sharded_fetch_time_s(work, hierarchy.fetch_split(0)))
        for wider, narrower in zip(times[1:], times, strict=False):
            assert wider <= narrower * (1 + 1e-12)

    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        contiguous_kib=st.floats(min_value=1.0, max_value=512.0, allow_nan=False),
        from_ssd=st.booleans(),
    )
    def test_single_bank_split_prices_exactly_like_unsharded_fetch(
        self, total_mib, contiguous_kib, from_ssd
    ):
        kvmu = KVMUModel(PCIeLink(PCIE4_X16))
        work = KVFetchWork(total_mib * 1024**2, contiguous_kib * 1024.0, from_ssd)
        split = ShardSplit(warm_fractions=(1.0,), cold_fraction=0.0)
        assert kvmu.sharded_fetch_time_s(work, split) == kvmu.fetch_time_s(work)

    @given(
        total_mib=st.floats(min_value=0.1, max_value=512.0, allow_nan=False),
        cold_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_cold_shards_never_speed_a_fetch_up(self, total_mib, cold_fraction):
        """On a CPU-offload link, demoting shards to SSD cannot help."""
        kvmu = KVMUModel(PCIeLink(PCIE4_X16))
        total_bytes = total_mib * 1024**2
        work = KVFetchWork(total_bytes, 256 * 1024.0, from_ssd=False)
        warm_split = ShardSplit(warm_fractions=(1.0,), cold_fraction=0.0)
        mixed_split = ShardSplit(
            warm_fractions=(1.0 - cold_fraction,), cold_fraction=cold_fraction
        )
        mixed = kvmu.sharded_fetch_time_s(work, mixed_split)
        # pricing the cold share on the SSD tier can only be slower than
        # pricing the same share on the warm CPU path (max(pcie, ssd) >= pcie)
        same_split_all_warm = sharded_fetch_makespan(
            work.total_bytes,
            mixed_split,
            lambda b: kvmu.fetch_time_s(KVFetchWork(b, work.mean_contiguous_bytes)),
            lambda b: kvmu.fetch_time_s(KVFetchWork(b, work.mean_contiguous_bytes)),
        )
        assert mixed >= same_split_all_warm * (1 - 1e-12)
        # a fully-warm single bank prices exactly like the unsharded fetch
        assert kvmu.sharded_fetch_time_s(work, warm_split) == kvmu.fetch_time_s(work)
        assert sharded_fetch_makespan(0.0, mixed_split, lambda b: b, lambda b: b) == 0.0


class TestAdmissionPermutationInvariance:
    SYSTEM = server_systems(default_llm_workload().model_bytes())["V-Rex48"]
    PLANE = BatchLatencyModel(
        memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=6.0 * GiB)
    )

    @given(
        order=st.permutations(list(range(4))),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_admission_decisions_independent_of_listing_order(self, order, seed):
        """Admit/defer/evict outcomes are keyed on sessions, not list slots."""
        from repro.sim.arrivals import BurstyArrivals

        profiles = [
            StreamProfile(kv_len=40_000, session_id=index) for index in range(4)
        ]
        solo = self.PLANE.frame_step(self.SYSTEM, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals(burst_rate_hz=30.0, mean_idle_s=0.2).generate(
            4, 4, seed=seed
        )
        config = SchedulerConfig(
            deadline_s=2.0 * solo, max_queue_depth=2, admission="residency"
        )
        scheduler = ServingScheduler(self.PLANE, config)
        baseline = scheduler.run(self.SYSTEM, profiles, traces)
        permuted = scheduler.run(
            self.SYSTEM,
            [profiles[i] for i in order],
            [traces[i] for i in order],
        )

        def by_session(result):
            outcomes: dict[int, list] = {}
            for record in result.records:
                outcomes.setdefault(record.session_id, []).append(
                    (record.kind, record.job_index, record.admission, record.dropped)
                )
            return outcomes

        assert by_session(baseline) == by_session(permuted)
        for session_id in range(4):
            base_sojourns = [
                r.sojourn_s
                for r in baseline.records
                if r.session_id == session_id and not r.dropped
            ]
            perm_sojourns = [
                r.sojourn_s
                for r in permuted.records
                if r.session_id == session_id and not r.dropped
            ]
            assert base_sojourns == pytest.approx(perm_sojourns, rel=1e-9)


class TestRegisterBoundary:
    """Non-finite byte counts and fractional cluster counts fail loudly.

    Each would otherwise register silently and turn bank occupancy,
    ``residency()`` and the :class:`ShardSplit` fractions into NaN.
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["offloaded_bytes", "hot_bytes", "hc_table_bytes"])
    def test_non_finite_bytes_rejected(self, field, bad):
        hierarchy = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=GiB)
        kwargs = {"offloaded_bytes": 1e6, field: bad}
        with pytest.raises(ValueError, match=field):
            hierarchy.register(0, **kwargs)
        assert hierarchy.session_ids == []
        assert hierarchy.occupancy_version == 0

    def test_fractional_cluster_count_rejected(self):
        hierarchy = ShardedKVHierarchy(num_banks=2)
        with pytest.raises(ValueError, match="num_clusters"):
            hierarchy.register(0, 1e6, num_clusters=2.5)
        assert hierarchy.session_ids == []

    def test_integer_like_cluster_counts_accepted(self):
        hierarchy = ShardedKVHierarchy(num_banks=2)
        hierarchy.register(0, 1e6, num_clusters=np.int64(4))
        assert hierarchy.residency(0) == 1.0


class _RescanOracle:
    """The eviction plane as it was before the incremental index.

    Every promotion rescans all registered sessions and sorts the warm
    ones by ``(last_used, session_id)``; the admission probe is a dry run
    followed by a second, committing promotion.  Kept here as the
    reference the indexed :class:`ShardedKVHierarchy` must match exactly.
    """

    def __init__(self, num_banks: int, budget: float):
        self.num_banks = num_banks
        self.budget = budget
        self.occupancy = np.zeros(num_banks)
        self.home: dict[int, np.ndarray] = {}
        self.warm: dict[int, np.ndarray] = {}
        self.offchip: dict[int, float] = {}
        self.last_used: dict[int, int] = {}
        self.clock = 0
        self.evictions: list[EvictionRecord] = []

    def register(self, sid, offloaded, hot, clusters, hc) -> None:
        del hot
        offchip = offloaded + hc
        home = (
            partition_by_cluster(clusters, self.num_banks, offchip)
            if offchip > 0
            else np.zeros(self.num_banks)
        )
        warm = np.minimum(home, np.maximum(self.budget - self.occupancy, 0.0))
        self.occupancy += warm
        self.home[sid], self.warm[sid], self.offchip[sid] = home, warm, float(offchip)
        self.touch(sid)

    def touch(self, sid) -> None:
        self.last_used[sid] = self.clock
        self.clock += 1

    def cold_bytes(self, sid) -> float:
        cold = self.offchip[sid] - float(self.warm[sid].sum())
        return 0.0 if cold <= self.offchip[sid] * _COLD_SNAP_REL else cold

    def fetch_split(self, sid) -> ShardSplit:
        offchip = self.offchip[sid]
        if offchip <= 0:
            return ShardSplit(warm_fractions=(1.0,), cold_fraction=0.0)
        return ShardSplit(
            warm_fractions=tuple(float(f) for f in self.warm[sid] / offchip),
            cold_fraction=self.cold_bytes(sid) / offchip,
        )

    def _victims(self, bank, exclude) -> list[int]:
        candidates = [
            sid for sid in self.warm if sid not in exclude and self.warm[sid][bank] > 0
        ]
        candidates.sort(key=lambda sid: (self.last_used[sid], sid))
        return candidates

    def promote(self, sid, protected=(), dry_run=False) -> float:
        exclude = set(protected) | {sid}
        home, warm = self.home[sid], self.warm[sid]
        promoted = 0.0
        for bank in range(self.num_banks):
            need = home[bank] - warm[bank]
            if need <= home[bank] * _COLD_SNAP_REL:
                continue
            headroom = self.budget - self.occupancy[bank]
            freed = 0.0
            victims = []
            for victim in self._victims(bank, exclude):
                if headroom + freed >= need:
                    break
                victims.append((victim, float(self.warm[victim][bank])))
                freed += float(self.warm[victim][bank])
            gain = min(need, headroom + freed)
            if gain <= 0:
                continue
            promoted += gain
            if dry_run:
                continue
            for victim, bytes_out in victims:
                self.warm[victim][bank] = 0.0
                self.occupancy[bank] -= bytes_out
                self.evictions.append(EvictionRecord(victim, bank, bytes_out))
            warm[bank] += gain
            self.occupancy[bank] += gain
        return promoted

    def admit(self, sid, protected) -> float:
        """The old admission pair: dry-run probe, then commit if it covers."""
        cold = self.cold_bytes(sid)
        promotable = self.promote(sid, protected=protected, dry_run=True)
        if promotable >= cold * (1.0 - 1e-9):
            self.promote(sid, protected=protected)
            return promotable
        return 0.0

    def commit_fetch(self, sid, protected) -> ShardSplit:
        split = self.fetch_split(sid)
        self.touch(sid)
        if split.cold_fraction > 0.0:
            self.promote(sid, protected=protected)
        return split


#: whole-MiB sizes make exact ties (headroom + freed == need) common
mib_multiples = st.integers(min_value=0, max_value=1024).map(lambda n: n * 2.0**20)
shard_specs = st.tuples(
    st.one_of(mib_multiples, st.floats(min_value=0.0, max_value=1e9)),  # offloaded
    st.floats(min_value=0.0, max_value=1e9),  # hot
    st.integers(min_value=1, max_value=64),  # clusters
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),  # hc tables
)
oracle_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), shard_specs),
        st.tuples(
            st.sampled_from(["touch", "commit", "promote", "admit"]),
            st.integers(0, 11),
            st.frozensets(st.integers(0, 11), max_size=4),  # protected
        ),
    ),
    min_size=1,
    max_size=40,
)


class TestIndexMatchesRescanOracle:
    @given(
        num_banks=st.integers(min_value=1, max_value=6),
        budget=st.one_of(
            st.just(math.inf),
            st.integers(min_value=1, max_value=2048).map(lambda n: n * 2.0**20),
            st.floats(min_value=1e6, max_value=2e9),
        ),
        first=shard_specs,
        ops=oracle_ops,
    )
    @settings(max_examples=200, deadline=None)
    def test_every_step_matches_the_rescan(self, num_banks, budget, first, ops):
        indexed = ShardedKVHierarchy(num_banks, budget, sanitize=True)
        oracle = _RescanOracle(num_banks, budget)
        indexed.register(0, *first)
        oracle.register(0, *first)
        for op in ops:
            if op[0] == "register":
                sid = len(oracle.warm)
                indexed.register(sid, *op[1])
                oracle.register(sid, *op[1])
            else:
                kind, index, protected = op
                sid = index % len(oracle.warm)
                if kind == "touch":
                    indexed.touch(sid)
                    oracle.touch(sid)
                elif kind == "commit":
                    assert indexed.commit_fetch(sid, protected) == oracle.commit_fetch(
                        sid, protected
                    )
                elif kind == "promote":
                    assert indexed.promote(sid, protected) == oracle.promote(sid, protected)
                else:
                    fused = indexed.promote(sid, protected, require_full=True)
                    assert fused == oracle.admit(sid, protected)
            assert indexed.evictions == oracle.evictions
            np.testing.assert_array_equal(indexed.bank_occupancy_bytes(), oracle.occupancy)
            for sid in oracle.warm:
                assert indexed.fetch_split(sid) == oracle.fetch_split(sid)
                np.testing.assert_array_equal(indexed.warm_bytes(sid), oracle.warm[sid])

    def test_exact_fit_takes_no_extra_victim(self):
        """A victim that frees exactly the missing bytes ends the walk."""
        MiB = 2.0**20
        indexed = ShardedKVHierarchy(1, 200 * MiB, sanitize=True)
        oracle = _RescanOracle(1, 200 * MiB)
        for sid in range(3):
            indexed.register(sid, 100 * MiB)
            oracle.register(sid, 100 * MiB, 0.0, 1, 0.0)
        assert indexed.promote(2) == oracle.promote(2) == 100 * MiB
        assert indexed.evictions == oracle.evictions == [EvictionRecord(0, 0, 100 * MiB)]

    def test_full_promotion_tolerates_float_slack(self):
        """A plan short of the cold remainder by float-sum ulps still covers it."""
        MiB = 2.0**20
        indexed = ShardedKVHierarchy(2, 2200 * MiB, sanitize=True)
        oracle = _RescanOracle(2, 2200 * MiB)
        for sid, (offloaded, clusters) in enumerate([(1300 * MiB, 8), (3000 * MiB, 9)]):
            indexed.register(sid, offloaded, num_clusters=clusters)
            oracle.register(sid, offloaded, 0.0, clusters, 0.0)
        cold = indexed.cold_bytes(1)
        promoted = indexed.promote(1, require_full=True)
        assert cold * (1.0 - 1e-9) <= promoted < cold  # covered only within slack
        assert promoted == oracle.admit(1, ())
        assert indexed.evictions == oracle.evictions != []
