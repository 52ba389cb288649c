"""Integration tests for the Widx DSA variants."""

import pytest

from repro.core.config import table3_config
from repro.dsa import (
    WidxAddressModel,
    WidxBaselineModel,
    WidxWorkload,
    WidxXCacheModel,
    matched_cache_config,
)
from repro.data import HashIndex
from repro.harness.profiles import get_profile
from repro.mem import MemoryImage
from repro.workloads import TPCH_QUERIES, make_widx_workload


@pytest.fixture(scope="module")
def workload():
    return make_widx_workload(num_keys=256, num_probes=512, num_buckets=128,
                              skew=1.2, hash_cycles=20, seed=11)


@pytest.fixture(scope="module")
def config():
    return table3_config("widx", scale=0.03125)


def test_xcache_variant_validates(workload, config):
    result = WidxXCacheModel(workload, config=config).run()
    assert result.checks_passed
    assert result.requests == 512
    assert result.cycles > 0
    assert 0.0 < result.hit_rate < 1.0
    assert result.energy is not None and result.energy.total_pj > 0


def test_baseline_variant_validates(workload):
    result = WidxBaselineModel(workload, num_walkers=2).run()
    assert result.checks_passed
    assert result.variant == "baseline"
    assert result.extras["hash_ops"] == 512  # hashes every probe


def test_address_variant_validates(workload, config):
    result = WidxAddressModel(workload, xcache_config=config).run()
    assert result.checks_passed
    assert result.variant == "addr"


def test_xcache_beats_always_walk_baseline(workload, config):
    x = WidxXCacheModel(workload, config=config).run()
    base = WidxBaselineModel(workload, num_walkers=2).run()
    assert x.speedup_over(base) > 1.0


def test_more_walkers_speed_up_baseline(workload):
    slow = WidxBaselineModel(workload, num_walkers=1).run()
    fast = WidxBaselineModel(workload, num_walkers=8).run()
    assert fast.cycles < slow.cycles


def test_matched_cache_config_capacity():
    xcfg = table3_config("widx")
    ccfg = matched_cache_config(xcfg)
    assert ccfg.capacity_bytes <= xcfg.data_bytes
    assert ccfg.capacity_bytes >= xcfg.data_bytes // 2


def test_string_hash_hurts_baseline_more():
    cheap = make_widx_workload(num_keys=128, num_probes=256,
                               num_buckets=128, hash_cycles=1, seed=5)
    costly = make_widx_workload(num_keys=128, num_probes=256,
                                num_buckets=128, hash_cycles=60, seed=5)
    cfg = table3_config("widx", scale=0.03125)
    gap_cheap = (WidxBaselineModel(cheap, num_walkers=2).run().cycles
                 / WidxXCacheModel(cheap, config=cfg).run().cycles)
    gap_costly = (WidxBaselineModel(costly, num_walkers=2).run().cycles
                  / WidxXCacheModel(costly, config=cfg).run().cycles)
    assert gap_costly > gap_cheap


def test_run_result_row_fields(workload, config):
    result = WidxXCacheModel(workload, config=config).run()
    row = result.row()
    assert row["dsa"] == workload.name
    assert row["variant"] == "xcache"
    assert row["ok"] is True


# ----------------------------------------------------------------------
# per-workload functional facts: oracle and shared index layout
# ----------------------------------------------------------------------
def _image_state(image):
    return image.read_block(0, image.used), list(image.allocations)


@pytest.mark.parametrize("profile", ["ci", "quick"])
@pytest.mark.parametrize("row", [*TPCH_QUERIES, "dasx"])
def test_oracle_matches_the_index_walk(profile, row):
    prof = get_profile(profile)
    wl = prof.dasx_workload() if row == "dasx" else prof.widx_workload(row)
    index = HashIndex.build(MemoryImage(), wl.pairs, wl.num_buckets)
    # generated keys are odd, so even keys are never in the index
    absent = [2, 4, 6, 1 << 40]
    probes = set(wl.probes)
    assert any(wl.oracle.get(key) is None for key in probes)
    for key in probes.union(absent):
        assert wl.oracle.get(key) == index.probe(key)


def test_build_index_copy_matches_a_fresh_build():
    wl = make_widx_workload(num_keys=300, num_probes=64, num_buckets=32,
                            seed=3)
    first = wl.build_index(MemoryImage())
    image = MemoryImage()
    index = wl.build_index(image)
    assert index is not first
    ref_image = MemoryImage()
    ref = HashIndex.build(ref_image, wl.pairs, wl.num_buckets)
    assert _image_state(image) == _image_state(ref_image)
    assert image.used == ref_image.used
    assert index.image is image
    assert index.table_addr == ref.table_addr == 64
    assert index.num_entries == ref.num_entries
    assert index._chain_lengths == ref._chain_lengths
    for key in set(wl.probes):
        assert index.probe_with_walk(key) == ref.probe_with_walk(key)
    # the copy owns its bookkeeping: inserting into it leaves the
    # first build (and later copies) alone
    index.insert(2, 20)
    assert index.probe(2) == 20 and first.probe(2) is None
    assert wl.build_index(MemoryImage()).probe(2) is None


def test_build_index_builds_afresh_at_another_break():
    wl = make_widx_workload(num_keys=300, num_probes=64, num_buckets=64,
                            seed=5)
    wl.build_index(MemoryImage())
    image = MemoryImage()
    image.alloc(100)
    index = wl.build_index(image)
    ref_image = MemoryImage()
    ref_image.alloc(100)
    ref = HashIndex.build(ref_image, wl.pairs, wl.num_buckets)
    assert _image_state(image) == _image_state(ref_image)
    assert index.table_addr == ref.table_addr != 64
    for key in wl.probes:
        assert index.probe_with_walk(key) == ref.probe_with_walk(key)


def test_derived_workload_state_is_not_pickled():
    import pickle

    wl = make_widx_workload(num_keys=64, num_probes=64, num_buckets=32)
    fresh = pickle.dumps(wl)
    assert wl.oracle
    wl.build_index(MemoryImage())
    assert pickle.dumps(wl) == fresh
    assert pickle.loads(fresh).oracle == wl.oracle


@pytest.mark.parametrize("row", ["TPC-H-22", "dasx"])
def test_fig14_row_hashes_each_key_once(monkeypatch, row):
    """One index build per row, and the reference never walks it."""
    from repro.data import hashindex
    from repro.harness import suite

    builds, hashes = [], [0]
    real_build, real_fnv = HashIndex.build.__func__, hashindex.fnv1a64

    def counting_build(cls, image, pairs, num_buckets):
        builds.append(num_buckets)
        return real_build(cls, image, pairs, num_buckets)

    def counting_fnv(key):
        hashes[0] += 1
        return real_fnv(key)

    monkeypatch.setattr(HashIndex, "build", classmethod(counting_build))
    monkeypatch.setattr(hashindex, "fnv1a64", counting_fnv)
    prof = get_profile("ci")
    if row == "dasx":
        wl, vs = prof.dasx_workload(), suite._run_dasx(prof)
    else:
        wl, vs = prof.widx_workload(row), suite._run_widx(row, prof)
    assert vs.all_checked
    assert len(builds) == 1
    # the build hashes every pair once; each of the two address
    # variants hashes each distinct probe key once
    assert hashes[0] == len(wl.pairs) + 2 * len(set(wl.probes))
