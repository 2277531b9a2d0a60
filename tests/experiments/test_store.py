"""Result-store unit tests: canonical keys, roundtrip, corruption, GC."""

import dataclasses
import shutil
from dataclasses import make_dataclass
from pathlib import Path

import pytest

from repro.experiments.config import (
    FaultConfig,
    scaled_datacenter,
    scaled_incast,
)
from repro.experiments.store import (
    ENTRY_MAGIC,
    CorruptEntry,
    ResultStore,
    canonical_config_repr,
    code_fingerprint,
    config_key,
    decode_entry,
    encode_entry,
    fingerprint_tree,
)


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------


class TestConfigKey:
    def test_key_is_stable_across_field_order(self):
        a = make_dataclass("Cfg", [("a", int, 1), ("b", str, "x")])(a=5)
        b = make_dataclass("Cfg", [("b", str, "x"), ("a", int, 1)])(a=5)
        assert config_key(a) == config_key(b)

    def test_key_survives_adding_a_defaulted_field(self):
        old = make_dataclass("Cfg", [("a", int, 1)])(a=5)
        new = make_dataclass("Cfg", [("a", int, 1), ("extra", int, 0)])(a=5)
        assert config_key(old) == config_key(new)

    def test_explicit_default_equals_implicit_default(self):
        cfg = scaled_incast("swift", 4)
        assert config_key(dataclasses.replace(cfg, seed=cfg.seed)) == config_key(cfg)

    def test_non_default_value_changes_key(self):
        cfg = scaled_incast("swift", 4)
        assert config_key(dataclasses.replace(cfg, seed=99)) != config_key(cfg)

    def test_class_name_is_part_of_the_key(self):
        a = make_dataclass("CfgA", [("a", int, 1)])(a=5)
        b = make_dataclass("CfgB", [("a", int, 1)])(a=5)
        assert config_key(a) != config_key(b)

    def test_nested_fault_config_changes_key(self):
        cfg = scaled_incast("swift", 4)
        faulty = dataclasses.replace(cfg, faults=FaultConfig(drop_rate=0.01))
        assert config_key(faulty) != config_key(cfg)
        # ...and nested fields at their defaults are canonicalized too.
        verbose = dataclasses.replace(
            cfg, faults=FaultConfig(drop_rate=0.01, target="bottleneck")
        )
        assert config_key(verbose) == config_key(faulty)

    def test_cache_key_method_agrees_with_config_key(self):
        for cfg in (
            scaled_incast("hpcc", 8),
            scaled_datacenter("swift"),
            FaultConfig(drop_rate=0.5),
        ):
            assert cfg.cache_key() == config_key(cfg)

    def test_distinct_variants_and_floats_get_distinct_keys(self):
        keys = {
            config_key(scaled_incast(v, n))
            for v in ("hpcc", "swift")
            for n in (4, 16)
        }
        assert len(keys) == 4
        a = dataclasses.replace(scaled_incast("hpcc"), batch_interval_ns=20000.0)
        b = dataclasses.replace(scaled_incast("hpcc"), batch_interval_ns=20000.5)
        assert config_key(a) != config_key(b)

    def test_unsupported_type_raises_instead_of_guessing(self):
        with pytest.raises(TypeError):
            canonical_config_repr(object())

    def test_canonical_repr_renders_containers(self):
        assert canonical_config_repr((1, "x", None)) == "(1, 'x', None)"
        assert canonical_config_repr({"b": 2, "a": 1}) == "{'a': 1, 'b': 2}"


def test_code_fingerprint_is_short_hex_and_cached():
    fp = code_fingerprint()
    assert len(fp) == 12
    int(fp, 16)  # valid hex
    assert code_fingerprint() is fp  # cached


def _copied_package(tmp_path):
    import repro

    root = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def test_fingerprint_covers_c_sources(tmp_path):
    """``sim/_calendar.c`` carries the event-ordering key: editing it must
    retire stored results exactly as editing a ``.py`` file does."""
    root = _copied_package(tmp_path)
    before = fingerprint_tree(root)
    source = root / "sim" / "_calendar.c"
    data = bytearray(source.read_bytes())
    data[-2] ^= 0x01
    source.write_bytes(bytes(data))
    assert fingerprint_tree(root) != before


def test_fingerprint_ignores_built_binaries(tmp_path):
    root = _copied_package(tmp_path)
    before = fingerprint_tree(root)
    (root / "sim" / "_calendar-0123456789abcdef.cpython-311-x86_64-linux-gnu.so").write_bytes(b"\x7fELF")
    cache = root / "sim" / "__pycache__"
    cache.mkdir()
    (cache / "_calendar-0123456789abcdef.abi3.so").write_bytes(b"\x7fELF")
    assert fingerprint_tree(root) == before


# ---------------------------------------------------------------------------
# Store behaviour
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = scaled_incast("swift", 4)
        assert store.get(cfg) is None
        assert store.stats.misses == 1
        payload = {"jain": [1.0, 0.5], "flows": 4}
        path = store.put(cfg, payload)
        assert path.parent.name == store.fingerprint
        assert cfg in store
        assert store.get(cfg) == payload
        assert store.stats.hits == 1 and store.stats.puts == 1
        assert store.stats.bytes_written > 0 and store.stats.bytes_read > 0

    def test_different_configs_do_not_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(scaled_incast("swift", 4), "a")
        store.put(scaled_incast("swift", 8), "b")
        assert store.get(scaled_incast("swift", 4)) == "a"
        assert store.get(scaled_incast("swift", 8)) == "b"
        assert len(store.entries()) == 2

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = scaled_incast("swift", 4)
        store.put(cfg, "fine")
        store.path_for(cfg).write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupt entry"):
            assert store.get(cfg) is None
        assert store.stats.evicted_corrupt == 1
        assert not store.path_for(cfg).exists()

    def test_bitflip_in_payload_caught_by_checksum(self, tmp_path):
        """A flipped byte that still unpickles must NOT be served: the
        checksum catches corruption the pickle parser would swallow."""
        store = ResultStore(tmp_path)
        cfg = scaled_incast("swift", 4)
        path = store.put(cfg, {"value": 12345})
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # flip a payload byte near the end
        path.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert store.get(cfg) is None
        assert store.stats.evicted_corrupt == 1
        assert not path.exists()
        # Self-healing: a fresh put serves again.
        store.put(cfg, {"value": 12345})
        assert store.get(cfg) == {"value": 12345}

    def test_truncated_entry_caught_by_length(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = scaled_incast("swift", 4)
        path = store.put(cfg, list(range(100)))
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.warns(RuntimeWarning):
            assert store.get(cfg) is None
        assert not path.exists()

    def test_legacy_headerless_entry_still_loads(self, tmp_path):
        import pickle

        store = ResultStore(tmp_path)
        cfg = scaled_incast("swift", 4)
        path = store.path_for(cfg)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps("old-format"))
        assert store.get(cfg) == "old-format"
        assert store.stats.hits == 1

    def test_verify_scan_reports_without_evicting(self, tmp_path):
        store = ResultStore(tmp_path)
        good = scaled_incast("swift", 4)
        bad = scaled_incast("swift", 8)
        store.put(good, "good")
        bad_path = store.put(bad, "bad")
        data = bytearray(bad_path.read_bytes())
        data[-1] ^= 0x01
        bad_path.write_bytes(bytes(data))
        checked, corrupt = store.verify()
        assert checked == 2
        assert corrupt == [bad_path]
        assert bad_path.exists()  # verify is read-only

    def test_entry_framing_roundtrip_and_rejections(self):
        blob = b"payload bytes"
        framed = encode_entry(blob)
        assert framed.startswith(ENTRY_MAGIC)
        assert decode_entry(framed) == blob
        assert decode_entry(blob) == blob  # headerless passes through
        with pytest.raises(CorruptEntry):
            decode_entry(framed[:-1])  # short payload
        with pytest.raises(CorruptEntry):
            decode_entry(ENTRY_MAGIC + b"nonsense")  # torn header

    def test_gc_removes_only_stale_namespaces(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = scaled_incast("swift", 4)
        store.put(cfg, "current")
        stale = tmp_path / "0123456789ab"
        stale.mkdir()
        (stale / "IncastConfig-deadbeef.pkl").write_bytes(b"old physics")
        files, total = store.disk_usage()
        assert files == 2
        removed, freed = store.gc()
        assert removed == 1 and freed > 0
        assert not stale.exists()
        assert store.get(cfg) == "current"

    def test_code_version_namespaces_results(self, tmp_path):
        cfg = scaled_incast("swift", 4)
        old = ResultStore(tmp_path, fingerprint="aaaaaaaaaaaa")
        old.put(cfg, "old physics")
        new = ResultStore(tmp_path, fingerprint="bbbbbbbbbbbb")
        assert new.get(cfg) is None  # never served across code versions

    def test_clear_removes_everything(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.put(scaled_incast("swift", 4), "x")
        store.clear()
        assert store.disk_usage() == (0, 0)
