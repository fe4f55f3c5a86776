"""Tests for the crash-safe artifact store (repro.runner.store)."""

import json
import os

import pytest

from repro import atomicio
from repro.runner.store import (
    MANIFEST_NAME,
    ArtifactCorruptError,
    ArtifactStore,
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestRoundTrip:
    def test_put_then_load(self, store):
        payload = {"benchmark": "eqntott", "rows": [1, 2, 3]}
        path = store.put("table3/eqntott", payload)
        assert path.exists()
        assert store.load("table3/eqntott") == payload
        assert "table3/eqntott" in store

    def test_put_overwrites(self, store):
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.load("k") == {"v": 2}
        assert store.keys() == ["k"]

    def test_unfriendly_keys_get_distinct_files(self, store):
        store.put("a/b", {"x": 1})
        store.put("a:b", {"x": 2})
        assert store.load("a/b") == {"x": 1}
        assert store.load("a:b") == {"x": 2}
        assert store.path_for("a/b") != store.path_for("a:b")

    def test_reopen_sees_existing_artifacts(self, store):
        store.put("k", [1, 2])
        reopened = ArtifactStore(store.root)
        assert reopened.load("k") == [1, 2]


class TestCorruptionDetection:
    def test_truncated_artifact_rejected(self, store):
        path = store.put("k", {"payload": "x" * 200})
        path.write_text(path.read_text()[:40])
        with pytest.raises(ArtifactCorruptError) as err:
            store.load("k")
        assert err.value.reason == "truncated"
        assert err.value.path == path

    def test_same_length_tamper_rejected_by_checksum(self, store):
        path = store.put("k", {"value": "aaaa"})
        path.write_text(path.read_text().replace("aaaa", "bbbb"))
        with pytest.raises(ArtifactCorruptError) as err:
            store.load("k")
        assert err.value.reason == "checksum-mismatch"

    def test_missing_artifact_rejected(self, store):
        path = store.put("k", {})
        path.unlink()
        with pytest.raises(ArtifactCorruptError) as err:
            store.verify("k")
        assert err.value.reason == "missing"

    def test_unregistered_key_rejected(self, store):
        with pytest.raises(ArtifactCorruptError) as err:
            store.load("never-put")
        assert err.value.reason == "unregistered"

    def test_verify_all_reports_per_key(self, store):
        good = store.put("good", {"ok": True})
        bad = store.put("bad", {"ok": False})
        bad.write_bytes(b"garbage")
        verdicts = store.verify_all()
        assert verdicts["good"] is None
        assert verdicts["bad"].reason == "truncated"
        assert good.exists()


class TestCrashSafety:
    def test_interrupted_write_preserves_previous_artifact(self, store, monkeypatch):
        """A put() dying before the rename leaves the old artifact intact."""
        store.put("k", {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(atomicio.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.put("k", {"generation": 2})
        monkeypatch.undo()
        # Old artifact still passes its checksum; no torn state.
        assert store.load("k") == {"generation": 1}
        assert ArtifactStore(store.root).load("k") == {"generation": 1}

    def test_orphaned_tmp_files_ignored_and_repaired(self, store):
        store.put("k", {"v": 1})
        orphan = store.root / f"k.json.abc123{atomicio.TMP_SUFFIX}"
        orphan.write_text("half-written junk")
        assert store.load("k") == {"v": 1}
        report = store.repair()
        assert orphan.name in report.orphans_removed
        assert not orphan.exists()
        assert store.load("k") == {"v": 1}

    def test_manifest_write_is_atomic(self, store, monkeypatch):
        """A crash while updating the manifest keeps the old manifest."""
        store.put("k", {"v": 1})
        before = (store.root / MANIFEST_NAME).read_text()

        real_replace = os.replace
        calls = []

        def replace_artifact_only(src, dst):
            calls.append(str(dst))
            if str(dst).endswith(MANIFEST_NAME):
                raise OSError("simulated crash during manifest rename")
            return real_replace(src, dst)

        monkeypatch.setattr(atomicio.os, "replace", replace_artifact_only)
        with pytest.raises(OSError):
            store.put("k2", {"v": 2})
        monkeypatch.undo()
        assert (store.root / MANIFEST_NAME).read_text() == before
        assert ArtifactStore(store.root).load("k") == {"v": 1}


class TestQuarantineAndRepair:
    def test_quarantine_moves_bytes_and_forgets_key(self, store):
        path = store.put("k", {"v": 1})
        dest = store.quarantine("k")
        assert dest is not None and dest.exists()
        assert not path.exists()
        assert "k" not in store
        with pytest.raises(ArtifactCorruptError):
            store.verify("k")

    def test_a_name_quarantined_twice_keeps_both_files(self, store):
        first = store.put("k", {"v": 1}).read_bytes()
        earlier = store.quarantine("k")
        second = store.put("k", {"v": 2}).read_bytes()
        later = store.quarantine("k")
        stem, suffix = earlier.stem, earlier.suffix
        assert earlier.name == store.path_for("k").name
        assert later == store.quarantine_dir / f"{stem}.1{suffix}"
        assert sorted(p.name for p in store.quarantine_dir.iterdir()) == sorted(
            [earlier.name, later.name]
        )
        assert (earlier.read_bytes(), later.read_bytes()) == (first, second)

    def test_repair_quarantines_corrupt_keeps_intact(self, store):
        store.put("good", {"ok": True})
        bad = store.put("bad", {"ok": False})
        bad.write_bytes(b"\xff\xfe garbage")
        report = store.repair()
        assert report.quarantined == ["bad"]
        assert report.checked == 2
        assert store.load("good") == {"ok": True}
        assert "bad" not in store
        quarantined = list(store.quarantine_dir.iterdir())
        assert len(quarantined) == 1

    def test_repair_on_healthy_store_is_noop(self, store):
        store.put("k", {"v": 1})
        report = store.repair()
        assert report.clean
        assert "healthy" in report.render()

    def test_corrupt_manifest_quarantined_and_rebuilt(self, store):
        store.put("k", {"v": 1})
        (store.root / MANIFEST_NAME).write_text("{ not json")
        reopened = ArtifactStore(store.root)
        # Unreadable manifest means no key is trusted...
        with pytest.raises(ArtifactCorruptError):
            reopened.verify("k")
        report = reopened.repair()
        assert report.manifest_rebuilt
        # ...and repair preserves the bad manifest for post-mortem.
        assert (reopened.quarantine_dir / MANIFEST_NAME).exists()
        data = json.loads((store.root / MANIFEST_NAME).read_text())
        assert data["artifacts"] == {}

    def test_repair_report_renders_actions(self, store):
        bad = store.put("bad", {"x": 1})
        bad.write_text("{}")
        text = store.repair().render()
        assert "quarantined corrupt artifact: bad" in text
