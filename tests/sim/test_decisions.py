"""Decision-trace capture, encoding, fingerprints and the cache story."""

import pytest

from repro.isa import link_identity
from repro.profiling import profile_program
from repro.runner.store import ArtifactStore
from repro.sim import decisions as dec
from repro.sim.decisions import (
    DecisionTrace,
    TraceDecodeError,
    capture_decisions,
    decode_trace,
    encode_trace,
    load_or_capture,
    trace_fingerprint,
    trace_key,
)
from repro.workloads import generate_benchmark


@pytest.fixture(scope="module")
def program():
    return generate_benchmark("eqntott", 0.1)


@pytest.fixture(scope="module")
def trace(program):
    return capture_decisions(program, seed=0, workload="eqntott", scale=0.1)


class TestCapture:
    def test_step_templates_are_compact(self, trace):
        # The whole point: the template table is tiny next to the stream.
        assert trace.steps > 10 * len(trace.templates)

    def test_deterministic(self, program, trace):
        again = capture_decisions(program, seed=0, workload="eqntott", scale=0.1)
        assert encode_trace(again) == encode_trace(trace)

    def test_seed_changes_stream(self, program, trace):
        other = capture_decisions(program, seed=1)
        assert (other.steps != trace.steps
                or encode_trace(other)["stream"] != encode_trace(trace)["stream"])

    def test_edge_profile_matches_profiler(self, program, trace):
        assert trace.edge_profile(program) == profile_program(program, seed=0)


class TestFingerprint:
    def test_stable(self):
        assert trace_fingerprint("eqntott", 0.1, 0) == trace_fingerprint(
            "eqntott", 0.1, 0
        )

    @pytest.mark.parametrize("workload,scale,seed", [
        ("compress", 0.1, 0),   # workload changes it
        ("eqntott", 0.25, 0),   # scale changes it
        ("eqntott", 0.1, 7),    # seed changes it
    ])
    def test_sensitive_to_identity(self, workload, scale, seed):
        assert trace_fingerprint(workload, scale, seed) != trace_fingerprint(
            "eqntott", 0.1, 0
        )

    def test_sensitive_to_meld(self):
        assert trace_fingerprint("eqntott", 0.1, 0, meld=True) != trace_fingerprint(
            "eqntott", 0.1, 0
        )

    def test_sensitive_to_trace_schema_version(self, monkeypatch):
        before = trace_fingerprint("eqntott", 0.1, 0)
        monkeypatch.setattr(dec, "TRACE_SCHEMA_VERSION", dec.TRACE_SCHEMA_VERSION + 1)
        assert trace_fingerprint("eqntott", 0.1, 0) != before

    def test_sensitive_to_isa_format_version(self, monkeypatch):
        before = trace_fingerprint("eqntott", 0.1, 0)
        monkeypatch.setattr(dec, "ISA_FORMAT_VERSION", dec.ISA_FORMAT_VERSION + 1)
        assert trace_fingerprint("eqntott", 0.1, 0) != before

    def test_key_shape(self):
        fp = trace_fingerprint("eqntott", 0.1, 0)
        key = trace_key("eqntott", fp)
        assert key == f"trace/eqntott@{fp}"
        assert dec.is_trace_key(key)
        assert not dec.is_trace_key("experiment/eqntott")


class TestEncodeDecode:
    def test_round_trip(self, program, trace):
        decoded = decode_trace(encode_trace(trace))
        assert isinstance(decoded, DecisionTrace)
        assert decoded.templates == trace.templates
        assert decoded.steps == trace.steps
        assert decoded.edge_profile(program) == trace.edge_profile(program)

    def test_digest_tamper_detected(self, trace):
        payload = encode_trace(trace)
        payload["counts"] = [c + 1 for c in payload["counts"]]
        with pytest.raises(TraceDecodeError) as info:
            decode_trace(payload)
        assert info.value.reason == "digest-mismatch"

    def test_stale_schema_detected(self, trace):
        payload = encode_trace(trace)
        payload["schema"] = dec.TRACE_SCHEMA_VERSION + 1
        with pytest.raises(TraceDecodeError) as info:
            decode_trace(payload)
        assert info.value.reason == "stale-schema"

    def test_wrong_fingerprint_detected(self, trace):
        payload = encode_trace(trace)
        with pytest.raises(TraceDecodeError) as info:
            decode_trace(payload, expect_fingerprint="0" * 16)
        assert info.value.reason == "stale-fingerprint"

    def test_malformed_payload_detected(self):
        with pytest.raises(TraceDecodeError) as info:
            decode_trace({"schema": dec.TRACE_SCHEMA_VERSION})
        assert info.value.reason == "malformed"


class TestLoadOrCapture:
    def test_no_store_captures_fresh(self, program):
        trace, hit = load_or_capture(None, program, workload="eqntott", scale=0.1)
        assert not hit and trace.steps > 0

    def test_miss_then_hit(self, program, tmp_path):
        store = ArtifactStore(tmp_path)
        first, hit1 = load_or_capture(store, program, workload="eqntott", scale=0.1)
        second, hit2 = load_or_capture(store, program, workload="eqntott", scale=0.1)
        assert (hit1, hit2) == (False, True)
        assert encode_trace(first) == encode_trace(second)

    def test_corrupt_cache_quarantined_and_recaptured(self, program, tmp_path):
        store = ArtifactStore(tmp_path)
        load_or_capture(store, program, workload="eqntott", scale=0.1)
        key = trace_key("eqntott", trace_fingerprint("eqntott", 0.1, 0))
        path = store.path_for(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\x00<bit-rot>")

        trace, hit = load_or_capture(store, program, workload="eqntott", scale=0.1)
        # Transparent recovery: fresh capture, damaged bytes preserved
        # for post-mortem, cache re-primed for the next caller.
        assert not hit and trace.steps > 0
        assert any(store.quarantine_dir.iterdir())
        _, hit_again = load_or_capture(store, program, workload="eqntott", scale=0.1)
        assert hit_again

    def test_schema_bump_misses_via_new_fingerprint(self, program, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        load_or_capture(store, program, workload="eqntott", scale=0.1)
        monkeypatch.setattr(dec, "TRACE_SCHEMA_VERSION", dec.TRACE_SCHEMA_VERSION + 1)
        # The old entry is no longer addressed (new fingerprint): miss.
        _, hit = load_or_capture(store, program, workload="eqntott", scale=0.1)
        assert not hit

    @pytest.mark.parametrize("reason,tamper", [
        ("stale-schema",
         lambda p: p.update(schema=dec.TRACE_SCHEMA_VERSION + 1)),
        ("stale-fingerprint",
         lambda p: p.update(fingerprint="0" * 16)),
        ("digest-mismatch",
         lambda p: p.update(counts=[c + 1 for c in p["counts"]])),
        ("malformed",
         lambda p: p.pop("templates")),
    ])
    def test_every_decode_failure_quarantines_and_recaptures(
        self, program, tmp_path, reason, tamper
    ):
        """Each TraceDecodeError reason sets the entry aside and re-captures."""
        store = ArtifactStore(tmp_path)
        load_or_capture(store, program, workload="eqntott", scale=0.1)
        fp = trace_fingerprint("eqntott", 0.1, 0)
        key = trace_key("eqntott", fp)
        payload = store.load(key)
        tamper(payload)
        store.put(key, payload)
        # Sanity: the tampering produces exactly the decode failure under test.
        with pytest.raises(TraceDecodeError) as info:
            decode_trace(store.load(key), expect_fingerprint=fp)
        assert info.value.reason == reason

        trace, hit = load_or_capture(store, program, workload="eqntott", scale=0.1)
        assert not hit and trace.steps > 0
        assert any(store.quarantine_dir.iterdir()), reason
        _, hit_again = load_or_capture(store, program, workload="eqntott", scale=0.1)
        assert hit_again

    def test_validate_payload_checks_key(self, trace):
        payload = encode_trace(trace)
        with pytest.raises(TraceDecodeError):
            dec.validate_payload(payload, key="trace/compress@deadbeefdeadbeef")


class TestRasStats:
    def test_depth_cache_and_counts(self, trace):
        stats = trace.ras_stats(32)
        assert trace.ras_stats(32) is stats  # cached per depth
        pushes, pops, correct = stats
        assert 0 <= correct <= pops
        # Every call returns, plus the final return from the entry proc.
        assert pops == pushes + 1

    def test_visit_counts_cover_entry(self, program, trace):
        counts = trace.visit_counts(program)
        entry = program.procedure(program.entry).entry
        assert counts[(program.entry, entry)] >= 1
