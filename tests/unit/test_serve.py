"""Unit tests for repro.serve: protocol, job canonicalisation, progress."""

import json

import pytest

from repro.obs.trace import SCHEMA_VERSION, TraceRecord
from repro.runner.executor import EXECUTION_OPTIONS
from repro.serve import (
    JOB_KINDS,
    JobError,
    JobRequest,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ServeError,
    decode_line,
    encode_line,
    execute_job,
    job_key,
    normalize_request,
)
from repro.serve.client import _check
from repro.serve.progress import (
    ProgressStats,
    StreamingTraceSink,
    TraceStreamWriter,
    TraceTail,
)
from repro.serve.protocol import OPS, error_response, validate_request
from repro.serve.server import JobState


# -- protocol ---------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        msg = {"op": "submit", "job": {"kind": "scenario", "seed": 3}}
        assert decode_line(encode_line(msg)) == msg

    def test_encode_is_one_compact_line(self):
        wire = encode_line({"b": 1, "a": 2})
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert wire == b'{"a":2,"b":1}\n'  # sorted + compact

    def test_encode_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_line({"x": float("nan")})

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope}\n")

    def test_decode_rejects_empty(self):
        with pytest.raises(ProtocolError):
            decode_line(b"\n")

    def test_decode_rejects_oversized(self):
        with pytest.raises(ProtocolError):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_validate_request_ops(self):
        for op in OPS:
            assert validate_request({"op": op}) == op
        with pytest.raises(ProtocolError):
            validate_request({"op": "reboot"})
        with pytest.raises(ProtocolError):
            validate_request({})

    def test_validate_request_version(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert validate_request({"op": "ping", "v": PROTOCOL_VERSION})
        with pytest.raises(ProtocolError):
            validate_request({"op": "ping", "v": PROTOCOL_VERSION + 1})

    def test_error_response_shape(self):
        obj = error_response("boom")
        assert obj == {"ok": False, "error": "boom"}

    def test_client_check_raises(self):
        with pytest.raises(ServeError, match="boom"):
            _check(error_response("boom"))
        assert _check({"ok": True, "x": 1}) == {"ok": True, "x": 1}


# -- canonicalisation -------------------------------------------------------


SCENARIO = {"kind": "scenario", "preset": "dc-baseline", "seed": 2}


class TestNormalize:
    def test_job_kinds_registry(self):
        assert JOB_KINDS == ("experiment", "scenario", "sweep")

    def test_unknown_kind(self):
        with pytest.raises(JobError, match="unknown job kind"):
            normalize_request({"kind": "massage"})

    def test_non_mapping_payload(self):
        with pytest.raises(JobError, match="must be an object"):
            normalize_request(["kind", "scenario"])

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown field"):
            normalize_request({**SCENARIO, "sede": 3})

    def test_unknown_preset(self):
        with pytest.raises(JobError, match="unknown scenario preset"):
            normalize_request({**SCENARIO, "preset": "nope"})

    def test_unknown_engine(self):
        with pytest.raises(JobError, match="unknown packet engine"):
            normalize_request({**SCENARIO, "engine": "referense"})

    def test_unknown_experiment(self):
        with pytest.raises(JobError, match="unknown experiment id"):
            normalize_request({"kind": "experiment", "id": "fig99"})

    def test_experiment_requires_id(self):
        with pytest.raises(JobError, match="non-empty string 'id'"):
            normalize_request({"kind": "experiment"})

    def test_seed_must_be_integral(self):
        with pytest.raises(JobError, match="must be an integer"):
            normalize_request({**SCENARIO, "seed": 1.5})
        with pytest.raises(JobError, match="must be an integer"):
            normalize_request({**SCENARIO, "seed": True})
        with pytest.raises(JobError, match="must be an integer"):
            normalize_request({**SCENARIO, "seed": "3"})

    def test_sweep_seed_sugar(self):
        a = normalize_request(
            {"kind": "sweep", "preset": "dc-baseline", "n_seeds": 3})
        b = normalize_request(
            {"kind": "sweep", "preset": "dc-baseline", "seeds": [0, 1, 2]})
        assert a == b and a.key() == b.key()
        assert a.spec["seeds"] == [0, 1, 2]

    def test_sweep_rejects_both_seed_forms(self):
        with pytest.raises(JobError, match="not both"):
            normalize_request({"kind": "sweep", "preset": "dc-baseline",
                               "seeds": [1], "n_seeds": 1})

    def test_sweep_rejects_empty_seeds(self):
        with pytest.raises(JobError, match="non-empty list"):
            normalize_request({"kind": "sweep", "preset": "dc-baseline",
                               "seeds": []})
        with pytest.raises(JobError, match=r"n_seeds must be >= 1"):
            normalize_request({"kind": "sweep", "preset": "dc-baseline",
                               "n_seeds": 0})

    def test_int_float_equivalence(self):
        a = normalize_request({**SCENARIO, "seed": 4})
        b = normalize_request({**SCENARIO, "seed": 4.0})
        assert a.key() == b.key()
        assert a.spec["seed"] == 4 and isinstance(a.spec["seed"], int)

    def test_default_elision_equivalence(self):
        a = normalize_request(SCENARIO)
        b = normalize_request({**SCENARIO, "engine": "reference"})
        assert a.key() == b.key()

    def test_engine_synonym_folds_onto_its_engine(self):
        a = normalize_request({**SCENARIO, "engine": "compiled"})
        b = normalize_request({**SCENARIO, "engine": "batched"})
        assert a.spec["engine"] == "batched"
        assert a.key() == b.key()

    def test_unhashable_engine_is_a_job_error(self):
        with pytest.raises(JobError, match="unknown packet engine"):
            normalize_request({**SCENARIO, "engine": ["batched"]})

    def test_field_order_irrelevant(self):
        a = normalize_request(
            {"seed": 2, "preset": "dc-baseline", "kind": "scenario"})
        assert a.key() == normalize_request(SCENARIO).key()

    def test_distinct_values_distinct_keys(self):
        base = normalize_request(SCENARIO)
        assert normalize_request({**SCENARIO, "seed": 3}).key() != base.key()
        assert normalize_request(
            {**SCENARIO, "engine": "batched"}).key() != base.key()
        assert normalize_request(
            {"kind": "sweep", "preset": "dc-baseline",
             "seeds": [2]}).key() != base.key()

    def test_huge_ints_stay_distinct(self):
        a = normalize_request({**SCENARIO, "seed": 2 ** 53})
        b = normalize_request({**SCENARIO, "seed": 2 ** 53 + 1})
        assert a.key() != b.key()

    def test_payload_round_trip(self):
        request = normalize_request(SCENARIO)
        assert normalize_request(request.to_payload()) == request

    def test_execution_options_stripped(self):
        some_id = sorted(_experiment_ids())[0]
        noisy = {"kind": "experiment", "id": some_id,
                 "options": {opt: 7 for opt in EXECUTION_OPTIONS}}
        clean = {"kind": "experiment", "id": some_id}
        assert (normalize_request(noisy).key()
                == normalize_request(clean).key())

    def test_options_must_be_object(self):
        some_id = sorted(_experiment_ids())[0]
        with pytest.raises(JobError, match="options must be an object"):
            normalize_request({"kind": "experiment", "id": some_id,
                               "options": [1, 2]})

    def test_unsupported_value_type(self):
        some_id = sorted(_experiment_ids())[0]
        with pytest.raises(JobError, match="unsupported value type"):
            normalize_request({"kind": "experiment", "id": some_id,
                               "options": {"x": object()}})

    def test_describe(self):
        assert "dc-baseline" in normalize_request(SCENARIO).describe()
        sweep = normalize_request(
            {"kind": "sweep", "preset": "dc-baseline", "n_seeds": 4})
        assert "x4" in sweep.describe()

    def test_execute_unknown_kind_raises(self):
        bogus = JobRequest(job_kind="massage", spec={})
        with pytest.raises(JobError, match="unknown job kind"):
            execute_job(bogus)


def _experiment_ids():
    import repro.experiments  # noqa: F401 - registration side effects
    from repro.experiments.base import all_experiments

    return all_experiments()


def test_job_key_is_content_address():
    request = normalize_request(SCENARIO)
    key = job_key(request)
    assert isinstance(key, str) and len(key) == 64
    int(key, 16)  # hex digest
    assert key == request.key()


def test_execute_scenario_matches_direct_run():
    from repro.scenarios.sweep import ScenarioPoint, evaluate_scenario_point

    request = normalize_request(SCENARIO)
    payload = execute_job(request)
    direct = evaluate_scenario_point(
        ScenarioPoint(preset="dc-baseline", engine="reference", seed=2))
    assert payload["record"]["utilization"] == pytest.approx(
        direct["utilization"])
    json.dumps(payload)  # JSON-safe


# -- progress streaming -----------------------------------------------------


class TestProgress:
    def test_stream_writer_is_valid_trace_at_every_prefix(self, tmp_path):
        from repro.obs.trace import read_trace

        path = tmp_path / "job.trace.jsonl"
        with TraceStreamWriter(path, meta={"job": "k"}) as writer:
            header, records = read_trace(path)
            assert header["schema_version"] == SCHEMA_VERSION
            assert header["job"] == "k" and records == []
            writer.write(TraceRecord(kind="job_queued", t=0.0,
                                     engine="serve", node="k", value=1.0))
            _, records = read_trace(path)
            assert [r.kind for r in records] == ["job_queued"]
        # writes after close are dropped, not an error
        writer.write(TraceRecord(kind="job_started", t=0.1, engine="serve"))
        _, records = read_trace(path)
        assert len(records) == 1

    def test_tail_returns_only_new_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceStreamWriter(path)
        tail = TraceTail(path)
        assert tail.poll() == []
        assert tail.header == {"schema_version": SCHEMA_VERSION}
        writer.write(TraceRecord(kind="job_started", t=0.0, engine="serve"))
        writer.write(TraceRecord(kind="job_progress", t=0.1, engine="serve"))
        assert [r.kind for r in tail.poll()] == ["job_started",
                                                 "job_progress"]
        assert tail.poll() == []
        writer.write(TraceRecord(kind="job_finished", t=0.2, engine="serve"))
        assert [r.kind for r in tail.poll()] == ["job_finished"]

    def test_tail_tolerates_partial_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceStreamWriter(path)
        writer.write(TraceRecord(kind="job_started", t=0.0, engine="serve"))
        # simulate a half-flushed record
        with path.open("a") as fh:
            fh.write('{"t": 0.5, "kind": "job_prog')
        tail = TraceTail(path)
        assert [r.kind for r in tail.poll()] == ["job_started"]
        with path.open("a") as fh:
            fh.write('ress"}\n')
        assert [r.kind for r in tail.poll()] == ["job_progress"]

    def test_tail_missing_file(self, tmp_path):
        assert TraceTail(tmp_path / "absent.jsonl").poll() == []

    def test_tail_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema_version": 999}\n')
        with pytest.raises(ValueError, match="schema_version"):
            TraceTail(path).poll()

    def test_streaming_sink_mirrors_to_writer(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        writer = TraceStreamWriter(path)
        sink = StreamingTraceSink(writer, max_records=1)
        r1 = TraceRecord(kind="job_started", t=0.0, engine="serve")
        r2 = TraceRecord(kind="job_progress", t=0.1, engine="serve")
        sink.append(r1)
        sink.append(r2)  # over the memory cap...
        assert sink.records == [r1] and sink.truncated == 1
        tail = TraceTail(path)  # ...but the file keeps the full stream
        assert [r.kind for r in tail.poll()] == ["job_started",
                                                 "job_progress"]

    def test_progress_stats_reports_units(self):
        seen = []
        stats = ProgressStats(lambda done, label, cached:
                              seen.append((done, label, cached)))
        stats.record("a", 0.5)
        stats.record("b", 0.0, cached=True)
        assert seen == [(1, "a", False), (2, "b", True)]
        assert stats.evaluated == 1 and stats.cache_hits == 1


def test_job_state_registry():
    assert JobState.TERMINAL <= JobState.ALL
    assert JobState.QUEUED in JobState.ALL
    assert JobState.RUNNING not in JobState.TERMINAL
