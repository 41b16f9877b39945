import hashlib
import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from click.testing import CliRunner

from fillflow import fetch
from fillflow.cli import main
from fillflow.errors import ConfigError, DecodeError, FetchError
from fillflow.events import fill_lines, read_fills
from fillflow.fetch import fetch_event_logs, write_checkpoint


def read_checkpoint(path):
    """The checkpoint's last fully ingested block, or None when no checkpoint exists."""
    doc = fetch._checkpoint_doc(path)
    return None if doc is None else doc["lastBlock"]


class RecordingTransport:
    """Serves one record per block, or the given records by block, failing on request."""

    def __init__(self, fail_from=None, fail_times=10**9, records=None, error=ConnectionError):
        self.calls = []
        self.fail_from = fail_from
        self.fail_times = fail_times
        self.failures = 0
        self.records = records
        self.error = error

    def __call__(self, endpoint, from_block, to_block):
        self.calls.append((endpoint, from_block, to_block))
        if self.fail_from == from_block and self.failures < self.fail_times:
            self.failures += 1
            raise self.error("boom")
        if self.records is not None:
            return [r for r in self.records if from_block <= r["block"] <= to_block]
        return [{"block": b} for b in range(from_block, to_block + 1)]


def json_line(record):
    return json.dumps(record) + "\n"


def json_lines(records):
    return "".join(map(json_line, records))


def spooled(spool):
    return [json.loads(line) for line in spool.read_text().splitlines()]


def fetch_blocks(tmp_path, *args, **kwargs):
    """Blocks of the records ``fetch_event_logs`` spools to a file under tmp_path."""
    spool = tmp_path / "spool.jsonl"
    assert fetch_event_logs("http://x", *args[:2], spool, json_line, *args[2:],
                            **kwargs) is None
    return [r["block"] for r in spooled(spool)]


class TestPagination:
    def test_range_100_200_page_50_makes_two_requests(self, tmp_path):
        transport = RecordingTransport()
        blocks = fetch_blocks(tmp_path, 100, 200, 50, transport=transport)
        assert [(a, b) for _, a, b in transport.calls] == [(100, 149), (150, 199)]
        assert blocks == list(range(100, 200))

    def test_empty_range_zero_requests(self, tmp_path):
        transport = RecordingTransport()
        assert fetch_blocks(tmp_path, 100, 100, 50, transport=transport) == []
        assert transport.calls == []

    def test_ragged_final_page(self, tmp_path):
        transport = RecordingTransport()
        fetch_blocks(tmp_path, 0, 130, 50, transport=transport)
        assert [(a, b) for _, a, b in transport.calls] == [(0, 49), (50, 99), (100, 129)]


class TestCheckpointing:
    def test_fault_on_page_two_checkpoints_page_one(self, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        transport = RecordingTransport(fail_from=50)
        with pytest.raises(FetchError) as err:
            fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                         transport=transport, max_retries=2, sleep=lambda _: None)
        assert err.value.last_block == 49
        assert read_checkpoint(checkpoint) == 49

    @pytest.mark.parametrize("second_page, message", [
        (DecodeError("bad payload"), r"page \[50, 99\]: bad payload"),
        ({"not": "a list"}, r"page \[50, 99\]: transport returned dict, expected a list"),
    ], ids=["transport-decode-error", "non-list-page"])
    def test_decode_error_on_page_two_carries_last_block(self, tmp_path, second_page,
                                                         message):
        def transport(endpoint, a, b):
            if a == 0:
                return [{"block": block} for block in range(a, b + 1)]
            if isinstance(second_page, Exception):
                raise second_page
            return second_page

        checkpoint = tmp_path / "checkpoint.json"
        with pytest.raises(DecodeError, match=message) as err:
            fetch_blocks(tmp_path, 0, 100, 50, checkpoint_path=checkpoint, transport=transport)
        assert err.value.last_block == 49
        assert read_checkpoint(checkpoint) == 49

    def test_resume_from_checkpoint(self, tmp_path):
        checkpoint, spool = tmp_path / "checkpoint.json", tmp_path / "spool.jsonl"
        spool.write_text(json_lines({"block": b} for b in range(50)))
        write_checkpoint(checkpoint, 49, spool.stat().st_size)
        transport = RecordingTransport()
        blocks = fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                              transport=transport)
        assert [(a, b) for _, a, b in transport.calls] == \
            [(50, 99), (100, 149), (150, 199)]
        assert blocks == list(range(200))
        assert read_checkpoint(checkpoint) == 199

    def test_no_checkpoint_returns_none(self, tmp_path):
        assert read_checkpoint(tmp_path / "missing.json") is None

    def test_checkpoint_advances_only_past_spooled_pages(self, tmp_path):
        checkpoint, spool = tmp_path / "checkpoint.json", tmp_path / "spool.jsonl"
        transport = RecordingTransport(fail_from=100)
        with pytest.raises(FetchError):
            fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                         transport=transport, max_retries=0)
        assert [r["block"] for r in spooled(spool)] == list(range(100))
        assert json.loads(checkpoint.read_text()) == {
            "lastBlock": 99, "spoolBytes": spool.stat().st_size}

        blocks = fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                              transport=RecordingTransport())
        assert blocks == list(range(200))

    def test_resume_cuts_a_page_spooled_past_the_checkpoint(self, tmp_path):
        checkpoint, spool = tmp_path / "checkpoint.json", tmp_path / "spool.jsonl"
        spool.write_text(json_lines({"block": b} for b in range(50)))
        write_checkpoint(checkpoint, 49, spool.stat().st_size)
        with open(spool, "a") as fh:  # a page that reached the spool, not the checkpoint
            fh.write(json_lines({"block": b} for b in range(50, 100)))
        blocks = fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                              transport=RecordingTransport())
        assert blocks == list(range(200))

    def test_fresh_run_empties_the_spool(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        spool.write_text("stale\n")
        fetch_blocks(tmp_path, 0, 10, 50, transport=RecordingTransport())
        assert spool.read_text() == json_lines({"block": b} for b in range(10))

    def test_checkpoint_without_spool_length_refused(self, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text('{"lastBlock": 49}\n')
        with pytest.raises(ConfigError, match="records no spool length"):
            fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                         transport=RecordingTransport())

    def test_spool_shorter_than_checkpoint_refused(self, tmp_path):
        checkpoint, spool = tmp_path / "checkpoint.json", tmp_path / "spool.jsonl"
        write_checkpoint(checkpoint, 49, 10)
        spool.write_text("short\n")
        with pytest.raises(ConfigError, match="holds 6 bytes, fewer than the 10"):
            fetch_blocks(tmp_path, 0, 200, 50, checkpoint_path=checkpoint,
                         transport=RecordingTransport())

    def test_checkpoint_with_a_bad_byte_names_its_line(self, tmp_path):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_bytes(b'{"lastBlock": 49,\n "spoolBytes": 0, "note": "\xe9"}\n')
        with pytest.raises(ConfigError, match=r"invalid JSON: line 2: not valid UTF-8 "
                                              r"\(byte 0xe9\)$"):
            read_checkpoint(checkpoint)

    @pytest.mark.parametrize("text", ["{not json", "[49]", '{"lastBlock": "49"}',
                                      '{"lastBlock": 49, "spoolBytes": null}'])
    def test_malformed_checkpoint_refused(self, tmp_path, text):
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(text)
        with pytest.raises(ConfigError, match="checkpoint"):
            read_checkpoint(checkpoint)


class TestRetries:
    def test_transient_failure_retried_with_backoff(self, tmp_path):
        sleeps = []
        transport = RecordingTransport(fail_from=0, fail_times=2)
        blocks = fetch_blocks(tmp_path, 0, 50, 50, transport=transport,
                              max_retries=3, backoff=0.5, sleep=sleeps.append)
        assert len(blocks) == 50
        assert sleeps == [0.5, 1.0]

    def test_retries_exhausted(self, tmp_path):
        transport = RecordingTransport(fail_from=0)
        with pytest.raises(FetchError, match="after 2 retries"):
            fetch_blocks(tmp_path, 0, 50, 50, transport=transport,
                         max_retries=2, sleep=lambda _: None)

    def test_decode_error_not_retried(self, tmp_path):
        calls = []

        def transport(endpoint, a, b):
            calls.append((a, b))
            raise DecodeError("bad payload")

        with pytest.raises(DecodeError):
            fetch_blocks(tmp_path, 0, 50, 50, transport=transport, sleep=lambda _: None)
        assert len(calls) == 1

    def test_non_list_response_rejected(self, tmp_path):
        with pytest.raises(DecodeError, match="expected a list"):
            fetch_blocks(tmp_path, 0, 50, 50, transport=lambda e, a, b: {"not": "a list"})

    def test_non_object_record_rejected_naming_page(self, tmp_path):
        with pytest.raises(DecodeError, match=r"page \[0, 49\]: a record is not an object"):
            fetch_blocks(tmp_path, 0, 50, 50, transport=lambda e, a, b: [{"block": 1}, 7])

    def test_bad_page_size(self, tmp_path):
        with pytest.raises(ValueError):
            fetch_blocks(tmp_path, 0, 50, 0, transport=RecordingTransport())


PAGE = 400_000


class TestIngestResume:
    """``ingest --endpoint --checkpoint`` keeps every fetched fill across interruptions."""

    @pytest.fixture
    def records(self, small_ledger):
        return [json.loads(line) for line in fill_lines(small_ledger.fills)]

    def ingest(self, monkeypatch, transport, records, out, checkpoint=None):
        monkeypatch.setattr(fetch, "http_transport", transport)
        blocks = [r["block"] for r in records]
        args = ["ingest", "--endpoint", "http://x", "--from-block", str(min(blocks)),
                "--to-block", str(max(blocks) + 1), "--page-size", str(PAGE), "--out", str(out)]
        if checkpoint is not None:
            args += ["--checkpoint", str(checkpoint)]
        return CliRunner().invoke(main, args)

    @pytest.fixture
    def uninterrupted(self, monkeypatch, records, small_ledger, tmp_path):
        transport = RecordingTransport(records=records)
        result = self.ingest(monkeypatch, transport, records, tmp_path / "whole")
        assert result.exit_code == 0, result.output
        assert len(transport.calls) > 4
        fills = tmp_path / "whole" / "fills.jsonl"
        assert read_fills(fills) == sorted(small_ledger.fills, key=lambda f: f[:3])
        return fills.read_bytes(), [call[1] for call in transport.calls]

    def test_interrupted_on_page_k_then_resumed(self, monkeypatch, records, tmp_path,
                                                uninterrupted):
        whole, page_starts = uninterrupted
        out, checkpoint = tmp_path / "out", tmp_path / "checkpoint.json"
        k = 3
        interrupted = RecordingTransport(fail_from=page_starts[k], fail_times=1,
                                         records=records, error=KeyboardInterrupt)
        result = self.ingest(monkeypatch, interrupted, records, out, checkpoint)
        assert result.exit_code != 0
        assert not (out / "fills.jsonl").exists()
        assert read_checkpoint(checkpoint) == page_starts[k] - 1

        resumed = RecordingTransport(records=records)
        result = self.ingest(monkeypatch, resumed, records, out, checkpoint)
        assert result.exit_code == 0, result.output
        assert [call[1] for call in resumed.calls] == page_starts[k:]
        assert (out / "fills.jsonl").read_bytes() == whole

    def test_crash_between_spool_append_and_checkpoint(self, monkeypatch, records, tmp_path,
                                                       uninterrupted):
        whole, page_starts = uninterrupted
        out, checkpoint = tmp_path / "out", tmp_path / "checkpoint.json"
        real_write = fetch.write_checkpoint
        writes = []

        def crash_on_third_page(*args):
            writes.append(args)
            if len(writes) == 3:
                raise OSError("disk went away")
            real_write(*args)

        monkeypatch.setattr(fetch, "write_checkpoint", crash_on_third_page)
        result = self.ingest(monkeypatch, RecordingTransport(records=records), records,
                             out, checkpoint)
        assert result.exit_code == 3
        assert "disk went away" in result.output
        recorded = json.loads(checkpoint.read_text())
        assert recorded["lastBlock"] == page_starts[2] - 1
        # The third page reached the spool, past the length the checkpoint records.
        assert (out / "fetched.jsonl").stat().st_size > recorded["spoolBytes"]

        monkeypatch.setattr(fetch, "write_checkpoint", real_write)
        resumed = RecordingTransport(records=records)
        result = self.ingest(monkeypatch, resumed, records, out, checkpoint)
        assert result.exit_code == 0, result.output
        assert [call[1] for call in resumed.calls] == page_starts[2:]
        assert (out / "fills.jsonl").read_bytes() == whole

    def test_manifest_is_pinned(self, monkeypatch, records, tmp_path):
        """The fetch options are recorded and the checkpoint is not; pinned by SHA-256."""
        out = tmp_path / "out"
        result = self.ingest(monkeypatch, RecordingTransport(records=records), records, out,
                             tmp_path / "checkpoint.json")
        assert result.exit_code == 0, result.output
        assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == \
            "d62d8e7bd6556226b04f69f2825fb395bb91ee74dc05e73645fda1c8e26e711e"

    def test_rejected_record_names_its_page(self, monkeypatch, records, tmp_path,
                                            uninterrupted):
        _, page_starts = uninterrupted
        bad = next(r for r in records if r["block"] >= page_starts[2])
        records = [{k: v for k, v in r.items() if k != "maker"} if r is bad else r
                   for r in records]
        out, checkpoint = tmp_path / "out", tmp_path / "checkpoint.json"
        result = self.ingest(monkeypatch, RecordingTransport(records=records), records, out,
                             checkpoint)
        assert result.exit_code == 3, result.output
        page = f"page [{page_starts[2]}, {page_starts[3] - 1}]"
        assert f"error: {page}, record ({bad['block']}, {bad['txIndex']}): " \
               "missing field 'maker'" in result.output
        assert read_checkpoint(checkpoint) == page_starts[2] - 1


    def test_record_failing_the_fill_checks_names_its_page(self, monkeypatch, records,
                                                           tmp_path, uninterrupted):
        _, page_starts = uninterrupted
        bad = next(r for r in records if r["block"] >= page_starts[1])
        records = [{**r, "makerAssetId": "0", "takerAssetId": "0"} if r is bad else r
                   for r in records]
        out = tmp_path / "out"
        result = self.ingest(monkeypatch, RecordingTransport(records=records), records, out)
        assert result.exit_code == 3, result.output
        page = f"page [{page_starts[1]}, {page_starts[2] - 1}]"
        coordinates = f"({bad['block']}, {bad['txIndex']}, {bad['logIndex']})"
        assert result.output == (
            f"error: {page}, record ({bad['block']}, {bad['txIndex']}): both asset ids are "
            f"collateral in fill {coordinates}; every fill must exchange collateral against "
            "one outcome token\n")


class _Endpoint(BaseHTTPRequestHandler):
    """Answers a POST by its path: /good echoes the request, /fail is an HTTP 500, /empty
    has no result, and /html and /not-utf8 reply with a body that is not JSON."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        replies = {"/good": (200, {"result": [request]}), "/fail": (500, {}),
                   "/empty": (200, {"error": "no such method"}),
                   "/html": (200, b"<html>busy</html>"), "/not-utf8": (200, b'{"result": "\xff"}')}
        status, doc = replies[self.path]
        body = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestHttpTransport:
    def test_good_page_posts_the_request_body(self, endpoint):
        assert fetch.http_transport(f"{endpoint}/good", 5, 9) == [
            {"method": "getFillEvents", "params": {"fromBlock": 5, "toBlock": 9}}]

    def test_http_500_is_retried_then_fails(self, endpoint, tmp_path):
        sleeps = []
        with pytest.raises(FetchError, match="after 2 retries: HTTP Error 500") as err:
            fetch_event_logs(f"{endpoint}/fail", 0, 10, tmp_path / "spool.jsonl", json_line,
                             max_retries=2, sleep=sleeps.append)
        assert not isinstance(err.value, DecodeError)
        assert len(sleeps) == 2

    def test_http_error_reply_is_closed_before_the_retry(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch.http_transport(f"{endpoint}/fail", 0, 10)
        assert err.value.fp.closed

    def test_reply_without_result_list_raises_decode_error(self, endpoint):
        with pytest.raises(DecodeError, match="no 'result' list"):
            fetch.http_transport(f"{endpoint}/empty", 0, 10)

    @pytest.mark.parametrize("path", ["/html", "/not-utf8"])
    def test_reply_that_is_not_json_raises_decode_error_without_a_retry(self, endpoint,
                                                                        tmp_path, path):
        with pytest.raises(DecodeError, match="^endpoint returned invalid JSON: "):
            fetch.http_transport(f"{endpoint}{path}", 0, 10)
        sleeps = []
        with pytest.raises(DecodeError, match=r"^page \[0, 9\]: endpoint returned invalid JSON"):
            fetch_event_logs(f"{endpoint}{path}", 0, 10, tmp_path / "spool.jsonl", json_line,
                             sleep=sleeps.append)
        assert sleeps == []
