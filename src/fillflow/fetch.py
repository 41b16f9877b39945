"""Checkpointed, paginated fetch of raw fill records from a log endpoint.

Optional plumbing: all analytics run from files, this module only fills
them. The endpoint speaks a minimal JSON-RPC-style protocol: POST a body
``{"method": "getFillEvents", "params": {"fromBlock": a, "toBlock": b}}``
(inclusive bounds) and receive ``{"result": [<record>, ...]}`` where each
record is a fill object in the canonical wire schema.

The requested block range [from_block, to_block) is walked in ``page_size``
pages. Each page is appended to a spool file and synced; only then is the
checkpoint file rewritten with the last fully ingested block and the
spool's length, so an interrupted run resumes from the next block. A
resumed run cuts off any page appended after that length, so the spool
holds every page exactly once. Transient transport failures are
retried with bounded exponential backoff before the run fails (checkpoint
intact).
"""

from __future__ import annotations

import json
import os
import time
import urllib.request
from typing import Callable, Sequence

from .errors import ConfigError, DecodeError, FetchError, FillflowError, ParseError
from .events import _load_text

Transport = Callable[[str, int, int], Sequence[dict]]

DEFAULT_PAGE_SIZE = 1000
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF = 0.5


def http_transport(endpoint: str, from_block: int, to_block: int) -> list[dict]:
    """Default transport: POST the JSON request body, wait at most 30 s for the reply.

    An HTTP error status raises ``urllib.error.HTTPError``, which the fetch
    loop retries; a reply without a ``result`` list raises DecodeError.
    """
    body = json.dumps({"method": "getFillEvents",
                       "params": {"fromBlock": from_block, "toBlock": to_block}})
    request = urllib.request.Request(endpoint, data=body.encode("utf-8"), method="POST",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            reply = response.read()
    except urllib.request.HTTPError as exc:
        exc.close()  # the error holds the reply's open socket; the fetch loop may retry
        raise
    try:
        doc = json.loads(reply)
    except ValueError as exc:  # also a byte that is not UTF-8
        raise DecodeError(f"endpoint returned invalid JSON: {exc}") from exc
    result = doc.get("result") if isinstance(doc, dict) else None
    if not isinstance(result, list):
        raise DecodeError(f"endpoint returned no 'result' list: {doc!r}")
    return result


def _checkpoint_doc(path) -> dict | None:
    """The checkpoint's fields, or None when no checkpoint exists."""
    try:
        doc = _load_text(path)
    except FileNotFoundError:
        return None
    except (ParseError, ValueError) as exc:  # a byte that is not UTF-8; a bad document
        raise ConfigError(f"checkpoint {path}: invalid JSON: {exc}") from exc
    if not (isinstance(doc, dict) and type(doc.get("lastBlock")) is int
            and type(doc.get("spoolBytes", 0)) is int):
        raise ConfigError(f"checkpoint {path}: expected integer lastBlock and spoolBytes")
    return doc


def write_checkpoint(path, last_block: int, spool_bytes: int) -> None:
    """Replace the checkpoint; a crash leaves either the old or the new one whole."""
    doc = {"lastBlock": last_block, "spoolBytes": spool_bytes}
    partial = f"{path}.partial"
    with open(partial, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(partial, path)


def _open_spool(spool_path, checkpoint_path, doc: dict | None):
    """Open the spool for appending, cut back to the length checkpoint ``doc`` records.

    A fresh run (no checkpoint to resume) starts from an empty spool.
    """
    keep = 0
    if doc is not None:
        if "spoolBytes" not in doc:
            raise ConfigError(
                f"checkpoint {checkpoint_path} records no spool length, so the records "
                f"up to block {doc['lastBlock']} were not kept; remove it to fetch again")
        keep = doc["spoolBytes"]
        size = os.path.getsize(spool_path) if os.path.exists(spool_path) else 0
        if size < keep:
            raise ConfigError(f"spool {spool_path} holds {size} bytes, fewer than the "
                              f"{keep} that checkpoint {checkpoint_path} records")
    fh = open(spool_path, "ab")  # appends land at the end, also after the cut
    fh.truncate(keep)
    return fh


def fetch_event_logs(
    endpoint: str,
    from_block: int,
    to_block: int,
    spool_path,
    encode: Callable[[dict], str],
    page_size: int = DEFAULT_PAGE_SIZE,
    checkpoint_path=None,
    transport: Transport | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Spool all raw records with blocks in [from_block, to_block).

    Each page is appended to the file at ``spool_path`` as the
    concatenated ``encode(record)`` of its records, flushed and synced
    before the checkpoint advances, so the spool holds every record of this
    run and of the runs it resumes. Resumes after the checkpointed block
    when a checkpoint file is present. Raises FetchError carrying the last
    completed block once retries are exhausted; DecodeError, carrying it
    too and naming the page's block range, on a malformed response and on a
    page holding a record that ``encode`` rejects with a FillflowError (then
    also naming the record's (block, txIndex) when it has both). The
    checkpoint does not advance past a rejected page.
    """
    if page_size <= 0:
        raise ValueError("page size must be positive")
    transport = transport or http_transport

    last_done: int | None = None
    start = from_block
    doc = None if checkpoint_path is None else _checkpoint_doc(checkpoint_path)
    if doc is not None:
        last_done = doc["lastBlock"]
        start = max(start, last_done + 1)
    with _open_spool(spool_path, checkpoint_path, doc) as spool:
        page_start = start
        while page_start < to_block:
            page_end = min(page_start + page_size - 1, to_block - 1)
            span = f"page [{page_start}, {page_end}]"
            attempt = 0
            while True:
                try:
                    page = transport(endpoint, page_start, page_end)
                    break
                except DecodeError as exc:
                    raise DecodeError(f"{span}: {exc}", last_block=last_done) from exc
                except Exception as exc:
                    attempt += 1
                    if attempt > max_retries:
                        raise FetchError(f"{span} failed after {max_retries} retries: {exc}",
                                         last_block=last_done) from exc
                    sleep(backoff * 2 ** (attempt - 1))
            if not isinstance(page, (list, tuple)):
                raise DecodeError(f"{span}: transport returned {type(page).__name__}, "
                                  "expected a list", last_block=last_done)
            if not all(isinstance(record, dict) for record in page):
                raise DecodeError(f"{span}: a record is not an object", last_block=last_done)
            lines = []
            for record in page:
                try:
                    lines.append(encode(record))
                except FillflowError as exc:
                    where = (f", record ({record['block']}, {record['txIndex']})"
                             if "block" in record and "txIndex" in record else "")
                    raise DecodeError(f"{span}{where}: {exc}", last_block=last_done) from exc
            spool.write("".join(lines).encode("utf-8"))
            spool.flush()
            os.fsync(spool.fileno())
            last_done = page_end
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, last_done, os.fstat(spool.fileno()).st_size)
            page_start = page_end + 1
