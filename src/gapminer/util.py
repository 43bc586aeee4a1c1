"""Small shared helpers: seed derivation, hashing, deterministic and atomic
file output, the CSV artifact reader, and the process pool."""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections import deque
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .errors import DataError

T = TypeVar("T")
R = TypeVar("R")


def derive_seed(base: int, *parts: object) -> int:
    """Derive a reproducible sub-seed from a base seed and a label path.

    Uses SHA-256 rather than hash() so results are stable across processes
    and platforms.
    """
    text = "|".join([str(base), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def json_digest(obj: Any) -> str:
    """Digest of a JSON-serializable object, independent of dict ordering."""
    return sha256_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))


@contextmanager
def output_file(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file for writing that replaces `path` only when the block
    completes: it is written as a sibling temporary file, renamed over `path`
    on success and removed on failure, so a reader sees the previous file or
    the whole new one. No newline translation, so output bytes are the same
    on every platform. An OSError becomes a DataError naming `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        with suppress(OSError):
            tmp.unlink()  # still there only if the block or the rename failed


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV file with '\\n' line endings regardless of platform. None
    is the empty field, a float is written as its repr, and a field holding
    '\\n', '\\r', a comma or a quote is quoted: csv.writer quotes the
    characters of its line terminator, '\\r\\n' here, and writes each row in
    one call, whose ending is written as '\\n'."""
    with output_file(path) as fh:
        target = SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n"))
        writer = csv.writer(target, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


# How every damaged-artifact error ends: a missing artifact's maker reruns.
REMEDY = "delete it and run again, and its maker rewrites it"


def read_csv(
    path: str | Path, header: Sequence[str], parse: Callable[[list[str]], T]
) -> Iterator[T]:
    """`parse` of each row of a CSV artifact written under `header`, yielded
    as the file is read, so a caller holds only the rows it keeps. A file
    that cannot be opened or read, a wrong header, or a row that `parse`
    rejects with ValueError raises DataError naming the file (and the line,
    the row) and the fault, then REMEDY."""
    reader = row = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            row = next(reader, None)
            if row != list(header):
                raise ValueError(f"expected the header {','.join(header)}")
            for row in reader:
                yield parse(row)
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc}); {REMEDY}") from exc
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise DataError(
            f"{path}, line {reader.line_num}: malformed row {row!r} ({exc}); {REMEDY}"
        ) from exc


def write_json(path: Path, payload: Any) -> None:
    with output_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parallel_map(fn: Callable[[T], R], tasks: Iterable[T], threads: int) -> Iterator[R]:
    """fn of every task, yielded in task order.

    threads == 1 runs each task here when its result is asked for, so tasks
    are made one at a time. Otherwise one process pool of `threads` workers,
    but no more than the CPUs, runs them all, with at most two tasks per
    worker queued ahead of the one the caller waits for; fn and each task
    must pickle, under any start method.
    """
    if threads == 1:
        for task in tasks:
            yield fn(task)
        return
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    workers = min(threads, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for task in tasks:
            pending.append(pool.submit(fn, task))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
