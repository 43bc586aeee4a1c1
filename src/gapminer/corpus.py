"""Bibliographic corpus ingestion, validation, and citation indexing.

The on-disk corpus is line-delimited JSON: a header line carrying the schema
version, then one record object per line. Ingestion is streaming; memory is
proportional to what is retained, not to file size. Records are either
accepted, rejected by a content filter (with an enumerated reason), or
counted as malformed when they are structurally broken.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

from .errors import DataError
from .util import output_file, write_csv

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DEFAULT_YEAR_MIN = 1900
DEFAULT_YEAR_MAX = 2020

# Rejection reasons (content filters, not structural errors).
REASON_YEAR = "out-of-range-year"
REASON_LEVEL0 = "no-positive-level0"
REASON_LEVEL3 = "insufficient-level3"

_UNWRITABLE = re.compile("[\x00\ud800-\udfff]")


class _MalformedRecord(ValueError):
    """Structurally broken record; counted and skipped during ingestion."""


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One validated publication record.

    Each concept level holds only positive-confidence assignments,
    deduplicated by concept id (keeping the highest confidence), as sorted
    ids with their confidences in a parallel tuple. References are
    deduplicated, self-references removed, sorted. Author order is preserved
    as given.
    """

    paper_id: str
    year: int
    level0_ids: tuple[str, ...]
    level0_confidences: tuple[float, ...]
    level3_ids: tuple[str, ...]
    level3_confidences: tuple[float, ...]
    references: tuple[str, ...]
    title: str | None = None
    venue_id: str | None = None
    authors: tuple[str, ...] = ()
    affiliations: tuple[tuple[str, float, float], ...] = ()


@dataclass(frozen=True, slots=True)
class Rejection:
    paper_id: str
    reason: str


@dataclass
class IngestReport:
    lines: int = 0
    accepted: int = 0
    malformed: int = 0
    duplicate_ids: int = 0
    rejections: list[Rejection] = field(default_factory=list)

    def rejection_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rejections:
            counts[r.reason] = counts.get(r.reason, 0) + 1
        return counts


@dataclass
class CorpusStore:
    """Immutable-by-convention container for validated records, their ids
    by year, and the ingest report; nothing else is derived from them.

    papers and by_year are in the deterministic ascending (year, paper_id)
    order, with ids compared as strings (equivalent to UTF-8 byte order), so
    a store equals, in dict order too, the one that load_corpus reads back
    from its save_corpus file.
    """

    papers: dict[str, PaperRecord]
    by_year: dict[int, list[str]]
    ingest_report: IngestReport = field(default_factory=IngestReport, compare=False)

    @classmethod
    def from_records(
        cls, records: Iterable[PaperRecord], report: IngestReport | None = None
    ) -> "CorpusStore":
        """The store of `records`; of two records with one id, the later is kept."""
        ordered = sorted(
            {rec.paper_id: rec for rec in records}.values(),
            key=lambda rec: (rec.year, rec.paper_id),
        )
        papers = {rec.paper_id: rec for rec in ordered}
        by_year: dict[int, list[str]] = {}
        for rec in ordered:
            by_year.setdefault(rec.year, []).append(rec.paper_id)
        return cls(papers, by_year, report or IngestReport())

    def __len__(self) -> int:
        return len(self.papers)

    def years(self) -> list[int]:
        return list(self.by_year)

    def year_max(self) -> int | None:
        return max(self.by_year) if self.by_year else None

    def iter_papers(self) -> Iterator[PaperRecord]:
        """The records in the deterministic (year, paper_id) order."""
        return iter(self.papers.values())

    def disciplines(self) -> list[str]:
        """Sorted ids of all level-0 concepts assigned to any paper."""
        return sorted({c for rec in self.papers.values() for c in rec.level0_ids})


def _coerce_concepts(
    raw: object, key: str, intern: Callable[[object, object], object]
) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """The sorted concept ids of a level and their confidences."""
    if not isinstance(raw, list):
        raise _MalformedRecord(f"{key} must be a list")
    best: dict[str, float] = {}
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not _is_text(entry[0])
            or isinstance(entry[1], bool)
            or not isinstance(entry[1], (int, float))
        ):
            raise _MalformedRecord(f"{key} entries must be [concept, confidence] pairs")
        concept, conf = entry[0], float(entry[1])
        if conf != conf or conf > 1.0:
            raise _MalformedRecord(f"{key} confidence outside (0, 1]")
        if conf <= 0.0:
            continue  # the positive-confidence threshold drops these
        if conf > best.get(concept, 0.0):
            best[concept] = conf
    ids = sorted(best)
    return tuple(intern(c, c) for c in ids), tuple(intern(best[c], best[c]) for c in ids)


def _is_text(raw: object) -> bool:
    """A non-empty string that every artifact can hold on every supported
    Python: one without a lone surrogate, which JSON can spell but UTF-8
    cannot encode, and without a NUL, which the csv reader refuses before
    Python 3.11."""
    return isinstance(raw, str) and raw != "" and not _UNWRITABLE.search(raw)


def _coerce_str(raw: object, key: str) -> str:
    if not _is_text(raw):
        raise _MalformedRecord(f"{key} must be a non-empty UTF-8 string")
    return raw


def validate_record(
    raw: dict,
    *,
    year_min: int = DEFAULT_YEAR_MIN,
    year_max: int = DEFAULT_YEAR_MAX,
    shared: dict | None = None,
) -> Union[PaperRecord, Rejection]:
    """Validate one parsed record.

    Returns a PaperRecord when all content filters pass, or a Rejection naming
    the first failed filter. Structural problems (missing mandatory keys,
    wrong types) raise an internal error that load_corpus counts as malformed.
    Every id (paper, concept, reference, venue, author) and every concept
    confidence is replaced by its value in `shared`, entered there when new,
    so that records validated with one table hold one object per distinct
    id and per distinct confidence.
    """
    intern = ({} if shared is None else shared).setdefault
    if not isinstance(raw, dict):
        raise _MalformedRecord("record must be an object")
    for key in ("id", "year", "l0", "l3", "refs"):
        if key not in raw:
            raise _MalformedRecord(f"missing mandatory key {key!r}")
    paper_id = _coerce_str(raw["id"], "id")
    paper_id = intern(paper_id, paper_id)
    year = raw["year"]
    if isinstance(year, bool) or not isinstance(year, int):
        raise _MalformedRecord("year must be an integer")
    level0, level0_confidences = _coerce_concepts(raw["l0"], "l0", intern)
    level3, level3_confidences = _coerce_concepts(raw["l3"], "l3", intern)
    refs_raw = raw["refs"]
    if not isinstance(refs_raw, list) or not all(map(_is_text, refs_raw)):
        raise _MalformedRecord("refs must be a list of non-empty strings")
    references = tuple(sorted(intern(r, r) for r in set(refs_raw) if r != paper_id))

    title = raw.get("title")
    if title is not None:
        title = _coerce_str(title, "title")
    venue = raw.get("venue")
    if venue is not None:
        venue = _coerce_str(venue, "venue")
        venue = intern(venue, venue)
    authors_raw = raw.get("authors", [])
    if not isinstance(authors_raw, list) or not all(map(_is_text, authors_raw)):
        raise _MalformedRecord("authors must be a list of non-empty strings")
    affil_raw = raw.get("affil", [])
    if not isinstance(affil_raw, list):
        raise _MalformedRecord("affil must be a list")
    affiliations: list[tuple[str, float, float]] = []
    for entry in affil_raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 3
            or not (entry[0] == "" or _is_text(entry[0]))
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry[1:])
        ):
            raise _MalformedRecord("affil entries must be [author, lat, lon] triples")
        lat, lon = float(entry[1]), float(entry[2])
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # NaN fails too
            raise _MalformedRecord("affil latitude must lie in [-90, 90], longitude in [-180, 180]")
        affiliations.append((intern(entry[0], entry[0]), lat, lon))

    if not (year_min <= year <= year_max):
        return Rejection(paper_id, REASON_YEAR)
    if not level0:
        return Rejection(paper_id, REASON_LEVEL0)
    if len(level3) < 2:
        return Rejection(paper_id, REASON_LEVEL3)
    return PaperRecord(
        paper_id=paper_id,
        year=year,
        level0_ids=level0,
        level0_confidences=level0_confidences,
        level3_ids=level3,
        level3_confidences=level3_confidences,
        references=references,
        title=title,
        venue_id=venue,
        authors=tuple(intern(a, a) for a in authors_raw),
        affiliations=tuple(affiliations),
    )


def load_corpus(
    path: str | Path,
    *,
    year_min: int = DEFAULT_YEAR_MIN,
    year_max: int = DEFAULT_YEAR_MAX,
) -> CorpusStore:
    """Stream a line-delimited corpus file into a validated store.

    The first non-blank line must be a header object whose "schema_version"
    is SCHEMA_VERSION. Malformed lines are counted, logged at debug level, and
    skipped; if they exceed half of all data lines the load aborts.
    """
    path = Path(path)
    report = IngestReport()
    records: dict[str, PaperRecord] = {}  # the accepted ones, by paper id
    shared: dict = {}  # one object per distinct id or confidence, for this load
    try:
        # A byte that is not UTF-8 decodes to a lone surrogate: its line is malformed.
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    with fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not header_seen:
                header_seen = True
                try:
                    header = json.loads(line)
                    version = header["schema_version"]
                except (json.JSONDecodeError, TypeError, KeyError) as exc:
                    raise DataError(
                        f"{path}: first line must be a schema header object"
                    ) from exc
                if version != SCHEMA_VERSION:
                    raise DataError(
                        f"{path}: schema version {version!r} unsupported "
                        f"(expected {SCHEMA_VERSION})"
                    )
                continue
            report.lines += 1
            try:
                parsed = json.loads(line)
                result = validate_record(parsed, year_min=year_min, year_max=year_max, shared=shared)
            except (ValueError, OverflowError) as exc:  # or a number int() or float() rejects
                report.malformed += 1
                logger.debug("%s:%d malformed line: %s", path, lineno, exc)
                continue
            if isinstance(result, Rejection):
                report.rejections.append(result)
                continue
            if result.paper_id in records:
                report.duplicate_ids += 1
                report.malformed += 1
                logger.debug("%s:%d duplicate paper id %s", path, lineno, result.paper_id)
                continue
            records[result.paper_id] = result
            report.accepted += 1
    if report.lines and report.malformed * 2 > report.lines:
        raise DataError(f"{path}: {report.malformed} of {report.lines} lines malformed (>50%)")
    logger.info(
        "loaded %d papers from %s (%d rejected, %d malformed)",
        report.accepted,
        path,
        len(report.rejections),
        report.malformed,
    )
    return CorpusStore.from_records(records.values(), report)


def record_to_json(rec: PaperRecord) -> dict:
    """Canonical JSON form of a record; key order is fixed."""
    obj: dict = {
        "id": rec.paper_id,
        "year": rec.year,
        "l0": [[c, conf] for c, conf in zip(rec.level0_ids, rec.level0_confidences)],
        "l3": [[c, conf] for c, conf in zip(rec.level3_ids, rec.level3_confidences)],
        "refs": list(rec.references),
    }
    if rec.title is not None:
        obj["title"] = rec.title
    if rec.venue_id is not None:
        obj["venue"] = rec.venue_id
    if rec.authors:
        obj["authors"] = list(rec.authors)
    if rec.affiliations:
        obj["affil"] = [[a, lat, lon] for a, lat, lon in rec.affiliations]
    return obj


def write_corpus(records: Iterable[dict], path: str | Path) -> Path:
    """Write a corpus file: the schema header line, then one compact JSON line per record."""
    with output_file(path) as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION}) + "\n")
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return Path(path)


def save_corpus(store: CorpusStore, path: str | Path) -> None:
    """Write the canonical line-delimited form; load_corpus round-trips it."""
    write_corpus(map(record_to_json, store.iter_papers()), path)


def write_rejection_report(store: CorpusStore, path: str | Path) -> None:
    rows = ((r.paper_id, r.reason) for r in store.ingest_report.rejections)
    write_csv(path, ("paper_id", "reason"), rows)


@dataclass
class CitationIndex:
    """Forward citation map over a store: each paper's in-store citers.

    forward has a key for every in-store paper and only for in-store papers;
    references to ids outside the store are tallied as external. Citing-year
    anomalies (citer earlier than cited) are counted, not repaired.
    """

    forward: dict[str, frozenset[str]]
    year_of: dict[str, int]
    external_references: int
    year_anomalies: int

    def citers(self, paper_id: str) -> frozenset[str]:
        return self.forward.get(paper_id, frozenset())

    def citation_count(self, paper_id: str) -> int:
        return len(self.forward.get(paper_id, ()))


def build_citation_index(store: CorpusStore) -> CitationIndex:
    forward: dict[str, set[str]] = {pid: set() for pid in store.papers}
    external = 0
    anomalies = 0
    for rec in store.iter_papers():
        for ref in rec.references:
            cited = store.papers.get(ref)
            if cited is None:
                external += 1
                continue
            forward[ref].add(rec.paper_id)
            if rec.year < cited.year:
                anomalies += 1
    if external:
        logger.info("citation index: %d references point outside the store", external)
    return CitationIndex(
        forward={pid: frozenset(c) for pid, c in forward.items()},
        year_of={pid: rec.year for pid, rec in store.papers.items()},
        external_references=external,
        year_anomalies=anomalies,
    )
