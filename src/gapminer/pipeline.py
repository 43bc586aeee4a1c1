"""End-to-end pipeline: ingest -> network -> persist -> classify -> metrics -> report.

Each stage reads the documented text artifacts of the previous stages and
writes its own under the output directory, recording in manifest.json the
digest of its inputs and those of its outputs. A stage whose inputs and
recorded outputs are unchanged is skipped. A run executes every stage up to
the one it runs through, so each artifact a stage reads was made current
earlier in the same run. Identical runs produce byte-identical manifests,
which hold no timestamps. The stages are declared once, as the `Stage`
entries of `_TABLE` at the end of this module.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, fields
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import classify as classify_mod
from . import metrics as metrics_mod
from .concept_net import Pair, PaperRow, build_network, save_network, store_rows
from .corpus import (
    CitationIndex,
    CorpusStore,
    build_citation_index,
    load_corpus,
    save_corpus,
    write_rejection_report,
)
from .errors import ConfigError, DataError, GapminerError, InternalError
from .topology import DiagramRecord, network_diagram, save_diagram_records
from .util import REMEDY, json_digest, parallel_map, sha256_file, sha256_text, write_csv, write_json

logger = logging.getLogger(__name__)

STAGES = ("ingest", "network", "persist", "classify", "metrics", "report")
# The manifest layout and what its digests vouch for; 2 since diagrams hold
# dimension-1 rows only. A manifest of any other schema is unreadable. The
# `reads` key that earlier schema-2 entries hold is ignored.
MANIFEST_SCHEMA = 2


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared in `_TABLE`.

    `run` writes every artifact in `makes`. The stage reruns when an artifact
    in `reads`, an outside file named by a config field in `sources` (an
    unset one is left out), or a config field in `config` changes.
    """

    name: str
    run: Callable[[Pipeline], None]
    makes: tuple[str, ...]
    config: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    sources: tuple[str, ...] = ()


@dataclass
class PipelineConfig:
    corpus_path: Path | None = None
    output_dir: Path = Path("out")
    year_min: int = 1900
    year_max: int = 2020
    min_persistence: int = 1
    null_replicates: int = 10
    n_rand: int = 10
    cd_window: int | None = None
    sb_horizon: int = 20
    verb_lexicon_path: Path | None = None
    seed: int = 0
    threads: int = 1

    @classmethod
    def from_sources(
        cls, config_path: Path | None = None, overrides: dict | None = None
    ) -> "PipelineConfig":
        """Defaults, then the declarative config file, then flag overrides."""
        values: dict = {}
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise ConfigError(f"config file {config_path} is not UTF-8 JSON: {exc}") from exc
            if not isinstance(loaded, dict):
                raise ConfigError(f"config file {config_path} must hold an object")
            values.update(loaded)
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config = cls(**values)
        config.validate()  # so corpus_path is set
        config.corpus_path, config.output_dir = Path(config.corpus_path), Path(config.output_dir)
        if config.verb_lexicon_path is not None:
            config.verb_lexicon_path = Path(config.verb_lexicon_path)
        return config

    def validate(self) -> None:
        """Types first, so that no stage meets a value of the wrong kind: an
        int field holds an int (cd_window may be None) and a path field a path
        or string (an optional one may be None). Then ranges and the outside
        files."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith(("_path", "_dir")):
                ok = isinstance(value, (str, os.PathLike)) or (value is None and f.default is None)
                kind = "a path string"
            else:
                ok = type(value) is int or (value is None and f.name == "cd_window")
                kind = "an integer"
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        nonnegative = ("min_persistence", "null_replicates", "cd_window", "sb_horizon")
        for name in nonnegative:
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.year_min > self.year_max:
            raise ConfigError("year_min must not exceed year_max")
        if self.n_rand < 1:
            raise ConfigError("n_rand must be at least 1")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.corpus_path is None:
            raise ConfigError("no corpus path configured")
        if self.verb_lexicon_path is not None and not Path(self.verb_lexicon_path).is_file():
            raise ConfigError(f"verb lexicon not found: {self.verb_lexicon_path}")


@dataclass
class PipelineResult:
    output_dir: Path
    statuses: dict[str, str]


def _discipline_file(kind: str, discipline: str) -> str:
    """`discipline`'s file under `kind/`, relative to the output directory."""
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", discipline)
    return f"{kind}/{safe}-{sha256_text(discipline)[:8]}.csv"


def _persist_discipline(
    task: tuple[str, Sequence[PaperRow]]
) -> tuple[str, list[DiagramRecord], int]:
    """The persist stage's pool task, from a discipline's rows (discipline,
    rows); module-level so process pools can use it."""
    discipline, rows = task
    return (discipline, *network_diagram(build_network(discipline, rows)))


def _read_manifest(path: Path) -> dict | None:
    """The manifest, or None when it cannot be read (a directory, say), is
    truncated or garbled, is of another schema, or a stage entry or its
    outputs is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # ValueError: JSONDecodeError, UnicodeDecodeError
        return None
    if (
        not isinstance(manifest, dict)
        or manifest.get("schema") != MANIFEST_SCHEMA
        or not isinstance(manifest.get("stages"), dict)
    ):
        return None
    for entry in manifest["stages"].values():
        if not isinstance(entry, dict) or not isinstance(entry.get("outputs", {}), dict):
            return None
    return manifest


class _Digests(dict):
    """The sha256 of each file under `out` by relative path, or None where no
    regular file is, taken on first use: the one table that every check of an
    `execute` reads, so that each file is hashed once per write."""

    def __init__(self, out: Path):
        super().__init__()
        self.out = out

    def __missing__(self, rel: str) -> str | None:
        path = self.out / rel
        self[rel] = digest = sha256_file(path) if path.is_file() else None
        return digest

    def match(self, recorded: dict[str, str]) -> bool:
        """Every file named in `recorded` is a regular file with its recorded digest."""
        return all(digest is not None and self[rel] == digest for rel, digest in recorded.items())


def _in_step(rows: Iterable[Sequence[str]], ids: Iterable[str], mismatch: str) -> Iterator:
    """`rows` as they are read, each checked to start with the next of `ids`;
    a row out of step, a missing row or an extra one raises DataError."""
    for row, pid in zip_longest(rows, ids):
        if row is None or row[0] != pid:
            raise DataError(mismatch)
        yield row


def _index_entries(document: object) -> dict[str, dict]:
    entries = document["disciplines"]
    if not isinstance(entries, dict):  # a JSON object, so its keys are strings
        raise TypeError("the disciplines are not an object")
    return entries


def _ingest_counts(document: object) -> dict:
    if not isinstance(document, dict):
        raise TypeError("ingest metadata is not an object")
    return document


class Pipeline:
    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.out = config.output_dir
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file where the directory or a parent belongs
            raise DataError(f"cannot make output directory {self.out}: {exc}") from exc
        self.manifest_path = self.out / "manifest.json"
        self._store: CorpusStore | None = None
        self._index: CitationIndex | None = None
        self.manifest = {"schema": MANIFEST_SCHEMA, "stages": {}}
        if self.manifest_path.exists():
            manifest = _read_manifest(self.manifest_path)
            if manifest is None:
                logger.warning(
                    "%s is unreadable; treating it as absent, every stage reruns",
                    self.manifest_path,
                )
            else:
                self.manifest = manifest

    # ---- artifacts ------------------------------------------------------------

    def _read_json(self, rel: str, extract: Callable[[object], dict]) -> dict:
        """`extract` applied to the JSON artifact `rel`; a document that cannot
        be opened, is truncated or garbled, or that `extract` cannot read,
        raises DataError naming the file and the fault."""
        path = self.out / rel
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return extract(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: unreadable ({exc!r}); {REMEDY}") from exc

    def _files(self, artifact: str) -> list[str]:
        """The files `artifact` stands for, a `kind/*` one's index first, then
        the file of each discipline the index lists, named by the discipline:
        an entry's `file` is for readers outside the pipeline."""
        if not artifact.endswith("/*"):
            return [artifact]
        kind = artifact[:-2]
        entries = self._read_json(f"{kind}/index.json", _index_entries)
        return [f"{kind}/index.json", *(_discipline_file(kind, d) for d in entries)]

    def _stage_reads(self, stage: Stage, digests: _Digests) -> dict[str, str | None]:
        """The digest of every file `stage` reads, a `kind/*` one's index included."""
        return {rel: digests[rel] for artifact in stage.reads for rel in self._files(artifact)}

    def _stage_inputs(self, stage: Stage, reads: dict[str, str | None]) -> dict:
        """The document whose digest decides whether `stage` reruns: its config
        fields and the digests of the artifacts it `reads` and its outside files."""
        files = dict(reads)
        for name in stage.sources:
            source = getattr(self.config, name)
            if source is None:
                continue
            key = name.removesuffix("_path")  # "corpus", "verb_lexicon"
            if not Path(source).is_file():  # missing, or a directory
                raise DataError(f"no {key} file at {source}")
            files[key] = sha256_file(Path(source))
        return {"config": {f: getattr(self.config, f) for f in stage.config}, "files": files}

    def _load_store(self) -> CorpusStore:
        """The normalized corpus, parsed at most once per run: every stage that
        loads it runs after ingest made corpus.norm.jsonl current, and ingest
        hands over the store it wrote."""
        if self._store is None:
            path, cfg = self.out / "corpus.norm.jsonl", self.config
            self._store = load_corpus(path, year_min=cfg.year_min, year_max=cfg.year_max)
        return self._store

    # ---- stage runners: each writes every artifact its Stage entry makes -------

    def _run_ingest(self) -> None:
        cfg = self.config
        store = load_corpus(cfg.corpus_path, year_min=cfg.year_min, year_max=cfg.year_max)
        normalized = self.out / "corpus.norm.jsonl"
        save_corpus(store, normalized)
        index = build_citation_index(store)
        # Equal to load_corpus(normalized), so later stages need not parse it,
        # and the network stage reuses its index.
        self._store, self._index = store, index
        write_rejection_report(store, self.out / "rejections.csv")
        report = store.ingest_report
        write_json(
            self.out / "ingest.json",
            {
                "papers": len(store),
                "lines": report.lines,
                "accepted": report.accepted,
                "malformed": report.malformed,
                "duplicate_ids": report.duplicate_ids,
                "rejections": report.rejection_counts(),
                "external_references": index.external_references,
                "citation_year_anomalies": index.year_anomalies,
                "disciplines": store.disciplines(),
                "multi_discipline_papers": sum(
                    1 for rec in store.papers.values() if len(rec.level0_ids) > 1
                ),
            },
        )

    def _run_network(self) -> None:
        cfg = self.config
        store = self._load_store()
        novel_pairs = self._write_networks(store)
        rows = metrics_mod.paper_stats_rows(
            store,
            self._index or build_citation_index(store),
            novel_pairs,
            cd_window=cfg.cd_window,
            sb_horizon=cfg.sb_horizon,
        )
        write_csv(self.out / "paper_stats.csv", metrics_mod.PAPER_STATS_HEADER, rows)
        self._index = None  # no later stage reads it

    def _write_networks(self, store: CorpusStore) -> dict[str, set[Pair]]:
        """Write every discipline's network and the index; return the concept
        pairs each paper introduced. The networks go with the call."""
        entries: dict[str, dict] = {}
        novel_pairs: dict[str, set[Pair]] = {}
        for discipline, rows in store_rows(store).items():
            network = build_network(discipline, rows)
            rel = _discipline_file("networks", discipline)
            save_network(network, self.out / rel)
            entries[discipline] = {
                "file": rel,
                "nodes": len({concept for pair in network.edges for concept in pair}),
                "edges": len(network.edges),
            }
            for pair, birth in network.edges.items():
                for pid in birth.introducers:
                    novel_pairs.setdefault(pid, set()).add(pair)
        write_json(self.out / "networks" / "index.json", {"disciplines": entries})
        return novel_pairs

    def _run_persist(self) -> None:
        tasks = store_rows(self._load_store()).items()
        index: dict[str, dict] = {}
        for discipline, records, n_simplices in parallel_map(
            _persist_discipline, tasks, self.config.threads
        ):
            rel = _discipline_file("diagrams", discipline)
            save_diagram_records(records, self.out / rel)
            n_pairs = sum(1 for r in records if r.death_year is not None)
            index[discipline] = {
                "file": rel,
                "simplices": n_simplices,
                "pairs": n_pairs,
                "essentials": len(records) - n_pairs,
            }
        write_json(self.out / "diagrams" / "index.json", {"disciplines": index})

    def _run_classify(self) -> None:
        cfg = self.config
        store = self._load_store()
        classifications = classify_mod.classify_all(store, cfg.min_persistence)
        classify_mod.write_classification_csv(classifications, self.out / "classification.csv")
        categories = {pid: cls.category for pid, cls in classifications.items()}
        rows = []
        for grouping in classify_mod.GROUPINGS:
            keys = classify_mod.group_keys(store, grouping)
            rows.extend(classify_mod.share_table(categories, keys, grouping))
        del classifications, categories, keys  # the null model needs none of them
        if cfg.null_replicates > 0:
            rows.extend(
                classify_mod.null_comparison(
                    store,
                    cfg.seed,
                    cfg.null_replicates,
                    min_persistence=cfg.min_persistence,
                    threads=cfg.threads,
                )
            )
        classify_mod.write_shares_csv(rows, self.out / "shares.csv")

    def _run_metrics(self) -> None:
        cfg = self.config
        classification = self.out / "classification.csv"
        stats_path = self.out / "paper_stats.csv"
        categories = {
            pid: cat.value
            for pid, cat in classify_mod.load_classification_csv(classification).items()
        }
        mismatch = (
            f"{stats_path} and {classification} do not list the same papers in "
            "the same order; delete both and run again, and their makers rewrite them"
        )
        rows = metrics_mod.compute_metrics_rows(
            self._load_store(),
            categories,
            _in_step(metrics_mod.load_paper_stats(stats_path), categories, mismatch),
            seed=cfg.seed,
            n_rand=cfg.n_rand,
        )
        write_csv(self.out / "metrics.csv", metrics_mod.METRICS_HEADER, rows)

    def _run_report(self) -> None:
        ingest = self._read_json("ingest.json", _ingest_counts)
        networks = self._read_json("networks/index.json", _index_entries)
        diagrams = self._read_json("diagrams/index.json", _index_entries)
        categories = classify_mod.load_classification_csv(self.out / "classification.csv")
        counts: dict[str, int] = {c.value: 0 for c in classify_mod.CATEGORIES}
        for cat in categories.values():
            counts[cat.value] += 1
        total = len(categories)
        report = {
            "papers": total,
            "category_counts": counts,
            "gap_opener_share": (counts["GapOpener"] / total) if total else None,
            "ingest": ingest,
            "networks": networks,
            "diagrams": diagrams,
            "multi_discipline_papers": ingest.get("multi_discipline_papers", 0),
            "title_verb_ratios": self._verb_ratios(categories),
            "notes": [
                "discipline-level shares count multi-discipline papers once per discipline",
                "networks use every positive-confidence discipline membership of a paper",
                "top-k citation flags include all papers tied at the cohort threshold",
            ],
            "config": {f: getattr(self.config, f) for f in _maker("report.json").config},
        }
        write_json(self.out / "report.json", report)

    def _verb_ratios(self, categories) -> dict[str, float | str] | None:
        """Verb frequency ratios between gap-opener and novel-pair titles.

        Returns None when either collection has no title with a word. The
        +inf sentinel is stringified for JSON.
        """
        store = self._load_store()
        gap_titles = []
        novel_titles = []
        for pid, category in categories.items():
            rec = store.papers.get(pid)
            if rec is None or rec.title is None:
                continue
            if category is classify_mod.Category.GAP_OPENER:
                gap_titles.append(rec.title)
            elif category is classify_mod.Category.NOVEL_PAIR_NON_GAP:
                novel_titles.append(rec.title)
        lexicon = metrics_mod.DEFAULT_VERB_LEXICON
        path = self.config.verb_lexicon_path
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    lexicon = tuple(line.strip() for line in fh if line.strip())
            except (OSError, UnicodeDecodeError) as exc:
                raise DataError(f"cannot read verb lexicon {path}: {exc}") from exc
        ratios = metrics_mod.verb_ratio(gap_titles, novel_titles, lexicon)
        if ratios is None:
            return None
        return {
            verb: ("inf" if value == float("inf") else value)
            for verb, value in sorted(ratios.items())
        }

    # ---- driver ---------------------------------------------------------------

    def execute(self, through: str = STAGES[-1]) -> PipelineResult:
        """Run the stages in order up to and including `through`, skipping
        each one that is current. Whatever a stage raises while it hashes its
        inputs or runs leaves chained, with the prefix `stage <name>: `: a
        GapminerError keeps its class, any other exception (a bug) becomes
        an InternalError that names its type."""
        if through not in STAGES:
            raise ConfigError(f"unknown stage {through!r}; valid: {', '.join(STAGES)}")
        statuses: dict[str, str] = {}
        digests = _Digests(self.out)
        for stage in _TABLE[: STAGES.index(through) + 1]:
            try:
                statuses[stage.name] = self._execute_stage(stage, digests)
            except GapminerError as exc:
                raise type(exc)(f"stage {stage.name}: {exc}") from exc
            except Exception as exc:
                raise InternalError(f"stage {stage.name}: {type(exc).__name__}: {exc}") from exc
        return PipelineResult(self.out, statuses)

    def _execute_stage(self, stage: Stage, digests: _Digests) -> str:
        """Skip `stage` if it is current, else run it and record it in the
        manifest; return its status. A stage that fails is recorded invalid."""
        reads = self._stage_reads(stage, digests)
        inputs_digest = json_digest(self._stage_inputs(stage, reads))
        entry = self.manifest["stages"].get(stage.name)
        if (
            entry
            and entry.get("inputs") == inputs_digest
            and entry.get("outputs")
            and digests.match(entry["outputs"])
        ):
            logger.info("stage %s: inputs unchanged, skipped", stage.name)
            return "skipped"
        logger.info("stage %s: running", stage.name)
        try:
            stage.run(self)
        except Exception:
            self.manifest["stages"][stage.name] = {"inputs": inputs_digest, "invalid": True}
            write_json(self.manifest_path, self.manifest)
            raise
        outputs = [rel for artifact in stage.makes for rel in self._files(artifact)]
        for kind in (artifact[:-2] for artifact in stage.makes if artifact.endswith("/*")):
            for path in (self.out / kind).glob("*.csv"):  # left by a discipline no longer listed
                if path.relative_to(self.out).as_posix() not in outputs and path.is_file():
                    path.unlink()
        for rel in outputs:  # written since the table may have hashed it
            digests.pop(rel, None)
        self.manifest["stages"][stage.name] = {
            "inputs": inputs_digest,
            "outputs": {rel: digests[rel] for rel in outputs},
        }
        write_json(self.manifest_path, self.manifest)
        return "ok"


# The stages in run order. Artifact names are relative to the output
# directory, and `kind/*` is every file that `kind/index.json` lists.
_TABLE = (
    Stage(
        "ingest", Pipeline._run_ingest,
        makes=("corpus.norm.jsonl", "rejections.csv", "ingest.json"),
        config=("year_min", "year_max"),
        sources=("corpus_path",),
    ),
    Stage(
        "network", Pipeline._run_network,
        makes=("networks/*", "networks/index.json", "paper_stats.csv"),
        config=("cd_window", "sb_horizon"),
        reads=("corpus.norm.jsonl",),
    ),
    Stage(
        "persist", Pipeline._run_persist,
        makes=("diagrams/*", "diagrams/index.json"),
        reads=("corpus.norm.jsonl",),
    ),
    Stage(
        "classify", Pipeline._run_classify,
        makes=("classification.csv", "shares.csv"),
        config=("min_persistence", "null_replicates", "seed"),
        reads=("corpus.norm.jsonl",),
    ),
    Stage(
        "metrics", Pipeline._run_metrics,
        makes=("metrics.csv",),
        config=("seed", "n_rand"),
        reads=("corpus.norm.jsonl", "classification.csv", "paper_stats.csv"),
    ),
)
# The report echoes every earlier stage's config fields in report.json.
_TABLE += (
    Stage(
        "report", Pipeline._run_report,
        makes=("report.json",),
        config=tuple(dict.fromkeys(field for stage in _TABLE for field in stage.config)),
        reads=(
            "ingest.json", "corpus.norm.jsonl", "networks/index.json", "diagrams/index.json",
            "classification.csv",
        ),
        sources=("verb_lexicon_path",),
    ),
)


def _maker(artifact: str) -> Stage:
    return next(stage for stage in _TABLE if artifact in stage.makes)


def run(config: PipelineConfig, through: str = STAGES[-1]) -> PipelineResult:
    """Execute the stages through `through`; see PipelineConfig for knobs."""
    return Pipeline(config).execute(through)


def verify_manifest(output_dir: Path) -> bool:
    """Check every digest recorded in the manifest against the files on disk.

    An unreadable manifest verifies nothing and returns False.
    """
    manifest_path = Path(output_dir) / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest at {manifest_path}")
    manifest = _read_manifest(manifest_path)
    if manifest is None:
        return False
    digests = _Digests(Path(output_dir))
    return all(
        not entry.get("invalid") and digests.match(entry.get("outputs", {}))
        for entry in manifest["stages"].values()
    )
