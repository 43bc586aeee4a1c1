"""End-to-end pipeline: ingest -> network -> persist -> classify -> metrics -> report.

Each stage reads the documented text artifacts of the previous stages and
writes its own under the output directory, recording input and output
digests in manifest.json. A stage whose inputs and recorded outputs are
unchanged is skipped. The manifest contains no timestamps, so identical runs
produce byte-identical manifests.
"""

from __future__ import annotations

import json
import logging
import re
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

from . import classify as classify_mod
from . import metrics as metrics_mod
from .concept_net import Pair, build_network, discipline_rows, load_network, save_network
from .corpus import build_citation_index, load_corpus, save_corpus, write_rejection_report
from .errors import ConfigError, DataError, InternalError, MissingDependencyError
from .topology import (
    DiagramRecord,
    gap_edges,
    load_diagram_records,
    network_diagram,
    save_diagram_records,
)
from .util import json_digest, parallel_map, sha256_file, sha256_text, write_csv, write_json

logger = logging.getLogger(__name__)

STAGES = ("ingest", "network", "persist", "classify", "metrics", "report")

# Which stage produces each artifact a later stage may require.
_STAGE_LABEL = {
    "ingest": "ingest (corpus normalization)",
    "network": "network (concept networks)",
    "persist": "persist (topology: persistence diagrams)",
    "classify": "classify (paper categories)",
    "metrics": "metrics (per-paper table)",
}


@dataclass
class PipelineConfig:
    corpus_path: Path | None = None
    output_dir: Path = Path("out")
    year_min: int = 1900
    year_max: int = 2020
    min_persistence: int = 1
    null_replicates: int = 10
    n_rand: int = 10
    rewire_factor: int = 10
    cd_window: int | None = None
    sb_horizon: int = 20
    verb_lexicon_path: Path | None = None
    seed: int = 0
    threads: int = 1
    stages: tuple[str, ...] = STAGES

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
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
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
        if config.corpus_path is not None:
            config.corpus_path = Path(config.corpus_path)
        if config.verb_lexicon_path is not None:
            config.verb_lexicon_path = Path(config.verb_lexicon_path)
        config.output_dir = Path(config.output_dir)
        config.stages = tuple(config.stages)
        config.validate()
        return config

    def validate(self) -> None:
        if self.year_min > self.year_max:
            raise ConfigError("year_min must not exceed year_max")
        if self.min_persistence < 0:
            raise ConfigError("min_persistence must be non-negative")
        if self.null_replicates < 0:
            raise ConfigError("null_replicates must be non-negative")
        if self.n_rand < 1:
            raise ConfigError("n_rand must be at least 1")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if self.verb_lexicon_path is not None and not Path(self.verb_lexicon_path).is_file():
            raise ConfigError(f"verb lexicon not found: {self.verb_lexicon_path}")
        unknown = sorted(set(self.stages) - set(STAGES))
        if unknown:
            raise ConfigError(
                f"unknown stages: {', '.join(unknown)}; valid: {', '.join(STAGES)}"
            )


@dataclass
class PipelineResult:
    output_dir: Path
    statuses: dict[str, str]
    manifest: dict


def _slug(name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    return f"{safe}-{sha256_text(name)[:8]}"


def _persist_discipline(task: tuple[str, str]) -> tuple[str, list[DiagramRecord], int]:
    """Worker for the persist stage; module-level so process pools can use it."""
    discipline, network_path = task
    return (discipline, *network_diagram(load_network(network_path, discipline)))


def _read_manifest(path: Path) -> dict | None:
    """The manifest, or None when it is truncated or garbled."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError:  # JSONDecodeError, UnicodeDecodeError
        return None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        return None
    return manifest


def _read_json(path: Path, producer: str, extract: Callable[[object], dict]) -> dict:
    """`extract` applied to the JSON document at `path`; a truncated or
    garbled document, or one `extract` cannot read, raises DataError naming
    the file and the stage to rerun."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return extract(json.load(fh))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: unreadable ({exc!r}); rerun stage {producer}") from exc


def _index_entries(document: object) -> dict[str, dict]:
    entries = document["disciplines"]
    if not all(isinstance(meta["file"], str) for meta in entries.values()):
        raise TypeError("an entry's file is not a string")
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
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        self._store_cache: tuple[str, object] | None = None
        self.manifest = {"schema": 1, "stages": {}}
        if self.manifest_path.exists():
            manifest = _read_manifest(self.manifest_path)
            if manifest is None:
                logger.warning(
                    "%s is unreadable; treating it as absent, every stage reruns",
                    self.manifest_path,
                )
            else:
                self.manifest = manifest

    # ---- artifact locations -------------------------------------------------

    @property
    def corpus_norm(self) -> Path:
        return self.out / "corpus.norm.jsonl"

    @property
    def rejections_csv(self) -> Path:
        return self.out / "rejections.csv"

    @property
    def ingest_meta(self) -> Path:
        return self.out / "ingest.json"

    @property
    def networks_index(self) -> Path:
        return self.out / "networks" / "index.json"

    @property
    def diagrams_index(self) -> Path:
        return self.out / "diagrams" / "index.json"

    @property
    def classification_csv(self) -> Path:
        return self.out / "classification.csv"

    @property
    def shares_csv(self) -> Path:
        return self.out / "shares.csv"

    @property
    def metrics_csv(self) -> Path:
        return self.out / "metrics.csv"

    @property
    def report_json(self) -> Path:
        return self.out / "report.json"

    def _rel(self, path: Path) -> str:
        return path.relative_to(self.out).as_posix()

    # ---- dependency handling ------------------------------------------------

    def _require(self, stage: str, path: Path, produced_by: str) -> Path:
        if not path.exists():
            raise MissingDependencyError(
                f"stage '{stage}' requires {self._rel(path)}, produced by stage "
                f"'{produced_by}' [{_STAGE_LABEL[produced_by]}]; run that stage first"
            )
        return path

    def _read_index(self, index: Path, producer: str) -> dict[str, dict]:
        """The per-discipline entries of a networks/ or diagrams/ index."""
        return _read_json(index, producer, _index_entries)

    def _index_files(self, stage: str, index: Path, producer: str) -> dict[str, Path]:
        """The per-discipline files an index lists, each required to exist."""
        self._require(stage, index, producer)
        return {
            d: self._require(stage, self.out / meta["file"], producer)
            for d, meta in self._read_index(index, producer).items()
        }

    def _stage_inputs(self, stage: str) -> dict:
        cfg = self.config
        if stage == "ingest":
            if cfg.corpus_path is None:
                raise ConfigError("no corpus path configured")
            if not Path(cfg.corpus_path).exists():
                raise DataError(f"corpus file not found: {cfg.corpus_path}")
            return {
                "config": {"year_min": cfg.year_min, "year_max": cfg.year_max},
                "files": {"corpus": sha256_file(Path(cfg.corpus_path))},
            }
        if stage == "network":
            path = self._require(stage, self.corpus_norm, "ingest")
            return {"config": {}, "files": {self._rel(path): sha256_file(path)}}
        if stage == "persist":
            files = self._index_files(stage, self.networks_index, "network")
            return {
                "config": {},
                "files": {self._rel(p): sha256_file(p) for p in files.values()},
            }
        if stage == "classify":
            paths = [self._require(stage, self.corpus_norm, "ingest")]
            paths += list(self._index_files(stage, self.networks_index, "network").values())
            paths += list(self._index_files(stage, self.diagrams_index, "persist").values())
            return {
                "config": {
                    "min_persistence": cfg.min_persistence,
                    "null_replicates": cfg.null_replicates,
                    "seed": cfg.seed,
                },
                "files": {self._rel(p): sha256_file(p) for p in paths},
            }
        if stage == "metrics":
            paths = [
                self._require(stage, self.corpus_norm, "ingest"),
                self._require(stage, self.classification_csv, "classify"),
            ]
            paths += list(self._index_files(stage, self.networks_index, "network").values())
            return {
                "config": {
                    "seed": cfg.seed,
                    "n_rand": cfg.n_rand,
                    "rewire_factor": cfg.rewire_factor,
                    "cd_window": cfg.cd_window,
                    "sb_horizon": cfg.sb_horizon,
                },
                "files": {self._rel(p): sha256_file(p) for p in paths},
            }
        if stage == "report":
            paths = [
                self._require(stage, self.ingest_meta, "ingest"),
                self._require(stage, self.corpus_norm, "ingest"),
                self._require(stage, self.networks_index, "network"),
                self._require(stage, self.diagrams_index, "persist"),
                self._require(stage, self.classification_csv, "classify"),
                self._require(stage, self.shares_csv, "classify"),
                self._require(stage, self.metrics_csv, "metrics"),
            ]
            files = {self._rel(p): sha256_file(p) for p in paths}
            if cfg.verb_lexicon_path is not None:
                files["verb_lexicon"] = sha256_file(Path(cfg.verb_lexicon_path))
            return {"config": {}, "files": files}
        raise ConfigError(f"unknown stage {stage!r}")

    # ---- stage bodies ---------------------------------------------------------

    def _load_store(self):
        """Load the normalized corpus, cached across stages of one run."""
        digest = sha256_file(self.corpus_norm)
        if self._store_cache is None or self._store_cache[0] != digest:
            store = load_corpus(
                self.corpus_norm,
                year_min=self.config.year_min,
                year_max=self.config.year_max,
            )
            self._store_cache = (digest, store)
        return self._store_cache[1]

    def _run_ingest(self) -> list[Path]:
        cfg = self.config
        store = load_corpus(cfg.corpus_path, year_min=cfg.year_min, year_max=cfg.year_max)
        save_corpus(store, self.corpus_norm)
        write_rejection_report(store, self.rejections_csv)
        index = build_citation_index(store)
        report = store.ingest_report
        write_json(
            self.ingest_meta,
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
        return [self.corpus_norm, self.rejections_csv, self.ingest_meta]

    def _run_network(self) -> list[Path]:
        store = self._load_store()
        outputs = []
        index: dict[str, dict] = {}
        for discipline, rows in discipline_rows(store).items():
            network = build_network(discipline, rows)
            path = self.out / "networks" / f"{_slug(discipline)}.csv"
            save_network(network, path)
            outputs.append(path)
            index[discipline] = {
                "file": self._rel(path),
                "nodes": len(network.nodes),
                "edges": len(network.edges),
            }
        write_json(self.networks_index, {"disciplines": index})
        outputs.append(self.networks_index)
        return outputs

    def _run_persist(self) -> list[Path]:
        files = self._index_files("persist", self.networks_index, "network")
        outputs = []
        index: dict[str, dict] = {}
        tasks = [(d, str(p)) for d, p in sorted(files.items())]
        for discipline, records, n_simplices in parallel_map(
            _persist_discipline, tasks, self.config.threads
        ):
            path = self.out / "diagrams" / f"{_slug(discipline)}.csv"
            save_diagram_records(records, path)
            outputs.append(path)
            n_pairs = sum(1 for r in records if r.death_year is not None)
            index[discipline] = {
                "file": self._rel(path),
                "simplices": n_simplices,
                "pairs": n_pairs,
                "essentials": len(records) - n_pairs,
            }
        write_json(self.diagrams_index, {"disciplines": index})
        outputs.append(self.diagrams_index)
        return outputs

    def _load_topologies(self, stage: str) -> dict[str, classify_mod.DisciplineTopology]:
        networks = self._index_files(stage, self.networks_index, "network")
        diagrams = self._index_files(stage, self.diagrams_index, "persist")
        topologies = {}
        for discipline in sorted(networks):
            network = load_network(networks[discipline], discipline)
            records = load_diagram_records(diagrams[discipline])
            topologies[discipline] = classify_mod.DisciplineTopology(
                discipline,
                network,
                frozenset(gap_edges(records, self.config.min_persistence)),
            )
        return topologies

    def _run_classify(self) -> list[Path]:
        cfg = self.config
        store = self._load_store()
        topologies = self._load_topologies("classify")
        classifications = classify_mod.classify_all(store, topologies)
        classify_mod.write_classification_csv(classifications, store, self.classification_csv)
        rows = []
        for grouping in classify_mod.GROUPINGS:
            rows.extend(classify_mod.share_table(classifications, store, grouping))
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
        classify_mod.write_shares_csv(rows, self.shares_csv)
        return [self.classification_csv, self.shares_csv]

    def _run_metrics(self) -> list[Path]:
        cfg = self.config
        store = self._load_store()
        index = build_citation_index(store)
        categories = {
            pid: cat.value
            for pid, cat in classify_mod.load_classification_csv(self.classification_csv).items()
        }
        novel_pairs: dict[str, set[Pair]] = {}
        files = self._index_files("metrics", self.networks_index, "network")
        for discipline, path in sorted(files.items()):
            network = load_network(path, discipline)
            for pair, birth in network.edges.items():
                for pid in birth.introducers:
                    novel_pairs.setdefault(pid, set()).add(pair)
        rows = metrics_mod.compute_metrics_rows(
            store,
            index,
            categories,
            novel_pairs,
            seed=cfg.seed,
            n_rand=cfg.n_rand,
            rewire_factor=cfg.rewire_factor,
            cd_window=cfg.cd_window,
            sb_horizon=cfg.sb_horizon,
        )
        write_csv(self.metrics_csv, metrics_mod.METRICS_HEADER, rows)
        return [self.metrics_csv]

    def _run_report(self) -> list[Path]:
        ingest = _read_json(self.ingest_meta, "ingest", _ingest_counts)
        networks = self._read_index(self.networks_index, "network")
        diagrams = self._read_index(self.diagrams_index, "persist")
        categories = classify_mod.load_classification_csv(self.classification_csv)
        counts: dict[str, int] = {c.value: 0 for c in classify_mod.CATEGORIES}
        for cat in categories.values():
            counts[cat.value] += 1
        multi = ingest.get("multi_discipline_papers", 0)
        total = len(categories)
        verb_ratios = self._verb_ratios(categories)
        report = {
            "papers": total,
            "category_counts": counts,
            "gap_opener_share": (counts["GapOpener"] / total) if total else None,
            "ingest": ingest,
            "networks": networks,
            "diagrams": diagrams,
            "multi_discipline_papers": multi,
            "title_verb_ratios": verb_ratios,
            "notes": [
                "discipline-level shares count multi-discipline papers once per discipline",
                "networks use every positive-confidence discipline membership of a paper",
                "top-k citation flags include all papers tied at the cohort threshold",
            ],
            "config": {
                "year_min": self.config.year_min,
                "year_max": self.config.year_max,
                "min_persistence": self.config.min_persistence,
                "null_replicates": self.config.null_replicates,
                "n_rand": self.config.n_rand,
                "rewire_factor": self.config.rewire_factor,
                "cd_window": self.config.cd_window,
                "sb_horizon": self.config.sb_horizon,
                "seed": self.config.seed,
            },
        }
        write_json(self.report_json, report)
        return [self.report_json]

    def _verb_ratios(self, categories) -> dict[str, float | str] | None:
        """Verb frequency ratios between gap-opener and novel-pair titles.

        Returns None when either collection has no titled papers. The +inf
        sentinel is stringified for JSON.
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
        if not gap_titles or not novel_titles:
            return None
        lexicon = metrics_mod.DEFAULT_VERB_LEXICON
        if self.config.verb_lexicon_path is not None:
            with open(self.config.verb_lexicon_path, "r", encoding="utf-8") as fh:
                lexicon = tuple(line.strip() for line in fh if line.strip())
        ratios = metrics_mod.verb_ratio(gap_titles, novel_titles, lexicon)
        return {
            verb: ("inf" if value == float("inf") else value)
            for verb, value in sorted(ratios.items())
        }

    # ---- driver ---------------------------------------------------------------

    _RUNNERS: dict[str, str] = {
        "ingest": "_run_ingest",
        "network": "_run_network",
        "persist": "_run_persist",
        "classify": "_run_classify",
        "metrics": "_run_metrics",
        "report": "_run_report",
    }

    def _write_manifest(self) -> None:
        write_json(self.manifest_path, self.manifest)

    def _outputs_valid(self, entry: dict) -> bool:
        outputs = entry.get("outputs")
        if not outputs:
            return False
        for rel, digest in outputs.items():
            path = self.out / rel
            if not path.exists() or sha256_file(path) != digest:
                return False
        return True

    def execute(self) -> PipelineResult:
        statuses: dict[str, str] = {}
        for stage in STAGES:
            if stage not in self.config.stages:
                continue
            inputs_digest = json_digest(self._stage_inputs(stage))
            entry = self.manifest["stages"].get(stage)
            if (
                entry
                and not entry.get("invalid")
                and entry.get("inputs") == inputs_digest
                and self._outputs_valid(entry)
            ):
                statuses[stage] = "skipped"
                logger.info("stage %s: inputs unchanged, skipped", stage)
                continue
            runner: Callable[[], list[Path]] = getattr(self, self._RUNNERS[stage])
            logger.info("stage %s: running", stage)
            try:
                outputs = runner()
            except Exception as exc:
                self.manifest["stages"][stage] = {"inputs": inputs_digest, "invalid": True}
                self._write_manifest()
                logger.exception("stage %s failed", stage)
                if isinstance(exc, BrokenProcessPool):
                    raise InternalError(f"stage {stage}: a worker process died ({exc})") from exc
                raise
            self.manifest["stages"][stage] = {
                "inputs": inputs_digest,
                "outputs": {self._rel(p): sha256_file(p) for p in outputs},
            }
            self._write_manifest()
            statuses[stage] = "ok"
        return PipelineResult(self.out, statuses, self.manifest)


def run(config: PipelineConfig) -> PipelineResult:
    """Execute the configured stages; see PipelineConfig for knobs."""
    return Pipeline(config).execute()


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
    for stage, entry in manifest["stages"].items():
        if entry.get("invalid"):
            return False
        for rel, digest in entry.get("outputs", {}).items():
            path = Path(output_dir) / rel
            if not path.exists() or sha256_file(path) != digest:
                return False
    return True
