"""Pipeline orchestration: caching, dependencies, determinism, CLI exit codes."""

from __future__ import annotations

import collections
import concurrent.futures
import csv
import errno
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapminer.pipeline as pipeline_mod
from gapminer import classify as classify_mod
from gapminer import metrics as metrics_mod
from gapminer.classify import classify_all
from gapminer.cli import main
from gapminer.corpus import load_corpus, save_corpus
from gapminer.errors import ConfigError, DataError, InternalError
from gapminer.pipeline import STAGES, PipelineConfig, run, verify_manifest
from gapminer.synth import make_synthetic
from gapminer.topology import DIAGRAM_HEADER
from gapminer.util import REMEDY, parallel_map, read_csv, sha256_file, write_csv

from helpers import analyze_store, exit_in_worker

OUTPUTS = ("classification.csv", "shares.csv", "metrics.csv")


def small_config(tmp_path, **overrides):
    corpus = tmp_path / "corpus.jsonl"
    if not corpus.exists():
        make_synthetic(
            "planted-cycle",
            corpus,
            5,
            cycle_len=5,
            disciplines=2,
            filler_fresh=10,
            filler_dup=4,
        )
    values = dict(
        corpus_path=corpus,
        output_dir=tmp_path / "out",
        null_replicates=2,
        n_rand=2,
        seed=13,
    )
    values.update(overrides)
    return PipelineConfig(**values)


def files_under(directory: Path) -> dict[str, bytes]:
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def vouch_for(out: Path, rel: str) -> None:
    """Record the current digest of `rel` in its maker's manifest entry, so
    that the maker is skipped as current and a stage that reads the edited
    file reruns and reaches its own row checks."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    entry = next(e for e in manifest["stages"].values() if rel in e.get("outputs", {}))
    entry["outputs"][rel] = sha256_file(out / rel)
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def run_flags(config: PipelineConfig) -> list[str]:
    """The CLI flags that repeat a `small_config` run."""
    return ["--corpus", str(config.corpus_path), "--out", str(config.output_dir),
            "--seed", str(config.seed), "--null-replicates", str(config.null_replicates),
            "--n-rand", str(config.n_rand)]


def gapminer_child(*args: str, setup: str = "") -> subprocess.CompletedProcess:
    """`gapminer <args>` in a child process, after the statements in `setup`,
    so that its stderr is what a shell would see."""
    script = f"import sys\n{setup}\nfrom gapminer.cli import main\nsys.exit(main(sys.argv[1:]))"
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The config of one uninterrupted full run, whose outputs tests copy."""
    config = small_config(tmp_path_factory.mktemp("finished"))
    run(config)
    return config


def test_stages_are_the_table_in_order():
    assert STAGES == ("ingest", "network", "persist", "classify", "metrics", "report")
    assert STAGES == tuple(stage.name for stage in pipeline_mod._TABLE)
    made: set[str] = set()
    for stage in pipeline_mod._TABLE:
        assert set(stage.reads) <= made, stage.name  # every input has an earlier maker
        made |= set(stage.makes)


# Each result-affecting config field, an edited value, and the first stage
# that reads the field; a threads edit reruns nothing.
CONFIG_EDITS = [
    ("year_min", 1800, "ingest"),
    ("year_max", 2100, "ingest"),
    ("min_persistence", 0, "classify"),
    ("null_replicates", 1, "classify"),
    ("seed", 14, "classify"),
    ("n_rand", 3, "metrics"),
    ("cd_window", 3, "network"),
    ("sb_horizon", 10, "network"),
    ("threads", 2, None),
]


@pytest.mark.parametrize("field, value, first", CONFIG_EDITS)
def test_config_edit_reruns_from_its_first_reader(tmp_path, finished_run, field, value, first):
    assert getattr(finished_run, field) != value
    shutil.copytree(finished_run.output_dir, tmp_path / "out")
    config = replace(finished_run, output_dir=tmp_path / "out", **{field: value})
    statuses = run(config).statuses
    upstream = STAGES[: STAGES.index(first)] if first else STAGES
    assert [statuses[s] for s in upstream] == ["skipped"] * len(upstream)
    if first:
        assert statuses[first] == "ok"
    assert set(run(config).statuses.values()) == {"skipped"}
    cold = replace(config, output_dir=tmp_path / "cold")
    run(cold)
    assert files_under(config.output_dir) == files_under(cold.output_dir)


def test_report_echoes_every_stage_config_field(finished_run):
    report = pipeline_mod._maker("report.json")
    others = {f for stage in pipeline_mod._TABLE if stage is not report for f in stage.config}
    assert set(report.config) == others
    assert len(report.config) == len(others)
    written = json.loads((finished_run.output_dir / "report.json").read_text(encoding="utf-8"))
    assert written["config"] == {f: getattr(finished_run, f) for f in sorted(others)}


@pytest.mark.parametrize("field, value, first", [("year_min", 1800, "ingest"), ("sb_horizon", 10, "network")])
def test_config_edit_with_unchanged_artifacts_updates_the_report(
    tmp_path, finished_run, field, value, first
):
    # The edited stage rewrites its artifacts byte for byte, so nothing
    # between it and the report reruns; the report reruns for its echo.
    shutil.copytree(finished_run.output_dir, tmp_path / "out")
    before = files_under(tmp_path / "out")
    config = replace(finished_run, output_dir=tmp_path / "out", **{field: value})
    statuses = run(config).statuses
    assert {s for s in STAGES if statuses[s] == "ok"} == {first, "report"}
    after = files_under(tmp_path / "out")
    assert {name for name in after if after[name] != before[name]} == {"report.json", "manifest.json"}
    echo = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["config"]
    assert echo[field] == value
    assert echo == {f: getattr(config, f) for f in pipeline_mod._maker("report.json").config}
    assert set(run(config).statuses.values()) == {"skipped"}


@pytest.mark.parametrize("stage", STAGES)
def test_interrupted_manifest_write_reruns_the_stage(tmp_path, finished_run, monkeypatch, stage):
    """The run stops after `stage` wrote its artifacts but before the manifest
    recorded them; a plain rerun redoes that stage and ends where an
    uninterrupted run ends."""
    write_json = pipeline_mod.write_json
    interrupted = []

    def interrupting_write_json(path, payload):
        if Path(path).name == "manifest.json" and stage in payload["stages"] and not interrupted:
            interrupted.append(stage)
            raise RuntimeError("interrupted")
        write_json(path, payload)

    config = replace(finished_run, output_dir=tmp_path / "out")
    monkeypatch.setattr(pipeline_mod, "write_json", interrupting_write_json)
    with pytest.raises(InternalError, match=f"^stage {stage}: RuntimeError: interrupted$"):
        run(config)
    monkeypatch.undo()
    statuses = run(config).statuses
    upstream = STAGES[: STAGES.index(stage)]
    assert [statuses[s] for s in upstream] == ["skipped"] * len(upstream)
    assert statuses[stage] == "ok"
    assert verify_manifest(config.output_dir)
    assert files_under(config.output_dir) == files_under(finished_run.output_dir)


def test_unwritable_output_is_data_error(tmp_path, capsys):
    config = small_config(tmp_path)
    args = ["run", "--corpus", str(config.corpus_path), "--out", str(config.output_dir),
            "--null-replicates", "1", "--n-rand", "1"]
    config.output_dir.mkdir()
    blocker = config.output_dir / "networks"
    blocker.write_text("a file where the networks directory belongs\n")
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert f"cannot write {blocker}" in err
    blocker.unlink()
    assert main(args) == 0
    assert verify_manifest(config.output_dir)


@pytest.mark.parametrize("where", ["file", "under-a-file"])
def test_output_path_of_a_file_is_data_error(tmp_path, capsys, where):
    config = small_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the output directory belongs\n")
    out = blocker if where == "file" else blocker / "out"
    capsys.readouterr()
    code = main(["run", "--corpus", str(config.corpus_path), "--out", str(out),
                 "--null-replicates", "1", "--n-rand", "1"])
    assert code == 3
    assert f"cannot make output directory {out}" in capsys.readouterr().err
    assert blocker.read_text() == "a file where the output directory belongs\n"


def test_corpus_path_of_a_directory_is_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus-dir"
    corpus.mkdir()
    capsys.readouterr()
    code = main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
                 "--null-replicates", "1", "--n-rand", "1"])
    assert code == 3
    assert f"no corpus file at {corpus}" in capsys.readouterr().err


def test_failed_write_keeps_the_previous_file(tmp_path, capsys, monkeypatch):
    config = small_config(tmp_path)
    args = ["run", "--corpus", str(config.corpus_path), "--out", str(config.output_dir),
            "--null-replicates", "1", "--n-rand", "1"]
    assert main(args) == 0
    before = files_under(config.output_dir)
    compute_metrics_rows = metrics_mod.compute_metrics_rows

    def rows_then_full_disk(*args, **kwargs):
        rows = list(compute_metrics_rows(*args, **kwargs))
        yield from rows[: len(rows) // 2]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(metrics_mod, "compute_metrics_rows", rows_then_full_disk)
    capsys.readouterr()
    assert main(args[:-1] + ["2"]) == 3  # n_rand 2 reruns metrics
    assert f"cannot write {config.output_dir / 'metrics.csv'}" in capsys.readouterr().err
    after = files_under(config.output_dir)
    assert after.pop("manifest.json") != before.pop("manifest.json")  # metrics marked invalid
    assert after == before  # the old metrics.csv, and no temporary file
    monkeypatch.undo()
    assert main(args) == 0
    assert verify_manifest(config.output_dir)


def test_full_run_produces_artifacts(tmp_path):
    config = small_config(tmp_path)
    result = run(config)
    assert all(status == "ok" for status in result.statuses.values())
    for name in OUTPUTS + ("corpus.norm.jsonl", "rejections.csv", "report.json", "manifest.json"):
        assert (config.output_dir / name).exists()
    manifest = json.loads((config.output_dir / "manifest.json").read_text())
    recorded = {
        rel for entry in manifest["stages"].values() for rel in entry["outputs"]
    }
    for name in OUTPUTS:
        assert name in recorded
    assert verify_manifest(config.output_dir)


def test_second_run_skips_everything(tmp_path):
    config = small_config(tmp_path)
    run(config)
    before = files_under(config.output_dir)
    result = run(config)
    assert all(status == "skipped" for status in result.statuses.values())
    assert files_under(config.output_dir) == before


def test_changed_config_reruns_downstream(tmp_path):
    config = small_config(tmp_path)
    run(config)
    changed = small_config(tmp_path, min_persistence=0)
    result = run(changed)
    assert result.statuses["ingest"] == "skipped"
    assert result.statuses["network"] == "skipped"
    assert result.statuses["persist"] == "skipped"  # network files unchanged
    assert result.statuses["classify"] == "ok"


def test_a_stage_on_a_fresh_directory_runs_its_makers_first(tmp_path):
    config = small_config(tmp_path)
    assert run(config, through="classify").statuses == dict.fromkeys(STAGES[:4], "ok")
    assert (config.output_dir / "classification.csv").exists()
    assert not (config.output_dir / "metrics.csv").exists()


def test_a_stage_runs_its_missing_maker_and_skips_the_current_ones(tmp_path, finished_run):
    config = small_config(tmp_path)
    run(config, through="network")
    statuses = run(config, through="classify").statuses
    assert statuses == dict(zip(STAGES, ["skipped", "skipped", "ok", "ok"]))
    run(config)
    assert files_under(config.output_dir) == files_under(finished_run.output_dir)


def test_an_unknown_stage_to_run_through_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown stage 'topology'"):
        run(small_config(tmp_path), through="topology")


def test_determinism_byte_identical_outputs(tmp_path):
    config_a = small_config(tmp_path, output_dir=tmp_path / "out_a")
    config_b = small_config(tmp_path, output_dir=tmp_path / "out_b")
    run(config_a)
    run(config_b)
    for name in OUTPUTS + ("manifest.json", "report.json"):
        assert (config_a.output_dir / name).read_bytes() == (
            config_b.output_dir / name
        ).read_bytes(), name


def test_cli_run_and_exit_codes(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    make_synthetic("planted-cycle", corpus, 5, cycle_len=4)
    flags = [
        "--corpus", str(corpus),
        "--out", str(tmp_path / "out"),
        "--seed", "3",
        "--null-replicates", "1",
        "--n-rand", "1",
    ]
    code = main(["run", *flags])
    assert code == 0
    out = capsys.readouterr().out
    assert "stage report: ok" in out
    # a stage subcommand runs the stages through that stage
    assert main(["report", *flags]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("stage ")] == [
        f"stage {stage}: skipped" for stage in STAGES
    ]
    fresh = tmp_path / "o3"
    assert main(["classify", *flags[:2], "--out", str(fresh), *flags[4:]]) == 0
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("stage ")] == [
        f"stage {stage}: ok" for stage in STAGES[:4]
    ]
    assert (fresh / "classification.csv").read_bytes() == (
        tmp_path / "out" / "classification.csv"
    ).read_bytes()
    assert not (fresh / "metrics.csv").exists()
    # config error: unknown key in config file
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_option": 1}')
    assert main(["run", "--config", str(bad)]) == 2
    # data error: missing corpus file
    assert main(["run", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o2")]) == 3
    # config error: every stage subcommand runs ingest, so it needs a corpus
    assert main(["report", "--out", str(tmp_path / "o4")]) == 2
    assert "no corpus path configured" in capsys.readouterr().err


def test_cli_synth_unknown_generator_is_config_error(tmp_path):
    """argparse rejects a generator, or a generator setting, that is gone."""
    for args in (["--generator", "bogus"], ["--generator", "random-pairs", "--year-min", "1990"]):
        with pytest.raises(SystemExit) as err:
            main(["synth", *args, "--out", str(tmp_path / "x.jsonl")])
        assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("generator, flag", [
    ("planted-cycle", "--papers"),
    ("random-pairs", "--cycle-len"),
    ("planted-cycle", "--venues"),
])
def test_cli_synth_flag_the_generator_does_not_take_is_config_error(
    tmp_path, capsys, generator, flag
):
    out = tmp_path / "bad.jsonl"
    assert main(["synth", "--generator", generator, "--out", str(out), flag, "10"]) == 2
    assert flag in capsys.readouterr().err.removeprefix("config error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--disciplines", "0"],
    ["--concepts", "15"],  # four per discipline, and there are four
    ["--venues", "0"],
    ["--author-pool", "0"],
    ["--max-refs", "-1"],
], ids=["disciplines", "concepts", "venues", "author-pool", "max-refs"])
def test_cli_synth_random_pairs_bad_value_is_config_error(tmp_path, capsys, flags):
    out = tmp_path / "bad.jsonl"
    args = ["synth", "--generator", "random-pairs", "--papers", "5", "--out", str(out)]
    assert main([*args, *flags]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_synth_flags_are_the_generator_parameters(capsys):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--help"])
    assert err.value.code == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert sorted(flags - {"--help", "--generator", "--out"}) == [
        "--author-pool", "--concepts", "--cycle-len", "--cycles", "--disciplines",
        "--filler-dup", "--filler-fresh", "--max-refs", "--papers", "--seed", "--venues",
    ]


def test_cli_synth_passes_each_flag_typed(tmp_path):
    args = ["synth", "--generator", "random-pairs", "--seed", "3", "--papers", "40",
            "--concepts", "30", "--disciplines", "3", "--max-refs", "2"]
    assert main([*args, "--out", str(tmp_path / "cli.jsonl")]) == 0
    expected = make_synthetic(
        "random-pairs", tmp_path / "api.jsonl", 3, papers=40, concepts=30, disciplines=3,
        max_refs=2,
    )
    assert (tmp_path / "cli.jsonl").read_bytes() == expected.read_bytes()


def test_threads_do_not_change_results(tmp_path):
    config_a = small_config(tmp_path, output_dir=tmp_path / "seq", threads=1)
    config_b = small_config(tmp_path, output_dir=tmp_path / "par", threads=4)
    run(config_a)
    run(config_b)
    names = list(OUTPUTS)
    for kind in ("networks", "diagrams"):
        files = sorted(p.name for p in (config_a.output_dir / kind).iterdir())
        assert files == sorted(p.name for p in (config_b.output_dir / kind).iterdir())
        assert "index.json" in files and len(files) > 1
        names += [f"{kind}/{name}" for name in files]
    for name in names:
        assert (config_a.output_dir / name).read_bytes() == (
            config_b.output_dir / name
        ).read_bytes(), name


def test_report_includes_verb_ratios_and_lexicon_override(tmp_path):
    config = small_config(tmp_path)
    run(config)
    report = json.loads((config.output_dir / "report.json").read_text())
    ratios = report["title_verb_ratios"]
    assert ratios is not None and len(ratios) > 0
    lexicon = tmp_path / "verbs.txt"
    lexicon.write_text("producing\nconfirming\n")
    custom = small_config(
        tmp_path, output_dir=tmp_path / "out2", verb_lexicon_path=lexicon
    )
    run(custom)
    report = json.loads((custom.output_dir / "report.json").read_text())
    assert set(report["title_verb_ratios"]) <= {"producing", "confirming"}


def test_verb_lexicon_that_is_not_utf8_is_data_error(tmp_path, capsys):
    config = small_config(tmp_path)
    lexicon = tmp_path / "verbs.txt"
    lexicon.write_bytes(b"producing\n\xff\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verb_lexicon_path": str(lexicon)}))
    capsys.readouterr()
    args = ["run", "--config", str(cfg), "--corpus", str(config.corpus_path),
            "--out", str(config.output_dir), "--null-replicates", "1", "--n-rand", "1"]
    assert main(args) == 3
    assert f"cannot read verb lexicon {lexicon}" in capsys.readouterr().err


def test_titles_without_words_have_no_verb_ratios(tmp_path):
    """Gap openers and novel pairs whose titles hold no word: the report
    records no ratios instead of failing."""
    config = small_config(tmp_path)
    lines = config.corpus_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records[1:]:
        record["title"] = ";"
    config.corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    run(config)
    report = json.loads((config.output_dir / "report.json").read_text(encoding="utf-8"))
    assert report["category_counts"]["GapOpener"] > 0
    assert report["category_counts"]["NovelPairNonGap"] > 0
    assert report["title_verb_ratios"] is None


def test_corrupted_artifact_triggers_rerun(tmp_path):
    config = small_config(tmp_path)
    run(config)
    (config.output_dir / "metrics.csv").write_text("tampered\n")
    assert not verify_manifest(config.output_dir)
    result = run(config)
    assert result.statuses["metrics"] == "ok"  # recomputed
    assert verify_manifest(config.output_dir)


def test_failed_stage_marked_invalid_in_manifest(tmp_path, monkeypatch, caplog):
    """Whatever a stage raises marks it invalid, and nothing logs it at ERROR.
    The error gains the stage's name and chains the original: a
    GapminerError keeps its class, any other exception becomes an
    InternalError that names its type."""
    config = small_config(tmp_path)
    run(config, through="ingest")
    cases = [
        (RuntimeError("synthetic stage failure"), InternalError, "RuntimeError: synthetic stage failure"),
        (DataError("synthetic data fault"), DataError, "synthetic data fault"),
    ]
    for error, kind, message in cases:

        def boom(discipline, rows, error=error):
            raise error

        monkeypatch.setattr(pipeline_mod, "build_network", boom)
        caplog.clear()
        with caplog.at_level("ERROR"):
            with pytest.raises(kind) as raised:
                run(config, through="network")
        assert not caplog.records
        assert str(raised.value) == f"stage network: {message}"
        assert raised.value.__cause__ is error
        manifest = json.loads((config.output_dir / "manifest.json").read_text())
        assert manifest["stages"]["network"]["invalid"] is True
        assert not verify_manifest(config.output_dir)
    monkeypatch.undo()
    result = run(config, through="network")
    assert result.statuses == {"ingest": "skipped", "network": "ok"}
    assert verify_manifest(config.output_dir)


def test_dead_worker_is_internal_error(tmp_path, capsys, monkeypatch):
    config = small_config(tmp_path)
    run(config, through="network")
    args = ["run", "--corpus", str(config.corpus_path), "--out", str(config.output_dir),
            "--threads", "2", "--null-replicates", "2", "--n-rand", "2"]
    monkeypatch.setattr(pipeline_mod, "_persist_discipline", exit_in_worker)
    capsys.readouterr()
    assert main(args) == 4
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("internal error: stage persist: BrokenProcessPool: ")
    manifest = json.loads((config.output_dir / "manifest.json").read_text())
    assert "outputs" not in manifest["stages"]["persist"]
    assert "classify" not in manifest["stages"]
    monkeypatch.undo()
    assert main(args) == 0
    assert verify_manifest(config.output_dir)


def test_missing_verb_lexicon_is_config_error(tmp_path, capsys):
    config = small_config(tmp_path)
    lexicon = tmp_path / "nope.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verb_lexicon_path": str(lexicon)}))
    args = ["run", "--config", str(cfg), "--corpus", str(config.corpus_path),
            "--out", str(config.output_dir)]
    assert main(args) == 2
    assert f"verb lexicon not found: {lexicon}" in capsys.readouterr().err
    assert not config.output_dir.exists()  # no stage started


@pytest.mark.parametrize("damage", ["truncate", "garble"])
def test_corrupt_manifest_is_treated_as_absent(tmp_path, caplog, damage):
    config = small_config(tmp_path)
    run(config)
    manifest = config.output_dir / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text[: len(text) // 2] if damage == "truncate" else "\x00{]" + text)
    assert not verify_manifest(config.output_dir)
    with caplog.at_level("WARNING", logger="gapminer.pipeline"):
        result = run(config)
    assert "manifest.json is unreadable" in caplog.text
    assert all(status == "ok" for status in result.statuses.values())
    assert verify_manifest(config.output_dir)


@pytest.mark.parametrize("entry", [1, {"inputs": "x", "outputs": ["corpus.norm.jsonl"]}])
def test_manifest_entry_that_is_not_an_object_is_treated_as_absent(tmp_path, capsys, entry):
    """The whole manifest is then unreadable: a stage subcommand reruns the
    stages through it, and a run reruns the rest and ends where it began."""
    config = small_config(tmp_path)
    run(config)
    before = files_under(config.output_dir)
    manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
    manifest["stages"]["ingest"] = entry
    (config.output_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert not verify_manifest(config.output_dir)
    capsys.readouterr()
    assert main(["network", *run_flags(config)]) == 0
    assert capsys.readouterr().out.startswith("stage ingest: ok\nstage network: ok\nmanifest: ")
    statuses = run(config).statuses
    assert {s for s in STAGES if statuses[s] == "ok"} == set(STAGES[2:])
    assert files_under(config.output_dir) == before


@pytest.mark.parametrize("kind, reader", [("diagrams", "classify")])
def test_malformed_artifact_row_is_data_error(tmp_path, capsys, kind, reader):
    config = small_config(tmp_path)
    run(config)
    artifact = sorted((config.output_dir / kind).glob("*.csv"))[0]
    with open(artifact, "a", encoding="utf-8") as fh:
        fh.write("x,y\n")
    vouch_for(config.output_dir, f"{kind}/{artifact.name}")
    capsys.readouterr()
    code = main([reader, *run_flags(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: stage {reader}: {artifact}, line ")
    assert err.rstrip().endswith(REMEDY)


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1}\xff')
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"config file {cfg} is not UTF-8 JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level", ["bogus", "basic_format"])
def test_an_unknown_log_level_exits_2_before_any_command_runs(tmp_path, level):
    """`basic_format` names a logging constant that is no level."""
    corpus = tmp_path / "corpus.jsonl"
    with pytest.raises(SystemExit) as raised:
        main(["--log-level", level, "synth", "--generator", "planted-cycle", "--out", str(corpus)])
    assert raised.value.code == 2
    assert not corpus.exists()


def test_stages_is_an_unknown_config_key(tmp_path, capsys):
    """A stage subcommand, not a config field, says which stages run."""
    config = small_config(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_path": str(config.corpus_path), "stages": ["ingest"]}))
    assert main(["run", "--config", str(cfg), "--out", str(config.output_dir)]) == 2
    assert "unknown config keys: stages" in capsys.readouterr().err
    assert not config.output_dir.exists()


def test_max_dim_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_dim": 2}')
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown config keys: max_dim" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="unknown config keys: max_dim"):
        PipelineConfig.from_sources(None, {"max_dim": 3})


@pytest.mark.parametrize("stage", ["metrics", "report"])
@pytest.mark.parametrize("row", ["P1,GapOpener", "P1,Bogus,0,0"])
def test_malformed_classification_row_is_data_error(tmp_path, capsys, stage, row):
    # The report command stops in the metrics stage, which reruns because
    # classification.csv changed and reads the row before the report can.
    config = small_config(tmp_path)
    run(config)
    with open(config.output_dir / "classification.csv", "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    vouch_for(config.output_dir, "classification.csv")
    lines = (config.output_dir / "classification.csv").read_text().count("\n")
    capsys.readouterr()
    code = main([stage, *run_flags(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: stage metrics: ")
    assert f"classification.csv, line {lines}" in err
    assert err.rstrip().endswith(REMEDY)


@pytest.mark.parametrize("damage", ["row", "header"])
def test_malformed_paper_stats_is_data_error(tmp_path, capsys, damage):
    config = small_config(tmp_path)
    run(config)
    stats = config.output_dir / "paper_stats.csv"
    header, *rows = stats.read_text(encoding="utf-8").splitlines(keepends=True)
    if damage == "row":
        rows[1] = "P1,0.5\n"
        line = 3
    else:
        header = header.replace("cd_pct", "cd_percentile")
        line = 1
    stats.write_text(header + "".join(rows), encoding="utf-8")
    vouch_for(config.output_dir, "paper_stats.csv")
    before = files_under(config.output_dir)
    capsys.readouterr()
    code = main(["metrics", *run_flags(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: stage metrics: ")
    assert f"paper_stats.csv, line {line}" in err
    assert err.rstrip().endswith(REMEDY)
    assert_only_the_manifest_moved(before, files_under(config.output_dir))


@pytest.mark.parametrize("damage", ["missing", "extra", "order"])
def test_paper_stats_out_of_step_with_classification_is_data_error(tmp_path, capsys, damage):
    """Deleting both files, as the error says, and running again mends the run."""
    config = small_config(tmp_path)
    run(config)
    clean = files_under(config.output_dir)
    stats = config.output_dir / "paper_stats.csv"
    header, *rows = stats.read_text(encoding="utf-8").splitlines(keepends=True)
    if damage == "missing":
        del rows[3]
    elif damage == "extra":
        rows.append(rows[0].replace(rows[0].split(",")[0], "unknown", 1))
    else:
        rows[0], rows[1] = rows[1], rows[0]
    stats.write_text(header + "".join(rows), encoding="utf-8")
    vouch_for(config.output_dir, "paper_stats.csv")
    before = files_under(config.output_dir)
    capsys.readouterr()
    code = main(["metrics", *run_flags(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: stage metrics: ")
    assert "paper_stats.csv" in err and "classification.csv" in err
    assert_only_the_manifest_moved(before, files_under(config.output_dir))
    stats.unlink()
    (config.output_dir / "classification.csv").unlink()
    assert main(["metrics", *run_flags(config)]) == 0
    assert files_under(config.output_dir) == clean


def assert_only_the_manifest_moved(before: dict[str, bytes], after: dict[str, bytes]) -> None:
    """A metrics stage that failed while streaming metrics.csv marked itself
    invalid in the manifest, kept the previous metrics.csv and left no
    temporary file."""
    assert after.pop("manifest.json") != before.pop("manifest.json")
    assert after == before


def test_per_paper_tables_reach_the_writer_as_iterators(tmp_path, monkeypatch):
    handed = {}
    real_write = pipeline_mod.write_csv

    def recording_write(path, header, rows):
        handed[Path(path).name] = rows
        real_write(path, header, rows)

    monkeypatch.setattr(pipeline_mod, "write_csv", recording_write)
    run(small_config(tmp_path))
    for name in ("paper_stats.csv", "metrics.csv"):
        assert iter(handed[name]) is handed[name]  # streamed, never a whole list


def test_classify_releases_the_real_run_before_the_null_model(tmp_path, monkeypatch):
    """Every network the classify stage built is unreachable when the null
    model starts: the real run's topologies, classifications and categories
    are gone by then."""
    config = small_config(tmp_path)
    run(config, through="persist")
    built = []
    alive_at_null_start = []
    real_build = pipeline_mod.build_network
    real_null = classify_mod.null_comparison

    def tracked_build(discipline, rows):
        network = real_build(discipline, rows)
        built.append(weakref.ref(network))
        return network

    def checked_null(*args, **kwargs):
        alive_at_null_start.extend(ref for ref in built if ref() is not None)
        return real_null(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "build_network", tracked_build)
    monkeypatch.setattr(classify_mod, "null_comparison", checked_null)
    assert run(config).statuses["classify"] == "ok"
    assert built and not alive_at_null_start


def test_deleted_paper_stats_reruns_the_network_stage_alone(tmp_path, finished_run):
    # The network stage rewrites the same file, so no later stage's inputs change.
    shutil.copytree(finished_run.output_dir, tmp_path / "out")
    before = files_under(tmp_path / "out")
    (tmp_path / "out" / "paper_stats.csv").unlink()
    statuses = run(replace(finished_run, output_dir=tmp_path / "out")).statuses
    assert {s for s in STAGES if statuses[s] == "ok"} == {"network"}
    assert files_under(tmp_path / "out") == before


def test_output_without_paper_stats_is_upgraded_in_place(tmp_path, finished_run):
    """An output directory written before the network stage made
    paper_stats.csv: the network stage's manifest entry lacks the file and
    both it and metrics recorded other inputs. The next run reruns those two
    stages and ends where a fresh run ends."""
    out = tmp_path / "out"
    shutil.copytree(finished_run.output_dir, out)
    before = files_under(out)
    (out / "paper_stats.csv").unlink()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for stage in ("network", "metrics"):
        manifest["stages"][stage]["inputs"] = "recorded by an earlier stage table"
    del manifest["stages"]["network"]["outputs"]["paper_stats.csv"]
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    statuses = run(replace(finished_run, output_dir=out)).statuses
    assert {s for s in STAGES if statuses[s] == "ok"} == {"network", "metrics"}
    assert files_under(out) == before


@pytest.mark.parametrize("kind, producer, consumer", [
    ("networks", "network", "report"),
    ("diagrams", "persist", "classify"),
])
@pytest.mark.parametrize("vouched", [False, True], ids=["mended", "vouched"])
def test_truncated_index_reruns_its_maker_unless_vouched_for(
    tmp_path, capsys, kind, producer, consumer, vouched
):
    """A stage subcommand reruns the index's maker and ends where the run
    ended; an index that the manifest is made to vouch for is a data error
    naming it and the stage that reads it."""
    config = small_config(tmp_path)
    run(config)
    before = files_under(config.output_dir)
    index = config.output_dir / kind / "index.json"
    text = index.read_text()
    index.write_text(text[: len(text) // 2])
    if vouched:
        vouch_for(config.output_dir, f"{kind}/index.json")
    capsys.readouterr()
    code = main([consumer, *run_flags(config)])
    if not vouched:
        assert code == 0
        assert f"stage {producer}: ok" in capsys.readouterr().out
        assert files_under(config.output_dir) == before
        return
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: stage {consumer}: ")
    assert f"{kind}/index.json: unreadable" in err
    assert err.rstrip().endswith(REMEDY)


def test_truncated_ingest_meta_is_data_error(tmp_path, capsys):
    config = small_config(tmp_path)
    run(config)
    meta = config.output_dir / "ingest.json"
    text = meta.read_text()
    meta.write_text(text[: len(text) // 2])
    vouch_for(config.output_dir, "ingest.json")
    capsys.readouterr()
    code = main(["report", *run_flags(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: stage report: ")
    assert "ingest.json" in err
    assert err.rstrip().endswith(REMEDY)


def _swap_two_data_rows(data: bytes) -> bytes:
    lines = data.split(b"\n")
    assert len(lines) > 3
    lines[1], lines[2] = lines[2], lines[1]
    return b"\n".join(lines)


def _flip_a_byte(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1 :]


# Each damage maps a file's bytes to the damaged bytes; None deletes the file.
DAMAGES = {
    "cut-mid-line": lambda data: data[: (data.rfind(b"\n", 0, -1) + 1 + len(data)) // 2],
    "drop-last-line": lambda data: data[: data.rfind(b"\n", 0, -1) + 1],
    "flip-a-byte": _flip_a_byte,
    "delete": None,
    "swap-two-data-rows": _swap_two_data_rows,
}
# Every artifact a stage reads, and the network files, shares and metrics,
# which none reads but which a run must still mend.
DAMAGED_ARTIFACTS = sorted(
    {artifact for stage in pipeline_mod._TABLE for artifact in stage.reads}
    | {"networks/*", "shares.csv", "metrics.csv"}
)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """The output directory of a clean run, and the flags that repeat it.
    Two cycles per discipline give each diagram file two rows to swap."""
    directory = tmp_path_factory.mktemp("clean")
    make_synthetic("planted-cycle", directory / "corpus.jsonl", 5, cycle_len=5, cycles=2,
                   disciplines=2, filler_fresh=10, filler_dup=4)
    config = small_config(directory, null_replicates=1, n_rand=1)
    run(config)
    flags = ["--corpus", str(config.corpus_path), "--seed", str(config.seed),
             "--null-replicates", "1", "--n-rand", "1"]
    return config.output_dir, flags


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("artifact", DAMAGED_ARTIFACTS)
def test_a_damaged_artifact_is_never_read_as_its_makers_output(
    tmp_path, capsys, clean_run, artifact, damage
):
    """After the damage, each stage subcommand that reads the artifact, and
    separately a whole run, reruns its maker and ends where the clean run
    ended. An artifact that no stage reads makes a run rerun its maker alone."""
    clean, flags = clean_run
    readers = [stage.name for stage in pipeline_mod._TABLE if artifact in stage.reads]
    for command in [*readers, "run"]:
        out = tmp_path / command
        shutil.copytree(clean, out)
        if artifact.endswith("/*"):
            target = sorted((out / artifact[:-2]).glob("*.csv"))[0]
        else:
            target = out / artifact
        if DAMAGES[damage] is None:
            target.unlink()
        else:
            target.write_bytes(DAMAGES[damage](target.read_bytes()))
        capsys.readouterr()
        code = main([command, *flags, "--out", str(out)])
        printed = capsys.readouterr()
        assert code == 0, printed.err
        assert files_under(out) == files_under(clean), command
        if not readers:
            rerun = re.findall(r"^stage (\w+): ok$", printed.out, re.M)
            assert rerun == [pipeline_mod._maker(artifact).name]


def _cut_in_half(text: str) -> str:
    return text[: len(text) // 2]


# Each artifact that a stage reads through read_csv or _read_json, the first
# stage that reads it, and a damage that makes the reader reject it.
REJECTED = {
    "diagrams/*": ("classify", lambda text: text + "x,y\n"),
    "diagrams/index.json": ("classify", _cut_in_half),
    "networks/index.json": ("report", _cut_in_half),
    "classification.csv": ("metrics", lambda text: text + "P1,Bogus,0,0\n"),
    "paper_stats.csv": ("metrics", lambda text: text.replace("\n", "\nP1,0.5\n", 1)),
    "ingest.json": ("report", _cut_in_half),
}


@pytest.mark.parametrize("artifact", REJECTED)
def test_a_rejected_artifact_fails_in_one_line_whose_remedy_works(tmp_path, clean_run, artifact):
    """A damaged artifact that the manifest is made to vouch for stops the
    stage that reads it with exit 3 and one line, with no traceback, naming
    the stage and the file. Deleting the file, as that line says, and
    running again ends where the clean run ended. A child process, so that
    stderr is what a shell would see."""
    clean, flags = clean_run
    reader, damage = REJECTED[artifact]
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    if artifact.endswith("/*"):
        target = sorted((out / artifact[:-2]).glob("*.csv"))[0]
    else:
        target = out / artifact
    target.write_text(damage(target.read_text(encoding="utf-8")), encoding="utf-8")
    vouch_for(out, target.relative_to(out).as_posix())
    result = gapminer_child(reader, *flags, "--out", str(out))
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith(f"data error: stage {reader}: {target}")
    assert line.endswith(REMEDY)
    target.unlink()
    assert main([reader, *flags, "--out", str(out)]) == 0
    assert files_under(out) == files_under(clean)


@pytest.mark.parametrize("where", ["missing", "absolute"])
def test_an_index_entry_naming_another_file_changes_nothing_classify_reads(
    tmp_path, clean_run, where
):
    """The pipeline finds each diagram file by its discipline. An index
    entry whose `file` names a missing file, or another discipline's diagram
    copied outside the output directory, with the manifest made to vouch for
    the index: classify reruns on its own and writes what the clean run
    wrote."""
    clean, flags = clean_run
    out = tmp_path / "out"
    shutil.copytree(clean, out)
    index = json.loads((out / "diagrams" / "index.json").read_text(encoding="utf-8"))
    first, second = sorted(index["disciplines"])[:2]
    if where == "missing":
        index["disciplines"][first]["file"] = "diagrams/nonexistent.csv"
    else:
        elsewhere = tmp_path / "elsewhere.csv"
        shutil.copyfile(out / index["disciplines"][second]["file"], elsewhere)
        index["disciplines"][first]["file"] = str(elsewhere)
    (out / "diagrams" / "index.json").write_text(json.dumps(index), encoding="utf-8")
    vouch_for(out, "diagrams/index.json")
    result = gapminer_child("classify", *flags, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "stage persist: skipped\nstage classify: ok\n" in result.stdout
    for name in ("classification.csv", "shares.csv"):
        assert (out / name).read_bytes() == (clean / name).read_bytes(), name


def test_a_bug_inside_a_stage_exits_4_in_one_line(tmp_path, clean_run):
    """A KeyError inside the persist stage exits 4 with one stderr line that
    names the stage and the exception type, and no traceback; at
    --log-level DEBUG one traceback is logged. The persist entry is left
    marked invalid."""
    _, flags = clean_run
    setup = textwrap.dedent(
        """
        import gapminer.pipeline
        def boom(task):
            raise KeyError(task[0])
        gapminer.pipeline._persist_discipline = boom
        """
    )
    for level in ("WARNING", "DEBUG"):
        out = tmp_path / level
        result = gapminer_child("--log-level", level, "run", *flags, "--out", str(out), setup=setup)
        assert result.returncode == 4, result.stderr
        lines = result.stderr.splitlines()
        assert lines[-1].startswith("internal error: stage persist: KeyError: ")
        if level == "WARNING":
            assert len(lines) == 1 and "Traceback" not in result.stderr
        else:
            assert result.stderr.count("Traceback (most recent call last)") == 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stages"]["persist"]["invalid"] is True


def test_ingest_of_another_corpus_reruns_every_later_stage_it_feeds(tmp_path, capsys):
    """`ingest` of a second corpus leaves the diagrams of the first: classify
    reruns network and persist on the second corpus before it reads them,
    and the directory ends where a clean run on the second corpus ends."""
    corpora = []
    for seed in (1, 2):
        path = tmp_path / f"corpus{seed}.jsonl"
        make_synthetic("random-pairs", path, seed, papers=300, disciplines=3, concepts=300)
        corpora.append(str(path))
    out, clean = str(tmp_path / "out"), str(tmp_path / "clean")
    flags = ["--null-replicates", "1", "--n-rand", "1"]
    assert main(["run", "--corpus", corpora[0], "--out", out, *flags]) == 0
    assert main(["ingest", "--corpus", corpora[1], "--out", out, *flags]) == 0
    expected = {
        "classify": ["skipped", "ok", "ok", "ok"],
        "metrics": ["skipped"] * 4 + ["ok"],
        "report": ["skipped"] * 5 + ["ok"],
    }
    for command, statuses in expected.items():
        capsys.readouterr()
        assert main([command, "--corpus", corpora[1], "--out", out, *flags]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("stage ")]
        assert lines == [f"stage {s}: {status}" for s, status in zip(STAGES, statuses)]
    assert main(["run", "--corpus", corpora[1], "--out", clean, *flags]) == 0
    assert files_under(tmp_path / "out") == files_under(tmp_path / "clean")


@pytest.mark.parametrize("corpus", ["planted-cycle", "random-pairs"])
def test_a_stage_never_pairs_its_config_with_another_runs_artifacts(tmp_path, corpus):
    """classify with another min_persistence, then metrics and report with
    the run's own flags: metrics reruns classify with the run's value first,
    so the directory ends where a clean run ends and the report counts the
    categories of the min_persistence it echoes. Planted cycles never die,
    so there only the null model's shares depend on min_persistence."""
    config = small_config(tmp_path)
    if corpus == "random-pairs":
        path = make_synthetic("random-pairs", tmp_path / "pairs.jsonl", 3, papers=300, concepts=60)
        config = replace(config, corpus_path=path, seed=7, null_replicates=1, n_rand=1)
    clean = replace(config, output_dir=tmp_path / "clean")
    run(clean)
    shutil.copytree(clean.output_dir, config.output_dir)
    assert main(["classify", *run_flags(config), "--min-persistence", "0"]) == 0
    assert files_under(config.output_dir) != files_under(clean.output_dir)
    assert main(["metrics", *run_flags(config)]) == 0
    assert main(["report", *run_flags(config)]) == 0
    assert files_under(config.output_dir) == files_under(clean.output_dir)
    report = json.loads((config.output_dir / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["min_persistence"] == config.min_persistence
    categories = classify_mod.load_classification_csv(config.output_dir / "classification.csv")
    counts = collections.Counter(category.value for category in categories.values())
    assert {c: n for c, n in report["category_counts"].items() if n} == counts


def test_a_run_keeps_no_file_of_a_discipline_the_corpus_lost(tmp_path):
    """A run on a three-discipline corpus, then one on a two-discipline
    corpus in the same directory: the third discipline's network and diagram
    files go, and the directory ends where a clean run ends."""
    for disciplines in (3, 2):
        make_synthetic("planted-cycle", tmp_path / "corpus.jsonl", 5, cycle_len=5,
                       disciplines=disciplines, filler_fresh=10, filler_dup=4)
        run(small_config(tmp_path))
    run(small_config(tmp_path, output_dir=tmp_path / "clean"))
    assert files_under(tmp_path / "out") == files_under(tmp_path / "clean")


def test_persist_writes_dimension_1_rows_only(finished_run):
    """Classification reads dimension-1 classes only, and a diagram holds
    nothing else: every data row has dim 1 and two birth vertices, and the
    index counts them."""
    out = finished_run.output_dir
    index = json.loads((out / "diagrams" / "index.json").read_text(encoding="utf-8"))
    total = 0
    for meta in index["disciplines"].values():
        with open(out / meta["file"], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == DIAGRAM_HEADER
        assert all(row[0] == "1" and row[1] and row[2] for row in rows)
        assert meta["pairs"] + meta["essentials"] == len(rows)
        total += len(rows)
    assert total > 0


def test_a_schema_1_directory_reruns_every_stage_once(tmp_path, finished_run):
    """A directory in the schema-1 layout, whose diagrams also hold a
    dimension-0 row per vertex and whose manifest vouches for them: a run
    reruns all six stages once and ends where a fresh run ends."""
    out = tmp_path / "out"
    shutil.copytree(finished_run.output_dir, out)
    before = files_under(out)
    for path in sorted((out / "diagrams").glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        born: dict[str, str] = {}
        for row in rows:  # in birth-year order
            for vertex in row[1:3]:
                born.setdefault(vertex, row[3])
        write_csv(path, header, [("0", x, "", year, "inf") for x, year in born.items()] + rows)
        vouch_for(out, path.relative_to(out).as_posix())
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["schema"] = 1
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert not verify_manifest(out)
    config = replace(finished_run, output_dir=out)
    assert run(config).statuses == dict.fromkeys(STAGES, "ok")
    assert files_under(out) == before
    assert set(run(config).statuses.values()) == {"skipped"}


def test_a_manifest_with_read_records_is_skipped_in_full(tmp_path, finished_run, capsys):
    """A manifest whose entries also record the digest of each artifact their
    stage read, as earlier versions wrote it: the records are ignored, so a
    stage subcommand and a run skip every stage and change no file."""
    out = tmp_path / "out"
    shutil.copytree(finished_run.output_dir, out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    pipeline = pipeline_mod.Pipeline(replace(finished_run, output_dir=out))
    digests = pipeline_mod._Digests(out)
    for stage in pipeline_mod._TABLE:
        manifest["stages"][stage.name]["reads"] = pipeline._stage_reads(stage, digests)
    assert manifest["stages"]["classify"]["reads"]["diagrams/index.json"]
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    before = files_under(out)
    capsys.readouterr()
    config = replace(finished_run, output_dir=out)
    assert main(["network", *run_flags(config)]) == 0
    assert capsys.readouterr().out.startswith("stage ingest: skipped\nstage network: skipped\n")
    assert set(run(config).statuses.values()) == {"skipped"}
    assert files_under(out) == before


@pytest.mark.parametrize("rel, command, record", [
    ("classification.csv", "metrics", "kept"),
    ("classification.csv", "metrics", "null"),
    ("classification.csv", "metrics", "no entry"),
    ("classification.csv", "run", "kept"),
    ("diagrams/index.json", "classify", "kept"),
    ("manifest.json", "run", "kept"),
], ids=["classification-metrics", "classification-null-digest-metrics",
        "classification-no-entry-metrics", "classification-run", "diagram-index-classify",
        "manifest-run"])
def test_a_directory_where_a_file_belongs_is_data_error(
    tmp_path, finished_run, capsys, rel, command, record
):
    """Every command reruns the maker of the path, also when the manifest
    records no digest for it, and the maker's write then fails."""
    out = tmp_path / "out"
    shutil.copytree(finished_run.output_dir, out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if record == "null":
        manifest["stages"]["classify"]["outputs"]["classification.csv"] = None
    elif record == "no entry":
        del manifest["stages"]["classify"]
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (out / rel).unlink()
    (out / rel).mkdir()
    capsys.readouterr()
    assert main([command, *run_flags(replace(finished_run, output_dir=out))]) == 3
    assert f"cannot write {out / rel}" in capsys.readouterr().err
    assert not verify_manifest(out)


def test_runtime_needs_standard_library_only(tmp_path):
    """synth and run succeed with numpy unimportable, and nothing imports it.
    A child process, because the test helpers import numpy into this one."""
    script = textwrap.dedent(
        """
        import sys
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError
        from gapminer.cli import main
        from gapminer.pipeline import verify_manifest
        corpus, out = sys.argv[1], sys.argv[2]
        assert main([
            "synth", "--generator", "planted-cycle", "--out", corpus, "--seed", "5",
            "--cycle-len", "5", "--disciplines", "2", "--filler-fresh", "10", "--filler-dup", "4",
        ]) == 0
        assert main([
            "run", "--corpus", corpus, "--out", out, "--seed", "13",
            "--null-replicates", "2", "--n-rand", "2",
        ]) == 0
        assert verify_manifest(out)
        assert sys.modules["numpy"] is None
        assert not [name for name in sys.modules if name.startswith("numpy.")]
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "corpus.jsonl"), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_threads_1_run_never_loads_multiprocessing(tmp_path):
    """A one-thread run leaves the process pool, and with it multiprocessing,
    unimported. A child process, because pytest and the test helpers import
    multiprocessing into this one."""
    script = textwrap.dedent(
        """
        import sys
        from gapminer.cli import main
        corpus, out = sys.argv[1], sys.argv[2]
        assert main([
            "synth", "--generator", "planted-cycle", "--out", corpus, "--seed", "5",
            "--cycle-len", "4", "--disciplines", "2", "--filler-fresh", "6", "--filler-dup", "2",
        ]) == 0
        assert main([
            "run", "--corpus", corpus, "--out", out, "--threads", "1",
            "--null-replicates", "2", "--n-rand", "2",
        ]) == 0
        loaded = [name for name in sys.modules if name.split(".")[0] == "multiprocessing"]
        assert not loaded, loaded
        assert "concurrent.futures.process" not in sys.modules
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "corpus.jsonl"), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("threads, cpus, workers", [(64, 2, 2), (2, 8, 2), (3, None, 1)])
def test_pool_workers_are_at_most_the_cpus(monkeypatch, threads, cpus, workers):
    """No process starts: the pool is a stand-in that records its worker
    count and runs each task when it is submitted."""
    pools = []

    class InlineExecutor:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, task):
            future = concurrent.futures.Future()
            future.set_result(fn(task))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert list(parallel_map(abs, range(-9, 0), threads)) == list(range(9, 0, -1))
    assert pools == [workers]


def shuffled_corpus_with_rejects(path: Path) -> Path:
    """A random-pairs corpus whose data lines are shuffled, with records the
    year and concept filters reject, two duplicate ids (a copy and a changed
    record) and a malformed line mixed in."""
    make_synthetic("random-pairs", path, 3, papers=120, concepts=40, venues=6)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    old = dict(records[0], id="old", year=1850)
    thin = dict(records[1], id="thin", l3=records[1]["l3"][:1])
    changed = dict(records[2], year=records[2]["year"] - 1, refs=[records[3]["id"]])
    data = lines + [json.dumps(r) for r in (old, thin, records[4], changed)] + ["{not json"]
    random.Random(0).shuffle(data)
    path.write_text("\n".join([header, *data]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("corpus", ["planted", "shuffled"])
def test_ingest_store_is_the_reloaded_store(tmp_path, corpus):
    """Ingest hands later stages the store it validated, which must equal
    load_corpus of the corpus.norm.jsonl it wrote, in dict order too."""
    config = small_config(tmp_path)
    if corpus == "shuffled":
        config = replace(config, corpus_path=shuffled_corpus_with_rejects(tmp_path / "raw.jsonl"))
    pipeline = pipeline_mod.Pipeline(config)
    pipeline.execute("ingest")
    store = pipeline._store
    normalized = config.output_dir / "corpus.norm.jsonl"
    reloaded = load_corpus(normalized)
    assert list(store.papers) == list(reloaded.papers)
    assert store.papers == reloaded.papers
    assert list(store.by_year.items()) == list(reloaded.by_year.items())
    assert list(store.concept_registry.items()) == list(reloaded.concept_registry.items())
    if corpus == "shuffled":
        assert store.ingest_report.duplicate_ids == 2
        assert len(store.ingest_report.rejections) == 2
    # Records holding shared id objects and flat concept tuples write the
    # same bytes as the ones they were read from.
    save_corpus(reloaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == normalized.read_bytes()


def test_cold_run_parses_the_corpus_once(tmp_path, monkeypatch):
    calls = []
    real_load = pipeline_mod.load_corpus

    def counting_load(path, **kwargs):
        calls.append(Path(path).name)
        return real_load(path, **kwargs)

    monkeypatch.setattr(pipeline_mod, "load_corpus", counting_load)
    config = small_config(tmp_path)
    run(config)
    assert calls == ["corpus.jsonl"]
    run(replace(config, seed=config.seed + 1))  # ingest skipped: its output is parsed once
    assert calls == ["corpus.jsonl", "corpus.norm.jsonl"]


def test_cold_run_builds_the_citation_index_once(tmp_path, monkeypatch):
    calls = []
    real_build = pipeline_mod.build_citation_index

    def counting_build(store):
        calls.append(len(store))
        return real_build(store)

    monkeypatch.setattr(pipeline_mod, "build_citation_index", counting_build)
    config = small_config(tmp_path)
    run(config)
    assert len(calls) == 1  # ingest's index serves the network stage
    run(replace(config, seed=config.seed + 1))  # network skipped: no stage needs the index
    assert len(calls) == 1
    run(replace(config, cd_window=3))  # ingest skipped: the network stage builds it once
    assert len(calls) == 2


def test_each_file_is_hashed_once_per_write(tmp_path, monkeypatch):
    """A cold run hashes the corpus once and each file it writes once, after
    writing it; an all-skipped rerun and a seed-change rerun hash each file
    once, whether a stage's check or its write took the digest."""
    hashed = []
    real_hash = pipeline_mod.sha256_file

    def counting_hash(path):
        hashed.append(Path(path))
        return real_hash(path)

    monkeypatch.setattr(pipeline_mod, "sha256_file", counting_hash)
    config = small_config(tmp_path)
    for seed in (config.seed, config.seed, config.seed + 1):  # cold, all skipped, seed change
        hashed.clear()
        statuses = run(replace(config, seed=seed)).statuses
        files = [p for p in config.output_dir.rglob("*") if p.is_file()]
        files.remove(config.output_dir / "manifest.json")
        assert sorted(hashed) == sorted([config.corpus_path, *files]), statuses


def test_network_stage_drops_the_citation_index(tmp_path):
    pipeline = pipeline_mod.Pipeline(small_config(tmp_path))
    pipeline.execute("network")
    assert pipeline._index is None  # classify, metrics and report never read it
    assert pipeline._store is not None
    assert (tmp_path / "out" / "paper_stats.csv").exists()


@pytest.mark.parametrize(
    "flags, values, field",
    [
        (["--sb-horizon", "-1"], {}, "sb_horizon"),
        (["--cd-window", "-3"], {}, "cd_window"),
        ([], {"threads": "2"}, "threads"),
        ([], {"cd_window": "3"}, "cd_window"),
        ([], {"null_replicates": 2.5}, "null_replicates"),
        ([], {"year_min": None}, "year_min"),
        ([], {"seed": True}, "seed"),
        ([], {"output_dir": 5}, "output_dir"),
        ([], {"corpus_path": ["corpus.jsonl"]}, "corpus_path"),
        ([], {"verb_lexicon_path": 1}, "verb_lexicon_path"),
    ],
    ids=[
        "negative-sb-horizon-flag", "negative-cd-window-flag",
        "string-threads", "string-cd-window", "float-null-replicates", "null-year-min",
        "bool-seed", "int-output-dir", "list-corpus-path", "int-verb-lexicon-path",
    ],
)
def test_bad_config_value_is_config_error_before_any_stage(tmp_path, capsys, flags, values, field):
    config = small_config(tmp_path)
    document = {"corpus_path": str(config.corpus_path), "output_dir": str(config.output_dir)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**document, **values}))
    assert main(["run", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} must be ")
    assert not config.output_dir.exists()  # no stage started


def test_null_cd_window_is_the_default(tmp_path):
    config = small_config(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_path": str(config.corpus_path), "cd_window": None}))
    assert PipelineConfig.from_sources(cfg).cd_window is None


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        ("a", "b", "c"),
        [
            (None, -0.0, math.inf),
            (math.nan, 1e-07, 1e22),
            (True, "x,y", 'say "hi"'),
            ("",),
            (None,),
            (0.1, 3, "plain"),
        ],
    )
    assert path.read_bytes() == (
        b"a,b,c\n"
        b",-0.0,inf\n"
        b"nan,1e-07,1e+22\n"
        b'True,"x,y","say ""hi"""\n'
        b'""\n'
        b'""\n'
        b"0.1,3,plain\n"
    )


def test_read_csv_of_a_missing_file_is_data_error(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(DataError) as raised:
        list(read_csv(path, ("a",), tuple))
    assert str(raised.value).startswith(f"{path}: cannot read (")
    assert str(raised.value).endswith(REMEDY)


def test_write_csv_quotes_a_lone_carriage_return(tmp_path):
    path = tmp_path / "t.csv"
    rows = [("B\rC", "1"), ("x\r", "\ry"), ("\r\n", "\n")]
    write_csv(path, ("a", "b"), rows)
    assert path.read_bytes() == b'a,b\n"B\rC",1\n"x\r","\ry"\n"\r\n","\n"\n'
    assert list(read_csv(path, ("a", "b"), tuple)) == rows


def suffixed_ids(path: Path, suffix: str) -> Path:
    """The corpus at `path` with `suffix` appended to every paper id and
    reference."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        record["id"] += suffix
        record["refs"] = [ref + suffix for ref in record["refs"]]
    out = path.with_name(f"suffixed-{path.name}")
    out.write_text("\n".join([header, *map(json.dumps, records)]) + "\n", encoding="utf-8")
    return out


def category_counts(out: Path) -> dict[str, int]:
    with open(out / "classification.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {c: sum(row["category"] == c for row in rows) for c in {r["category"] for r in rows}}


def test_paper_ids_holding_separators_survive_the_network_files(tmp_path):
    """A semicolon inside a paper id used to split it apart in the network
    file, and every paper lost its novel pairs."""
    plain = small_config(tmp_path)
    run(plain)
    assert category_counts(plain.output_dir) == {
        "GapOpener": 2, "NovelPairNonGap": 18, "NoNovelPair": 4,
    }
    for suffix in (";x", "\\;x", ";"):
        config = replace(
            plain, corpus_path=suffixed_ids(plain.corpus_path, suffix), output_dir=tmp_path / suffix
        )
        run(config)
        assert category_counts(config.output_dir) == category_counts(plain.output_dir)
        assert verify_manifest(config.output_dir)


# Pieces of ids: the network file's separators and escape, CSV's comma,
# quote and line breaks (a lone carriage return too), spaces, the diagram
# file's "inf", and text beyond ASCII. Joined from one to three at a time,
# they give ids that prefix one another.
_ID_PIECES = (
    ";", "\\", ",", '"', "'", "\n", "\r", "\r\n", " ", "inf", "é", "漢", "\U0001F600", "P", "1",
)
_IDS = st.lists(st.sampled_from(_ID_PIECES), min_size=1, max_size=3).map("".join)


@st.composite
def odd_corpora(draw):
    """Records of a few papers whose ids (paper, discipline, concept,
    reference, author) are drawn from _IDS, and one otherwise valid record
    holding a lone surrogate in one of its string fields."""
    papers = draw(st.lists(_IDS, min_size=1, max_size=10, unique=True))
    disciplines = draw(st.lists(_IDS, min_size=1, max_size=2, unique=True))
    concepts = draw(st.lists(_IDS, min_size=2, max_size=6, unique=True))

    def subset(pool, low, high):
        return draw(st.lists(st.sampled_from(pool), min_size=low, max_size=high, unique=True))

    records = [
        {
            "id": pid,
            "year": draw(st.integers(2000, 2003)),
            "l0": [[d, 1.0] for d in subset(disciplines, 1, 2)],
            "l3": [[c, 1.0] for c in subset(concepts, 2, 4)],
            "refs": subset(papers, 0, 3),
            "title": draw(_IDS),
            "authors": subset(concepts, 1, 2),
        }
        for pid in papers
    ]
    lone = dict(records[0], id="lone")
    field = draw(st.sampled_from(["id", "l3", "refs", "title", "authors"]))
    if field in ("id", "title"):
        lone[field] = "\ud800"
    elif field == "l3":
        lone["l3"] = [["\ud800", 1.0], *records[0]["l3"]]
    else:
        lone[field] = [*records[0][field], "\ud800"]
    return records, lone


def _wordless_cycle():
    """A four-cycle closed in 2003 (a gap opener) whose papers, novel-pair
    ones too, have titles without a word: the report has no verb ratios."""
    records = [
        {"id": f"P{i}", "year": 2000 + i, "l0": [["X", 1.0]],
         "l3": [[c, 1.0] for c in pair], "refs": [], "title": ";", "authors": ["a"]}
        for i, pair in enumerate([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    ]
    return records, dict(records[0], id="lone", title="\ud800")


def _lone_carriage_return():
    """An id holding a lone carriage return, whose row read_csv once split."""
    rows = [("A", 2000, "ab", []), ("B\rC", 2000, "bc", []), ("D", 2001, "ac", ["A"]),
            ("E", 2001, "cd", ["B\rC"])]
    records = [{"id": pid, "year": year, "l0": [["X", 1.0]], "l3": [[c, 1.0] for c in l3],
                "refs": refs} for pid, year, l3, refs in rows]
    return records, dict(records[0], id="\ud800")


@settings(max_examples=60, deadline=None)
@given(corpus=odd_corpora())
@example(corpus=_wordless_cycle())
@example(corpus=_lone_carriage_return())
def test_every_id_survives_every_artifact(corpus):
    """A run over ids holding any character classifies every paper as the
    in-memory networks do, and a lone surrogate only makes its line malformed."""
    records, lone = corpus
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        lines = [{"schema_version": 1}, *records[:1], lone, *records[1:]]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
        out = Path(tmp) / "out"
        args = ["run", "--corpus", str(path), "--out", str(out), "--null-replicates", "1"]
        assert main([*args, "--n-rand", "1"]) == 0
        assert json.loads((out / "ingest.json").read_text(encoding="utf-8"))["malformed"] == 1
        store = load_corpus(path)
        assert set(store.papers) == {r["id"] for r in records}
        expected = classify_all(store, analyze_store(store))
        with open(out / "classification.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            [pid, cls.category.value, str(cls.n_gap_edges), str(cls.n_novel_pairs)]
            for pid, cls in zip(store.papers, map(expected.get, store.papers))
        ]
