"""Pipeline orchestration: caching, dependencies, determinism, CLI exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gapminer.cli import main
from gapminer.errors import ConfigError, MissingDependencyError
from gapminer.pipeline import PipelineConfig, run, verify_manifest
from gapminer.synth import make_synthetic

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
    manifest_before = (config.output_dir / "manifest.json").read_bytes()
    result = run(config)
    assert all(status == "skipped" for status in result.statuses.values())
    assert (config.output_dir / "manifest.json").read_bytes() == manifest_before


def test_changed_config_reruns_downstream(tmp_path):
    config = small_config(tmp_path)
    run(config)
    changed = small_config(tmp_path, min_persistence=0)
    result = run(changed)
    assert result.statuses["ingest"] == "skipped"
    assert result.statuses["network"] == "skipped"
    assert result.statuses["persist"] == "skipped"  # network files unchanged
    assert result.statuses["classify"] == "ok"


def test_stage_with_missing_dependency_names_producer(tmp_path):
    config = small_config(tmp_path, stages=("classify",))
    with pytest.raises(MissingDependencyError) as err:
        run(config)
    message = str(err.value)
    assert "classify" in message
    assert "ingest" in message or "persist" in message or "network" in message


def test_stage_missing_diagrams_names_topology_stage(tmp_path):
    config = small_config(tmp_path, stages=("ingest", "network"))
    run(config)
    with pytest.raises(MissingDependencyError) as err:
        run(small_config(tmp_path, stages=("classify",)))
    assert "persist" in str(err.value)
    assert "topology" in str(err.value)


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
    code = main(
        [
            "run",
            "--corpus", str(corpus),
            "--out", str(tmp_path / "out"),
            "--seed", "3",
            "--null-replicates", "1",
            "--n-rand", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stage report: ok" in out
    # config error: unknown key in config file
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_option": 1}')
    assert main(["run", "--config", str(bad)]) == 2
    # data error: missing corpus file
    assert main(["run", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o2")]) == 3
    # data error: single stage without upstream artifacts
    assert main(["classify", "--corpus", str(corpus), "--out", str(tmp_path / "o3")]) == 3


def test_cli_synth_unknown_generator_is_config_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--generator", "bogus", "--out", str(tmp_path / "x.jsonl")])
    assert err.value.code == 2  # argparse rejects the choice


def test_cli_threads_env_fallback(tmp_path, monkeypatch):
    corpus = tmp_path / "c.jsonl"
    make_synthetic("planted-cycle", corpus, 5, cycle_len=4, disciplines=2)
    monkeypatch.setenv("GAPMINER_THREADS", "2")
    code = main(
        [
            "run",
            "--corpus", str(corpus),
            "--out", str(tmp_path / "out"),
            "--null-replicates", "0",
            "--n-rand", "1",
        ]
    )
    assert code == 0
    monkeypatch.setenv("GAPMINER_THREADS", "banana")
    assert (
        main(
            [
                "run",
                "--corpus", str(corpus),
                "--out", str(tmp_path / "out2"),
            ]
        )
        == 2
    )


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


def test_corrupted_artifact_triggers_rerun(tmp_path):
    config = small_config(tmp_path)
    run(config)
    (config.output_dir / "metrics.csv").write_text("tampered\n")
    assert not verify_manifest(config.output_dir)
    result = run(config)
    assert result.statuses["metrics"] == "ok"  # recomputed
    assert verify_manifest(config.output_dir)


def test_failed_stage_marked_invalid_in_manifest(tmp_path, monkeypatch):
    config = small_config(tmp_path)
    run(small_config(tmp_path, stages=("ingest",)))

    import gapminer.pipeline as pipeline_mod

    def boom(self):
        raise RuntimeError("synthetic stage failure")

    monkeypatch.setattr(pipeline_mod.Pipeline, "_run_network", boom)
    with pytest.raises(RuntimeError):
        run(small_config(tmp_path, stages=("network",)))
    manifest = json.loads((config.output_dir / "manifest.json").read_text())
    assert manifest["stages"]["network"]["invalid"] is True
    assert not verify_manifest(config.output_dir)
    monkeypatch.undo()
    result = run(small_config(tmp_path, stages=("network",)))
    assert result.statuses["network"] == "ok"
    assert verify_manifest(config.output_dir)


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


@pytest.mark.parametrize("kind, stage", [("networks", "network"), ("diagrams", "persist")])
def test_malformed_artifact_row_is_data_error(tmp_path, capsys, kind, stage):
    config = small_config(tmp_path)
    run(config)
    artifact = sorted((config.output_dir / kind).glob("*.csv"))[0]
    with open(artifact, "a", encoding="utf-8") as fh:
        fh.write("x,y\n")
    capsys.readouterr()
    code = main(["classify", "--corpus", str(config.corpus_path), "--out", str(config.output_dir)])
    assert code == 3
    err = capsys.readouterr().err
    assert artifact.name in err
    assert f"rerun stage {stage}" in err


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
    config = small_config(tmp_path)
    run(config)
    with open(config.output_dir / "classification.csv", "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    lines = (config.output_dir / "classification.csv").read_text().count("\n")
    capsys.readouterr()
    code = main([stage, "--corpus", str(config.corpus_path), "--out", str(config.output_dir)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"classification.csv, line {lines}" in err
    assert "rerun stage classify" in err


@pytest.mark.parametrize("kind, producer, consumer", [
    ("networks", "network", "persist"),
    ("diagrams", "persist", "classify"),
])
def test_truncated_index_is_data_error(tmp_path, capsys, kind, producer, consumer):
    config = small_config(tmp_path)
    run(config)
    index = config.output_dir / kind / "index.json"
    text = index.read_text()
    index.write_text(text[: len(text) // 2])
    capsys.readouterr()
    code = main([consumer, "--corpus", str(config.corpus_path), "--out", str(config.output_dir)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{kind}/index.json" in err
    assert f"rerun stage {producer}" in err


def test_truncated_ingest_meta_is_data_error(tmp_path, capsys):
    config = small_config(tmp_path)
    run(config)
    meta = config.output_dir / "ingest.json"
    text = meta.read_text()
    meta.write_text(text[: len(text) // 2])
    capsys.readouterr()
    code = main(["report", "--corpus", str(config.corpus_path), "--out", str(config.output_dir)])
    assert code == 3
    err = capsys.readouterr().err
    assert "ingest.json" in err
    assert "rerun stage ingest" in err


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
