"""Pipeline stage, config validation, and CLI behavior tests."""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import shutil
import socket
import subprocess
import sys
from dataclasses import replace
from pathlib import Path, PurePosixPath

import numpy as np
import pytest

from patchrank import embedding, lexical, prerank
from patchrank import pipeline as pipeline_mod
from patchrank.cli import main
from patchrank.corpus import CORPUS_FORMAT, load_corpus, load_cve_dump
from patchrank.embedding import STORE_FORMAT, VectorStore
from patchrank.pipeline import (
    CANDIDATES_FORMAT,
    CONFIG_KEYS,
    FEATURES_FORMAT,
    STAGE_FUNCTIONS,
    STAGES,
    Artifacts,
    ConfigError,
    PipelineConfig,
    RANKING_FORMAT,
    StageInputError,
    TRAINING_FORMAT,
    apply_overrides,
    load_candidates,
    load_config,
    repo_slug,
    run_trace,
    stage_embed,
    stage_eval,
    stage_featurize,
    stage_index,
    stage_ingest,
    stage_prerank,
    stage_rank,
    stage_train,
)

from patchrank.prerank import FusionConfig
from patchrank.ranker import RankerParams, RankModel, TrainingSet, train_lambdarank

from synthcorpus import generate
from test_embedding import save_version_2

ALL_STAGES = (
    stage_ingest,
    stage_index,
    stage_embed,
    stage_prerank,
    stage_featurize,
    stage_train,
    stage_rank,
    stage_eval,
)


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    """A 2-repo, 120-commit synthetic corpus with all stages run once."""
    tmp = tmp_path_factory.mktemp("pipeline")
    synth = generate(seed=11, n_repos=2, commits_per_repo=60, cves_per_repo=2)
    commit_dump, cve_dump = synth.write(tmp / "input")
    config_path = tmp / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "commit_dump": str(commit_dump),
                "cve_dump": str(cve_dump),
                "output_dir": str(tmp / "out"),
                "seed": 3,
                "offline": True,
                "ranker": {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 5},
            }
        )
    )
    config = load_config(config_path)
    for stage in ALL_STAGES:
        stage(config)
    return synth, config_path, config


@pytest.fixture
def staged(small_setup, tmp_path):
    """A private copy of ``small_setup``'s dumps and artifacts."""
    _, _, config = small_setup
    shutil.copytree(config.commit_dump.parent, tmp_path / "input")
    shutil.copytree(config.output_dir, tmp_path / "out")
    return replace(
        config,
        commit_dump=tmp_path / "input" / config.commit_dump.name,
        cve_dump=tmp_path / "input" / config.cve_dump.name,
        output_dir=tmp_path / "out",
    )


@pytest.fixture
def staged_config(small_setup, staged, tmp_path):
    """A config file for ``staged``, with ``small_setup``'s settings."""
    obj = json.loads(small_setup[1].read_text())
    obj.update(
        commit_dump=str(staged.commit_dump),
        cve_dump=str(staged.cve_dump),
        output_dir=str(staged.output_dir),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


# The stage that writes each top-level directory under output_dir.
PRODUCERS = {
    "corpus": "ingest",
    "index": "index",
    "vectors": "embed",
    "prerank": "prerank",
    "features": "featurize",
    "model": "train",
    "rank": "rank",
    "eval": "eval",
}


def forge_manifest(root: Path, key: str) -> None:
    """Record the current digest of ``key`` in its stage's manifest, so that a
    read of the edited file passes the freshness check and reaches its loader."""
    path = Artifacts(root).manifest_file(PRODUCERS[key.split("/")[0]])
    manifest = json.loads(path.read_text())
    manifest["outputs"][key] = hashlib.sha256((root / key).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))


def forge_manifests(root: Path, key: str) -> None:
    """Record the current digest of ``key`` wherever a manifest lists it, as
    a run that wrote and read the edited file would have."""
    digest = hashlib.sha256((root / key).read_bytes()).hexdigest()
    for path in (root / "manifests").glob("*.manifest.json"):
        manifest = json.loads(path.read_text())
        for side in ("inputs", "outputs"):
            if key in manifest[side]:
                manifest[side][key] = digest
        path.write_text(json.dumps(manifest))


def edit_commit_dump(path: Path) -> None:
    """Append words to the first commit's message."""
    lines = path.read_text().splitlines()
    commit = json.loads(lines[0])
    commit["message"] += " overflow fix"
    path.write_text("\n".join([json.dumps(commit), *lines[1:]]) + "\n")


class TestConfig:
    def write_config(self, tmp_path, obj):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return path

    def minimal(self, tmp_path):
        return {
            "commit_dump": "commits.jsonl",
            "cve_dump": "cves.jsonl",
            "output_dir": "out",
        }

    def test_defaults_applied(self, tmp_path):
        config = load_config(self.write_config(tmp_path, self.minimal(tmp_path)))
        assert config.candidate_k == 10_000
        assert config.fusion_weights == (0.35, 0.15, 0.3, 0.2)
        assert config.commit_token_budget == 512
        assert config.commit_dump == tmp_path / "commits.jsonl"

    def test_unknown_top_level_key_rejected(self, tmp_path):
        obj = self.minimal(tmp_path)
        obj["typo_key"] = 1
        with pytest.raises(ConfigError, match="typo_key"):
            load_config(self.write_config(tmp_path, obj))

    def test_unknown_section_key_rejected(self, tmp_path):
        obj = self.minimal(tmp_path)
        obj["ranker"] = {"learning_rate": 0.1, "max_depth": 4}
        with pytest.raises(ConfigError, match="max_depth"):
            load_config(self.write_config(tmp_path, obj))

    def test_missing_required_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cve_dump"):
            load_config(self.write_config(tmp_path, {"commit_dump": "x", "output_dir": "y"}))

    def test_invalid_weights_rejected(self, tmp_path):
        obj = self.minimal(tmp_path)
        obj["fusion"] = {"weights": [0.5, -0.1, 0.2, 0.2]}
        with pytest.raises(ConfigError):
            load_config(self.write_config(tmp_path, obj))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_overrides(self, tmp_path):
        config = load_config(self.write_config(tmp_path, self.minimal(tmp_path)))
        updated = apply_overrides(
            config, seed=9, offline=True, provider_url="http://x/", repo="r/a"
        )
        assert updated.seed == 9
        assert updated.offline is True
        assert updated.provider_url == "http://x/"
        assert updated.repo_filter == "r/a"
        # original untouched
        assert config.seed == 0 and config.offline is False

    def test_defaults_match_component_defaults(self, tmp_path):
        config = load_config(self.write_config(tmp_path, self.minimal(tmp_path)))
        assert config.ranker_params() == RankerParams()
        assert config.fusion_config() == FusionConfig()

    @pytest.mark.parametrize("section, key", list(CONFIG_KEYS))
    def test_config_key_sets_field_and_manifest(self, small_setup, tmp_path, section, key):
        """Each key reaches its field and the manifests of its stages, in turn."""
        assert set(NON_DEFAULT_VALUES) == set(CONFIG_KEYS)
        value = NON_DEFAULT_VALUES[section, key]
        spec = CONFIG_KEYS[section, key]
        _, config_path, staged = small_setup
        obj = json.loads(config_path.read_text())
        del obj["offline"]
        obj["output_dir"] = str(tmp_path / "out")
        (obj if section is None else obj.setdefault(section, {}))[key] = value
        config = load_config(self.write_config(tmp_path, obj))
        expected = tuple(value) if isinstance(value, list) else value
        default = getattr(PipelineConfig(Path(), Path(), Path()), spec.field)
        assert getattr(config, spec.field) == expected != default
        if spec.stages:
            shutil.copytree(staged.output_dir, config.output_dir)
        for stage in spec.stages:
            STAGE_FUNCTIONS[stage](config)
            manifest = Artifacts(config.output_dir).manifest_file(stage)
            assert json.loads(manifest.read_text())["config"][key] == value

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "offline", "false"),
            (None, "seed", True),
            ("fusion", "candidate_k", 2.9),
            ("ranker", "num_trees", 7.9),
            ("eval", "metric_ks", "15"),
            ("provider", "model", 5),
            ("bm25", "k1", True),
            ("budgets", "commit_tokens", 0),
            ("provider", "batch_size", 0),
            ("provider", "offline_dimension", 4),
            ("paths", "per_entity_cap", 0),
            ("eval", "metric_ks", [0]),
            ("ranker", "hard_negatives", -1),
            ("fusion", "weights", "0123"),
            ("fusion", "weights", [0.5, 0.5]),
            ("ranker", "learning_rate", 0),
            ("ranker", "learning_rate", float("nan")),
            ("bm25", "k1", -0.5),
            ("bm25", "b", 1.5),
            ("bm25", "b", -0.1),
            (None, "seed", 2**63),
            (None, "seed", -(2**63) - 1),
        ],
    )
    def test_bad_value_exits_1_naming_key(self, tmp_path, capsys, section, key, value):
        """Wrong-typed and out-of-range values fail at load time, before any stage writes."""
        obj = self.minimal(tmp_path)
        (obj if section is None else obj.setdefault(section, {}))[key] = value
        assert main(["ingest", "--config", str(self.write_config(tmp_path, obj))]) == 1
        err = capsys.readouterr().err
        name = key if section is None else f"{section}.{key}"
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err, err
        assert not (tmp_path / "out").exists()

    def test_readme_documents_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        names = [key if section is None else f"{section}.{key}" for section, key in CONFIG_KEYS]
        assert [name for name in names if f"`{name}`" not in readme] == []


# A valid value other than the default for every CONFIG_KEYS entry.
NON_DEFAULT_VALUES = {
    (None, "seed"): 5,
    (None, "offline"): True,
    ("provider", "url"): "http://127.0.0.1:9",
    ("provider", "model"): "other-model",
    ("provider", "batch_size"): 8,
    ("provider", "max_retries"): 1,
    ("provider", "offline_dimension"): 64,
    ("fusion", "weights"): [0.25, 0.25, 0.25, 0.25],
    ("fusion", "candidate_k"): 30,
    ("budgets", "commit_tokens"): 128,
    ("budgets", "file_tokens"): 64,
    ("bm25", "k1"): 1.5,
    ("bm25", "b"): 0.5,
    ("paths", "per_entity_cap"): 3,
    ("ranker", "learning_rate"): 0.3,
    ("ranker", "num_leaves"): 5,
    ("ranker", "min_data_in_leaf"): 3,
    ("ranker", "num_trees"): 7,
    ("ranker", "hard_negatives"): 4,
    ("ranker", "random_negatives"): 6,
    ("eval", "metric_ks"): [5, 50],
}


class TestArtifacts:
    def test_candidate_records_schema(self, small_setup):
        """Each candidates.jsonl line is a candidates.bin row, with its four
        component reciprocal ranks."""
        _, _, config = small_setup
        art = Artifacts(config.output_dir)
        lines = art.candidates_file.read_text().splitlines()
        record = json.loads(lines[0])
        assert set(record) == {"cve_id", "commit_id", "rank", "fused_score"}
        candidates = load_candidates(art.candidates_bin)
        assert candidates.components.shape == (len(lines), 4)
        assert np.all((candidates.components >= 0) & (candidates.components <= 1))
        rows = [json.loads(line) for line in lines]
        slices = candidates.slices()
        assert [(r["cve_id"], r["commit_id"]) for r in rows] == [
            (cve_id, commit_id) for cve_id in slices for commit_id in candidates.ids(slices[cve_id])
        ]

    def test_feature_records_schema(self, small_setup):
        _, _, config = small_setup
        art = Artifacts(config.output_dir)
        features = FEATURES_FORMAT.load(art.features_file)["features"]
        assert features.shape == (len(art.candidates_file.read_text().splitlines()), 9)

    def test_training_records_schema(self, small_setup):
        _, _, config = small_setup
        art = Artifacts(config.output_dir)
        training = TRAINING_FORMAT.load(art.training_file)
        assert set(training) == {"cve_ids", "offsets", "commit_ids", "relevance", "features"}
        assert training["features"].shape == (len(training["commit_ids"]), 9)
        assert training["offsets"][-1] == len(training["commit_ids"])

    def test_training_group_without_rows_trains_the_same_trees(self, staged):
        """A training.bin forged with a group of no rows between two real ones
        trains the same trees, and the model does not count that group."""
        art = Artifacts(staged.output_dir)
        before = json.loads(art.model_file.read_text())
        sections = TRAINING_FORMAT.load(art.training_file)
        cve_ids, offsets = sections["cve_ids"], sections["offsets"]
        assert len(cve_ids) >= 2 and np.all(np.diff(offsets) > 0)
        # Between the first two CVE ids, so that the ids still ascend.
        sections["cve_ids"] = [cve_ids[0], f"{cve_ids[0]}-empty", *cve_ids[1:]]
        sections["offsets"] = np.insert(offsets, 1, offsets[1])
        TRAINING_FORMAT.save(art.training_file, **sections)
        forge_manifest(staged.output_dir, "features/training.bin")
        stage_train(staged)
        after = json.loads(art.model_file.read_text())
        assert after["trees"] == before["trees"]
        assert after["metadata"] == before["metadata"]
        assert after["metadata"]["num_groups"] == len(cve_ids)

    def test_train_from_the_file_equals_training_in_memory(self, staged, monkeypatch, tmp_path):
        """train's model.json, from training.bin as loaded, has the bytes of
        train_lambdarank on the TrainingSet that featurize built and wrote."""
        built = []
        of_groups = TrainingSet.of_groups

        def recording(groups):
            built.append(of_groups(groups))
            return built[-1]

        monkeypatch.setattr(TrainingSet, "of_groups", recording)
        stage_featurize(staged)
        stage_train(staged)
        (training,) = built
        path = tmp_path / "in-memory.json"
        train_lambdarank(training, staged.ranker_params()).save(path)
        assert path.read_bytes() == Artifacts(staged.output_dir).model_file.read_bytes()

    def test_ranking_and_report_written(self, small_setup):
        synth, _, config = small_setup
        art = Artifacts(config.output_dir)
        ranking = [json.loads(l) for l in art.ranking_file.read_text().splitlines()]
        assert {r["cve_id"] for r in ranking} == set(synth.patches_by_cve)
        report = json.loads(art.report_json.read_text())
        assert 0.0 <= report["macro"]["mrr"] <= 1.0
        assert "MACRO" in art.report_text.read_text()

    def test_entity_cache_written(self, small_setup):
        _, _, config = small_setup
        art = Artifacts(config.output_dir)
        records = [json.loads(l) for l in art.entities_file.read_text().splitlines()]
        assert all(set(r) == {"cve_id", "entities"} for r in records)

    def test_manifests_cover_all_stages(self, small_setup):
        _, _, config = small_setup
        manifest_dir = config.output_dir / "manifests"
        stages = {p.name.split(".")[0] for p in manifest_dir.glob("*.manifest.json")}
        assert stages == {
            "ingest",
            "index",
            "embed",
            "prerank",
            "featurize",
            "train",
            "rank",
            "eval",
        }
        manifest = json.loads((manifest_dir / "index.manifest.json").read_text())
        assert manifest["inputs"] and manifest["outputs"]

    def test_index_rerun_byte_identical(self, small_setup, tmp_path):
        _, _, config = small_setup
        art = Artifacts(config.output_dir)
        index_files = sorted((config.output_dir / "index").glob("*.bin"))
        before = {p.name: p.read_bytes() for p in index_files}
        stage_index(config)
        after = {p.name: p.read_bytes() for p in index_files}
        assert before == after


class TestArtifactIO:
    """Every stage reads and writes through one path that records the files."""

    def test_failed_write_keeps_previous_file(self, staged, monkeypatch):
        model_file = Artifacts(staged.output_dir).model_file
        before = model_file.read_bytes()

        def broken_save(self, path):
            Path(path).write_bytes(b"0123456789")
            raise OSError("disk full")

        monkeypatch.setattr(RankModel, "save", broken_save)
        with pytest.raises(OSError, match="disk full"):
            stage_train(staged)
        assert model_file.read_bytes() == before
        assert [p.name for p in model_file.parent.iterdir()] == ["model.json"]

    def test_jsonl_exports_are_not_read(self, small_setup, staged, staged_config):
        """No stage reads candidates.jsonl or ranking.jsonl: overwritten with
        garbage as soon as they are written, every other file stays the same."""
        art = Artifacts(staged.output_dir)
        garbage = b"\x00 not JSON\n"
        for stages, export in (
            (("prerank",), art.candidates_file),
            (("featurize", "train", "rank"), art.ranking_file),
            (("eval",), None),
        ):
            for stage in stages:
                assert main([stage, "--config", str(staged_config)]) == 0, stage
            if export is not None:
                export.write_bytes(garbage)
        expected = tree_digests(small_setup[2].output_dir)
        digest = hashlib.sha256(garbage).hexdigest()
        expected.update({art.key(p): digest for p in (art.candidates_file, art.ranking_file)})
        assert tree_digests(staged.output_dir) == expected

    def test_manifest_inputs_are_the_files_read(self, small_setup):
        _, _, config = small_setup
        art = Artifacts(config.output_dir)
        slugs = [r["slug"] for r in json.loads(art.repos_file.read_text())["repos"]]
        assert len(slugs) == 2

        def per_repo(*patterns):
            return {pattern.format(slug) for slug in slugs for pattern in patterns}

        corpora = {"corpus/repos.json"} | per_repo("corpus/{}.bin")
        cves = "corpus/cves.jsonl"
        expected = {
            "ingest": {"commit_dump", "cve_dump"},
            "index": corpora,
            "embed": corpora | {cves},
            "prerank": corpora | {cves} | per_repo("index/{}.message.bin", "index/{}.file.bin"),
            "featurize": corpora
            | {cves, "prerank/candidates.bin"}
            | per_repo("index/{}.file.bin", "vectors/{}.bin"),
            "train": {"features/training.bin"},
            "rank": {cves, "model/model.json", "prerank/candidates.bin", "features/features.bin"},
            "eval": {cves, "prerank/candidates.bin", "rank/ranking.bin"},
        }
        assert set(expected) == set(STAGES)
        dumps = {"commit_dump": config.commit_dump, "cve_dump": config.cve_dump}
        for stage, keys in expected.items():
            manifest = json.loads(art.manifest_file(stage).read_text())
            assert set(manifest["inputs"]) == keys, stage
            for key, digest in manifest["inputs"].items():
                path = dumps.get(key, config.output_dir / key)
                assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (stage, key)

    def test_manifest_outputs_are_the_files_written(self, small_setup):
        """Output keys are paths relative to output_dir, and every file there is
        some stage's output or manifest: no temporary file is left behind."""
        _, _, config = small_setup
        root = config.output_dir
        written = set()
        for stage in STAGES:
            manifest = json.loads(Artifacts(root).manifest_file(stage).read_text())
            assert manifest["version"] == 2
            for key, digest in manifest["outputs"].items():
                assert hashlib.sha256((root / key).read_bytes()).hexdigest() == digest, key
            written |= set(manifest["outputs"]) | {f"manifests/{stage}.manifest.json"}
        assert {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} == written


class TestFreshness:
    """Every read is checked against the manifests, back to the dumps."""

    def run(self, stage, config_path, capsys):
        """``stage``'s exit code and its stderr."""
        capsys.readouterr()
        code = main([stage, "--config", str(config_path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("stage", STAGES[1:])
    def test_edited_upstream_file_blocks_stage_until_its_stage_reruns(
        self, staged, staged_config, capsys, stage
    ):
        root = staged.output_dir
        manifest = json.loads(Artifacts(root).manifest_file(stage).read_text())
        upstream = sorted(set(manifest["inputs"]) - {"commit_dump", "cve_dump"})
        assert upstream
        for key in upstream:
            path, producer = root / key, PRODUCERS[key.split("/")[0]]
            original = path.read_bytes()
            # A JSON or JSONL file still parses, so only the freshness check,
            # which runs before any loader, catches the edit.
            path.write_bytes(original + b"\n")
            code, err = self.run(stage, staged_config, capsys)
            assert code == 2 and err.count("\n") == 1, (key, err)
            assert err.startswith(f"error: stage {stage}: stale artifact {path}: "), err
            assert err.endswith(f"; rerun {producer}\n"), err
            assert self.run(producer, staged_config, capsys)[0] == 0
            assert path.read_bytes() == original
            assert self.run(stage, staged_config, capsys)[0] == 0, key

    def test_edited_dump_blocks_every_later_stage_until_ingest_reruns(
        self, staged, staged_config, capsys
    ):
        edit_commit_dump(staged.commit_dump)
        for stage in STAGES[1:]:
            code, err = self.run(stage, staged_config, capsys)
            assert code == 2 and err.count("\n") == 1, (stage, err)
            assert f"commit_dump {staged.commit_dump} changed since ingest ran; rerun ingest" in err
        for stage in STAGES:
            assert self.run(stage, staged_config, capsys)[0] == 0, stage

    @pytest.mark.parametrize("listed", ["bogus/file.json", "index/<slug>.message.json"])
    def test_hand_edited_manifest_input_exits_2(self, staged, staged_config, capsys, listed):
        """An input key no stage writes, or a manifest listing its own output as
        an input, makes the manifest's stage stale rather than a traceback."""
        art = Artifacts(staged.output_dir)
        slug = json.loads(art.repos_file.read_text())["repos"][0]["slug"]
        path = art.manifest_file("index")
        manifest = json.loads(path.read_text())
        manifest["inputs"][listed.replace("<slug>", slug)] = "0" * 64
        path.write_text(json.dumps(manifest))
        code, err = self.run("prerank", staged_config, capsys)
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith("error: stage prerank: stale artifact ") and err.endswith(
            "; rerun index\n"
        ), err
        assert self.run("index", staged_config, capsys)[0] == 0
        assert self.run("prerank", staged_config, capsys)[0] == 0

    @pytest.mark.parametrize(
        "section, key, value, blocked, producer",
        [
            ("bm25", "k1", 1.5, "prerank", "index"),
            ("budgets", "file_tokens", 64, "featurize", "embed"),
            ("fusion", "candidate_k", 30, "featurize", "prerank"),
            (None, "seed", 4, "train", "featurize"),
        ],
    )
    def test_changed_setting_blocks_stage_until_its_stage_reruns(
        self, staged_config, capsys, section, key, value, blocked, producer
    ):
        obj = json.loads(staged_config.read_text())
        (obj if section is None else obj.setdefault(section, {}))[key] = value
        staged_config.write_text(json.dumps(obj))
        code, err = self.run(blocked, staged_config, capsys)
        assert code == 2 and err.count("\n") == 1, err
        assert f": {producer} ran with other {key}; rerun {producer}\n" in err, err
        assert self.run(producer, staged_config, capsys)[0] == 0
        assert self.run(blocked, staged_config, capsys)[0] == 0


class TestStageInputChecks:
    def test_rank_without_model_raises(self, tmp_path):
        config = PipelineConfig(
            commit_dump=tmp_path / "c.jsonl",
            cve_dump=tmp_path / "v.jsonl",
            output_dir=tmp_path / "out",
        )
        with pytest.raises(StageInputError, match="stage rank"):
            stage_rank(config)

    def test_ingest_without_dumps_raises(self, tmp_path):
        config = PipelineConfig(
            commit_dump=tmp_path / "missing.jsonl",
            cve_dump=tmp_path / "missing2.jsonl",
            output_dir=tmp_path / "out",
        )
        with pytest.raises(StageInputError, match="stage ingest"):
            stage_ingest(config)


MALFORMED_CASES = [
    ("corpus/repos.json", b"[]", "index", False),
    ("corpus/repos.json", b"{}", "index", False),
    ("corpus/<slug>.bin", None, "index", False),
    ("corpus/cves.jsonl", None, "prerank", False),
    ("prerank/candidates.bin", None, "featurize", False),
    ("features/training.bin", None, "train", False),
    ("rank/ranking.bin", None, "eval", False),
    ("corpus/repos.json", b"[]", "index", True),
    ("prerank/candidates.bin", None, "featurize", True),
    ("prerank/candidates.bin", None, "eval", True),
    ("rank/ranking.bin", None, "eval", True),
    ("vectors/<slug>.bin", None, "featurize", True),
    ("index/<slug>.file.bin", None, "prerank", True),
    ("corpus/<slug>.bin", None, "index", True),
]


def first_split(model: dict) -> dict:
    return next(n for tree in model["trees"] for n in tree["nodes"] if "feature" in n)


MODEL = "model/model.json"

# The array artifacts, by key.
ARRAY_FORMATS = {
    "prerank/candidates.bin": CANDIDATES_FORMAT,
    "rank/ranking.bin": RANKING_FORMAT,
    "features/features.bin": FEATURES_FORMAT,
    "features/training.bin": TRAINING_FORMAT,
    "index/<slug>.message.bin": lexical.INDEX_FORMAT,
    "index/<slug>.file.bin": lexical.INDEX_FORMAT,
    "vectors/<slug>.bin": STORE_FORMAT,
    "corpus/<slug>.bin": CORPUS_FORMAT,
}


def first_feature(value):
    """An edit of an array artifact's sections that sets its first feature."""

    def edit(sections):
        sections["features"][0, 0] = value

    return edit


def setting(section, index, value):
    """An edit of an array artifact's sections that sets ``section[index]``
    to ``value(sections)``."""

    def edit(sections):
        sections[section][index] = value(sections)

    return edit


class NotUtf8(str):
    """A string that ``Format.save`` writes as bytes that are not UTF-8."""

    def encode(self, *args):
        return b"\xff"


# The edits of a corpus file, each against one of the loader's checks.
CORPUS_CASES = {
    "corpus section ends past the sections": setting(
        "section_ends", -1, lambda s: len(s["headers"]) + 1
    ),
    "corpus commit id not hex": setting("commit_ids", 0, lambda s: "g" * 40),
    "corpus author time negative": setting("author_times", 0, lambda s: -1),
    "corpus commits out of order": setting("author_times", 0, lambda s: s["author_times"][-1] + 1),
    "corpus commit id repeated": setting("commit_ids", 1, lambda s: s["commit_ids"][0]),
    "corpus message not UTF-8": setting("messages", 0, lambda s: NotUtf8()),
    "corpus of another repository": setting("repo_id", 0, lambda s: "other/repo"),
}

# JSONL rows the reader rejects, so the error names the file and line 1.
ROW_CASES = {
    "extra CVE key": ("corpus/cves.jsonl", lambda r: r.update(extra=1), "prerank"),
    "string known_patch_ids": (
        "corpus/cves.jsonl",
        lambda r: r.update(known_patch_ids="abc"),
        "prerank",
    ),
}

# Structurally bad records, each written with its digest forged into its
# stage's manifest: (artifact, edit of the model object or of the first
# JSONL record, stage that reads it).
EDITED_CASES = {
    "child index out of range": (MODEL, lambda m: first_split(m).update(left=999), "rank"),
    "empty node list": (MODEL, lambda m: m["trees"][0].update(nodes=[]), "rank"),
    "string threshold": (MODEL, lambda m: first_split(m).update(threshold="0.5"), "rank"),
    "string learning_rate": (MODEL, lambda m: m.update(learning_rate="0.1"), "rank"),
    "list metadata": (MODEL, lambda m: m.update(metadata=[]), "rank"),
    # The commit ids ascend, so the last one is the largest.
    "unknown candidate commit": (
        "prerank/candidates.bin",
        setting("commit_ids", -1, lambda s: "f" * 40),
        "featurize",
    ),
    "8 training features": (
        "features/training.bin",
        lambda s: s.update(features=s["features"][:, :8]),
        "train",
    ),
    "inf feature": ("features/features.bin", first_feature(math.inf), "rank"),
    "NaN feature": ("features/features.bin", first_feature(math.nan), "rank"),
    "NaN training feature": ("features/training.bin", first_feature(math.nan), "train"),
    "one feature row fewer": (
        "features/features.bin",
        lambda s: s.update(features=s["features"][:-1]),
        "rank",
    ),
    # The second list is the first CVE's too, so its rows are in two places.
    "candidate lines not together": (
        "prerank/candidates.bin",
        setting("cve_ids", 1, lambda s: s["cve_ids"][0]),
        "featurize",
    ),
    "candidate offsets past the rows": (
        "prerank/candidates.bin",
        setting("offsets", -1, lambda s: s["offsets"][-1] + 1),
        "featurize",
    ),
    "ranked CVEs not ascending": (
        "rank/ranking.bin",
        lambda s: s["cve_ids"].reverse(),
        "eval",
    ),
    "candidate commit ids not ascending": (
        "prerank/candidates.bin",
        lambda s: s["commit_ids"].reverse(),
        "eval",
    ),
    "candidate commit index out of range": (
        "prerank/candidates.bin",
        setting("commits", 0, lambda s: len(s["commit_ids"])),
        "featurize",
    ),
    "ranking row out of range": (
        "rank/ranking.bin",
        setting("rows", 0, lambda s: len(s["rows"])),
        "eval",
    ),
    "commit twice in one list": (
        "prerank/candidates.bin",
        setting("commits", 1, lambda s: s["commits"][0]),
        "featurize",
    ),
    # Each CVE's ranking places one row of the other CVE's list.
    "ranking not a permutation of its candidates": (
        "rank/ranking.bin",
        setting("rows", [0, -1], lambda s: s["rows"][[-1, 0]]),
        "eval",
    ),
    # Its CVE keys come in descending order.
    "store keys not ascending": ("vectors/<slug>.bin", lambda s: s["cves"].reverse(), "featurize"),
    # The last document, the largest commit id, becomes a commit of no corpus.
    "message index of other commits": (
        "index/<slug>.message.bin",
        setting("docs", -1, lambda s: "f" * 40),
        "prerank",
    ),
    # A message index stored under the field kind code of the diff index.
    "index of another kind": (
        "index/<slug>.message.bin",
        setting("field_kind", 0, lambda s: lexical.FIELD_KINDS.index("diff")),
        "prerank",
    ),
    # The last file document's commit, the largest, becomes a commit of no
    # corpus; its doc strings are (commit id, path) pairs.
    "file index of other commits": (
        "index/<slug>.file.bin",
        setting("docs", -2, lambda s: "f" * 40),
        "prerank",
    ),
    **{case: ("corpus/<slug>.bin", edit, "index") for case, edit in CORPUS_CASES.items()},
    **ROW_CASES,
}

# The reason each array-artifact case is rejected for.
LIST_REJECTIONS = {
    "store keys not ascending": "vector store keys do not ascend",
    "message index of other commits": "its documents are not the commits of",
    "index of another kind": "it holds a diff index, not a message index",
    "file index of other commits": f"a file document names commit {'f' * 40}, not in the corpus",
    "candidate lines not together": "group offsets or CVE ids are not ascending",
    "candidate offsets past the rows": "group offsets do not fit the 100 rows",
    "ranked CVEs not ascending": "group offsets or CVE ids are not ascending",
    "candidate commit ids not ascending": "commit ids are not ascending",
    "candidate commit index out of range": "commit index out of range",
    "ranking row out of range": "candidate row index out of range",
    "commit twice in one list": "appears twice in the list of CVE-",
    "ranking not a permutation of its candidates": "is not a permutation of its candidates",
    "corpus section ends past the sections": "section ends do not fit the",
    "corpus commit id not hex": "commit_id must be 40 lowercase hex chars: 'gggg",
    "corpus author time negative": "author_time must be >= 0, got -1",
    "corpus commits out of order": "commits do not ascend by (author_time, commit_id)",
    "corpus commit id repeated": "a commit id repeats",
    "corpus message not UTF-8": "'utf-8' codec can't decode byte 0xff",
    "corpus of another repository": "it holds repository 'other/repo', not 'synth/repo0'",
}


class TestCli:
    def write_min_config(self, tmp_path, synth_dir="input", **extra):
        # Two positives total, so min_data_in_leaf must stay <= 2 for the
        # learner to isolate them on this tiny corpus.
        synth = generate(seed=21, n_repos=1, commits_per_repo=50, cves_per_repo=2)
        commit_dump, cve_dump = synth.write(tmp_path / synth_dir)
        obj = {
            "commit_dump": str(commit_dump),
            "cve_dump": str(cve_dump),
            "output_dir": str(tmp_path / "out"),
            "offline": True,
            "ranker": {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 2},
        }
        obj.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return synth, path

    def test_config_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"commit_dump": "x", "bogus": 1}))
        assert main(["ingest", "--config", str(path)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--cve", "CVE-2021-0001"],
            ["ingest", "--config", "config.json", "--bogus"],
            ["ingest", "--config", "config.json", "--seed", "x"],
            ["trace", "--config", "config.json", "--cve", "CVE-2021-0001", "--top-k", "x"],
            ["index-all", "--config", "config.json"],
            [],
        ],
        ids=["no-config", "unknown-flag", "bad-seed", "bad-top-k", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        """Exit 2 is kept for missing, malformed or stale upstream artifacts."""
        assert main(argv) == 1
        assert "usage: patchrank" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["trace", "--help"]) == 0
        assert "--top-k" in capsys.readouterr().out

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_trace_top_k_below_1_exits_1(self, tmp_path, capsys, top_k):
        synth, config_path = self.write_min_config(tmp_path)
        cve_id = synth.cve_records[0]["cve_id"]
        assert main(["trace", "--config", str(config_path), "--cve", cve_id, "--top-k", top_k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --top-k must be >= 1, got {top_k}\n"

    def test_trace_top_k_limits_rows(self, tmp_path, capsys):
        synth, config_path = self.write_min_config(tmp_path)
        cve_id = synth.cve_records[0]["cve_id"]
        assert main(["trace", "--config", str(config_path), "--cve", cve_id, "--top-k", "1"]) == 0
        # A header line, a column line and one row.
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_seed_flag_out_of_range_exits_1(self, tmp_path, capsys, seed):
        _, config_path = self.write_min_config(tmp_path)
        assert main(["ingest", "--config", str(config_path), "--seed", str(seed)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config value seed: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_eval_without_ranking_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["eval", "--config", str(config_path)]) == 2
        assert "stage eval" in capsys.readouterr().err

    def test_stage_sequence_exits_0(self, tmp_path):
        _, config_path = self.write_min_config(tmp_path)
        for stage in ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval"):
            assert main([stage, "--config", str(config_path)]) == 0, stage

    def test_trace_prints_planted_patch_first(self, tmp_path, capsys):
        synth, config_path = self.write_min_config(tmp_path)
        cve_id = synth.cve_records[0]["cve_id"]
        patch_id = synth.cve_records[0]["known_patch_ids"][0]
        assert main(["trace", "--config", str(config_path), "--cve", cve_id]) == 0
        out = capsys.readouterr().out
        first_row = next(l for l in out.splitlines() if l.strip().startswith("1 "))
        assert patch_id in first_row
        assert "*" in first_row

    def test_trace_unknown_cve_exits_1(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        assert main(["trace", "--config", str(config_path), "--cve", "CVE-1999-0000"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_offline_flag_bypasses_dead_provider(self, tmp_path):
        # Config points at an unreachable endpoint; --offline must win.
        _, config_path = self.write_min_config(
            tmp_path, provider={"url": "http://127.0.0.1:9", "model": "m"}
        )
        assert main(["ingest", "--config", str(config_path)]) == 0
        assert main(["index", "--config", str(config_path)]) == 0
        assert main(["embed", "--config", str(config_path), "--offline"]) == 0

    def test_repo_filter_restricts_ingest(self, tmp_path):
        synth = generate(seed=31, n_repos=3, commits_per_repo=45, cves_per_repo=1)
        commit_dump, cve_dump = synth.write(tmp_path / "input")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "commit_dump": str(commit_dump),
                    "cve_dump": str(cve_dump),
                    "output_dir": str(tmp_path / "out"),
                    "offline": True,
                }
            )
        )
        assert main(["ingest", "--config", str(config_path), "--repo", "synth/repo1"]) == 0
        repos = json.loads((tmp_path / "out" / "corpus" / "repos.json").read_text())
        assert [r["repo_id"] for r in repos["repos"]] == ["synth/repo1"]

    def test_repo_filter_rank_after_unfiltered_prerank(self, tmp_path):
        synth = generate(seed=21, n_repos=2, commits_per_repo=50, cves_per_repo=2)
        commit_dump, cve_dump = synth.write(tmp_path / "input")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "commit_dump": str(commit_dump),
                    "cve_dump": str(cve_dump),
                    "output_dir": str(tmp_path / "out"),
                    "offline": True,
                    "ranker": {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 2},
                }
            )
        )
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank", "featurize", "train"))
        assert main(["rank", "--config", str(config_path), "--repo", "synth/repo1"]) == 0
        ranking = tmp_path / "out" / "rank" / "ranking.jsonl"
        ranked_cves = {json.loads(line)["cve_id"] for line in ranking.read_text().splitlines()}
        assert ranked_cves == {r["cve_id"] for r in synth.cve_records if r["repo_id"] == "synth/repo1"}

    def test_featurize_under_repo_after_unfiltered_prerank_exits_2(self, tmp_path, capsys):
        """features.bin has a row per candidate, so featurize refuses the
        candidates of a repository --repo leaves out."""
        synth = generate(seed=21, n_repos=2, commits_per_repo=50, cves_per_repo=2)
        commit_dump, cve_dump = synth.write(tmp_path / "input")
        config_path = tmp_path / "config.json"
        config = {"commit_dump": str(commit_dump), "cve_dump": str(cve_dump), "offline": True}
        config_path.write_text(json.dumps(config | {"output_dir": str(tmp_path / "out")}))
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank"))
        capsys.readouterr()
        assert main(["featurize", "--config", str(config_path), "--repo", "synth/repo1"]) == 2
        err = self.assert_one_line_error(capsys, tmp_path / "out" / "prerank" / "candidates.bin")
        assert err.endswith("; rerun prerank with the same --repo\n"), err

    def run_stages(self, config_path, stages):
        for stage in stages:
            assert main([stage, "--config", str(config_path)]) == 0, stage

    def assert_one_line_error(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err
        return err

    def test_model_of_another_seed_is_stale(self, tmp_path, capsys):
        """featurize and train both record the seed, so rank refuses a model
        trained under another seed even when featurize, rerun with the new
        seed, rewrites the same training rows."""
        ranker = {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 2}
        _, config_path = self.write_min_config(
            tmp_path, seed=1, ranker=ranker | {"random_negatives": 0}
        )
        self.run_stages(config_path, STAGES)
        training = tmp_path / "out" / "features" / "training.bin"
        model = tmp_path / "out" / "model" / "model.json"
        rows = training.read_bytes()

        def run(stage):
            return main([stage, "--config", str(config_path), "--seed", "2"])

        assert run("train") == 2
        assert run("featurize") == 0
        assert training.read_bytes() == rows
        capsys.readouterr()
        assert run("rank") == 2
        assert capsys.readouterr().err == (
            f"error: stage rank: stale artifact {model}: train ran with other seed; rerun train\n"
        )
        assert run("train") == 0
        assert run("rank") == 0
        assert json.loads(model.read_text())["metadata"]["seed"] == 2

    def test_truncated_model_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank", "featurize", "train"))
        model = tmp_path / "out" / "model" / "model.json"
        model.write_bytes(model.read_bytes()[:100])
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path)]) == 2
        self.assert_one_line_error(capsys, model)

    @pytest.mark.parametrize(
        "artifact, content, stage, forged",
        MALFORMED_CASES,
        ids=[
            f"{a}-{c.decode() if c else c}-{s}" + ("-forged" if f else "")
            for a, c, s, f in MALFORMED_CASES
        ],
    )
    def test_malformed_upstream_artifact_exits_2(
        self, tmp_path, capsys, artifact, content, stage, forged
    ):
        """An edited file is stale. With its digest forged into its stage's
        manifest it is fresh, and its loader's error is reported instead."""
        synth, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, STAGES[: STAGES.index(stage)])
        slug = repo_slug(synth.cve_records[0]["repo_id"])
        key = artifact.replace("<slug>", slug)
        path = tmp_path / "out" / key
        # None: cut the file to 150 bytes, inside its first JSON line.
        path.write_bytes(path.read_bytes()[:150] if content is None else content)
        if forged:
            forge_manifest(tmp_path / "out", key)
        capsys.readouterr()
        assert main([stage, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err
        assert ("malformed artifact" if forged else "stale artifact") in err, err

    @pytest.mark.parametrize("case", EDITED_CASES)
    def test_structurally_bad_artifact_exits_2(self, tmp_path, capsys, caplog, case):
        """A fresh but structurally bad artifact ends in one error line naming
        it; trace, finding the model bad, trains one in memory instead."""
        artifact, edit, stage = EDITED_CASES[case]
        synth, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, STAGES[: STAGES.index(stage)])
        fmt = ARRAY_FORMATS.get(artifact)
        artifact = artifact.replace("<slug>", repo_slug(synth.cve_records[0]["repo_id"]))
        path = tmp_path / "out" / artifact
        if fmt is not None:
            sections = {
                name: value.copy() if isinstance(value, np.ndarray) else value
                for name, value in fmt.load(path).items()
            }
            edit(sections)
            fmt.save(path, **sections)
        else:
            first, *rest = path.read_text().splitlines(keepends=True)
            record = json.loads(first)
            edit(record)
            path.write_text("".join([json.dumps(record) + "\n", *rest]))
        forge_manifest(tmp_path / "out", artifact)
        capsys.readouterr()
        assert main([stage, "--config", str(config_path)]) == 2
        err = self.assert_one_line_error(capsys, path)
        if case in ROW_CASES:
            assert f"{path} line 1: " in err, err
        assert LIST_REJECTIONS.get(case, "") in err, err
        if artifact == MODEL:
            cve_id = synth.cve_records[0]["cve_id"]
            caplog.clear()
            assert main(["trace", "--config", str(config_path), "--cve", cve_id]) == 0
            assert "(model: trained in memory)" in capsys.readouterr().out
            (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
            assert f"malformed artifact {path}" in warning, warning
            assert warning.endswith("training the model in memory"), warning

    @pytest.mark.parametrize("dump", ["commit_dump", "cve_dump"])
    def test_malformed_input_dump_exits_1(self, tmp_path, capsys, dump):
        _, config_path = self.write_min_config(tmp_path)
        path = Path(json.loads(config_path.read_text())[dump])
        path.write_bytes(path.read_bytes()[:150])
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_wrong_typed_dump_value_exits_1(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        path = Path(json.loads(config_path.read_text())["commit_dump"])
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([json.dumps(json.loads(first) | {"message": 5}) + "\n", *rest]))
        assert main(["ingest", "--config", str(config_path)]) == 1
        err = self.assert_one_line_error(capsys, path)
        assert f"{path} line 1: message: expected str, got 5" in err, err

    def test_training_and_provider_errors_exit_1(self, tmp_path, capsys):
        """The CLI maps the errors of modules it imports only in some stages:
        a ranker TrainingDataError and an embedding ProviderError exit 1."""
        ranker = {"num_leaves": 7, "min_data_in_leaf": 2, "hard_negatives": 0}
        _, config_path = self.write_min_config(tmp_path, ranker=ranker | {"random_negatives": 0})
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank", "featurize"))
        capsys.readouterr()
        assert main(["train", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == "error: every group is degenerate (uniform relevance)\n"
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # Nothing listens on the port once the socket is closed.
        provider = {"url": f"http://127.0.0.1:{port}", "max_retries": 1}
        _, config_path = self.write_min_config(tmp_path, offline=False, provider=provider)
        assert main(["embed", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "transport error" in err, err

    def test_truncated_index_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index"))
        (index,) = (tmp_path / "out" / "index").glob("*.message.bin")
        index.write_bytes(index.read_bytes()[:100])
        capsys.readouterr()
        assert main(["prerank", "--config", str(config_path)]) == 2
        self.assert_one_line_error(capsys, index)

    def test_missing_feature_row_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank", "featurize", "train"))
        features = tmp_path / "out" / "features" / "features.bin"
        FEATURES_FORMAT.save(features, features=FEATURES_FORMAT.load(features)["features"][1:])
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path)]) == 2
        self.assert_one_line_error(capsys, features)

    def test_missing_vector_exits_2(self, tmp_path, capsys, monkeypatch):
        _, config_path = self.write_min_config(tmp_path)
        # A vector store embedded without the CVEs lacks their query vectors.
        build_vectors = embedding.build_vectors
        monkeypatch.setattr(
            embedding,
            "build_vectors",
            lambda corpus, cves, *args, **kwargs: build_vectors(corpus, [], *args, **kwargs),
        )
        self.run_stages(config_path, ("ingest", "index", "embed"))
        monkeypatch.undo()
        self.run_stages(config_path, ("prerank",))
        capsys.readouterr()
        assert main(["featurize", "--config", str(config_path)]) == 2
        (vectors,) = (tmp_path / "out" / "vectors").glob("*.bin")
        self.assert_one_line_error(capsys, vectors)

    def test_missing_top_file_vector_exits_2(self, tmp_path, capsys):
        """A store without the file vectors of a known patch, whose training
        row featurize computes, fails naming the store."""
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank"))
        root = tmp_path / "out"
        (cve, *_) = load_cve_dump(root / "corpus" / "cves.jsonl")
        (patch, *_) = sorted(cve.known_patch_ids)
        (vectors,) = (root / "vectors").glob("*.bin")
        store = VectorStore.load(vectors)
        keys = [key for key in store.keys() if key[:2] != ("file", patch)]
        assert len(keys) < len(store)
        rows = store.matrix[[store.rows[key] for key in keys]]
        VectorStore(store.dimension, keys, rows).save(vectors)
        forge_manifest(root, f"vectors/{vectors.name}")
        capsys.readouterr()
        assert main(["featurize", "--config", str(config_path)]) == 2
        err = self.assert_one_line_error(capsys, vectors)
        assert f"no vector stored for key ('file', '{patch}'" in err, err

    def test_trace_builds_store_without_file_vectors(self, tmp_path, capsys, caplog):
        """A store that its manifests call fresh but that lacks every file
        vector is malformed: trace warns once, naming it, and builds the
        repository in memory."""
        synth, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, STAGES)
        trace = ["trace", "--config", str(config_path), "--cve", synth.cve_records[0]["cve_id"]]
        capsys.readouterr()
        assert main(trace) == 0
        intact = capsys.readouterr().out
        root = tmp_path / "out"
        (vectors,) = (root / "vectors").glob("*.bin")
        store = VectorStore.load(vectors)
        keys = [key for key in store.keys() if key[0] != "file"]
        VectorStore(store.dimension, keys, store.matrix[[store.rows[k] for k in keys]]).save(vectors)
        forge_manifests(root, f"vectors/{vectors.name}")
        caplog.clear()
        assert main(trace) == 0
        (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert f"malformed artifact {vectors}: no vector stored for key ('file', " in warning
        assert capsys.readouterr().out == intact

    def test_version_2_vector_store_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank"))
        root = tmp_path / "out"
        (vectors,) = (root / "vectors").glob("*.bin")
        save_version_2(VectorStore.load(vectors), vectors)
        forge_manifest(root, f"vectors/{vectors.name}")
        capsys.readouterr()
        assert main(["featurize", "--config", str(config_path)]) == 2
        err = self.assert_one_line_error(capsys, vectors)
        assert "unsupported vector store version 2" in err, err

    @pytest.mark.parametrize("cut", ["100 bytes short", "half", "first 10 bytes"])
    def test_truncated_vector_store_exits_2(self, tmp_path, capsys, cut):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank"))
        (vectors,) = (tmp_path / "out" / "vectors").glob("*.bin")
        data = vectors.read_bytes()
        keep = {"100 bytes short": len(data) - 100, "half": len(data) // 2, "first 10 bytes": 10}
        vectors.write_bytes(data[: keep[cut]])
        capsys.readouterr()
        assert main(["featurize", "--config", str(config_path)]) == 2
        self.assert_one_line_error(capsys, vectors)

    def test_non_object_model_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index", "embed", "prerank", "featurize", "train"))
        model = tmp_path / "out" / "model" / "model.json"
        model.write_text("[]")
        capsys.readouterr()
        assert main(["rank", "--config", str(config_path)]) == 2
        self.assert_one_line_error(capsys, model)

    def test_non_object_index_exits_2(self, tmp_path, capsys):
        _, config_path = self.write_min_config(tmp_path)
        self.run_stages(config_path, ("ingest", "index"))
        (index,) = (tmp_path / "out" / "index").glob("*.message.bin")
        index.write_text("[]")
        capsys.readouterr()
        assert main(["prerank", "--config", str(config_path)]) == 2
        self.assert_one_line_error(capsys, index)

    def test_trace_preranks_each_cve_once(self, tmp_path, capsys, monkeypatch):
        """Training in memory pre-ranks every labelled CVE, the target among
        them; the target's list is computed once and reused for its ranking."""
        synth, config_path = self.write_min_config(tmp_path)
        cve_ids = sorted(r["cve_id"] for r in synth.cve_records)
        assert len(cve_ids) == 2
        trace = ["trace", "--config", str(config_path), "--cve", cve_ids[0]]
        assert main(trace) == 0
        printed = capsys.readouterr().out
        calls = []
        components = prerank.prerank_components

        def counting(corpus, cve, *args):
            calls.append(cve.cve_id)
            return components(corpus, cve, *args)

        monkeypatch.setattr(prerank, "prerank_components", counting)
        assert main(trace) == 0
        assert sorted(calls) == cve_ids
        assert capsys.readouterr().out == printed
        assert not (tmp_path / "out").exists()

    def test_trace_reuses_repo_filtered_artifacts(self, tmp_path, capsys, monkeypatch):
        synth = generate(seed=21, n_repos=2, commits_per_repo=50, cves_per_repo=2)
        commit_dump, cve_dump = synth.write(tmp_path / "input")
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "commit_dump": str(commit_dump),
                    "cve_dump": str(cve_dump),
                    "output_dir": str(tmp_path / "out"),
                    "offline": True,
                    "ranker": {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 2},
                }
            )
        )
        cve_id = next(r["cve_id"] for r in synth.cve_records if r["repo_id"] == "synth/repo1")
        trace = ["trace", "--config", str(config_path), "--repo", "synth/repo1", "--cve", cve_id]
        assert main(trace) == 0
        built = capsys.readouterr().out
        for stage in ("ingest", "index", "embed"):
            assert main([stage, "--config", str(config_path), "--repo", "synth/repo1"]) == 0
        forbid_builds(monkeypatch)
        assert main(trace) == 0
        assert capsys.readouterr().out == built


class TestTrace:
    def test_trace_uses_existing_model_artifact(self, small_setup):
        synth, _, config = small_setup
        result = run_trace(config, synth.cve_records[0]["cve_id"])
        assert result.model_source.endswith("model.json")
        assert len(result.final_entries) == len(result.prerank_entries)

    def test_trace_equals_batch(self, small_setup, tmp_path):
        """For every CVE, trace pre-ranks and ranks as the batch stages did,
        from fresh artifacts and from the dumps alone."""
        synth, _, config = small_setup
        art = Artifacts(config.output_dir)
        batch = {}
        for path, score in ((art.candidates_file, "fused_score"), (art.ranking_file, "score")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                rows = batch.setdefault((path, record["cve_id"]), [])
                rows.append((record["commit_id"], record[score]))
        for output_dir in (config.output_dir, tmp_path / "empty"):
            for cve_id in synth.patches_by_cve:
                result = run_trace(replace(config, output_dir=output_dir), cve_id)
                assert result.prerank_entries == batch[art.candidates_file, cve_id]
                assert result.final_entries == batch[art.ranking_file, cve_id]
                expected = "trained in memory" if output_dir != art.root else str(art.model_file)
                assert result.model_source == expected

    def test_trace_without_labels_falls_back_to_prerank(self, tmp_path, caplog):
        synth = generate(seed=41, n_repos=1, commits_per_repo=45, cves_per_repo=1)
        commit_dump, cve_dump = synth.write(tmp_path / "input")
        # Strip the labels so no model can be trained.
        lines = [json.loads(l) for l in cve_dump.read_text().splitlines()]
        for record in lines:
            record["known_patch_ids"] = []
        cve_dump.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
        config = PipelineConfig(
            commit_dump=commit_dump,
            cve_dump=cve_dump,
            output_dir=tmp_path / "out",
            offline=True,
        )
        result = run_trace(config, lines[0]["cve_id"])
        assert result.model_source == "none"
        assert result.final_entries == result.prerank_entries


def forbid_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built in memory despite fresh artifacts")

    monkeypatch.setattr(lexical, "build_index", refuse)
    monkeypatch.setattr(embedding, "build_vectors", refuse)


def tree_digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def entries(result):
    return result.prerank_entries, result.final_entries


class TestTraceReuse:
    """``run_trace`` loads fresh index and vector artifacts, rebuilds stale ones."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"index": 0, "vectors": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(lexical, "build_index", counted("index", lexical.build_index))
        monkeypatch.setattr(
            embedding, "build_vectors", counted("vectors", embedding.build_vectors)
        )
        return counts

    def test_fresh_artifacts_reused(self, small_setup, staged, tmp_path, monkeypatch, caplog):
        synth = small_setup[0]
        cve_ids = [r["cve_id"] for r in synth.cve_records]
        empty = [run_trace(replace(staged, output_dir=tmp_path / "empty"), c) for c in cve_ids]
        forbid_builds(monkeypatch)
        caplog.clear()
        reused = [run_trace(staged, c) for c in cve_ids]
        assert [entries(r) for r in reused] == [entries(r) for r in empty]
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_trace_writes_nothing(self, small_setup, staged):
        before = tree_digests(staged.output_dir)
        run_trace(staged, small_setup[0].cve_records[0]["cve_id"])
        assert tree_digests(staged.output_dir) == before

    @pytest.mark.parametrize(
        "change, warning, count, built",
        [
            # A changed dump or setting makes the model stale too, so trace
            # trains it in memory, which builds every repository. A changed
            # dump or ingest manifest also makes trace parse the dumps.
            ("commit dump edited", "changed since ingest ran; rerun ingest", 4, 2),
            ("bm25 k1 changed", "index ran with other k1; rerun index", 3, 2),
            ("index file rewritten", ".file.bin differs from", 1, 1),
            ("vector store truncated", ".bin differs from", 1, 1),
            ("version-2 vector store", "unsupported vector store version 2", 1, 1),
            ("version-1 manifests", "malformed or of another version", 4, 2),
        ],
        # Each id names the change and what it makes stale.
        ids=[
            "commit dump edited-dumps changed",
            "bm25 k1 changed-bm25 settings",
            "index file rewritten-.file.bin is missing or differs",
            "vector store truncated-.bin is missing or differs",
            "version-2 vector store-malformed",
            "version-1 manifests-has manifest version 1",
        ],
    )
    def test_stale_artifacts_rebuilt(
        self, small_setup, staged, builds, tmp_path, caplog, change, warning, count, built
    ):
        """Each stale artifact gets one warning; the trace equals one built
        from the dumps alone."""
        record = small_setup[0].cve_records[0]
        art = Artifacts(staged.output_dir)
        slug = repo_slug(record["repo_id"])
        config = staged
        if change == "commit dump edited":
            edit_commit_dump(staged.commit_dump)
        elif change == "bm25 k1 changed":
            config = replace(staged, bm25_k1=1.5)
        elif change == "index file rewritten":
            corpus = load_corpus(art.corpus_file(slug), record["repo_id"])
            rewritten = lexical.build_index(corpus, "file", k1=2.0)
            lexical.save_index(rewritten, art.index_file(slug, "file"))
        elif change == "vector store truncated":
            vectors = art.vectors_file(slug)
            vectors.write_bytes(vectors.read_bytes()[:-100])
        elif change == "version-2 vector store":
            # As an older release left it, every manifest listing the file it wrote.
            vectors = art.vectors_file(slug)
            save_version_2(VectorStore.load(vectors), vectors)
            forge_manifests(staged.output_dir, art.key(vectors))
        else:
            # Manifest version 1 keyed artifacts by name: "cves", "repos", and
            # paths without their file extension.
            names = {"corpus/cves.jsonl": "cves", "corpus/repos.json": "repos"}
            for path in (staged.output_dir / "manifests").glob("*.manifest.json"):
                manifest = json.loads(path.read_text())
                for side in ("inputs", "outputs"):
                    manifest[side] = {
                        names.get(key, str(PurePosixPath(key).with_suffix(""))): digest
                        for key, digest in manifest[side].items()
                    }
                manifest["version"] = 1
                path.write_text(json.dumps(manifest))
        builds.update(index=0, vectors=0)
        caplog.clear()
        result = run_trace(config, record["cve_id"])
        assert builds == {"index": 2 * built, "vectors": built}
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == count and all(warning in w for w in warnings), warnings
        retrained = count > built
        assert result.model_source == ("trained in memory" if retrained else str(art.model_file))
        from_dumps = run_trace(replace(config, output_dir=tmp_path / "from-dumps"), record["cve_id"])
        assert entries(result) == entries(from_dumps)


@pytest.fixture(scope="module")
def three_repos(tmp_path_factory):
    """A 3-repo synthetic corpus with all stages run once through the CLI."""
    tmp = tmp_path_factory.mktemp("three-repos")
    synth = generate(seed=13, n_repos=3, commits_per_repo=50, cves_per_repo=2)
    commit_dump, cve_dump = synth.write(tmp / "input")
    config_path = write_trace_config(tmp, commit_dump, cve_dump, tmp / "out")
    for stage in STAGES:
        assert main([stage, "--config", str(config_path)]) == 0, stage
    return synth, config_path


def write_trace_config(tmp: Path, commit_dump: Path, cve_dump: Path, output_dir: Path) -> Path:
    path = tmp / "config.json"
    obj = {"commit_dump": str(commit_dump), "cve_dump": str(cve_dump), "offline": True}
    obj["ranker"] = {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 2}
    path.write_text(json.dumps(obj | {"output_dir": str(output_dir)}))
    return path


def trace_rows(out: str) -> list[str]:
    """The printed trace without its first line, which names the model."""
    return out.splitlines()[1:]


class TestTraceCorpusFiles:
    """``trace`` reads the fresh corpus files it needs, and parses the dumps
    only when one is missing, malformed or stale."""

    def trace(self, config_path, cve_id, capsys, *extra) -> str:
        capsys.readouterr()
        assert main(["trace", "--config", str(config_path), "--cve", cve_id, *extra]) == 0
        return capsys.readouterr().out

    def test_fresh_model_reads_only_the_target_corpus(self, three_repos, monkeypatch, capsys, caplog):
        synth, config_path = three_repos
        record = synth.cve_records[-1]
        calls = {"dumps": 0, "corpora": []}
        ingest, load = pipeline_mod.corpus_mod.ingest_multi_repo_dump, load_corpus

        def counted_ingest(path):
            calls["dumps"] += 1
            return ingest(path)

        def counted_load(path, repo_id):
            calls["corpora"].append(Path(path).name)
            return load(path, repo_id)

        monkeypatch.setattr(pipeline_mod.corpus_mod, "ingest_multi_repo_dump", counted_ingest)
        monkeypatch.setattr(pipeline_mod.corpus_mod, "load_corpus", counted_load)
        caplog.clear()
        out = self.trace(config_path, record["cve_id"], capsys)
        assert out.startswith(f"{record['cve_id']} in {record['repo_id']} (model: ")
        assert "model.json)" in out.splitlines()[0]
        assert calls == {"dumps": 0, "corpora": [f"{repo_slug(record['repo_id'])}.bin"]}
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_edited_dump_warns_once_and_ranks_as_fresh_artifacts(
        self, three_repos, tmp_path, capsys, caplog
    ):
        synth, config_path = three_repos
        source = json.loads(config_path.read_text())
        shutil.copytree(Path(source["commit_dump"]).parent, tmp_path / "input")
        shutil.copytree(source["output_dir"], tmp_path / "out")
        commit_dump = tmp_path / "input" / Path(source["commit_dump"]).name
        cve_dump = tmp_path / "input" / Path(source["cve_dump"]).name
        config = write_trace_config(tmp_path, commit_dump, cve_dump, tmp_path / "out")
        edit_commit_dump(commit_dump)
        cve_id = synth.cve_records[0]["cve_id"]
        caplog.clear()
        stale = self.trace(config, cve_id, capsys)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        (warning,) = [w for w in warnings if str(tmp_path / "out" / "corpus") in w]
        assert warning.startswith("trace: stale artifact ") and "rerun ingest" in warning, warning
        assert warning.endswith("; parsing the dumps"), warning
        for stage in STAGES:
            assert main([stage, "--config", str(config)]) == 0, stage
        caplog.clear()
        assert trace_rows(stale) == trace_rows(self.trace(config, cve_id, capsys))
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_trace_prints_the_same_from_fresh_artifacts_and_from_the_dumps(
        self, three_repos, tmp_path, capsys
    ):
        synth, config_path = three_repos
        source = json.loads(config_path.read_text())
        empty = write_trace_config(
            tmp_path, Path(source["commit_dump"]), Path(source["cve_dump"]), tmp_path / "empty"
        )
        for record in synth.cve_records:
            fresh = self.trace(config_path, record["cve_id"], capsys, "--top-k", "1000")
            from_dumps = self.trace(empty, record["cve_id"], capsys, "--top-k", "1000")
            assert "(model: trained in memory)" in from_dumps.splitlines()[0]
            assert len(trace_rows(fresh)) > 2 and trace_rows(fresh) == trace_rows(from_dumps)
        assert not (tmp_path / "empty").exists()


# The patchrank modules a CLI child of each stage and of trace imports: the
# package, the CLI's own modules, and the layers that the stage runs.
CLI_MODULES = {
    "patchrank",
    "patchrank.container",
    "patchrank.corpus",
    "patchrank.pipeline",
    "patchrank.settings",
}
STAGE_MODULES = {
    "ingest": set(),
    "index": {"lexical"},
    "embed": {"embedding"},
    "prerank": {"lexical", "prerank"},
    "featurize": {"embedding", "hier_features", "lexical", "path_features", "ranker"},
    "train": {"ranker"},
    "rank": {"ranker"},
    "eval": {"evalkit"},
    "trace": {"embedding", "hier_features", "lexical", "path_features", "prerank", "ranker"},
}


def imported_modules(stderr: str) -> set[str]:
    """The modules a ``python -X importtime`` child names on its stderr."""
    lines = [line.split("|") for line in stderr.splitlines() if line.startswith("import time:")]
    return {fields[2].strip() for fields in lines[1:]}  # the first line is the header


@pytest.fixture(scope="module")
def stage_imports(tmp_path_factory):
    """Each stage's and trace's imported modules, each run as the benchmark
    runs it, ``python -m patchrank.cli``, in order, on a small corpus, with a
    config that sets the keys that every benchmark config sets."""
    tmp = tmp_path_factory.mktemp("imports")
    synth = generate(seed=21, n_repos=1, commits_per_repo=50, cves_per_repo=2)
    commit_dump, cve_dump = synth.write(tmp / "input")
    config = {
        "commit_dump": str(commit_dump),
        "cve_dump": str(cve_dump),
        "output_dir": str(tmp / "out"),
        "seed": 11,
        "provider": {"offline_dimension": 64},
        "fusion": {"candidate_k": 30},
        "ranker": {"num_leaves": 7, "min_data_in_leaf": 2},
    }
    (tmp / "config.json").write_text(json.dumps(config))
    src = Path(pipeline_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    cve_id = synth.cve_records[0]["cve_id"]
    argv = {stage: [stage] for stage in STAGES} | {"trace": ["trace", "--cve", cve_id]}
    modules = {}
    for name, args in argv.items():
        cli = [sys.executable, "-X", "importtime", "-m", "patchrank.cli", *args]
        child = subprocess.run(
            [*cli, "--config", str(tmp / "config.json")], env=env, capture_output=True, text=True
        )
        assert child.returncode == 0, child.stderr
        modules[name] = imported_modules(child.stderr)
    return modules


@pytest.mark.parametrize("name", list(STAGE_MODULES))
def test_cli_child_imports_only_its_stage_modules(stage_imports, name):
    """A stage child compiles and loads the CLI's modules and its own layers'
    only; trace loads every layer but evalkit. None imports requests."""
    modules = stage_imports[name]
    loaded = {module for module in modules if module.split(".")[0] == "patchrank"}
    assert loaded == CLI_MODULES | {f"patchrank.{leaf}" for leaf in STAGE_MODULES[name]}
    assert "requests" not in modules


def test_cli_runs_one_blas_thread_unless_told_otherwise():
    """``import patchrank.cli`` sets OPENBLAS_NUM_THREADS to 1 before numpy
    starts its pool, so the process runs one OS thread; a value set before is
    kept, and a library import leaves the environment as it is."""
    src = Path(pipeline_mod.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(src)

    def probe(module: str, **extra: str) -> list[str]:
        code = (
            f"import os, {module}; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))"
        )
        argv = [sys.executable, "-c", code]
        child = subprocess.run(argv, env=env | extra, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        return child.stdout.split()

    assert probe("patchrank.cli") == ["1", "1"]
    assert probe("patchrank.cli", OPENBLAS_NUM_THREADS="2")[0] == "2"
    assert probe("patchrank.pipeline")[0] == "None"


def test_trace_into_a_closed_pipe_exits_0_quietly(tmp_path):
    """``trace --top-k 1000 | head -1``: the reader closes the pipe after one
    line while trace is still writing rows, with stdout buffered or not; or
    before trace writes, so that the rows still sit in stdout's buffer. trace
    exits 0 and writes nothing to stderr, where it ended in a BrokenPipeError
    traceback (exit 1) or, from the flush at exit, an ignored one (exit 120)."""
    synth = generate(seed=21, n_repos=1, commits_per_repo=300, cves_per_repo=2)
    commit_dump, cve_dump = synth.write(tmp_path / "input")
    config = {
        "commit_dump": str(commit_dump),
        "cve_dump": str(cve_dump),
        "output_dir": str(tmp_path / "out"),
        "offline": True,
        "provider": {"offline_dimension": 64},
        "ranker": {"learning_rate": 0.2, "num_leaves": 7, "min_data_in_leaf": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    for stage in STAGES:  # fresh artifacts, so trace logs no warning
        assert main([stage, "--config", str(config_path)]) == 0, stage
    src = Path(pipeline_mod.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    cve_id = synth.cve_records[0]["cve_id"]
    trace = ["-m", "patchrank.cli", "trace", "--config", str(config_path), "--cve", cve_id]
    for flags, top_k, lines in (([], 1000, 1), (["-u"], 1000, 1), ([], 1, 0)):
        read_fd, write_fd = os.pipe()
        # One page: ~300 rows (~22 kB) overflow it, so the child is still
        # writing when the pipe closes after one line.
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        argv = [sys.executable, *flags, *trace, "--top-k", str(top_k)]
        with subprocess.Popen(argv, env=env, stdout=write_fd, stderr=subprocess.PIPE) as child:
            os.close(write_fd)
            with open(read_fd, "rb") as out:
                head = [out.readline() for _ in range(lines)]
            _, stderr = child.communicate(timeout=120)
        assert all(line.startswith(cve_id.encode()) for line in head)
        assert (child.returncode, stderr) == (0, b""), (flags, top_k)
