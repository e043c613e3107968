"""Batch pipeline stages and ``trace``.

The per-CVE work is written once and shared by the stages and ``trace``:
``_embed`` builds a repository's vector store, ``_prerank`` fuses a CVE's
candidate list, and ``_featurize`` computes its feature rows and samples its
training group, by corpus position. The groups make one ``TrainingSet``,
which ``featurize`` writes as ``training.bin`` and ``trace`` trains on in
memory. The stages read their inputs from, and write their results to,
artifacts (see ``artifacts``); ``run_trace`` runs the same functions for one
CVE in memory.

Each function imports the layers it calls where it calls them, so that a
CLI child loads, and compiles, only the modules of its own stage.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import corpus as corpus_mod
from . import settings

# Artifacts and load_config are imported from here by the code that runs the stages.
from .artifacts import (
    FEATURES_FORMAT,
    TRAINING_FORMAT,
    Artifacts,
    CandidateLists,
    Run,
    StageInputError,
    load_rankings,
    repo_slug,
    save_candidates,
    save_rankings,
    training_set,
    write_ranked_jsonl,
)
from .config import ConfigError, PipelineConfig, load_config
from .corpus import Corpus, CveRecord, write_jsonl

if TYPE_CHECKING:
    from .embedding import VectorStore
    from .hier_features import FeatureAssembler
    from .lexical import InvertedIndex
    from .prerank import FusionConfig

logger = logging.getLogger(__name__)

# The BM25 indexes that index writes; the diff index is summed from the file index.
STORED_KINDS = ("message", "file")


def stage_ingest(config: PipelineConfig) -> None:
    """Normalize the raw dumps into per-repo corpora plus the CVE file."""
    run = Run(config, "ingest")
    corpora, cves = run.dumps()
    repo_entries = []
    for repo_id, corpus in sorted(corpora.items()):
        slug = repo_slug(repo_id)
        repo_entries.append({"repo_id": repo_id, "slug": slug, "commits": len(corpus)})
        run.write(run.corpus_file(slug), lambda tmp: corpus_mod.save_corpus(corpus, tmp))
    run.write_json(run.repos_file, {"repos": repo_entries})
    run.write(run.cves_file, lambda tmp: corpus_mod.serialize_cves(cves, tmp))
    run.finish()


def _embed(config: PipelineConfig, corpus: Corpus, cves: list[CveRecord], provider) -> VectorStore:
    """Embed one repo's commits, file diffs and the CVEs of ``cves`` in it."""
    from .embedding import build_vectors

    return build_vectors(
        corpus,
        [cve for cve in cves if cve.repo_id == corpus.repo_id],
        provider,
        commit_budget=config.commit_token_budget,
        file_budget=config.file_token_budget,
        batch_size=config.provider_batch_size,
    )


def stage_index(config: PipelineConfig) -> None:
    """Build message and per-file BM25 indexes for every repo; readers sum
    the diff index from the file index."""
    from .lexical import build_index, save_index

    run = Run(config, "index")
    for repo_id, corpus in sorted(run.corpora().items()):
        for kind in STORED_KINDS:
            index = build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)
            path = run.index_file(repo_slug(repo_id), kind)
            run.write(path, lambda tmp: save_index(index, tmp))
    run.finish()


def stage_embed(config: PipelineConfig) -> None:
    """Embed commits, file diffs, and CVE descriptions into per-repo stores."""
    run = Run(config, "embed")
    corpora = run.corpora()
    cves = run.cves()
    provider = config.provider()
    for repo_id, corpus in sorted(corpora.items()):
        run.write(run.vectors_file(repo_slug(repo_id)), _embed(config, corpus, cves, provider).save)
    run.finish()


def _repo_loader(
    run: Run,
    corpora: dict[str, Corpus],
    kinds: tuple[str, ...],
    provider=None,
    cves: Sequence[CveRecord] = (),
    build: bool = False,
) -> Callable[[str], tuple[dict[str, InvertedIndex], FeatureAssembler | None]]:
    """A cached function from a repo id to that repo's BM25 indexes of the
    stored ``kinds``, with the diff index summed from a file index, and, given
    a ``provider``, a feature assembler over them and its vector
    store, each read once through ``run``. A store that lacks a vector of a
    commit, a file or one of the repo's ``cves`` is malformed. With ``build``,
    a repo whose artifacts are missing, malformed or stale is logged and built
    in memory, its store embedding ``cves``."""
    from .lexical import build_index

    config = run.config

    def assemble(corpus: Corpus, indexes, store: VectorStore) -> FeatureAssembler:
        from .hier_features import FeatureAssembler

        for cve in cves:
            if cve.repo_id == corpus.repo_id:
                store.cve_vector(cve.cve_id)
        cap, batch_size = config.per_entity_cap, config.provider_batch_size
        diff, files = indexes["diff"], indexes["file"]
        return FeatureAssembler(
            corpus, store, diff, files, provider, per_entity_cap=cap, batch_size=batch_size
        )

    @functools.cache
    def load(repo_id: str):
        corpus, slug = corpora[repo_id], repo_slug(repo_id)
        try:
            indexes = {}
            for kind in kinds:
                indexes |= run.read(_load_index, run.index_file(slug, kind), corpus, kind)
            if provider is None:
                return indexes, None
            from .embedding import MissingVectorError, VectorStore

            path = run.vectors_file(slug)
            store = run.read(VectorStore.load, path)
            try:
                return indexes, assemble(corpus, indexes, store)
            except MissingVectorError as exc:
                detail = f"malformed artifact {path}: {exc.args[0]}"
                raise StageInputError(run.stage, detail) from exc
        except StageInputError as exc:
            if not build:
                raise
            logger.warning("trace: %s; building %s in memory", exc.detail, repo_id)
        indexes = {}
        for kind in kinds:
            index = build_index(corpus, kind, k1=config.bm25_k1, b=config.bm25_b)
            indexes |= _with_diff(index, corpus)
        return indexes, assemble(corpus, indexes, _embed(config, corpus, list(cves), provider))

    return load


def _load_index(path: Path | bytes, corpus: Corpus, kind: str) -> dict[str, InvertedIndex]:
    """The index of ``kind`` at ``path``, by :func:`_with_diff`. A message
    index must hold exactly the commits of ``corpus``, as pre-ranking reads
    it by :attr:`Corpus.id_order`; a file index, only commits of ``corpus``."""
    from .lexical import load_index

    index = load_index(path)
    if index.field_kind != kind:
        raise ValueError(f"it holds a {index.field_kind} index, not a {kind} index")
    if kind == "message" and not np.array_equal(index.doc_commits, corpus.sorted_ids):
        raise ValueError(f"its documents are not the commits of {corpus.repo_id}")
    return _with_diff(index, corpus)


def _with_diff(index: InvertedIndex, corpus: Corpus) -> dict[str, InvertedIndex]:
    """``index`` by its kind, and with a file index the diff index of
    ``corpus`` summed from it."""
    from .lexical import diff_index

    if index.field_kind != "file":
        return {index.field_kind: index}
    return {"file": index, "diff": diff_index(index, corpus.sorted_ids)}


def _prerank(
    corpus: Corpus, cve: CveRecord, indexes: dict[str, InvertedIndex], fusion: FusionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CVE's candidates, as corpus positions in fused order, their fused
    scores and their rows of the components they were fused from."""
    from .prerank import fuse_components, prerank_components

    components = prerank_components(corpus, cve, indexes["message"], indexes["diff"], fusion)
    positions, scores = fuse_components(corpus, components, fusion)
    return positions, scores, components[positions]


def stage_prerank(config: PipelineConfig) -> None:
    """Fuse BM25 and time affinity into per-CVE candidate lists."""
    run = Run(config, "prerank")
    corpora = run.corpora()
    cves = run.cves()
    fusion = config.fusion_config()
    repo = _repo_loader(run, corpora, STORED_KINDS)
    lists = {}
    component_rows = [np.empty((0, len(settings.COMPONENT_NAMES)))]

    def ranked():
        """Each CVE's list for candidates.jsonl, as it is fused; its commit
        ids and component rows are kept for candidates.bin."""
        for cve in sorted(cves, key=lambda c: c.cve_id):
            corpus = corpora.get(cve.repo_id)
            if corpus is None:
                logger.warning("skipping %s: repo %s not in corpus", cve.cve_id, cve.repo_id)
                continue
            positions, scores, rows = _prerank(corpus, cve, repo(cve.repo_id)[0], fusion)
            if not len(positions):  # as in candidates.jsonl, a CVE without lines has no list
                continue
            lists[cve.cve_id] = ids = corpus.commit_ids_at(positions)
            component_rows.append(rows)
            yield cve.cve_id, ids, scores.tolist()

    run.write(run.candidates_file, lambda tmp: write_ranked_jsonl(tmp, "fused_score", ranked()))
    matrix = np.concatenate(component_rows)
    run.write(run.candidates_bin, lambda tmp: save_candidates(tmp, lists, matrix))
    run.finish()


def _featurize(
    config: PipelineConfig,
    assembler: FeatureAssembler,
    cve: CveRecord,
    preranked: np.ndarray,
    positions: np.ndarray,
) -> tuple[np.ndarray, tuple | None]:
    """The feature rows of the commits at corpus ``positions``, in that order,
    and the CVE's training group, sampled from its pre-ranked corpus positions
    ``preranked``, as :meth:`TrainingSet.of_groups` takes a group (None without
    a known patch). Every distinct commit's row is computed once, in one batch."""
    from .training import sample_training_group

    corpus = assembler.corpus
    sampled = sample_training_group(
        cve,
        preranked,
        corpus,
        config.seed,
        hard_negatives=config.hard_negatives,
        random_negatives=config.random_negatives,
    )
    grouped = np.empty(0, np.intp) if sampled is None else sampled[0]
    wanted, slot = np.unique(np.concatenate([positions, grouped]), return_inverse=True)
    if len(wanted):
        rows = assembler.matrix(cve, wanted)[slot]
    else:
        rows = np.empty((0, settings.NUM_FEATURES))
    listed, grouped_rows = rows[: len(positions)], rows[len(positions) :]
    if sampled is None:
        return listed, None
    return listed, (cve.cve_id, corpus.commit_ids_at(grouped), sampled[1], grouped_rows)


def _corpus_positions(
    candidates: CandidateLists, cves: list[CveRecord], corpora: dict[str, Corpus]
) -> np.ndarray:
    """The position of each candidate row's commit in the corpus of its CVE,
    ``cves[i]`` for list i, each distinct commit of a repo looked up once. A
    KeyError names a candidate that is not a commit of its CVE's repo."""
    repos = sorted({cve.repo_id for cve in cves})
    owners = np.repeat([repos.index(cve.repo_id) for cve in cves], np.diff(candidates.offsets))
    positions = np.empty(len(candidates.commits), dtype=np.intp)
    for i, repo_id in enumerate(repos):
        rows = np.flatnonzero(owners == i)
        distinct, inverse = np.unique(candidates.commits[rows], return_inverse=True)
        found = [corpora[repo_id].position_of(c) for c in candidates.commit_ids[distinct]]
        positions[rows] = np.array(found, dtype=np.intp)[inverse]
    return positions


def stage_featurize(config: PipelineConfig) -> None:
    """Compute the nine features for every candidate and training row."""
    from .training import TrainingSet

    run = Run(config, "featurize")
    candidates = run.candidates()
    corpora = run.corpora()
    cves = {cve.cve_id: cve for cve in run.cves()}
    listed = [cves.get(cve_id) for cve_id in candidates.cve_ids]
    for cve_id, cve in zip(candidates.cve_ids, listed):
        if cve is None or cve.repo_id not in corpora:  # features.bin has a row per candidate
            detail = f"{run.candidates_bin}: {cve_id} is not a CVE of the repositories read"
            raise StageInputError("featurize", f"{detail}; rerun prerank with the same --repo")
    try:
        positions = _corpus_positions(candidates, listed, corpora)
    except KeyError as exc:
        raise StageInputError("featurize", f"{run.candidates_bin}: {exc.args[0]}") from exc
    repo = _repo_loader(run, corpora, ("file",), config.provider(), list(cves.values()))
    features = np.empty((len(positions), settings.NUM_FEATURES))
    entity_records = []
    groups = []
    for cve, rows in zip(listed, candidates.slices().values()):
        assembler = repo(cve.repo_id)[1]
        preranked = positions[rows]
        features[rows], group = _featurize(config, assembler, cve, preranked, preranked)
        entity_records.append(
            {"cve_id": cve.cve_id, "entities": sorted(assembler.entities_for(cve))}
        )
        groups += [group] if group else []
    run.write(run.features_file, lambda tmp: FEATURES_FORMAT.save(tmp, features=features))
    run.write(run.entities_file, lambda tmp: write_jsonl(tmp, entity_records))
    training = TrainingSet.of_groups(groups)
    run.write(run.training_file, lambda tmp: TRAINING_FORMAT.save(tmp, **training._asdict()))
    run.finish()


def stage_train(config: PipelineConfig) -> None:
    """Train the LambdaRank model from the sampled training rows."""
    from .training import train_lambdarank

    run = Run(config, "train")
    training = run.read(TRAINING_FORMAT.load, run.training_file, training_set)
    model = train_lambdarank(training, config.ranker_params())
    run.write(run.model_file, model.save)
    run.finish()


def stage_rank(config: PipelineConfig) -> None:
    """Re-rank the candidate lists with the trained model."""
    from .ranker import RankModel, rerank

    run = Run(config, "rank")
    model = run.read(RankModel.load, run.model_file)
    candidates = run.candidates()
    features = run.aligned(FEATURES_FORMAT, run.features_file, candidates)
    cves = {c.cve_id for c in run.cves()}
    rankings = {}

    def ranked():
        """Each CVE's final order for ranking.jsonl, as it is re-ranked; its
        candidate rows are kept for ranking.bin. Under --repo, candidates of
        other repositories' CVEs are skipped."""
        for cve_id, rows in candidates.slices().items():
            if cve_id in cves:
                order, scores = rerank(model, features[rows])
                rankings[cve_id] = rows.start + order
                yield cve_id, candidates.ids(rankings[cve_id]), scores[order].tolist()

    run.write(run.ranking_file, lambda tmp: write_ranked_jsonl(tmp, "score", ranked()))
    run.write(run.ranking_bin, lambda tmp: save_rankings(tmp, rankings))
    run.finish()


def stage_eval(config: PipelineConfig) -> None:
    """Score the final rankings against the known patch commits."""
    from .evalkit import evaluate_rankings

    run = Run(config, "eval")
    candidates = run.candidates()
    # eval reads only the order: ranking.bin holds no scores.
    rankings = {
        cve_id: [(commit_id, 0.0) for commit_id in candidates.ids(rows)]
        for cve_id, rows in run.read(load_rankings, run.ranking_bin, candidates).items()
    }
    cves = run.cves()
    relevant = {}
    for cve in cves:
        if cve.cve_id in rankings:
            if cve.known_patch_ids:
                relevant[cve.cve_id] = set(cve.known_patch_ids)
            else:
                logger.warning("skipping %s in eval: no known patches", cve.cve_id)
    rankings = {cve_id: entries for cve_id, entries in rankings.items() if cve_id in relevant}
    report = evaluate_rankings(rankings, relevant, config.metric_ks)
    run.write_json(run.report_json, report.to_json_obj())
    table = report.to_table() + "\n"
    run.write(run.report_text, lambda tmp: tmp.write_text(table, encoding="utf-8"))
    run.finish()


STAGE_FUNCTIONS = {
    "ingest": stage_ingest,
    "index": stage_index,
    "embed": stage_embed,
    "prerank": stage_prerank,
    "featurize": stage_featurize,
    "train": stage_train,
    "rank": stage_rank,
    "eval": stage_eval,
}


class TraceResult(NamedTuple):
    cve: CveRecord
    prerank_entries: list[tuple[str, float]]
    final_entries: list[tuple[str, float]]
    model_source: str


def run_trace(config: PipelineConfig, cve_id: str) -> TraceResult:
    """Run the whole pipeline for one CVE, writing nothing under ``output_dir``.

    The model, the CVE file and the corpora it needs (with a fresh model, the
    target's only), and each repo's indexes and vector store, are read through
    ``Run.read``. Where one is missing or stale, one warning names it and the
    dumps are parsed, the repo built, or the model trained on every labeled
    CVE, in memory. Without any labels the pre-ranked order is returned
    unchanged. Under ``config.repo_filter`` only that repository is read.
    """
    from .ranker import RankModel, rerank

    run = Run(config, "trace")
    try:
        model, model_source = run.read(RankModel.load, run.model_file), str(run.model_file)
    except StageInputError as exc:
        logger.warning("trace: %s; training the model in memory", exc.detail)
        model = None
    try:
        cves = run.cves()
        target_repo = {c.repo_id for c in cves if c.cve_id == cve_id}
        corpora = run.corpora(None if model is None else target_repo)
    except StageInputError as exc:
        logger.warning("trace: %s; parsing the dumps", exc.detail)
        corpora, cves = run.dumps()
    target = next((c for c in cves if c.cve_id == cve_id), None)
    if target is None:
        dump = corpus_mod.load_cve_dump(config.cve_dump)
        if repos := {c.repo_id for c in dump if c.cve_id == cve_id}:  # excluded by --repo
            detail = f"is of repository {repos.pop()!r}, not of --repo {config.repo_filter!r}"
            raise ConfigError(f"CVE {cve_id!r} {detail}")
        raise ConfigError(f"CVE {cve_id!r} not found in {config.cve_dump}")
    if target.repo_id not in corpora:
        raise ConfigError(f"repo {target.repo_id!r} of CVE {cve_id} not found in commit dump")
    repo = _repo_loader(run, corpora, STORED_KINDS, config.provider(), cves, build=True)

    @functools.cache
    def preranked(cve: CveRecord) -> tuple[np.ndarray, np.ndarray]:
        indexes, assembler = repo(cve.repo_id)
        return _prerank(assembler.corpus, cve, indexes, config.fusion_config())[:2]

    if model is None:
        from .training import TrainingSet, train_lambdarank

        labeled = [c for c in cves if c.repo_id in corpora and c.known_patch_ids]
        groups = []
        for cve in labeled:
            assembler = repo(cve.repo_id)[1]
            group = _featurize(config, assembler, cve, preranked(cve)[0], np.empty(0, np.intp))[1]
            groups += [group] if group else []
        if groups:
            model = train_lambdarank(TrainingSet.of_groups(groups), config.ranker_params())
        model_source = "trained in memory" if groups else "none"

    assembler = repo(target.repo_id)[1]
    positions, scores = preranked(target)
    ids = assembler.corpus.commit_ids_at(positions)
    prerank_entries = list(zip(ids, scores.tolist()))
    if model is None:
        logger.warning("no labeled CVEs available; returning pre-ranked order")
        return TraceResult(target, prerank_entries, list(prerank_entries), model_source)
    # As stage_rank re-ranks a candidate list.
    order, final = rerank(model, assembler.matrix(target, positions))
    final_entries = list(zip([ids[i] for i in order.tolist()], final[order].tolist()))
    return TraceResult(target, prerank_entries, final_entries, model_source)
