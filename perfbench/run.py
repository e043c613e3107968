#!/usr/bin/env python3
"""patchrank benchmark.

    python3 perfbench/run.py --workload many-cves --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. ``--trace 0`` runs the eight
``patchrank <stage>`` calls and one ``patchrank trace`` call as child
processes, repeats that pass until ``--seconds`` is used up, checks the
outputs and reports the end-to-end metrics as medians over the passes,
with times scaled to a nominal machine speed by a reference task timed
before every child.
``--trace 1`` adds an in-process run that wraps the public functions of
each ``src/patchrank`` module and reports per-layer times and counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from measure import MIB, ReferenceTask, faster_half_mean, median, reference_scale, run_child, tree_bytes
from tracer import SpanIndex, Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STAGES = ("ingest", "index", "embed", "prerank", "featurize", "train", "rank", "eval")
SETUP_STAGES = ("ingest", "index", "embed")
PER_CVE_STAGES = ("prerank", "featurize", "train", "rank", "eval")
TRACE_TOP_K = 10
PRERANK_K = 100
# The short trace call is repeated within a pass until this much time is
# spent on it. Time left at the end of a run, too short for another pass,
# goes to more trace calls: one call is short and noisy, so trace_s needs
# more samples than the stage times.
TRACE_BUDGET_S = 3.0
TRACE_MAX_CALLS = 4
PLAIN, TRACED = "out-plain", "out-traced"
# Two passes at least, so every run compares the output digests of two
# runs of one seed.
MIN_PASSES = 2
# End-to-end times that are scaled to nominal machine speed.
SCALED_TIMES = ("total_s", "setup_s", "trace_s", "cpu_s")
# Each is scaled by the reference runs made before the children it times.
STAGE, TRACE = "stage", "trace"

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "cves_per_s": "CVE/s",
    "trace_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "mrr": "ratio",
    "recall_at_10": "ratio",
    "prerank_recall_at_100": "ratio",
}

PER_LAYER: dict[str, str] = {}
for _stage in STAGES:
    PER_LAYER.update(
        {
            f"pipeline.{_stage}.wall_s": "s",
            f"pipeline.{_stage}.cpu_s": "s",
            f"pipeline.{_stage}.peak_rss_mb": "MB",
            f"pipeline.{_stage}.out_mb": "MB",
            f"pipeline.{_stage}.self_s": "s",
        }
    )
PER_LAYER.update(
    {
        "pipeline.trace.self_s": "s",
        "corpus.ingest_calls": "count",
        "corpus.ingest_s": "s",
        "corpus.tokenize_calls": "count",
        "corpus.tokenize_calls_per_pair": "count",
        "lexical.build_s": "s",
        "lexical.build_docs": "count",
        "lexical.save_s": "s",
        "lexical.load_calls": "count",
        "lexical.load_s": "s",
        "lexical.query_calls": "count",
        "lexical.query_s": "s",
        "lexical.score_document_calls": "count",
        "lexical.score_document_s": "s",
        "lexical.rank_files_calls": "count",
        "lexical.rank_files_s": "s",
        "embedding.build_vectors_s": "s",
        "embedding.texts_embedded": "count",
        "embedding.provider_s": "s",
        "embedding.store_save_s": "s",
        "embedding.store_load_s": "s",
        "embedding.path_texts_requested": "count",
        "embedding.path_texts_embedded": "count",
        "embedding.path_cache_hit_ratio": "ratio",
        "prerank.components_s": "s",
        "prerank.components_self_s": "s",
        "prerank.fuse_s": "s",
        "prerank.ms_per_cve": "ms",
        "ranker.assemble_pairs": "count",
        "ranker.assemble_s": "s",
        "ranker.assemble_ms_per_pair": "ms",
        "hier_features.calls": "count",
        "hier_features.s": "s",
        "path_features.search_paths_s": "s",
        "path_features.path_cosine_calls": "count",
        "path_features.path_cosine_s": "s",
        "ranker.sample_groups_s": "s",
        "ranker.train_rows": "count",
        "ranker.train_s": "s",
        "ranker.trees_trained": "count",
        "ranker.predict_rows": "count",
        "ranker.predict_s": "s",
        "evalkit.evaluate_s": "s",
        "cli.startup_s": "s",
        "trace.overhead_s": "s",
    }
)
# Per-layer counts that must repeat exactly from one traced pass to the next.
COUNT_METRICS = [name for name, unit in PER_LAYER.items() if unit == "count"]


class Ops:
    """Operations attempted and failed: stage calls, trace calls, checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
            print(f"FAILED: {problem}", file=sys.stderr)
        return ok


@dataclass
class Context:
    workload: workloads.GeneratedWorkload
    work: Path
    env: dict[str, str]
    ops: Ops = field(default_factory=Ops)
    reference: ReferenceTask = field(default_factory=ReferenceTask)
    # Durations of the reference task, one before each stage or trace child.
    reference_s: dict[str, list[float]] = field(default_factory=lambda: {STAGE: [], TRACE: []})

    def config_for(self, output_name: str) -> Path:
        """A config file whose output_dir is ``work/<output_name>``."""
        path = self.work / f"{output_name}.config.json"
        config = {
            "commit_dump": str(self.workload.commit_dump.relative_to(self.work)),
            "cve_dump": str(self.workload.cve_dump.relative_to(self.work)),
            "output_dir": output_name,
            **self.workload.config,
        }
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return path


@dataclass
class ChildPass:
    stages: dict[str, dict[str, float]]
    trace_walls: list[float]
    trace_output: str
    artifact_mb: float
    quality: dict[str, float]
    digests: dict
    files: dict[str, str]

    def total(self, stages=STAGES, key: str = "wall_s") -> float:
        return sum(self.stages[s][key] for s in stages)


# -- output checks ----------------------------------------------------------


def verify_outputs(ctx: Context, out: Path, trace_ids: list[str]) -> dict[str, float] | None:
    """Check one output directory; return its quality figures."""
    ops = ctx.ops
    patches = ctx.workload.patches_by_cve
    try:
        candidates = checks.lists_by_cve(out / "prerank" / "candidates.jsonl")
        ranking = checks.lists_by_cve(out / "rank" / "ranking.jsonl")
        report = json.loads((out / "eval" / "report.json").read_text(encoding="utf-8"))["macro"]
    except (OSError, ValueError, KeyError) as exc:
        ops.check(False, f"unreadable output in {out.name}: {exc}")
        return None
    problems = checks.check_permutations(candidates, ranking)
    ops.check(not problems, "; ".join(problems[:3]))
    mine = checks.macro_quality(ranking, patches, 10)
    ops.check(
        all(
            math.isclose(mine[key], report.get(key, -1.0), rel_tol=1e-12, abs_tol=1e-12)
            for key in ("mrr", "recall@10")
        ),
        f"eval report {report.get('mrr')}/{report.get('recall@10')} differs from "
        f"recomputed mrr/recall@10 {mine['mrr']}/{mine['recall@10']}",
    )
    ops.check(
        trace_ids == ranking.get(workloads.HARD_CVE_ID, [])[:TRACE_TOP_K],
        f"trace top-{TRACE_TOP_K} for {workloads.HARD_CVE_ID} differs from the batch ranking",
    )
    prerank = checks.macro_quality(candidates, patches, PRERANK_K)
    return {
        "mrr": report.get("mrr", 0.0),
        "recall_at_10": report.get("recall@10", 0.0),
        "prerank_recall_at_100": prerank[f"recall@{PRERANK_K}"],
        "cves_ranked": len(ranking),
    }


# -- untraced passes: one child process per stage ---------------------------


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "patchrank.cli", *args]


def trace_call(ctx: Context, config: str, label: str) -> tuple[float, str] | None:
    """One ``patchrank trace`` child for the hard CVE: its wall time and output."""
    ctx.reference_s[TRACE].append(ctx.reference.run())
    argv = cli_argv("trace", "--config", config, "--cve", workloads.HARD_CVE_ID, "--top-k", str(TRACE_TOP_K))
    trace = run_child(argv, env=ctx.env, log_dir=ctx.work / "logs", label=f"{label}-trace")
    if not ctx.ops.check(
        trace.returncode == 0, f"patchrank trace exited {trace.returncode}: {trace.stderr.strip()[-400:]}"
    ):
        return None
    return trace.wall_s, trace.stdout


def child_pass(ctx: Context) -> ChildPass | None:
    label = "out"
    out = ctx.work / label
    shutil.rmtree(out, ignore_errors=True)
    config = str(ctx.config_for(label))
    logs = ctx.work / "logs"
    stages: dict[str, dict[str, float]] = {}
    for stage in STAGES:
        ctx.reference_s[STAGE].append(ctx.reference.run())
        before = tree_bytes(out)
        child = run_child(
            cli_argv(stage, "--config", config), env=ctx.env, log_dir=logs, label=f"{label}-{stage}"
        )
        if not ctx.ops.check(
            child.returncode == 0,
            f"patchrank {stage} exited {child.returncode}: {child.stderr.strip()[-400:]}",
        ):
            return None
        stages[stage] = {
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb,
            "out_mb": (tree_bytes(out) - before) / MIB,
        }
    artifact_mb = tree_bytes(out) / MIB
    trace_walls: list[float] = []
    trace_outputs: list[str] = []
    while sum(trace_walls) < TRACE_BUDGET_S and len(trace_walls) < TRACE_MAX_CALLS:
        trace = trace_call(ctx, config, label)
        if trace is None:
            return None
        trace_walls.append(trace[0])
        trace_outputs.append(trace[1])
    ctx.ops.check(len(set(trace_outputs)) == 1, "repeated trace calls printed different rankings")
    quality = verify_outputs(ctx, out, checks.trace_rows(trace_outputs[0]))
    if quality is None:
        return None
    return ChildPass(
        stages=stages,
        trace_walls=trace_walls,
        trace_output=trace_outputs[0],
        artifact_mb=artifact_mb,
        quality=quality,
        digests=checks.manifest_digests(out),
        files=checks.tree_digests(out),
    )


def raw_end_to_end(passes: list[ChildPass], extra_trace_walls: list[float]) -> dict[str, float]:
    """End-to-end metrics as measured, before scaling."""
    if not passes:
        return {name: 0.0 for name in END_TO_END}
    last = passes[-1].quality
    return {
        "total_s": median([p.total() for p in passes]),
        "setup_s": median([p.total(SETUP_STAGES) for p in passes]),
        "cves_per_s": median([p.quality["cves_ranked"] / p.total(PER_CVE_STAGES) for p in passes]),
        "trace_s": faster_half_mean([wall for p in passes for wall in p.trace_walls] + extra_trace_walls),
        "cpu_s": median([p.total(key="cpu_s") for p in passes]),
        "peak_rss_mb": median([max(s["peak_rss_mb"] for s in p.stages.values()) for p in passes]),
        "artifact_mb": median([p.artifact_mb for p in passes]),
        "mrr": last["mrr"],
        "recall_at_10": last["recall_at_10"],
        "prerank_recall_at_100": last["prerank_recall_at_100"],
    }


def scale_times(raw: dict[str, float], scale: dict[str, float]) -> dict[str, float]:
    """Times at nominal machine speed: each time is multiplied by the scale
    of the children it times, and the rate divided by it."""
    metrics = dict(raw)
    for name in SCALED_TIMES:
        metrics[name] = raw[name] * scale[TRACE if name == "trace_s" else STAGE]
    metrics["cves_per_s"] = raw["cves_per_s"] / scale[STAGE]
    return metrics


def check_repeats(ctx: Context, passes: list[ChildPass]) -> None:
    for i, p in enumerate(passes[1:], start=2):
        ctx.ops.check(p.digests == passes[0].digests, f"pass {i} output digests differ from pass 1")
        ctx.ops.check(p.quality == passes[0].quality, f"pass {i} quality differs from pass 1")


def untraced_run(ctx: Context, seconds: float) -> tuple[dict[str, float], dict]:
    deadline = time.perf_counter() + seconds
    # Warm-up: the first reference runs load numpy from a cold page cache.
    for _ in range(2):
        ctx.reference.run()
    passes: list[ChildPass] = []
    durations: list[float] = []
    while True:
        start = time.perf_counter()
        result = child_pass(ctx)
        if result is None:
            break
        passes.append(result)
        durations.append(time.perf_counter() - start)
        if len(passes) >= MIN_PASSES and time.perf_counter() + median(durations) > deadline:
            break
    extra_trace_walls: list[float] = []
    if passes and ctx.ops.failed == 0:
        config = str(ctx.work / "out.config.json")
        call_s = median(passes[-1].trace_walls) + median(ctx.reference_s[TRACE])
        while time.perf_counter() + call_s < deadline:
            trace = trace_call(ctx, config, "out")
            if trace is None or not ctx.ops.check(
                trace[1] == passes[-1].trace_output, "repeated trace calls printed different rankings"
            ):
                break
            extra_trace_walls.append(trace[0])
    check_repeats(ctx, passes)
    raw = raw_end_to_end(passes, extra_trace_walls)
    scale = {kind: reference_scale(samples) for kind, samples in ctx.reference_s.items()}
    summary = {
        "passes": len(passes),
        "reference_s": ctx.reference_s,
        "trace_walls": [wall for p in passes for wall in p.trace_walls] + extra_trace_walls,
        "scale": scale,
        "raw_metrics": raw,
        "stages": [p.stages for p in passes],
    }
    return scale_times(raw, scale), summary


# -- traced run: one process, wrapped public functions ----------------------


def import_patchrank():
    """patchrank's modules, imported from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from patchrank import (  # noqa: PLC0415
        corpus,
        embedding,
        hier_features,
        lexical,
        path_features,
        pipeline,
        prerank,
        ranker,
    )

    return {
        "corpus": corpus,
        "embedding": embedding,
        "hier_features": hier_features,
        "lexical": lexical,
        "path_features": path_features,
        "pipeline": pipeline,
        "prerank": prerank,
        "ranker": ranker,
    }


def _len_arg(args, result) -> int:
    return len(args[1])


def _len_result(args, result) -> int:
    return len(result)


def install_wrappers(tracer: Tracer, m: dict) -> None:
    """Wrap each public function under the name its caller looks up."""
    corpus, lexical, embedding, prerank = m["corpus"], m["lexical"], m["embedding"], m["prerank"]
    ranker, pipeline, paths = m["ranker"], m["pipeline"], m["path_features"]
    w = tracer.wrap

    def cls(module, name):
        # None when a later version drops the class; wrap() then skips it.
        return getattr(module, name, None)

    # corpus: the stages reach it through the module object.
    w(corpus, "ingest_commit_dump", "corpus.ingest")
    w(corpus, "ingest_multi_repo_dump", "corpus.ingest")
    w(corpus, "load_cve_dump", "corpus.load_cves")
    w(corpus, "serialize_corpus", "corpus.serialize")
    w(corpus, "serialize_cves", "corpus.serialize")
    for module in (lexical, embedding):
        tracer.count_calls(module, "tokenize", "corpus.tokenize", scope="ranker.assemble")
    # lexical
    w(lexical, "build_index", "lexical.build", count=lambda a, r: r.doc_count)
    w(lexical, "save_index", "lexical.save")
    w(lexical, "load_index", "lexical.load")
    w(prerank, "query", "lexical.query")
    w(lexical, "score_document", "lexical.score_document")
    w(ranker, "score_document", "lexical.score_document")
    w(m["hier_features"], "rank_files_within_commit", "lexical.rank_files")
    # embedding
    w(pipeline, "build_vectors", "embedding.build_vectors")
    w(cls(embedding, "OfflineEmbedder"), "embed", "embedding.provider", count=_len_arg)
    w(cls(embedding, "VectorStore"), "save", "embedding.store_save")
    w(cls(embedding, "VectorStore"), "load", "embedding.store_load")
    w(cls(paths, "CachingEmbedder"), "embed", "embedding.path_embed", count=_len_arg)
    # prerank: prerank_candidates reaches both through the module globals.
    w(prerank, "prerank_components", "prerank.components")
    w(prerank, "fuse_components", "prerank.fuse")
    # feature assembly
    w(cls(ranker, "FeatureAssembler"), "vector", "ranker.assemble", count=lambda a, r: 1)
    w(cls(ranker, "FeatureAssembler"), "matrix", "ranker.assemble", count=_len_result)
    w(ranker, "hier_features", "hier_features")
    w(ranker, "search_paths", "path_features.search_paths")
    w(ranker, "feature_path_cosine", "path_features.path_cosine")
    w(ranker, "path_universe", "path_features.path_universe")
    w(pipeline, "path_universe", "path_features.path_universe")
    # model
    w(pipeline, "sample_training_group", "ranker.sample_group")
    w(pipeline, "train_lambdarank", "ranker.train", count=lambda a, r: sum(len(g.rows) for g in a[0]))
    w(cls(ranker, "RankModel"), "predict", "ranker.predict", count=_len_result)
    w(cls(ranker, "RankModel"), "save", "ranker.model_save")
    w(cls(ranker, "RankModel"), "load", "ranker.model_load")
    w(pipeline, "score_and_rerank", "ranker.score_and_rerank")
    w(pipeline, "evaluate_rankings", "evalkit.evaluate")


def inprocess_passes(ctx: Context, m: dict, tracer: Tracer) -> dict | None:
    """Every stage and the trace call, in this process, twice in a row:
    untraced into ``out-plain``, then traced into ``out-traced``.

    Running the two copies of each step back to back lets them see the same
    machine, so their difference is the tracing overhead rather than drift
    in the machine's speed.
    """
    pipeline = m["pipeline"]
    split_run = getattr(m["corpus"], "_split_run", None)
    walls: dict[str, dict[str, float]] = {PLAIN: {}, TRACED: {}}
    trace_ids: dict[str, list[str]] = {}
    try:
        configs = {}
        for label in (PLAIN, TRACED):
            shutil.rmtree(ctx.work / label, ignore_errors=True)
            configs[label] = pipeline.load_config(ctx.config_for(label))
        steps = [(s, pipeline.STAGE_FUNCTIONS[s], ()) for s in STAGES]
        steps.append(("trace", pipeline.run_trace, (workloads.HARD_CVE_ID,)))
        for name, fn, extra in steps:
            for label in (PLAIN, TRACED):
                if hasattr(split_run, "cache_clear"):
                    # Start each step as cold as a fresh process would.
                    split_run.cache_clear()
                gc.collect()
                start = time.perf_counter()
                if label == PLAIN:
                    result = fn(configs[label], *extra)
                else:
                    install_wrappers(tracer, m)
                    try:
                        result = tracer.call(f"pipeline.{name}", fn, configs[label], *extra)
                    finally:
                        tracer.unwrap()
                walls[label][name] = time.perf_counter() - start
                if name == "trace":
                    trace_ids[label] = [commit for commit, _ in result.final_entries[:TRACE_TOP_K]]
    except Exception:  # noqa: BLE001 - report any failure of the program and go on
        ctx.ops.check(False, f"in-process pass raised:\n{traceback.format_exc(limit=4)}")
        return None
    files = {}
    for label in (PLAIN, TRACED):
        if verify_outputs(ctx, ctx.work / label, trace_ids[label]) is None:
            return None
        files[label] = checks.tree_digests(ctx.work / label)
    return {"walls": walls, "files": files}


def layer_metrics(idx: SpanIndex, tracer: Tracer, out: Path) -> dict[str, float]:
    """Per-layer figures of one traced pass (without the child-process ones)."""
    t, calls, work = idx.total, idx.calls, idx.work
    metrics: dict[str, float] = {}
    for name in (*STAGES, "trace"):
        spans = idx.named(f"pipeline.{name}")
        metrics[f"pipeline.{name}.self_s"] = sum(idx.self_time(s) for s in spans)
    pairs = work("ranker.assemble")
    components = idx.named("prerank.components")
    path_requested = work("embedding.path_embed")
    path_embedded = work("embedding.provider", within="embedding.path_embed")
    try:
        model = json.loads((out / "model" / "model.json").read_text(encoding="utf-8"))
        trees = len(model["trees"])
    except (OSError, ValueError, KeyError):
        trees = 0
    metrics.update(
        {
            "corpus.ingest_calls": calls("corpus.ingest"),
            "corpus.ingest_s": t("corpus.ingest"),
            "corpus.tokenize_calls": tracer.counts["corpus.tokenize"],
            "corpus.tokenize_calls_per_pair": (
                tracer.counts["corpus.tokenize|ranker.assemble"] / pairs if pairs else 0.0
            ),
            "lexical.build_s": t("lexical.build"),
            "lexical.build_docs": work("lexical.build"),
            "lexical.save_s": t("lexical.save"),
            "lexical.load_calls": calls("lexical.load"),
            "lexical.load_s": t("lexical.load"),
            "lexical.query_calls": calls("lexical.query"),
            "lexical.query_s": t("lexical.query"),
            "lexical.score_document_calls": calls("lexical.score_document"),
            "lexical.score_document_s": t("lexical.score_document"),
            "lexical.rank_files_calls": calls("lexical.rank_files"),
            "lexical.rank_files_s": t("lexical.rank_files"),
            "embedding.build_vectors_s": t("embedding.build_vectors"),
            "embedding.texts_embedded": work("embedding.provider", within="embedding.build_vectors"),
            "embedding.provider_s": t("embedding.provider", within="embedding.build_vectors"),
            "embedding.store_save_s": t("embedding.store_save"),
            "embedding.store_load_s": t("embedding.store_load"),
            "embedding.path_texts_requested": path_requested,
            "embedding.path_texts_embedded": path_embedded,
            "embedding.path_cache_hit_ratio": (
                1.0 - path_embedded / path_requested if path_requested else 0.0
            ),
            "prerank.components_s": t("prerank.components"),
            "prerank.components_self_s": sum(idx.self_time(s) for s in components),
            "prerank.fuse_s": t("prerank.fuse"),
            "prerank.ms_per_cve": (
                1000.0 * (t("prerank.components") + t("prerank.fuse")) / len(components)
                if components
                else 0.0
            ),
            "ranker.assemble_pairs": pairs,
            "ranker.assemble_s": t("ranker.assemble"),
            "ranker.assemble_ms_per_pair": 1000.0 * t("ranker.assemble") / pairs if pairs else 0.0,
            "hier_features.calls": calls("hier_features"),
            "hier_features.s": t("hier_features"),
            "path_features.search_paths_s": t("path_features.search_paths"),
            "path_features.path_cosine_calls": calls("path_features.path_cosine"),
            "path_features.path_cosine_s": t("path_features.path_cosine"),
            "ranker.sample_groups_s": t("ranker.sample_group"),
            "ranker.train_rows": work("ranker.train"),
            "ranker.train_s": t("ranker.train"),
            "ranker.trees_trained": trees,
            "ranker.predict_rows": work("ranker.predict"),
            "ranker.predict_s": t("ranker.predict"),
            "evalkit.evaluate_s": t("evalkit.evaluate"),
        }
    )
    return metrics


def featurize_children(idx: SpanIndex) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span in idx.named("pipeline.featurize"):
        for name, seconds in idx.child_totals(span).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def cli_startup(ctx: Context, repeats: int = 3) -> float:
    walls = []
    for i in range(repeats):
        child = run_child(
            [sys.executable, "-c", "import patchrank.cli"],
            env=ctx.env,
            log_dir=ctx.work / "logs",
            label=f"startup-{i}",
        )
        if ctx.ops.check(child.returncode == 0, f"importing patchrank.cli failed: {child.stderr[-400:]}"):
            walls.append(child.wall_s)
    return median(walls)


def traced_run(ctx: Context, seconds: float) -> dict[str, float]:
    """Rounds of one child pass and one pair of in-process passes."""
    deadline = time.perf_counter() + seconds
    modules = import_patchrank()
    startup = cli_startup(ctx)
    rounds: list[dict] = []
    durations: list[float] = []
    all_spans = []
    while True:
        start = time.perf_counter()
        tracer = Tracer(run_id=f"{ctx.workload.name}-seed{ctx.workload.seed}-round{len(rounds) + 1}")
        children = child_pass(ctx)
        inproc = inprocess_passes(ctx, modules, tracer) if children else None
        if inproc is None:
            break
        ctx.ops.check(
            inproc["files"][TRACED] == inproc["files"][PLAIN] == children.files,
            "traced run's artifacts are not byte-identical to the untraced run's",
        )
        idx = SpanIndex(tracer.spans)
        layers = layer_metrics(idx, tracer, ctx.work / TRACED)
        walls = inproc["walls"]
        layers["trace.overhead_s"] = sum(walls[TRACED][s] - walls[PLAIN][s] for s in STAGES)
        for stage in STAGES:
            for key in ("wall_s", "cpu_s", "peak_rss_mb", "out_mb"):
                layers[f"pipeline.{stage}.{key}"] = children.stages[stage][key]
        layers["cli.startup_s"] = startup
        rounds.append({"layers": layers, "featurize_children": featurize_children(idx)})
        all_spans.extend(tracer.spans)
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + median(durations) > deadline:
            break
    for i, r in enumerate(rounds[1:], start=2):
        ctx.ops.check(
            all(r["layers"][c] == rounds[0]["layers"][c] for c in COUNT_METRICS),
            f"per-layer counts of traced round {i} differ from round 1",
        )
    if not rounds:
        return {name: 0.0 for name in PER_LAYER}
    write_spans(all_spans, ctx.work / "spans.jsonl")
    print("featurize span, children by total seconds (first round):")
    for name, child_s in list(rounds[0]["featurize_children"].items())[:6]:
        print(f"  {name:<36} {child_s:10.4f} s")
    return {
        name: (
            rounds[0]["layers"][name]
            if name in COUNT_METRICS
            else median([r["layers"][name] for r in rounds])
        )
        for name in PER_LAYER
    }


# -- entry point ------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload generator seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "patchrank" / "cli.py").is_file():
        print(f"error: no patchrank sources under {SRC}; run from a patchrank checkout", file=sys.stderr)
        return 2
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    generated = workloads.generate(args.workload, args.seed, workloads.WORKLOADS[args.workload], work / "input")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    ctx = Context(workload=generated, work=work, env=env)
    print(
        f"workload {args.workload} seed {args.seed}: commits.jsonl sha256 "
        f"{generated.commit_dump_sha256}, cves.jsonl sha256 {generated.cve_dump_sha256}"
    )

    if args.trace:
        metrics = traced_run(ctx, args.seconds)
        units = PER_LAYER
        summary = {}
    else:
        metrics, summary = untraced_run(ctx, args.seconds)
        units = END_TO_END
    ops = ctx.ops
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:14.6f} {unit}")
    if not args.trace:
        # Not in the JSON metrics: it is 0 whenever the outputs are right, and
        # the result's "attempted" and "failed" fields carry it.
        print(f"{'failed_ratio':<36} {ops.failed / ops.attempted:14.6f} ratio")
        for kind, samples in ctx.reference_s.items():
            print(
                f"reference task before {kind} children: median {median(samples):.4f} s "
                f"over {len(samples)} runs, scale {summary['scale'][kind]:.4f}"
            )
        print("unscaled:")
        for name in ("cves_per_s", *SCALED_TIMES):
            print(f"  {name:<34} {summary['raw_metrics'][name]:14.6f} {units[name]}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(
        json.dumps({**result, "workload": generated.summary(), "problems": ops.problems, **summary}, indent=2),
        encoding="utf-8",
    )
    for name in ("out", PLAIN, TRACED):
        shutil.rmtree(work / name, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
