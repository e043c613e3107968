"""Command-line front end for the batch pipeline.

Subcommands mirror the pipeline stages (ingest, index, embed, prerank,
featurize, train, rank, eval) plus ``trace``, which ranks a single CVE and
prints the top of the final ranking, reusing the index, vector and model
artifacts that the manifests tie to the current dumps and config. Exit codes:
0 success, 1 usage, configuration or input error, 2 missing, malformed or
stale upstream artifact.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

# Set before numpy loads: OpenBLAS workers only spin here; the one BLAS call is a short ddot.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .corpus import InputError
from .pipeline import (
    STAGE_FUNCTIONS,
    STAGES,
    ConfigError,
    StageInputError,
    apply_overrides,
    load_config,
    run_trace,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchrank",
        description="Rank a repository's commits by likelihood of fixing a CVE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="pipeline config JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--offline",
            action="store_true",
            help="force the deterministic offline embedder",
        )
        p.add_argument("--provider-url", default=None, help="override the embedding endpoint")
        p.add_argument("--repo", default=None, help="restrict to one repository id")

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        add_common(p)

    trace = sub.add_parser(
        "trace",
        help="rank one CVE and print the top-k, reusing index/, vectors/ and model/model.json "
        "when fresh, building or training them in memory otherwise",
    )
    add_common(trace)
    trace.add_argument("--cve", required=True, help="CVE id to trace")
    trace.add_argument("--top-k", type=int, default=10, help="rows to print, >= 1 (default 10)")
    return parser


def _print_trace(result, top_k: int) -> None:
    prerank_pos = {doc: i for i, (doc, _) in enumerate(result.prerank_entries, start=1)}
    print(f"{result.cve.cve_id} in {result.cve.repo_id} (model: {result.model_source})")
    print(f"{'rank':>4}  {'commit':<40}  {'score':>12}  {'prerank':>7}  patch")
    for rank, (commit_id, score) in enumerate(result.final_entries[:top_k], start=1):
        marker = "*" if commit_id in result.cve.known_patch_ids else ""
        print(
            f"{rank:>4}  {commit_id:<40}  {score:>12.6f}  "
            f"{prerank_pos.get(commit_id, 0):>7}  {marker}"
        )


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a bad upstream artifact.
        return 1 if exc.code else 0
    try:
        config = load_config(args.config)
        config = apply_overrides(
            config,
            seed=args.seed,
            offline=args.offline,
            provider_url=args.provider_url,
            repo=args.repo,
        )
        if args.command == "trace":
            if args.top_k < 1:
                raise ConfigError(f"--top-k must be >= 1, got {args.top_k}")
            result = run_trace(config, args.cve)
            _print_trace(result, args.top_k)
        else:
            STAGE_FUNCTIONS[args.command](config)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``trace ... | head``): point it at devnull so
        # that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except StageInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
