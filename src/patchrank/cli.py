"""Command-line front end for the batch pipeline.

Subcommands mirror the pipeline stages (ingest, index, embed, prerank,
featurize, train, rank, eval) plus ``trace``, which ranks a single CVE and
prints the top of the final ranking, reusing the index, vector and model
artifacts that the manifests tie to the current dumps and config. Exit codes:
0 success, 1 usage, configuration or input error, 2 missing, malformed or
stale upstream artifact.
"""

from __future__ import annotations

import gc
import os
import sys

# Set before numpy loads: OpenBLAS workers only spin here; the one BLAS call is a short ddot.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The imports make ~24,000 objects that live until exit, and little garbage: pause the
# collector while they load, then move them to the oldest generation at once (freeze,
# unfreeze), so that re-enabling it does not start a pass over them all.
_gc_enabled = gc.isenabled()
gc.disable()
try:
    import argparse
    import logging

    from .artifacts import STAGES, StageInputError
    from .config import ConfigError, apply_overrides, load_config
    from .corpus import InputError
    from .pipeline import STAGE_FUNCTIONS, run_trace
finally:
    if not gc.get_freeze_count():  # objects frozen by the importer stay frozen
        gc.freeze()
        gc.unfreeze()
    if _gc_enabled:
        gc.enable()


def _build_parser(commands=(*STAGES, "trace")) -> argparse.ArgumentParser:
    """The parser of ``commands``; each one adds a subparser, so a child
    builds only its own command's."""
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
        if stage in commands:
            add_common(sub.add_parser(stage, help=f"run the {stage} stage"))
    if "trace" not in commands:
        return parser
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
    argv = sys.argv[1:] if argv is None else argv
    commands = (*STAGES, "trace")
    try:
        # A known command is parsed by its own subparser alone; anything else,
        # such as a top-level --help or an unknown command, by all of them.
        parser = _build_parser(argv[:1] if argv[:1] and argv[0] in commands else commands)
        args = parser.parse_args(argv)
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
    """One command per process; what is alive before and after it is frozen out of passes."""
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
