"""Command-line surface: align, explain, eval, split."""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data, em, metrics as met
from .embedder import Hyperparams, Origin
from .explain import AnchorSet, explain, hard_anchors, render_report, soft_anchors
from .graph import IngestError, KnowledgeGraphPair
from .symbolic import (
    SubrelationTable,
    compute_functionalities,
    dump_subrelations,
    dump_truth_scores,
    update_subrelation_probs,
)

logger = logging.getLogger(__name__)


def _coerce(key: str, value: str, owner: type) -> object:
    """Parse a config-file value as the type annotated on ``owner``'s field."""
    kind = typing.get_type_hints(owner)[key.rsplit(".", 1)[-1]]
    if kind is bool:
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise data.DatasetError(f"config key {key!r}: expected a boolean, got {value!r}")
    if kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            raise data.DatasetError(
                f"config key {key!r}: expected {kind.__name__}, got {value!r}"
            ) from None
    raise data.DatasetError(f"unknown config key {key!r}")


def _build_config(args: argparse.Namespace, file_items: dict[str, str]) -> em.EmConfig:
    """Defaults, overridden by the config file's items, overridden by CLI flags."""
    config = em.EmConfig()
    neural_kwargs = {}
    for key, value in file_items.items():
        if key.startswith("neural."):
            name = key[len("neural.") :]
            if name not in {f.name for f in fields(Hyperparams)}:
                raise data.DatasetError(f"unknown config key {key!r}")
            neural_kwargs[name] = _coerce(key, value, Hyperparams)
        elif key in ("train_ratio", "valid_ratio"):
            continue  # split settings, handled by the caller
        elif key in {f.name for f in fields(em.EmConfig)} - {"workers"}:
            setattr(config, key, _coerce(key, value, em.EmConfig))
        else:
            raise data.DatasetError(f"unknown config key {key!r}")
    if neural_kwargs:
        config.neural = replace(config.neural, **neural_kwargs)
    for flag in ("delta", "iterations", "rule_length", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(config, flag, value)
    if getattr(args, "symbolic_only", False):
        config.symbolic_only = True
    config.validate()
    return config


def _file_ratio(file_items: dict[str, str], key: str, default: float) -> float:
    """A split ratio from the config file, ``default`` when the file has none."""
    if key not in file_items:
        return default
    try:
        value = float(file_items[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise data.DatasetError(f"config key {key!r}: expected a finite float, got {file_items[key]!r}")
    return value


def _split_ratios(args, file_items: dict[str, str]) -> tuple[float, float]:
    train = args.train_ratio
    if train is None:
        train = _file_ratio(file_items, "train_ratio", 0.2)
    valid = getattr(args, "valid_ratio", None)
    if valid is None:
        valid = _file_ratio(file_items, "valid_ratio", max(0.0, min(train / 2.0, 1.0 - train)))
    return train, valid


def _cmd_align(args: argparse.Namespace) -> int:
    bundle = data.load_dataset(args.dataset)
    file_items = data.read_config_file(args.config) if args.config else {}
    train_ratio, valid_ratio = _split_ratios(args, file_items)
    config = _build_config(args, file_items)
    queries = data.load_links(args.explain_pairs, bundle.pair) if args.explain_pairs else ()

    train, valid, test = data.split_seed(bundle.links, train_ratio, valid_ratio, config.seed)
    logger.info(
        "dataset: %d + %d entities, %d + %d triples, %d links (%d/%d/%d split)",
        bundle.pair.source.n_entities,
        bundle.pair.target.n_entities,
        bundle.pair.source.n_triples,
        bundle.pair.target.n_triples,
        len(bundle.links),
        len(train),
        len(valid),
        len(test),
    )

    started = time.time()
    state = em.run_em(bundle.pair, train, config, validation=valid)
    fused = em.fuse_predictions(state, config, rank_sources=[s for s, _ in test.pairs])
    logger.info("finished %d iterations in %.1fs", config.iterations, time.time() - started)

    ranking_report = met.evaluate_ranking(fused.rankings, test.by_source, ks=(1, 10))
    test_sources = set(test.by_source)
    binary_report = met.evaluate_binary(
        [(s, t) for s, t, _, _ in fused.binary if s in test_sources],
        test.pairs,
    )
    metric_lines = ["# ranking (test sources)"]
    metric_lines += ranking_report.as_lines()
    metric_lines += ["# binary (test sources)"]
    metric_lines += binary_report.as_lines()

    manifest = data.build_manifest(
        config,
        bundle.provenance,
        state.history,
        extra={"train_ratio": train_ratio, "valid_ratio": valid_ratio, "dataset": args.dataset},
    )
    predictions = data.format_predictions(fused.binary, bundle.pair.source, bundle.pair.target)

    extras: dict[str, str] = {}
    if args.full_output:
        extras["rankings.tsv"] = data.format_rankings(
            fused.rankings, bundle.pair.source, bundle.pair.target
        )
        extras["truth_scores.tsv"] = dump_truth_scores(
            state.truth_scores,
            bundle.pair.source.entity_labels,
            bundle.pair.target.entity_labels,
        )
        fwd, bwd = dump_subrelations(state.psub, bundle.pair.source, bundle.pair.target)
        extras["psub_source_in_target.tsv"] = fwd
        extras["psub_target_in_source.tsv"] = bwd
        extras["splits/train_links"] = data.format_links(
            train.pairs, bundle.pair.source, bundle.pair.target
        )
        extras["splits/valid_links"] = data.format_links(
            valid.pairs, bundle.pair.source, bundle.pair.target
        )
        extras["splits/test_links"] = data.format_links(
            test.pairs, bundle.pair.source, bundle.pair.target
        )

    if args.explain_pairs:
        anchor_set = (
            hard_anchors(train.pairs)
            if args.explain_mode == "hard"
            else soft_anchors(train.pairs, [(s, t) for s, t, _, _ in fused.binary])
        )
        reports = _explain_reports(
            bundle.pair,
            queries,
            anchor_set,
            state.eta_source,
            state.eta_target,
            state.psub,
            config.rule_length,
        )
        for i, report in enumerate(reports, start=1):
            extras[f"explanations/{i:04d}.txt"] = report

    out_dir = args.out or f"kgalign-run-{time.strftime('%Y%m%d-%H%M%S')}"
    data.emit_report(out_dir, manifest, predictions, "\n".join(metric_lines) + "\n", extras)
    for line in metric_lines:
        print(line)
    print(f"wrote {out_dir}")
    return 0


def _explain_reports(
    pair: KnowledgeGraphPair,
    queries: typing.Iterable[tuple[int, int]],
    anchors: AnchorSet,
    eta_source: np.ndarray,
    eta_target: np.ndarray,
    psub: SubrelationTable,
    rule_length: int,
    exhaustive: bool = False,
    top: int | None = None,
) -> typing.Iterator[str]:
    """The rendered report of each (source, target) query, in order."""
    for query in queries:
        exps = explain(
            pair, query, anchors, eta_source, eta_target, psub, rule_length, exhaustive=exhaustive
        )
        yield render_report(pair, query, exps, anchors.mode, limit=top)


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    if args.rule_length < 1:
        raise ValueError(f"path length bound must be >= 1, got {args.rule_length}")
    bundle = data.load_dataset(args.dataset)
    # the run's alignment, from which its last M-step built p_sub
    src, tgt, score, origin = data.read_predictions(
        Path(args.state) / "predictions.tsv", bundle.pair
    )
    psub = update_subrelation_probs(bundle.pair, src, tgt, score)
    eta_s = compute_functionalities(bundle.pair.source)
    eta_t = compute_functionalities(bundle.pair.target)
    pairs = list(zip(src.tolist(), tgt.tolist()))
    observed = [p for p, o in zip(pairs, origin) if o is Origin.OBSERVED]
    anchors = hard_anchors(observed) if args.mode == "hard" else soft_anchors(observed, pairs)
    queries = data.load_links(args.pairs, bundle.pair)

    reports = _explain_reports(
        bundle.pair, queries, anchors, eta_s, eta_t, psub, args.rule_length, args.exhaustive, args.top
    )
    for report in reports:
        sys.stdout.write(report)
    return 0


def _parse_ks(text: str) -> tuple[int, ...]:
    """Comma-separated cutoffs for hit@k, each an integer >= 1."""
    try:
        ks = tuple(int(k) for k in text.split(","))
    except ValueError:
        ks = ()
    if not ks or min(ks) < 1:
        raise ValueError(f"--ks expects integers >= 1 separated by commas, got {text!r}")
    return ks


def _cmd_eval(args: argparse.Namespace) -> int:
    ks = _parse_ks(args.ks)
    gold_pairs = data.load_gold_links(args.gold)
    rankings, pairs = data.load_prediction_file(args.predictions)
    if rankings is not None:
        report = met.evaluate_ranking(rankings, dict(gold_pairs), ks=ks)
    else:
        report = met.evaluate_binary(pairs or [], gold_pairs)
    for line in report.as_lines():
        print(line)
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    try:
        train_ratio, valid_ratio = (float(x) for x in args.ratios.split(","))
    except ValueError as exc:
        raise data.DatasetError(f"--ratios expects train,valid (e.g. 0.2,0.1): {exc}") from exc
    links = data.load_label_pairs(args.links)
    train, valid, test = data.split_seed(links, train_ratio, valid_ratio, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, seed_set in (("train_links", train), ("valid_links", valid), ("test_links", test)):
        with open(out / name, "w", encoding="utf-8") as fh:
            for s, t in seed_set.pairs:
                fh.write(f"{s}\t{t}\n")
        print(f"{name}\t{len(seed_set)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgalign",
        description="Align entities across two knowledge graphs with joint "
        "rule-based and embedding-based inference.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="run the full alignment loop on a dataset directory")
    p_align.add_argument("dataset", help="directory with rel_triples_1, rel_triples_2, ent_links")
    p_align.add_argument("--delta", type=float, default=None, help="positive-label threshold")
    p_align.add_argument("--iterations", type=int, default=None)
    p_align.add_argument("--rule-length", type=int, default=None, dest="rule_length")
    p_align.add_argument("--train-ratio", type=float, default=None, dest="train_ratio")
    p_align.add_argument("--valid-ratio", type=float, default=None, dest="valid_ratio")
    p_align.add_argument("--seed", type=int, default=None)
    p_align.add_argument("--symbolic-only", action="store_true", dest="symbolic_only")
    p_align.add_argument("--out", default=None, help="output directory (default: timestamped)")
    p_align.add_argument("--config", default=None, help="key=value config file")
    p_align.add_argument(
        "--full-output",
        action="store_true",
        dest="full_output",
        help="also dump rankings, truth scores, subrelation tables and splits",
    )
    p_align.add_argument("--explain-pairs", default=None, dest="explain_pairs")
    p_align.add_argument(
        "--explain-mode", choices=("hard", "soft"), default="soft", dest="explain_mode"
    )
    p_align.set_defaults(func=_cmd_align)

    p_explain = sub.add_parser("explain", help="explain entity pairs from a finished run")
    p_explain.add_argument("dataset")
    p_explain.add_argument("--pairs", required=True, help="file of source<TAB>target labels")
    p_explain.add_argument("--mode", choices=("hard", "soft"), default="hard")
    p_explain.add_argument("--rule-length", type=int, default=2, dest="rule_length")
    p_explain.add_argument(
        "--state", required=True, help="output directory of align; its predictions.tsv is read"
    )
    p_explain.add_argument("--exhaustive", action="store_true")
    p_explain.add_argument("--top", type=int, default=None, help="print at most this many rules")
    p_explain.set_defaults(func=_cmd_explain)

    p_eval = sub.add_parser("eval", help="score a predictions file against gold links")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--ks", default="1,10")
    p_eval.set_defaults(func=_cmd_eval)

    p_split = sub.add_parser("split", help="split a links file into train/valid/test")
    p_split.add_argument("links")
    p_split.add_argument("--ratios", default="0.2,0.1")
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--out", required=True)
    p_split.set_defaults(func=_cmd_split)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (data.DatasetError, IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the allocation, such as an embedding
        # table sized by a huge ``neural.dim``
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
