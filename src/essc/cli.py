"""Command-line front end.

Subcommands: ``detect`` (extract communities from an edge list),
``generate`` (benchmark graphs with ground truth), ``eval`` (score a
prediction against a truth file), ``sweep-alpha`` (stability of the
detection across significance levels), and ``oracle`` (Monte-Carlo check
of the binomial boundary-count approximation).

Each subcommand computes its fields and one stdout line; `main` times
the call, writes the report to the file named by the command's report
flag (``command``, ``parameters``, ``duration_seconds``, then the fields)
and prints the line.

Exit codes: 0 on success, 1 on domain or I/O errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bench, metrics
from .detect import (
    DEFAULT_ALPHA,
    SEED_ALL_NEIGHBORHOODS,
    SEED_MAX_DEGREE,
    essc,
    read_communities,
    summarize,
    write_communities,
)
from .errors import EsscError, ParameterError
from .graph import MultiGraph, parse_edge_list, write_edge_list


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"rng-seed: {seed}")
    return seed


def _load_graph(path: str, simplify: bool) -> MultiGraph:
    g = parse_edge_list(Path(path).read_text())
    return g.simplified() if simplify else g


def _cmd_detect(args) -> tuple[dict, str]:
    g = _load_graph(args.input, args.simplify)
    result = essc(g, alpha=args.alpha, seed_strategy=args.seed_strategy)
    Path(args.output).write_text(
        write_communities(result.communities, result.background, g.labels)
    )
    stats = asdict(summarize(g, result))
    fields = {
        "n": g.n,
        "edge_count": g.edge_count,
        "alpha": result.alpha,
        "summary": stats,
        "community_sizes": [len(c) for c in result.communities],
        "seed_log": [asdict(rec) for rec in result.seed_log],
    }
    return fields, (
        f"communities: {stats['community_count']}  "
        f"background: {len(result.background)}/{g.n}"
    )


# the generate flag of each spec field whose name differs
_FLAGS = {"s1": "smin", "s2": "smax"}


def _spec_from_args(args) -> bench.BenchmarkSpec:
    kind = args.kind.replace("-", "_")
    fields = {name: getattr(args, _FLAGS.get(name, name)) for name in bench.FIELDS[kind]}
    if kind == "sbm_single" and args.theta is None:
        fields["theta"] = bench.single_embedded_theta(args.n, args.pi, args.kappa, args.dbar)
    return bench.BenchmarkSpec(kind=kind, n=args.n, rng_seed=args.rng_seed, **fields)


def _cmd_generate(args) -> tuple[dict, str]:
    args.rng_seed = _resolve_seed(args.rng_seed)
    spec = _spec_from_args(args)
    g, truth = bench.generate(spec)
    Path(args.out).write_text(write_edge_list(g))
    if args.truth:
        Path(args.truth).write_text(
            write_communities(truth.communities, truth.background, g.labels)
        )
    fields = {
        "n": g.n,
        "edge_count": g.edge_count,
        "mean_degree": float(g.degrees.mean()) if g.n else 0.0,
        "planted_communities": len(truth.communities),
    }
    return fields, (
        f"wrote {args.out}: n={g.n} edges={g.edge_count} "
        f"communities={len(truth.communities)}"
    )


def _tokens_to_cover(
    raw: tuple[list[list[str]], list[str]], key: dict[str, int]
) -> tuple[list[frozenset[int]], frozenset[int]]:
    comms = [frozenset(key[t] for t in line) for line in raw[0]]
    bg = frozenset(key[t] for t in raw[1])
    return comms, bg


def _evaluate(metric: str, pred_path: str, truth_path: str) -> float:
    raw_pred = read_communities(Path(pred_path).read_text())
    raw_truth = read_communities(Path(truth_path).read_text())
    # match vertices by label, with ids in first-seen order: every score
    # is invariant under relabeling
    key: dict[str, int] = {}
    for raw in (raw_pred, raw_truth):
        for line in [*raw[0], raw[1]]:
            for t in line:
                key.setdefault(t, len(key))
    pred = _tokens_to_cover(raw_pred, key)
    truth = _tokens_to_cover(raw_truth, key)

    if metric == "gnmi":
        return metrics.gnmi_cover(pred, truth)
    if metric == "nmi":
        return metrics.nmi_partition(metrics._cover_sets(pred), metrics._cover_sets(truth))
    if metric == "bg-jaccard":
        return metrics.jaccard(pred[1], truth[1])
    # mean-best-match: average best Jaccard against each true community
    if not truth[0]:
        raise ValueError("truth file contains no non-empty communities")
    return float(np.mean([metrics.best_match_score(pred[0], c) for c in truth[0]]))


def _cmd_eval(args) -> tuple[dict, str]:
    score = _evaluate(args.metric, args.pred, args.truth)
    return {"score": score}, str(score)


def sweep_alpha(
    g: MultiGraph,
    alphas: Sequence[float],
    reference_alpha: float,
    seed_strategy: str = SEED_MAX_DEGREE,
) -> list[dict]:
    """Run detection at each level and report stability against a reference.

    Each row carries the summary statistics at that alpha plus the
    Jaccard overlap of its background with the reference run's
    background.
    """
    if not alphas:
        raise ValueError("alphas must be non-empty")
    if reference_alpha not in alphas:
        raise ValueError("reference_alpha must be one of the swept alphas")
    runs = [(a, essc(g, alpha=a, seed_strategy=seed_strategy)) for a in alphas]
    ref_background = next(res.background for a, res in runs if a == reference_alpha)
    rows = []
    for a, res in runs:
        stats = summarize(g, res)
        row = {"alpha": a, **asdict(stats)}
        row["background_jaccard"] = metrics.jaccard(res.background, ref_background)
        rows.append(row)
    return rows


def _cmd_sweep(args) -> tuple[dict, str]:
    g = _load_graph(args.input, args.simplify)
    rows = sweep_alpha(g, args.alphas, args.reference_alpha, args.seed_strategy)
    lines = [
        f"alpha={row['alpha']:.4g} communities={row['community_count']} "
        f"background={row['background_proportion']:.4f} "
        f"background_jaccard={row['background_jaccard']:.4f}"
        for row in rows
    ]
    return {"rows": rows}, "\n".join(lines)


def _cmd_oracle(args) -> tuple[dict, str]:
    # the probe vertex needs at least one other vertex to form the set
    if args.n < 2:
        raise ParameterError(f"n must be >= 2, got {args.n}")
    # a NaN fails both comparisons
    if not 0.0 < args.set_fraction <= 1.0:
        raise ParameterError(f"set-fraction must lie in (0, 1], got {args.set_fraction}")
    if args.target_degree is not None and not math.isfinite(args.target_degree):
        raise ParameterError(f"target-degree must be finite, got {args.target_degree}")
    args.rng_seed = _resolve_seed(args.rng_seed)
    rng = np.random.default_rng(args.rng_seed)
    degrees = bench.sample_powerlaw_degrees(args.n, args.tau1, args.dbar, rng)
    if args.target_degree is not None:
        target = args.target_degree
    else:
        target = float(np.median(degrees))
    u = int(np.argmin(np.abs(degrees - target)))
    others = np.delete(np.arange(args.n), u)
    size = int(round(args.set_fraction * args.n))
    size = max(1, min(size, len(others)))
    members = rng.choice(others, size=size, replace=False)
    empirical = metrics.empirical_boundary_distribution(
        degrees, u, members.tolist(), args.samples, rng
    )
    p_block = float(degrees[members].sum() / degrees.sum())
    tv = metrics.tv_distance(empirical, metrics.binomial_pmf(int(degrees[u]), p_block))
    fields = {
        "vertex_degree": int(degrees[u]),
        "set_size": size,
        "block_probability": p_block,
        "tv_distance": tv,
    }
    return fields, str(tv)


def _alpha_list(text: str) -> list[float]:
    return [float(a) for a in text.split(",") if a.strip()]


def _add_detection_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list file")
    # the hyphenated spelling is normalised to the detect.SEED_* names
    p.add_argument("--seed-strategy", default=SEED_MAX_DEGREE,
                   type=lambda s: s.replace("-", "_"),
                   choices=[SEED_MAX_DEGREE, SEED_ALL_NEIGHBORHOODS],
                   metavar="{max-degree,all-neighborhoods}")
    p.add_argument("--simplify", action="store_true",
                   help="collapse multi-edges and drop self-loops first")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essc",
        description="Extract statistically significant communities and "
        "benchmark the extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="extract communities from an edge list")
    _add_detection_options(p)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help="false discovery rate level (default 0.05)")
    p.add_argument("--output", required=True, help="community file to write")
    p.add_argument("--summary", dest="report", help="JSON run report to write")
    p.set_defaults(func=_cmd_detect)

    gen = sub.add_parser("generate", help="write a benchmark graph and its truth")
    gsub = gen.add_subparsers(dest="kind", required=True)

    for kind, names in bench.FIELDS.items():
        gp = gsub.add_parser(kind.replace("_", "-"))
        for name in names:
            if name in _FLAGS:
                gp.add_argument(f"--{_FLAGS[name]}", type=int, required=True)
            elif name == "rho":
                gp.add_argument("--rho", type=float, default=0.0)
            elif name == "theta":
                group = gp.add_mutually_exclusive_group(required=True)
                group.add_argument("--theta", type=float)
                group.add_argument("--dbar", type=float,
                                   help="choose theta to hit this expected mean degree")
            else:
                gp.add_argument(f"--{name}", type=float, required=True)
        gp.add_argument("--n", type=int, required=True)
        gp.add_argument("--rng-seed", type=int, default=None)
        gp.add_argument("--out", required=True, help="edge-list file to write")
        # the null models plant no communities, so their truth is optional
        gp.add_argument("--truth", required=kind not in ("er", "config"),
                        help="ground-truth community file to write")
        gp.add_argument("--report", help="JSON run report to write")
        gp.set_defaults(func=_cmd_generate)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("--pred", required=True, help="predicted community file")
    p.add_argument("--truth", required=True, help="ground-truth community file")
    p.add_argument("--metric", required=True,
                   choices=["gnmi", "nmi", "bg-jaccard", "mean-best-match"])
    p.add_argument("--report", help="JSON run report to write")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-alpha", help="detection stability across levels")
    _add_detection_options(p)
    p.add_argument("--alphas", type=_alpha_list,
                   default="0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.10",
                   help="comma-separated levels")
    p.add_argument("--reference-alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--output", dest="report", help="JSON report to write")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="Monte-Carlo check of the binomial "
                       "approximation to the boundary-count law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau1", type=float, required=True)
    p.add_argument("--dbar", type=float, required=True)
    p.add_argument("--set-fraction", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--target-degree", type=float, default=None,
                   help="pick the test vertex closest to this degree "
                   "(default: the median degree)")
    p.add_argument("--report", help="JSON run report to write")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        started = time.perf_counter()
        fields, line = args.func(args)
        duration = time.perf_counter() - started
        if args.report:
            command = " ".join(filter(None, (args.command, getattr(args, "kind", None))))
            report = {
                "command": command,
                "parameters": {
                    k: v for k, v in vars(args).items()
                    if k not in ("func", "command", "kind", "report")
                },
                "duration_seconds": duration,
                **fields,
            }
            Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    except (EsscError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
