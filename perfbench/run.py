"""Benchmark of the essc package: end-to-end timing and quality, or a
traced run that splits the time by layer.

    python3 perfbench/run.py --workload lfr-10k --seed 1 --seconds 15 --trace 0

Each workload is a closed loop of cases on one client, in one process
with one thread. Inputs come from `--seed` alone. Cases run until their
summed time reaches `--seconds` and the workload's fixed window of cases
is done; every case's output is checked outside the timed region. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

try:
    import numpy as np

    import essc.bench
    import essc.cli
    import essc.detect
    import essc.metrics
    from essc import single_embedded_theta, write_communities, write_edge_list
except ImportError as exc:  # not run from a checkout that holds the package
    sys.exit(f"error: cannot import the essc package from {SRC}: {exc}")

import checks
import selftest
import tracing

ALPHA = 0.05
ORACLE_SAMPLES = 2000

# per-layer self-time metrics, by span name
SELF_TIMED = [
    "graph.parse_edge_list", "graph.from_pair_arrays", "graph.boundary_counts",
    "graph.volume", "significance.pvalue_table", "significance.select_by_fdr",
    "significance.block_probability", "detect.community_search", "detect.essc",
    "detect.write_communities", "detect.summarize", "cli.main", "bench.generate",
    "bench.pair_stubs", "metrics.gnmi_cover", "metrics.best_match_score",
    "metrics.empirical_boundary_distribution",
]


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit generator seed fixed by the workload seed and `keys`."""
    state = np.random.SeedSequence([seed % 2**64, *keys]).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def window_means(scores: dict[int, tuple[float, ...]], window: range) -> tuple[float, ...]:
    """Mean of each score over the cases of `window` that were scored;
    zeros when none was (the run then reports failed cases anyway)."""
    rows = [scores[i] for i in window if i in scores]
    if not rows:
        return (0.0,) * 2
    return tuple(statistics.fmean(column) for column in zip(*rows))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quiet_main(argv: list[str]) -> str:
    """Run the `essc` entry point; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = essc.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"essc {argv[0]} exited with {code}")
    return out.getvalue()


class FileWorkload:
    """`essc detect` on edge-list files generated in set-up; one case
    runs the CLI on one file, cycling through the files."""

    count_cases = 1

    def __init__(self, work: Path, seed: int, key: int, files: int, spec_fields: dict):
        self.work, self.seed, self.key = work, seed, key
        self.files, self.spec_fields = files, spec_fields
        self.quality_cases = files
        self.graphs, self.truths = [], []
        self.digests: dict[int, str] = {}
        self.scores: dict[int, tuple[float, float]] = {}

    def set_up(self) -> list[float]:
        times = []
        for j in range(self.files):
            started = time.perf_counter()
            spec = essc.bench.BenchmarkSpec(
                rng_seed=derive_seed(self.seed, self.key, j), **self.spec_fields)
            g, truth = essc.bench.generate(spec)
            (self.work / f"graph-{j}.txt").write_text(write_edge_list(g))
            times.append(time.perf_counter() - started)
            # the checks read the file by label against this graph, whose
            # labels are the ids; a vertex without edges would be missing
            # from the file and change the selection step's denominator
            if int(g.degrees.min()) == 0:
                raise RuntimeError("generated graph has a vertex without edges")
            self.graphs.append(g)
            self.truths.append((list(truth.communities), truth.background))
        return times

    def run_case(self, i: int) -> int:
        j = i % self.files
        quiet_main(["detect", "--input", str(self.work / f"graph-{j}.txt"),
                    "--output", str(self.work / f"communities-{j}.txt"),
                    "--summary", str(self.work / "report.json")])
        return j

    def check(self, i: int, j: int) -> list[str]:
        text = (self.work / f"communities-{j}.txt").read_text()
        g = self.graphs[j]
        cover, problems = checks.read_cover(g, text)
        if cover is not None:
            problems += checks.check_cover(g, cover, ALPHA)
        digest = sha256(text)
        if self.digests.setdefault(j, digest) != digest:
            problems.append(f"output differs from the first case on file {j}")
        if cover is not None and j not in self.scores:
            self.scores[j] = checks.quality(cover, self.truths[j])
        return problems

    def quality(self) -> tuple[float, float]:
        return window_means(self.scores, range(self.files))

    def digest_lines(self) -> list[str]:
        return [f"community file {j}: sha256 {d}" for j, d in sorted(self.digests.items())]


def _planted_mix() -> list[dict]:
    lfr = dict(kind="lfr", n=1000, dbar=40, tau1=2, tau2=1, s1=20, s2=100)
    mix = [dict(lfr, mu=mu, rho=0.0) for mu in (0.1, 0.3, 0.5)]
    mix += [dict(lfr, kind="lfr_bg", pi=0.5, mu=mu) for mu in (0.1, 0.3)]
    mix += [dict(kind="sbm_single", n=1000, pi=pi, kappa=10,
                 theta=single_embedded_theta(1000, pi, 10, 40)) for pi in (0.05, 0.1)]
    return mix


class PlantedWorkload:
    """The library loop on n=1000 planted graphs, one graph per case:
    generate, extract, then score against the planted truth."""

    def __init__(self, seed: int, key: int):
        self.seed, self.key = seed, key
        self.mix = _planted_mix()
        self.count_cases = len(self.mix)
        self.quality_cases = 15 * len(self.mix)
        self.scores: dict[int, tuple[float, float]] = {}
        self.texts: dict[int, str] = {}

    def _case(self, fields: dict, rng_seed: int):
        g, truth = essc.bench.generate(essc.bench.BenchmarkSpec(rng_seed=rng_seed, **fields))
        result = essc.detect.essc(g, alpha=ALPHA)
        score = essc.metrics.gnmi_cover((result.communities, result.background),
                                        (truth.communities, truth.background))
        best = statistics.fmean(essc.metrics.best_match_score(result.communities, c)
                                for c in truth.communities if c)
        return g, result, score, best

    def set_up(self) -> list[float]:
        # set-up is a warm-up case on a fixed graph, repeated
        times = []
        for _ in range(9):
            started = time.perf_counter()
            self._case(self.mix[1], derive_seed(self.seed, self.key, 1 << 20))
            times.append(time.perf_counter() - started)
        return times

    def run_case(self, i: int):
        return self._case(self.mix[i % len(self.mix)], derive_seed(self.seed, self.key, i))

    def check(self, i: int, out) -> list[str]:
        g, result, score, best = out
        text = write_communities(result.communities, result.background, g.labels)
        cover, problems = checks.read_cover(g, text)
        if cover is not None:
            if cover != (result.communities, result.background):
                problems.append("community file does not read back as the result")
            problems += checks.check_cover(g, cover, ALPHA)
        self.scores.setdefault(i, (score, best))
        if i < len(self.mix):
            self.texts.setdefault(i, text)
        return problems

    def quality(self) -> tuple[float, float]:
        return window_means(self.scores, range(self.quality_cases))

    def digest_lines(self) -> list[str]:
        joined = "".join(self.texts[i] for i in sorted(self.texts))
        return [f"community files of cases 0-{len(self.texts) - 1}: sha256 {sha256(joined)}"]


class OracleWorkload:
    """`essc oracle` in the c6 configuration; each case draws its own
    degree sequence and stub pairings."""

    count_cases = 1
    quality_cases = 8

    def __init__(self, work: Path, seed: int, key: int):
        self.work, self.seed, self.key = work, seed, key
        self.fits: dict[int, tuple[float]] = {}

    def _argv(self, rng_seed: int) -> list[str]:
        return ["oracle", "--n", "1000", "--tau1", "2", "--dbar", "20",
                "--set-fraction", "0.1", "--target-degree", "50",
                "--samples", str(ORACLE_SAMPLES), "--rng-seed", str(rng_seed),
                "--report", str(self.work / "oracle.json")]

    def set_up(self) -> list[float]:
        # set-up is a warm-up case with a fixed seed, repeated
        times = []
        for _ in range(3):
            started = time.perf_counter()
            quiet_main(self._argv(derive_seed(self.seed, self.key, 1 << 20)))
            times.append(time.perf_counter() - started)
        return times

    def run_case(self, i: int) -> str:
        return quiet_main(self._argv(derive_seed(self.seed, self.key, i)))

    def check(self, i: int, printed: str) -> list[str]:
        tv = float(printed.strip().splitlines()[-1])
        report = json.loads((self.work / "oracle.json").read_text())
        problems = []
        if report["tv_distance"] != tv:
            problems.append("printed TV distance differs from the report")
        bound = checks.tv_bound(ORACLE_SAMPLES, report["vertex_degree"],
                                report["block_probability"])
        if not 0.0 <= tv <= bound:
            problems.append(f"TV distance {tv:.4f} outside [0, {bound:.4f}]")
        self.fits.setdefault(i, (1.0 - tv,))
        return problems

    def quality(self) -> tuple[float, float]:
        # no cover to score: both quality metrics carry 1 - TV distance
        fit = window_means(self.fits, range(self.quality_cases))[0]
        return fit, fit

    def digest_lines(self) -> list[str]:
        return ["no community file (the oracle writes a distribution)"]


LFR_10K = dict(kind="lfr", n=10_000, dbar=40, tau1=2, tau2=1, mu=0.3, s1=20, s2=100, rho=0.0)
NULL_50K = dict(kind="config", n=50_000, dbar=20, tau1=2)

WORKLOADS = {
    "lfr-10k": lambda work, seed: FileWorkload(work, seed, 1, 6, LFR_10K),
    "null-50k": lambda work, seed: FileWorkload(work, seed, 2, 3, NULL_50K),
    "planted-1k": lambda work, seed: PlantedWorkload(seed, 3),
    "oracle": lambda work, seed: OracleWorkload(work, seed, 4),
}


class Loop:
    """Runs cases, times each, checks each outside the timed region."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run_for(self, budget: float, min_cases: int) -> list[float]:
        """Cases 0, 1, ... until their time sums to `budget` and at least
        `min_cases` ran; returns the time of each."""
        times: list[float] = []
        while len(times) < min_cases or sum(times) < budget:
            times.append(self.run_one(len(times)))
        return times

    def run_cases(self, cases: range, tracer=None) -> list[float]:
        return [self.run_one(i, tracer) for i in cases]

    def run_one(self, i: int, tracer=None) -> float:
        if tracer is not None:
            tracer.open_case(i)
        started = time.perf_counter()
        try:
            out, error = self.workload.run_case(i), None
        except Exception as exc:  # a failed case is counted, not fatal
            out, error = None, exc
            traceback.print_exc()
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.close_case()
        self.attempted += 1
        problems = [f"raised {error!r}"] if error is not None else self.check(i, out)
        if problems:
            self.failed += 1
            print(f"case {i} FAILED: " + "; ".join(problems))
        return elapsed

    def check(self, i: int, out) -> list[str]:
        try:
            return self.workload.check(i, out)
        except Exception as exc:  # a crashing check is a failed case
            traceback.print_exc()
            return [f"check raised {exc!r}"]


def tail(times: list[float]) -> tuple[float, float]:
    """The slowest case time with at least ten cases above it, or the
    upper median when there are fewer than twenty cases: (value, the
    share of cases at or below it)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, len(ordered) // 2)
    return ordered[k], (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, loop: Loop, seconds: float, setup: list[float]) -> dict:
    times = loop.run_for(seconds, workload.quality_cases)
    tail_s, q = tail(times)
    gnmi, best = workload.quality()
    print(f"cases: {len(times)}; wall_s_tail is p{100 * q:.1f} of {len(times)} cases")
    return {
        "wall_s": (statistics.median(times), "s"),
        "wall_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "gnmi": (gnmi, "score"),
        "mean_best_match": (best, "score"),
        "passed_frac": ((loop.attempted - loop.failed) / loop.attempted, "fraction"),
    }


def per_layer(workload, loop: Loop, seconds: float, spans_path: Path) -> tuple[dict, bool]:
    plain = loop.run_for(seconds / 2, 1)
    window_cases = range(workload.count_cases)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the same cases as the untraced phase, and at least the window
        traced = loop.run_cases(window_cases, tracer)
        window = tracing.derived_counts(tracer.counts)
        traced += loop.run_cases(range(len(traced), len(plain)), tracer)
    finally:
        tracer.uninstall()
    # counts must repeat exactly: run the window again and compare
    repeat = tracing.Tracer()
    repeat.install()
    try:
        loop.run_cases(window_cases, repeat)
    finally:
        repeat.uninstall()
    repeat_ok = tracing.derived_counts(repeat.counts) == window
    if not repeat_ok:
        print("SELF-CHECK FAILED: count metrics differ between two runs of the same cases")
    tracer.write_spans(spans_path)

    selfs = tracer.self_times()
    cases = len(traced)
    print(f"self time per case over {cases} traced cases (one thread: no layer waits)")
    for name in sorted(selfs, key=selfs.get, reverse=True):
        share = selfs[name] / sum(traced)
        print(f"  {name:42s} {selfs[name] / cases:10.6f} s  {100 * share:5.1f} %")
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"tracing overhead: {overhead:.6f} s per case "
          f"(traced median {statistics.median(traced):.6f} s, "
          f"untraced median {statistics.median(plain):.6f} s)")
    metrics = {f"{name}.self_s": (selfs.get(name, 0.0) / cases, "s") for name in SELF_TIMED}
    for name, value in window.items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, repeat_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problems = selftest.corruption_problems()
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup = workload.set_up()
        loop = Loop(workload)
        if args.trace:
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, repeat_ok = per_layer(workload, loop, args.seconds, spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            metrics, repeat_ok = end_to_end(workload, loop, args.seconds, setup), True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in workload.digest_lines():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:.6g} {unit}")
    correct = loop.failed == 0 and repeat_ok and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
