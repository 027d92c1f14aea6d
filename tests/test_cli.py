"""End-to-end command-line runs against temporary files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import essc
from essc.cli import main, sweep_alpha
from essc.detect import read_communities
from essc.graph import parse_edge_list, write_edge_list

from helpers import two_cliques


@pytest.fixture
def clique_file(tmp_path):
    path = tmp_path / "cliques.txt"
    path.write_text(write_edge_list(two_cliques(10)))
    return path


def test_detect_writes_communities_and_report(clique_file, tmp_path, capsys):
    out = tmp_path / "comms.txt"
    summary = tmp_path / "report.json"
    code = main([
        "detect", "--input", str(clique_file), "--alpha", "0.05",
        "--output", str(out), "--summary", str(summary),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == " ".join(str(i) for i in range(10))
    assert lines[1] == " ".join(str(i) for i in range(10, 20))
    assert lines[2] == "background:"
    report = json.loads(summary.read_text())
    assert report["parameters"]["alpha"] == 0.05
    assert report["summary"]["community_count"] == 2
    assert report["summary"]["background_proportion"] == 0.0
    assert report["seed_log"]
    assert "communities: 2" in capsys.readouterr().out


def test_module_entry_point_exits_with_main_status(clique_file, tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "essc", *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(essc.__file__).parent.parent)},
        )

    out = str(tmp_path / "comms.txt")
    done = run("detect", "--input", str(clique_file), "--output", out)
    assert done.returncode == 0
    assert "communities: 2" in done.stdout
    # argparse rejects a missing required option with status 2
    missing = run("detect", "--output", out)
    assert missing.returncode == 2
    assert "--input" in missing.stderr


def test_detect_accepts_strategy_and_simplify(clique_file, tmp_path):
    out = tmp_path / "comms.txt"
    code = main([
        "detect", "--input", str(clique_file), "--output", str(out),
        "--seed-strategy", "all-neighborhoods", "--simplify",
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_detect_is_deterministic(clique_file, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert main(["detect", "--input", str(clique_file), "--output", str(out)]) == 0
    assert a.read_text() == b.read_text()


def test_generate_detect_eval_round_trip(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    truth = tmp_path / "t.txt"
    code = main([
        "generate", "lfr-bg", "--n", "2000", "--pi", "0.5", "--dbar", "30",
        "--mu", "0.2", "--tau1", "2", "--tau2", "1", "--smin", "20",
        "--smax", "100", "--rng-seed", "5", "--out", str(graph),
        "--truth", str(truth),
    ])
    assert code == 0
    assert truth.read_text().splitlines()[-1].startswith("background:")

    comms = tmp_path / "c.txt"
    assert main(["detect", "--input", str(graph), "--output", str(comms)]) == 0

    capsys.readouterr()
    code = main(["eval", "--pred", str(comms), "--truth", str(truth), "--metric", "gnmi"])
    assert code == 0
    score = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= score <= 1.0


def test_eval_perfect_prediction_scores_one(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    truth = tmp_path / "t.txt"
    main([
        "generate", "sbm-single", "--n", "400", "--pi", "0.2", "--kappa", "8",
        "--dbar", "12", "--rng-seed", "3", "--out", str(graph), "--truth", str(truth),
    ])
    capsys.readouterr()
    for metric in ("gnmi", "nmi", "bg-jaccard", "mean-best-match"):
        code = main(["eval", "--pred", str(truth), "--truth", str(truth),
                     "--metric", metric])
        assert code == 0
        assert float(capsys.readouterr().out.strip().splitlines()[-1]) == pytest.approx(1.0)


def test_generate_er_and_config(tmp_path):
    for args in (
        ["generate", "er", "--n", "300", "--dbar", "6", "--rng-seed", "1"],
        ["generate", "config", "--n", "300", "--dbar", "6", "--tau1", "2", "--rng-seed", "1"],
    ):
        out = tmp_path / "g.txt"
        assert main(args + ["--out", str(out)]) == 0
        g = parse_edge_list(out.read_text())
        assert 4 <= g.degrees.mean() <= 8


def test_generate_lfr_with_overlap(tmp_path):
    out = tmp_path / "g.txt"
    truth = tmp_path / "t.txt"
    code = main([
        "generate", "lfr", "--n", "600", "--dbar", "16", "--tau1", "2",
        "--tau2", "1", "--mu", "0.2", "--smin", "12", "--smax", "50",
        "--rho", "0.1", "--rng-seed", "6", "--out", str(out), "--truth", str(truth),
    ])
    assert code == 0
    comms, bg = read_communities(truth.read_text())
    assert bg == []
    members = [t for line in comms for t in line]
    assert len(members) == 600 + 60  # overlap seats counted twice


def test_generate_prints_drawn_seed_when_omitted(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["generate", "er", "--n", "50", "--dbar", "4", "--out", str(out)]) == 0
    assert "rng-seed:" in capsys.readouterr().out


def test_sweep_alpha_two_cliques_rows_identical(clique_file, tmp_path):
    report_path = tmp_path / "sweep.json"
    code = main([
        "sweep-alpha", "--input", str(clique_file),
        "--reference-alpha", "0.05", "--output", str(report_path),
    ])
    assert code == 0
    rows = json.loads(report_path.read_text())["rows"]
    assert len(rows) == 10
    for row in rows:
        assert row["community_count"] == 2
        assert row["background_proportion"] == 0.0
        assert row["background_jaccard"] == 1.0


def test_main_calls_share_no_state(clique_file, tmp_path, capsys):
    # the parser is built once per process; one call's flags must not leak
    # into the next call's defaults
    report_path = tmp_path / "sweep.json"
    for alphas in (["--alphas", "0.05"], []):
        argv = ["sweep-alpha", "--input", str(clique_file), "--output", str(report_path)]
        assert main(argv + alphas) == 0
    assert len(json.loads(report_path.read_text())["rows"]) == 10
    out = tmp_path / "g.txt"
    for seed in (["--rng-seed", "1"], []):
        capsys.readouterr()
        assert main(["generate", "er", "--n", "50", "--dbar", "4", "--out", str(out)] + seed) == 0
    assert capsys.readouterr().out.startswith("rng-seed: ")


def test_sweep_alpha_single_level():
    rows = sweep_alpha(two_cliques(8), [0.05], 0.05)
    assert len(rows) == 1
    assert rows[0]["background_jaccard"] == 1.0


def test_sweep_alpha_background_stability():
    from essc.bench import BenchmarkSpec, generate

    spec = BenchmarkSpec(kind="lfr_bg", n=1000, dbar=40, tau1=2.0, tau2=1.0,
                         mu=0.2, s1=20, s2=100, pi=0.5, rng_seed=9)
    g, _ = generate(spec)
    alphas = [round(0.01 * k, 2) for k in range(1, 11)]
    rows = sweep_alpha(g, alphas, 0.05)
    # most adjacent levels should agree on the background (vs the reference)
    stable = sum(1 for a, b in zip(rows, rows[1:])
                 if min(a["background_jaccard"], b["background_jaccard"]) >= 0.5)
    assert stable > (len(rows) - 1) // 2


def test_sweep_alpha_validation():
    g = two_cliques(6)
    with pytest.raises(ValueError):
        sweep_alpha(g, [], 0.05)
    with pytest.raises(ValueError):
        sweep_alpha(g, [0.01], 0.05)


def test_oracle_prints_tv_distance(tmp_path, capsys):
    report = tmp_path / "oracle.json"
    code = main([
        "oracle", "--n", "100", "--tau1", "2", "--dbar", "10",
        "--set-fraction", "0.1", "--samples", "2000", "--rng-seed", "7",
        "--report", str(report),
    ])
    assert code == 0
    tv = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= tv <= 1.0
    payload = json.loads(report.read_text())
    assert payload["tv_distance"] == tv
    assert payload["set_size"] == 10


LFR_ARGS = ["--n", "100", "--dbar", "8", "--tau1", "2", "--tau2", "1", "--mu", "0.2",
            "--smin", "10"]


def test_usage_errors_exit_two(clique_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["detect", "--input", str(clique_file), "--bogus-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    out = clique_file.parent / "g.txt"
    for argv, message in (
        (["sbm-single", "--n", "40", "--pi", "0.3", "--kappa", "5", "--theta", "0.1",
          "--dbar", "6"],
         "essc generate sbm-single: error: argument --dbar: not allowed with argument "
         "--theta"),
        (["lfr", *LFR_ARGS],
         "essc generate lfr: error: the following arguments are required: --smax"),
        (["er", "--n", "30", "--dbar", "4", "--smin", "3"],
         "essc: error: unrecognized arguments: --smin 3"),
        (["lfr-bg", *LFR_ARGS, "--smax", "30", "--pi", "0.5", "--rho", "0.1"],
         "essc: error: unrecognized arguments: --rho 0.1"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["generate", *argv, "--out", str(out), "--truth", str(out) + ".truth"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not out.exists()


def test_domain_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    out = tmp_path / "out.txt"
    assert main(["detect", "--input", str(missing), "--output", str(out)]) == 1
    assert "error:" in capsys.readouterr().err

    graph = tmp_path / "bad.txt"
    graph.write_text("0 1\nnot-enough\n")
    assert main(["detect", "--input", str(graph), "--output", str(out)]) == 1

    code = main([
        "generate", "sbm-single", "--n", "100", "--pi", "0.2", "--kappa", "10",
        "--theta", "0.15", "--rng-seed", "1", "--out", str(out),
        "--truth", str(tmp_path / "t.txt"),
    ])
    assert code == 1

    background_only = tmp_path / "bg.txt"
    background_only.write_text("background: 0 1 2\n")
    capsys.readouterr()
    code = main(["eval", "--pred", str(background_only), "--truth", str(background_only),
                 "--metric", "mean-best-match"])
    assert code == 1
    assert capsys.readouterr().err == "error: truth file contains no non-empty communities\n"


@pytest.mark.parametrize("text", [
    "a b 99999999999999999999\n",
    "a b 9007199254740993\n",
    "a b 2251799813685248\nb c 2251799813685248\n",
])
def test_detect_rejects_multiplicities_past_exact_counting(text, tmp_path, capsys):
    graph = tmp_path / "heavy.txt"
    graph.write_text(text)
    out = tmp_path / "out.txt"
    assert main(["detect", "--input", str(graph), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2**53" in err
    assert not out.exists()


def test_generate_rejects_non_finite_parameters(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main([
        "generate", "lfr", "--n", "400", "--dbar", "nan", "--tau1", "2", "--tau2", "1",
        "--mu", "0.2", "--smin", "10", "--smax", "40", "--rng-seed", "1",
        "--out", str(out), "--truth", str(tmp_path / "t.txt"),
    ])
    assert code == 1
    assert "error: dbar must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--n", "0"),
    ("--n", "1"),
    ("--set-fraction", "-0.5"),
    ("--set-fraction", "0"),
    ("--set-fraction", "1.5"),
    ("--set-fraction", "nan"),
    ("--set-fraction", "inf"),
    ("--target-degree", "nan"),
    ("--target-degree", "inf"),
])
def test_oracle_rejects_bad_inputs(flag, value, tmp_path, capsys):
    report = tmp_path / "oracle.json"
    argv = {"--set-fraction": "0.1", "--target-degree": "12", flag: value}
    code = main([
        "oracle", "--n", "100", "--tau1", "2", "--dbar", "10", "--samples", "200",
        "--rng-seed", "7", "--report", str(report),
        *(token for item in argv.items() for token in item),
    ])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag[2:]} must ")
    assert not report.exists()


def test_oracle_whole_set_fraction_takes_every_other_vertex(tmp_path):
    report = tmp_path / "oracle.json"
    assert main([
        "oracle", "--n", "50", "--tau1", "2", "--dbar", "6", "--set-fraction", "1",
        "--samples", "200", "--rng-seed", "3", "--report", str(report),
    ]) == 0
    assert json.loads(report.read_text())["set_size"] == 49


@pytest.mark.parametrize("metric", ["gnmi", "nmi", "bg-jaccard", "mean-best-match"])
def test_eval_rejects_mismatched_vertex_sets(metric, tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0 1\nbackground: 2\n")
    b.write_text("0 1\nbackground: 2 3\n")
    assert main(["eval", "--pred", str(a), "--truth", str(b), "--metric", metric]) == 1
    assert "error:" in capsys.readouterr().err


# The command-line contract, one row per run: the exit code, the exact
# stdout, and the report (its top-level key order and every value but the
# timing). "{tmp}" stands for the test's temporary directory.

CONTRACT_EDGES = write_edge_list(two_cliques(10)) + "0 10 1\n0 1 2\n3 3 1\n"
CONTRACT_PRED = "0 1 2\n3 4 5 6 7\nbackground: 8 9\n"
CONTRACT_TRUTH = "0 1 2 3\n4 5 6 7\nbackground: 8 9\n"
SEED_FIELDS = ("anchor", "seed_size", "termination", "iterations",
               "community_size", "accepted", "forced_progress", "fallback")


def _seed_log(*rows):
    return [dict(zip(SEED_FIELDS, row)) for row in rows]


CONTRACT = {
    "detect-max-degree": (
        ["detect", "--input", "{tmp}/g.txt", "--output", "{tmp}/c.txt", "--summary",
         "{tmp}/r.json"],
        0, "communities: 2  background: 0/20\n",
        {
            "command": "detect",
            "parameters": {
                "input": "{tmp}/g.txt",
                "alpha": 0.05,
                "seed_strategy": "max_degree",
                "simplify": False,
                "output": "{tmp}/c.txt",
            },
            "n": 20,
            "edge_count": 94,
            "alpha": 0.05,
            "summary": {
                "community_count": 2,
                "mean_size": 10.0,
                "size_stddev": 0.0,
                "mean_membership": 1.0,
                "mean_degree_community": 9.4,
                "mean_degree_background": None,
                "background_proportion": 0.0,
            },
            "community_sizes": [10, 10],
            "seed_log": _seed_log(
                (0, 11, "fixed_point", 2, 10, True, False, False),
                (10, 11, "fixed_point", 2, 10, True, False, False),
            ),
        },
    ),
    "detect-all-neighborhoods": (
        ["detect", "--input", "{tmp}/g.txt", "--output", "{tmp}/c.txt", "--alpha",
         "0.05", "--seed-strategy", "all-neighborhoods", "--simplify", "--summary",
         "{tmp}/r.json"],
        0, "communities: 2  background: 0/20\n",
        {
            "command": "detect",
            "parameters": {
                "input": "{tmp}/g.txt",
                "alpha": 0.05,
                "seed_strategy": "all_neighborhoods",
                "simplify": True,
                "output": "{tmp}/c.txt",
            },
            "n": 20,
            "edge_count": 91,
            "alpha": 0.05,
            "summary": {
                "community_count": 2,
                "mean_size": 10.0,
                "size_stddev": 0.0,
                "mean_membership": 1.0,
                "mean_degree_community": 9.1,
                "mean_degree_background": None,
                "background_proportion": 0.0,
            },
            "community_sizes": [10, 10],
            "seed_log": _seed_log(
                (0, 11, "fixed_point", 2, 10, True, False, False),
                (1, 10, "fixed_point", 1, 10, True, False, False),
                (2, 10, "fixed_point", 1, 10, True, False, False),
                (3, 10, "fixed_point", 1, 10, True, False, False),
                (4, 10, "fixed_point", 1, 10, True, False, False),
                (5, 10, "fixed_point", 1, 10, True, False, False),
                (6, 10, "fixed_point", 1, 10, True, False, False),
                (7, 10, "fixed_point", 1, 10, True, False, False),
                (8, 10, "fixed_point", 1, 10, True, False, False),
                (9, 10, "fixed_point", 1, 10, True, False, False),
                (10, 11, "fixed_point", 2, 10, True, False, False),
                (11, 10, "fixed_point", 1, 10, True, False, False),
                (12, 10, "fixed_point", 1, 10, True, False, False),
                (13, 10, "fixed_point", 1, 10, True, False, False),
                (14, 10, "fixed_point", 1, 10, True, False, False),
                (15, 10, "fixed_point", 1, 10, True, False, False),
                (16, 10, "fixed_point", 1, 10, True, False, False),
                (17, 10, "fixed_point", 1, 10, True, False, False),
                (18, 10, "fixed_point", 1, 10, True, False, False),
                (19, 10, "fixed_point", 1, 10, True, False, False),
            ),
        },
    ),
    "generate-er": (
        ["generate", "er", "--n", "30", "--dbar", "4", "--rng-seed", "1", "--out",
         "{tmp}/e.txt", "--report", "{tmp}/r.json"],
        0, "wrote {tmp}/e.txt: n=30 edges=57 communities=0\n",
        {
            "command": "generate er",
            "parameters": {
                "dbar": 4.0,
                "n": 30,
                "rng_seed": 1,
                "out": "{tmp}/e.txt",
                "truth": None,
            },
            "n": 30,
            "edge_count": 57,
            "mean_degree": 3.8,
            "planted_communities": 0,
        },
    ),
    "generate-lfr": (
        ["generate", "lfr", "--n", "100", "--dbar", "8", "--tau1", "2", "--tau2", "1",
         "--mu", "0.2", "--smin", "10", "--smax", "30", "--rho", "0.1", "--rng-seed",
         "2", "--out", "{tmp}/l.txt", "--truth", "{tmp}/t.txt", "--report",
         "{tmp}/r.json"],
        0, "wrote {tmp}/l.txt: n=100 edges=336 communities=6\n",
        {
            "command": "generate lfr",
            "parameters": {
                "dbar": 8.0,
                "tau1": 2.0,
                "tau2": 1.0,
                "mu": 0.2,
                "smin": 10,
                "smax": 30,
                "rho": 0.1,
                "n": 100,
                "rng_seed": 2,
                "out": "{tmp}/l.txt",
                "truth": "{tmp}/t.txt",
            },
            "n": 100,
            "edge_count": 336,
            "mean_degree": 6.72,
            "planted_communities": 6,
        },
    ),
    "generate-config": (
        ["generate", "config", "--n", "30", "--dbar", "4", "--tau1", "2", "--rng-seed",
         "1", "--out", "{tmp}/e.txt", "--report", "{tmp}/r.json"],
        0, "wrote {tmp}/e.txt: n=30 edges=83 communities=0\n",
        {
            "command": "generate config",
            "parameters": {
                "dbar": 4.0,
                "tau1": 2.0,
                "n": 30,
                "rng_seed": 1,
                "out": "{tmp}/e.txt",
                "truth": None,
            },
            "n": 30,
            "edge_count": 83,
            "mean_degree": 5.533333333333333,
            "planted_communities": 0,
        },
    ),
    "generate-sbm-single-dbar": (
        ["generate", "sbm-single", "--n", "40", "--pi", "0.3", "--kappa", "5", "--dbar",
         "6", "--rng-seed", "3", "--out", "{tmp}/s.txt", "--truth", "{tmp}/t.txt",
         "--report", "{tmp}/r.json"],
        0, "wrote {tmp}/s.txt: n=40 edges=130 communities=1\n",
        {
            "command": "generate sbm-single",
            "parameters": {
                "pi": 0.3,
                "kappa": 5.0,
                "theta": None,
                "dbar": 6.0,
                "n": 40,
                "rng_seed": 3,
                "out": "{tmp}/s.txt",
                "truth": "{tmp}/t.txt",
            },
            "n": 40,
            "edge_count": 130,
            "mean_degree": 6.5,
            "planted_communities": 1,
        },
    ),
    "generate-sbm-single-theta": (
        ["generate", "sbm-single", "--n", "40", "--pi", "0.3", "--kappa", "5", "--theta",
         "0.1", "--rng-seed", "3", "--out", "{tmp}/s.txt", "--truth", "{tmp}/t.txt",
         "--report", "{tmp}/r.json"],
        0, "wrote {tmp}/s.txt: n=40 edges=117 communities=1\n",
        {
            "command": "generate sbm-single",
            "parameters": {
                "pi": 0.3,
                "kappa": 5.0,
                "theta": 0.1,
                "dbar": None,
                "n": 40,
                "rng_seed": 3,
                "out": "{tmp}/s.txt",
                "truth": "{tmp}/t.txt",
            },
            "n": 40,
            "edge_count": 117,
            "mean_degree": 5.85,
            "planted_communities": 1,
        },
    ),
    "generate-lfr-no-rho": (
        ["generate", "lfr", "--n", "100", "--dbar", "8", "--tau1", "2", "--tau2", "1",
         "--mu", "0.2", "--smin", "10", "--smax", "30", "--rng-seed", "2", "--out",
         "{tmp}/l.txt", "--truth", "{tmp}/t.txt", "--report", "{tmp}/r.json"],
        0, "wrote {tmp}/l.txt: n=100 edges=336 communities=6\n",
        {
            "command": "generate lfr",
            "parameters": {
                "dbar": 8.0,
                "tau1": 2.0,
                "tau2": 1.0,
                "mu": 0.2,
                "smin": 10,
                "smax": 30,
                "rho": 0.0,
                "n": 100,
                "rng_seed": 2,
                "out": "{tmp}/l.txt",
                "truth": "{tmp}/t.txt",
            },
            "n": 100,
            "edge_count": 336,
            "mean_degree": 6.72,
            "planted_communities": 6,
        },
    ),
    "generate-lfr-bg": (
        ["generate", "lfr-bg", "--n", "200", "--pi", "0.5", "--dbar", "8", "--tau1", "2",
         "--tau2", "1", "--mu", "0.2", "--smin", "10", "--smax", "30", "--rng-seed",
         "4", "--out", "{tmp}/b.txt", "--truth", "{tmp}/t.txt", "--report",
         "{tmp}/r.json"],
        0, "wrote {tmp}/b.txt: n=200 edges=916 communities=4\n",
        {
            "command": "generate lfr-bg",
            "parameters": {
                "dbar": 8.0,
                "tau1": 2.0,
                "tau2": 1.0,
                "mu": 0.2,
                "smin": 10,
                "smax": 30,
                "pi": 0.5,
                "n": 200,
                "rng_seed": 4,
                "out": "{tmp}/b.txt",
                "truth": "{tmp}/t.txt",
            },
            "n": 200,
            "edge_count": 916,
            "mean_degree": 9.16,
            "planted_communities": 4,
        },
    ),
    "eval-gnmi": (
        ["eval", "--pred", "{tmp}/pred.txt", "--truth", "{tmp}/truth.txt", "--metric",
         "gnmi", "--report", "{tmp}/r.json"],
        0, "0.7405730059156649\n",
        {
            "command": "eval",
            "parameters": {
                "pred": "{tmp}/pred.txt",
                "truth": "{tmp}/truth.txt",
                "metric": "gnmi",
            },
            "score": 0.7405730059156649,
        },
    ),
    "eval-nmi": (
        ["eval", "--pred", "{tmp}/pred.txt", "--truth", "{tmp}/truth.txt", "--metric",
         "nmi", "--report", "{tmp}/r.json"],
        0, "0.7721274397725246\n",
        {
            "command": "eval",
            "parameters": {
                "pred": "{tmp}/pred.txt",
                "truth": "{tmp}/truth.txt",
                "metric": "nmi",
            },
            "score": 0.7721274397725246,
        },
    ),
    "eval-bg-jaccard": (
        ["eval", "--pred", "{tmp}/pred.txt", "--truth", "{tmp}/truth.txt", "--metric",
         "bg-jaccard", "--report", "{tmp}/r.json"],
        0, "1.0\n",
        {
            "command": "eval",
            "parameters": {
                "pred": "{tmp}/pred.txt",
                "truth": "{tmp}/truth.txt",
                "metric": "bg-jaccard",
            },
            "score": 1.0,
        },
    ),
    "eval-mean-best-match": (
        ["eval", "--pred", "{tmp}/pred.txt", "--truth", "{tmp}/truth.txt", "--metric",
         "mean-best-match", "--report", "{tmp}/r.json"],
        0, "0.775\n",
        {
            "command": "eval",
            "parameters": {
                "pred": "{tmp}/pred.txt",
                "truth": "{tmp}/truth.txt",
                "metric": "mean-best-match",
            },
            "score": 0.775,
        },
    ),
    "sweep-alpha": (
        ["sweep-alpha", "--input", "{tmp}/g.txt", "--alphas", "0.01,0.05",
         "--reference-alpha", "0.05", "--output", "{tmp}/r.json"],
        0,
        "alpha=0.01 communities=0 background=1.0000 background_jaccard=0.0000\n"
        "alpha=0.05 communities=2 background=0.0000 background_jaccard=1.0000\n",
        {
            "command": "sweep-alpha",
            "parameters": {
                "input": "{tmp}/g.txt",
                "alphas": [0.01, 0.05],
                "reference_alpha": 0.05,
                "seed_strategy": "max_degree",
                "simplify": False,
            },
            "rows": [
                {
                    "alpha": 0.01,
                    "community_count": 0,
                    "mean_size": None,
                    "size_stddev": None,
                    "mean_membership": None,
                    "mean_degree_community": None,
                    "mean_degree_background": 9.4,
                    "background_proportion": 1.0,
                    "background_jaccard": 0.0,
                },
                {
                    "alpha": 0.05,
                    "community_count": 2,
                    "mean_size": 10.0,
                    "size_stddev": 0.0,
                    "mean_membership": 1.0,
                    "mean_degree_community": 9.4,
                    "mean_degree_background": None,
                    "background_proportion": 0.0,
                    "background_jaccard": 1.0,
                },
            ],
        },
    ),
    "oracle": (
        ["oracle", "--n", "100", "--tau1", "2", "--dbar", "10", "--set-fraction",
         "0.1", "--samples", "500", "--target-degree", "12", "--rng-seed", "7",
         "--report", "{tmp}/r.json"],
        0, "0.030572390666624136\n",
        {
            "command": "oracle",
            "parameters": {
                "n": 100,
                "tau1": 2.0,
                "dbar": 10.0,
                "set_fraction": 0.1,
                "samples": 500,
                "rng_seed": 7,
                "target_degree": 12.0,
            },
            "vertex_degree": 12,
            "set_size": 10,
            "block_probability": 0.05422993492407809,
            "tv_distance": 0.030572390666624136,
        },
    ),
    "detect-report-dir-missing": (
        ["detect", "--input", "{tmp}/g.txt", "--output", "{tmp}/c.txt", "--summary",
         "{tmp}/missing/r.json"],
        1, "",
        None,
    ),
    "sweep-alpha-report-dir-missing": (
        ["sweep-alpha", "--input", "{tmp}/g.txt", "--alphas", "0.05", "--output",
         "{tmp}/missing/r.json"],
        1, "",
        None,
    ),
    "generate-report-dir-missing": (
        ["generate", "er", "--n", "30", "--dbar", "4", "--rng-seed", "1", "--out",
         "{tmp}/e.txt", "--report", "{tmp}/missing/r.json"],
        1, "",
        None,
    ),
    "eval-report-dir-missing": (
        ["eval", "--pred", "{tmp}/pred.txt", "--truth", "{tmp}/truth.txt", "--metric",
         "nmi", "--report", "{tmp}/missing/r.json"],
        1, "",
        None,
    ),
    "oracle-report-dir-missing": (
        ["oracle", "--n", "100", "--tau1", "2", "--dbar", "10", "--set-fraction",
         "0.1", "--samples", "500", "--rng-seed", "7", "--report",
         "{tmp}/missing/r.json"],
        1, "",
        None,
    ),
}


@pytest.mark.parametrize("name", list(CONTRACT))
def test_cli_contract(name, tmp_path, capsys):
    argv, code, stdout, report = CONTRACT[name]
    (tmp_path / "g.txt").write_text(CONTRACT_EDGES)
    (tmp_path / "pred.txt").write_text(CONTRACT_PRED)
    (tmp_path / "truth.txt").write_text(CONTRACT_TRUTH)
    tmp = str(tmp_path)
    assert main([a.replace("{tmp}", tmp) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out.replace(tmp, "{tmp}") == stdout
    if code:
        assert err.startswith("error:")
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == (["r.json"] if report else [])
    if report:
        got = json.loads((tmp_path / "r.json").read_text().replace(tmp, "{tmp}"))
        keys = list(report)
        keys.insert(2, "duration_seconds")
        assert list(got) == keys
        assert got.pop("duration_seconds") >= 0.0
        assert got == report
