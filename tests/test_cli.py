"""End-to-end command-line runs against temporary files."""

import json

import pytest

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


def test_usage_errors_exit_two(clique_file):
    with pytest.raises(SystemExit) as err:
        main(["detect", "--input", str(clique_file), "--bogus-flag"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


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


def test_eval_rejects_mismatched_vertex_sets(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0 1\nbackground: 2\n")
    b.write_text("0 1\nbackground: 2 3\n")
    assert main(["eval", "--pred", str(a), "--truth", str(b), "--metric", "gnmi"]) == 1
    assert "error:" in capsys.readouterr().err
