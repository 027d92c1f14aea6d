"""Self-test of the benchmark's output checks: a clean output must pass
and each deliberately corrupted copy of it must be caught.

    python3 perfbench/selftest.py

`run.py` calls `corruption_problems()` on every run and reports the run
as incorrect if any corruption slips through.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks
from essc import (
    BenchmarkSpec,
    essc,
    generate,
    single_embedded_theta,
    write_communities,
)


def corruption_problems() -> list[str]:
    """Empty when the checks accept a clean output and reject every
    corruption; otherwise one line per check that misbehaved."""
    spec = BenchmarkSpec(kind="sbm_single", n=1000, pi=0.1, kappa=10,
                         theta=single_embedded_theta(1000, 0.1, 10, 40), rng_seed=1)
    g, _ = generate(spec)
    result = essc(g)
    if not result.communities:
        return ["the self-test graph yields no community to corrupt"]
    communities, background = list(result.communities), result.background
    text = write_communities(communities, background, g.labels)
    outsider = min(background)
    member = min(communities[0])

    problems = []
    cover, found = checks.read_cover(g, text)
    found += checks.check_cover(g, (communities, background), 0.05)
    if found or cover != (communities, background):
        problems.append(f"a clean output fails its checks: {found}")

    corrupt_covers = {
        "a background vertex added to a community":
            ([communities[0] | {outsider}] + communities[1:], background),
        "a vertex dropped from the background": (communities, background - {outsider}),
        "a member moved to the background":
            ([communities[0] - {member}] + communities[1:], background | {member}),
    }
    for what, corrupt in corrupt_covers.items():
        if not checks.check_cover(g, corrupt, 0.05):
            problems.append(f"not caught: {what}")

    first, rest = text.split("\n", 1)
    corrupt_texts = {
        "a repeated label in the file": f"{first} {first.split()[0]}\n{rest}",
        "an unknown label in the file": f"{first} no-such-vertex\n{rest}",
        "a file without its background line": first + "\n",
    }
    for what, corrupt in corrupt_texts.items():
        if not checks.read_cover(g, corrupt)[1]:
            problems.append(f"not caught: {what}")

    if checks.tv_bound(2000, 50, 0.1) >= 0.5:
        problems.append("not caught: an oracle TV distance of 0.5 at 2000 samples")
    return problems


if __name__ == "__main__":
    found = corruption_problems()
    for line in found:
        print(line)
    print("selftest:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
