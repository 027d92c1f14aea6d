"""What importing the package loads, and what the benchmark tracer patches."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import essc

ROOT = Path(__file__).resolve().parent.parent


def test_import_leaves_scipy_stats_unloaded():
    # the binomial law comes from scipy.special alone; scipy.stats costs
    # about a second of start-up
    out = subprocess.run(
        [sys.executable, "-c", "import essc, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(essc.__file__).parent.parent)},
    )
    assert out.stdout.strip() == "False"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_target():
    tracing = _load_tracing()

    def current(owner, attr):
        # a class attribute is read raw, so a classmethod stays one
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    originals = [current(owner, attr) for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, _), original in zip(tracing.TARGETS, originals):
            assert current(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr, _), original in zip(tracing.TARGETS, originals):
        assert current(owner, attr) is original, attr
