"""The benchmark's per-layer metrics hook names in ``cstriple`` from the
outside (``perfbench/tracing.py``).  A hook whose target is gone is skipped
there and its metrics read "absent"; these tests make such a rename fail
here instead."""

import importlib
import sys
from pathlib import Path

import pytest

from cstriple import verifier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("tracing")
    yield module
    for name in ("tracing", "workloads", "hostspeed"):
        sys.modules.pop(name, None)


def _owner(module_name, class_name):
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name, None) if class_name else owner


def test_every_traced_hook_target_exists(tracing):
    # The same test as Tracer.install: the attribute must be defined on the
    # owner itself, not inherited.
    missing = [
        f"{module_name}.{class_name + '.' if class_name else ''}{attr}"
        for module_name, class_name, attr, _, _ in tracing.HOOKS
        if (owner := _owner(module_name, class_name)) is None or attr not in vars(owner)
    ]
    assert missing == []


def test_draw_attempt_counter_target_exists():
    # Tracer.install counts explorer.draw.attempts on this method.
    state = _owner("cstriple.explorer", "MacroState")
    assert state is not None and "is_feasible" in vars(state)


def test_corpus_builders_and_check_names_match(tracing):
    corpus = importlib.import_module("cstriple.corpus")
    assert any(a.startswith("build_") and callable(v) for a, v in vars(corpus).items())
    assert tuple(tracing.CHECK_NAMES) == tuple(verifier.CHECK_NAMES)
