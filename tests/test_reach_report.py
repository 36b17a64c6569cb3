"""The reach report (``scripts/reach_report.py``) on synthetic inputs.

No workload runs here: each test writes a small ``src/repro`` tree and the
``*.reach`` rows the probe would have written for it, then reads what the
report rejects.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_report():
    spec = importlib.util.spec_from_file_location(
        "reach_report", ROOT / "scripts" / "reach_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach_report = _load_report()

MODULE = '''\
from abc import ABC, abstractmethod
from typing import Protocol


def used():
    return 1


def planted():
    return 2


class Base(ABC):
    def __init__(self):
        self.x = 0

    @abstractmethod
    def step(self):
        ...

    @property
    def value(self):
        return self.x


class Reader(Protocol):
    def read(self) -> str:
        ...
'''


@pytest.fixture
def tree(tmp_path):
    """A one-module ``src/repro`` and its functions, keyed as the probe keys them."""
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "mod.py").write_text(MODULE, encoding="utf-8")
    return src, reach_report.definitions(src)


def _key(functions, name):
    (key,) = [key for key, qualified in functions.items() if qualified.endswith(f"::{name}")]
    return key


def _probe(tmp_path, keys):
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "1.reach").write_text("".join(f"{path}:{line}\n" for path, line in keys))
    return reach_report.reached(probe)


def test_a_planted_unreached_function_is_reported(tree, tmp_path):
    _, functions = tree
    hits = _probe(tmp_path, [_key(functions, "used"), _key(functions, "Base.value")])
    assert reach_report.report(functions, hits, {}) == ["unreached: repro/mod.py::planted"]
    allowed = {"repro/mod.py::planted": "test-only"}
    assert reach_report.report(functions, hits, allowed) == []


def test_a_stale_allow_list_entry_is_reported(tree, tmp_path):
    _, functions = tree
    hits = _probe(tmp_path, functions)  # every function ran
    allowed = {"repro/mod.py::used": "test-only", "repro/mod.py::gone": "test-only"}
    assert reach_report.report(functions, hits, allowed) == [
        "stale allow-list entry (no such function): repro/mod.py::gone",
        "stale allow-list entry (now reached, take it off): repro/mod.py::used",
    ]


def test_an_entry_needs_a_known_reason(tree, tmp_path):
    _, functions = tree
    hits = _probe(tmp_path, [_key(functions, "used"), _key(functions, "Base.value")])
    assert reach_report.report(functions, hits, {"repro/mod.py::planted": "later"}) == [
        "unknown reason 'later': repro/mod.py::planted"
    ]


def test_dunders_abstract_methods_and_protocol_members_are_exempt(tree):
    _, functions = tree
    assert sorted(functions.values()) == [
        "repro/mod.py::Base.value", "repro/mod.py::planted", "repro/mod.py::used",
    ]
    # A decorated function is keyed by its first decorator's line, as the
    # probe's code object is.
    assert _key(functions, "Base.value")[1] == MODULE.splitlines().index("    @property") + 1


def test_the_allow_list_length_is_pinned():
    """The allow list only shrinks: take an entry off, then lower the pin."""
    assert len(reach_report.load_allow()) == reach_report.ALLOW_LIST_LENGTH


def test_every_allow_list_entry_names_a_function_with_a_known_reason():
    functions = reach_report.definitions()
    allowed = reach_report.load_allow()
    hits = {key for key, name in functions.items() if name not in allowed}
    assert reach_report.report(functions, hits, allowed) == []
