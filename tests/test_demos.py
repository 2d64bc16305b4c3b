"""Smoke test: every script in demos/ imports and its main() runs."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if hasattr(module, "HERE"):
        monkeypatch.setattr(module, "HERE", tmp_path)  # files a demo writes
    module.main()
    assert capsys.readouterr().out.strip()


def test_demos_are_found():
    assert "invariant_story" in {p.stem for p in DEMOS}
