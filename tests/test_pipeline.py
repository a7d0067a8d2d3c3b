"""The end-to-end demo's output tree and the scripts' stdout, pinned byte for byte."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
PINNED = HERE / "pipeline_seed7.json"
# sha256 of each script's seed-7 stdout; run_pipeline's output directory is
# written as <outdir>
RUN_PIPELINE_STDOUT = "2db2268954e1f68caa3a295e44e94b3f3c9562d8aff1c4ca14de7a6203cca2a9"
HORIZON_STDOUT = "1ecd00a3afb6dd4765a1cf913358198cb3e93583c94b9659f9c86df43111b6c6"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, HERE.parent / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_run_pipeline_seed_7_writes_the_pinned_bytes(tmp_path, capsys):
    assert _load_script("run_pipeline").run(tmp_path, 7, 8) == 0
    stdout = capsys.readouterr().out
    found = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert found == json.loads(PINNED.read_text(encoding="utf-8"))
    # validate's ok: line is part of it
    assert _sha256(stdout.replace(str(tmp_path), "<outdir>")) == RUN_PIPELINE_STDOUT


def test_horizon_sensitivity_seed_7_prints_the_pinned_bytes(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["horizon_sensitivity.py", "--seed", "7"])
    _load_script("horizon_sensitivity").main()
    assert _sha256(capsys.readouterr().out) == HORIZON_STDOUT
