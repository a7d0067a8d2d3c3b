"""The end-to-end demo's output tree, pinned byte for byte."""

import hashlib
import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).parent
PINNED = HERE / "pipeline_seed7.json"


def _load_run_pipeline():
    spec = importlib.util.spec_from_file_location(
        "run_pipeline", HERE.parent / "scripts" / "run_pipeline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_pipeline_seed_7_writes_the_pinned_bytes(tmp_path):
    assert _load_run_pipeline().run(tmp_path, 7, 8) == 0
    found = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*")) if path.is_file()
    }
    assert found == json.loads(PINNED.read_text(encoding="utf-8"))
