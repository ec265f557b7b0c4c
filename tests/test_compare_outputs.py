"""`tools/compare_outputs.py` refuses a work directory that already holds files."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.mark.parametrize("used", ["file-inside", "is-a-file"])
def test_used_work_dir_refused(tmp_path, used):
    work = tmp_path / "work"
    if used == "file-inside":
        work.mkdir()
        (work / "left-over").write_text("x")
    else:
        work.write_text("x")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    # The trees do not exist: the refusal comes before either would run.
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "a"), str(tmp_path / "b"),
                           str(work)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: work directory {work} exists and is not empty\n"
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
