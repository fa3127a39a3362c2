import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_demos_write_their_stored_output_byte_for_byte(tmp_path):
    # each demo writes under the output/ next to it, so copies of the scripts write into tmp_path
    scripts = sorted(DEMOS.glob("[0-9][0-9]_*.py"))
    assert len(scripts) == 5
    for script in scripts:
        shutil.copy(script, tmp_path)
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for script in scripts:
        run = subprocess.run([sys.executable, script.name], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert run.returncode == 0, (script.name, run.stderr)
    stored = sorted(p.name for p in (DEMOS / "output").iterdir())
    assert sorted(p.name for p in (tmp_path / "output").iterdir()) == stored
    for name in stored:
        assert (tmp_path / "output" / name).read_bytes() == (DEMOS / "output" / name).read_bytes(), name
