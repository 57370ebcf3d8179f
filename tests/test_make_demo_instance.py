"""scripts/make_demo_instance.py writes the worked example that
``conftest.demo_system`` builds; each file spells it out, and this test
keeps the two copies equal."""

import json
import os
import subprocess
import sys

from conftest import demo_system
from ioselect.system_model import system_from_json

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "scripts", "make_demo_instance.py")


def test_demo_json_is_the_worked_example(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, SCRIPT, "--out", str(tmp_path), "--count", "1"],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert sorted(os.listdir(tmp_path)) == ["demo.json", "gen_6_7.json"]
    with open(tmp_path / "demo.json", encoding="utf-8") as fh:
        assert system_from_json(json.load(fh)) == demo_system()
