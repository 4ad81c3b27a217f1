import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))
# A line that a demo must print: the sample and gold lexicons share two
# (lemma, code) entries, so their union holds 88.
PRINTS = {"build_inflected_lexicon.py": "lemmas:          88\n"}


def test_demos_found():
    assert DEMOS  # an empty list would leave test_demo_runs with no cases


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert PRINTS.get(name, "") in done.stdout
