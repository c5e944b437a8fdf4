"""The README's examples run as written and give the results it states."""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from jackb2.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _run(command):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(command.split())
    return code, out.getvalue()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_quick_start_runs_in_a_fresh_interpreter():
    (block,) = _blocks("python")
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_stated_cli_results():
    text = "\n".join(_blocks("sh"))
    # A jack command followed by the comment line '# ... "value": "6"'.
    (jack, jack_value), = re.findall(r'^jackb2 (jack [^#\n]*?)\s*\n# \.\.\. ("value": "[^"]*")',
                                     text, re.M)
    # A bessel command with its value in a trailing comment.
    (bessel, bessel_value), = re.findall(r"^jackb2 (bessel [^#\n]*?)\s*# value (\S+)$", text, re.M)
    assert (jack, bessel) == ("jack --lambda 1,1 --k 1/2 --n 2 --x 3,2",
                              "bessel --kappa 1,1 --x 0,0 --y 1,2 --method series")
    code, out = _run(jack)
    assert code == 0 and jack_value in out
    code, out = _run(bessel)
    assert code == 0 and json.loads(out)["cases"][0]["value"] == float(bessel_value)
