"""README's Library example and CLI block run as written against the
package in src/."""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _readme_block(heading, lang):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    code = _readme_block("Library", "python")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_readme_cli_block_runs(tmp_path):
    # run by bash -eu in a fresh directory, reflexff being the module on src/
    block = _readme_block("CLI", "sh")
    script = (f'reflexff() {{ "{sys.executable}" -m reflexff.cli "$@"; }}\n'
              + block)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(os.path.join(ROOT, "src"))}
    done = subprocess.run(["bash", "-eu", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # one JSON report on stdout per request without --output, and one in
    # each file written
    decoder, out, reports = json.JSONDecoder(), done.stdout, []
    while out.strip():
        report, end = decoder.raw_decode(out.lstrip())
        reports.append(report)
        out = out.lstrip()[end:]
    requests = [line for line in block.splitlines() if line.startswith("reflexff ")]
    assert len(reports) == sum("--output" not in line for line in requests) == 6
    for name in ("rep.json", "closure.json", "g.json"):
        json.loads((tmp_path / name).read_text())
