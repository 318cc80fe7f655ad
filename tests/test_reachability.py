"""The reachability trace, ``tests/reachability.py``, on one user path."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "reachability.py"

#: A report line naming one unreached function: ``file:line name lines``.
_FUNCTION = re.compile(r"^src/repro/\S+\.py:\d+ (\S+) \d+$")


def test_table2_trace_reaches_cmd_table2_not_cmd_serve():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--only", "table2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    unreached = [
        match.group(1) for match in map(_FUNCTION.match, lines) if match
    ]
    assert "cmd_table2" not in unreached
    assert "cmd_serve" in unreached
    assert lines[-1].startswith(f"unreached: {len(unreached)} functions, ")
