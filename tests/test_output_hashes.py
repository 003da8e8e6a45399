"""tools/output_hashes.py runs on a few benchmark inputs and prints one
hash line per output group."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_output_hashes_print_one_line_per_group():
    script = os.path.join(ROOT, "tools", "output_hashes.py")
    proc = subprocess.run([sys.executable, script, "--root", ROOT, "--words", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [(name, int(n)) for name, n, _ in lines] == [
        ("bmapd", 3), ("smapd", 3), ("bgcd", 3), ("spa-T1", 3), ("spa-T0.002", 3), ("sgcd", 1), ("bme", 3),
        ("enum-exact", 3), ("typesum-exact", 3), ("enum-float", 3), ("typesum-float", 3),
    ]
    assert all(re.fullmatch("[0-9a-f]{16}", digest) for _, _, digest in lines)
