"""Compare files with a sha256 pin of tests/test_golden.py.

Usage: python .github/scripts/check_pin.py PIN PATH

PIN names a module-level assignment in tests/test_golden.py, which is
read with ``ast`` so that the pins live in one place.  A dict pin maps
file names under the directory PATH to their digests; a string pin is
the digest of the file PATH.  Prints each file's result and exits 1 if
any digest differs, after the versions the pins were made with
(``PINNED_WITH``) and those running.
"""

import ast
import hashlib
import os
import sys

import numpy
import yaml

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "..", "tests", "test_golden.py")


def read_pin(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    (pin,) = [
        ast.literal_eval(node.value) for node in module.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]
    return pin


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(name, path):
    pin = read_pin(name)
    files = {os.path.join(path, f): want for f, want in pin.items()} if isinstance(pin, dict) else {path: pin}
    bad = False
    for file, want in files.items():
        got = sha256(file)
        bad |= got != want
        print(f"{file}: sha256 {got}" + ("" if got == want else f", pinned {want} in {name}"))
    if bad:
        running = {
            "python": "%d.%d" % sys.version_info[:2], "numpy": numpy.__version__, "PyYAML": yaml.__version__,
        }
        print(f"pinned with {read_pin('PINNED_WITH')}, running {running}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
