"""Make ``ledger/`` modules and the program under test importable."""

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(LEDGER_DIR), "src"), LEDGER_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
