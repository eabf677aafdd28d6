"""Put the benchmark package and the program on the import path."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (E2E, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
