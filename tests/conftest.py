import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# CLI tests start `python -m reesmult` children; let them import the
# checkout's package without an install, as the test process does.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
