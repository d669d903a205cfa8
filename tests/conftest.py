import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# subprocesses (python -m branchkit) import the checkout's package too,
# never an installed copy; pyproject's pythonpath covers this process
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
