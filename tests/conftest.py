import os

import hypothesis

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")

# Tests that start `python -m dimkit` in a subprocess need the package from
# this checkout, which pytest's `pythonpath` setting gives only to itself.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
