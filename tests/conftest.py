import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Selected in CI with --hypothesis-profile=ci: the same examples on every run,
# and a failure prints the blob that reproduces it.
settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
