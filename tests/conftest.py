import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches what it finds in local source files under its home
# directory while tests are being collected; with ``database=None`` on the
# fuzz tests, that cache is all it writes. Keep it out of the working tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
