import tempfile

from hypothesis import configuration, settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Hypothesis also caches the constants it reads from local source files, from
# collection on; keep that cache in a temporary directory removed at exit.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)
