"""Setup shared by every test module."""

import warnings

# Hypothesis imports this module only while it reports a falsifying
# example.  The import raises mypy_extensions' TypedDict DeprecationWarning,
# which ``filterwarnings = ["error"]`` would turn into an INTERNALERROR that
# hides the example, so it is imported here once with that warning ignored.
# The module needs libcst, which only hypothesis's optional ``codemods``
# extra installs; without it hypothesis skips the import too, so nothing
# is needed here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
