"""Set-up shared by the test modules: every failing test is reported.

When a Hypothesis property fails, Hypothesis imports ``hypothesis.extra._patching``
to suggest a patch. Where libcst is installed, that import builds a
``mypy_extensions.TypedDict``, which raises a ``DeprecationWarning`` in
libcst's own code. pyproject.toml makes every ``DeprecationWarning`` an error,
so the import would fail inside pytest's report of the failure and end the
session at INTERNALERROR, with every later result lost. Imported once here,
with ``DeprecationWarning`` ignored for that import alone, the module is
cached and the report goes through; the filter holds for every test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
