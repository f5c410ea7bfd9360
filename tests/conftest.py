"""Hypothesis runs derandomized in every module, so a run of the whole
suite and a run of one module alike draw the same examples every time."""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail to collect alone
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("deterministic")
