"""The suite runs one monoid at a time: no theorem instance reaches past
its monoid's acts, so each monoid's analyses are dropped before the next
monoid is analysed, and the traced peak of a run stays near one monoid's
share instead of growing with the corpus."""

import gc
import tracemalloc
import weakref

from monact import harness
from monact.deciders import ActAnalysis
from monact.harness import CorpusSpec, run_suite

# Traced peak of one default run, with the run memo keeping congruences
# and subacts as plain tuples: 0.73 MB in this test and 0.85 MB from a
# cold start on CPython 3.11, 0.98 MB from a cold start on 3.10.  The
# bound leaves about 50 % over the largest.
DEFAULT_SUITE_PEAK_MB = 1.5


def test_no_analysis_outlives_its_monoid(monkeypatch):
    made = []  # (monoid table, weak reference) per analysis, in order
    leaked = []

    class Recording(ActAnalysis):
        def __init__(self, act):
            M = act.monoid.table
            if made and made[-1][0] != M:
                gc.collect()
                leaked.extend(table for table, ref in made if table != M and ref() is not None)
            super().__init__(act)
            made.append((M, weakref.ref(self)))

    monkeypatch.setattr(harness, "ActAnalysis", Recording)
    result = run_suite(CorpusSpec())
    assert all(v.passed for v in result.verdicts)
    assert len({table for table, _ in made}) == len(result.corpus.monoids) == 10
    assert leaked == []


def test_default_suite_traced_peak_is_bounded():
    tracemalloc.start()
    try:
        result = run_suite(CorpusSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v.passed for v in result.verdicts)
    assert peak < DEFAULT_SUITE_PEAK_MB * 1e6, peak
