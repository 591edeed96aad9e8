"""The point-to-point hot path must not move a single bit of any result.

``data/hotpath_identity.json`` was generated (by ``hotpath_corpus.py``)
before the message path was streamlined; every scenario is recomputed
here and its digest compared.  The grid covers every benchmark
operation on four platforms with seeded process counts, eager and
rendezvous sizes, progress counts and selectors, plus a resilient run
under drops, a fault-tolerant run under drops and a rank crash, and a
traced run.
"""

import json

import pytest

from repro.bench.overlap import OPERATION_KINDS

from . import hotpath_corpus as corpus


@pytest.fixture(scope="module")
def reference():
    with open(corpus.DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_grid_covers_every_axis(reference):
    grid = corpus.grid()
    assert sorted(corpus.scenario_id(sc) for sc in grid) == sorted(reference)
    plain = [sc for sc in grid if sc["kind"] == "plain"]
    assert {sc["operation"] for sc in plain} == set(OPERATION_KINDS)
    for axis, values in (("platform", corpus.PLATFORMS),
                         ("nprocs", corpus.NPROCS),
                         ("nbytes", corpus.NBYTES),
                         ("nprogress", corpus.NPROGRESS),
                         ("selector", corpus.SELECTORS)):
        assert {sc[axis] for sc in plain} == set(values), axis
    assert {sc["kind"] for sc in grid} == {"plain", "resilient", "ft",
                                           "traced"}


@pytest.mark.parametrize("sc", corpus.grid(), ids=corpus.scenario_id)
def test_scenario_digest_is_unchanged(sc, reference):
    assert corpus.digest(corpus.run(sc)) == reference[corpus.scenario_id(sc)]
