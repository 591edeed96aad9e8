"""``history_key`` must name the exact key a local tuner stores its
decision under, for every operation the service accepts."""

import pytest

from repro.bench.overlap import OPERATION_KINDS, run_overlap
from repro.serve.core import history_key, normalize_request, overlap_config


class _KeyProbe:
    """A history that records the keys an ``ADCLRequest`` looks up."""

    def __init__(self):
        self.keys = []

    def lookup(self, key):
        self.keys.append(key)
        return None

    def record(self, key, winner, decided_at):
        pass

    def forget(self, key):
        pass


@pytest.mark.parametrize("operation", sorted(OPERATION_KINDS))
def test_history_key_matches_adcl_request(operation):
    req = normalize_request({"operation": operation, "nprocs": 4,
                             "nbytes": 1024, "iterations": 1})
    probe = _KeyProbe()
    run_overlap(overlap_config(req), history=probe)
    assert probe.keys == [history_key(req)]
