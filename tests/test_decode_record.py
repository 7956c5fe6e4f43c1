"""The committed decode record: ranked names, log-probabilities and
attention records of a few seeded models, bit for bit."""

import json

import decode_record


def test_a_fresh_decode_equals_the_committed_record():
    want = json.loads(decode_record.RECORD.read_text())
    got = decode_record.decode()
    assert [(c["seed"], c["model_kind"]) for c in got] == \
        [(c["seed"], c["model_kind"]) for c in want]
    for fresh, committed in zip(got, want):
        assert fresh == committed
