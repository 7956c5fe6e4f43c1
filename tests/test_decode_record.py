"""The committed decode record: ranked names and attention records of a
few seeded models exactly, and their log-probabilities within the stated
bound."""

import json

import decode_record


def test_a_fresh_decode_equals_the_committed_record():
    want = json.loads(decode_record.RECORD.read_text())
    assert decode_record.differences(decode_record.decode(), want) == []
