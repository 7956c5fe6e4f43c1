"""The committed training record: per-epoch losses, gradient norms and
validation metrics, and final parameter sums, of both model kinds at
minibatch 1 and 2, within the stated bound."""

import json

import train_record


def test_a_fresh_training_run_is_within_the_bound_of_the_committed_record():
    want = json.loads(train_record.RECORD.read_text())
    assert train_record.differences(train_record.run(), want) == []
