"""Every experiment's CSV and summary bytes against the golden digests.

The golden file pins the default configs at seed 0 and the perfbench
invocations at seeds 1 and 7 (see digests.py). A failure names each moved
file and column, led by whether a verdict, pass or count cell moved.
"""

import json

import numpy as np
import pytest

import digests

GOLDEN = json.loads(digests.GOLDEN.read_text())
RUNS = digests.runs()


def test_golden_file_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_outputs_match_golden_digests(label):
    experiment, config, seed = RUNS[label]
    got = digests.record(experiment, config, seed)
    report = digests.moved(label, experiment, GOLDEN[label], got)
    assert not report, "\n".join(report)


def test_moved_names_a_one_ulp_qfi_cell_and_a_flipped_pass_cell():
    code, csv, summary = digests.run("lemma1-montecarlo", "trials = 5\n", 3)
    base = digests.digest(code, csv, summary)
    header, *rows = csv.decode().splitlines()
    col = header.split(",").index("qfi")
    cells = rows[2].split(",")
    cells[col] = format(float(np.nextafter(float(cells[col]), np.inf)), ".17g")
    bumped = "\n".join([header, *rows[:2], ",".join(cells), *rows[3:]]) + "\n"
    report = digests.moved("probe", "lemma1-montecarlo", base, digests.digest(code, bumped.encode(), summary))
    assert report == [
        "probe: a verdict, pass or count cell moved: no",
        "  lemma1-montecarlo.csv column 'qfi' (value) moved",
    ]
    flipped = summary.replace(b'"passed": true', b'"passed": false')
    report = digests.moved("probe", "lemma1-montecarlo", base, digests.digest(1, csv, flipped))
    assert report == [
        "probe: a verdict, pass or count cell moved: yes",
        "  exit code 0 -> 1",
        "  lemma1-montecarlo.summary.json key 'passed' (verdict) moved",
    ]
    assert digests.moved("probe", "lemma1-montecarlo", base, base) == []
