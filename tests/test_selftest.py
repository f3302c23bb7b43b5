"""The selftest harness's shared-work shortcuts against the loops they replace."""

import dataclasses

import pytest

from deflatrix.diagnostics import CHECK_SLACK
from deflatrix.linalg import RandomSource
from deflatrix.selftest import _directional_sums, build_run_corpus, run_level_checks


@pytest.fixture(scope="module")
def corpus():
    return build_run_corpus(RandomSource(11), dims=(8, 12, 16), t_values=(3, 50))


def _ref_sums(run, basis, k):
    # the directional-sum row's original loop: every dot taken again for each
    # later step, summed in ascending k' (the order of the builtin sum() it
    # used), for each direction j >= k
    sums = []
    for j in range(k, run.d + 1):
        acc = 0
        for kp in range(1, k):
            acc += run.top_eigenvalues[kp - 1] * abs(
                float(run.components[:, kp - 1] @ basis[:, j - 1])
            )
        sums.append(acc)
    return sums


def _ref_verdicts(corpus):
    holds = violated = 0
    for bundle in corpus:
        run, basis = bundle.run, bundle.run.spectrum.basis
        for dg in bundle.diags:
            sums = _ref_sums(run, basis, dg.k)
            ok = True
            for j, acc in zip(range(dg.k, run.d + 1), sums):
                if dg.directional_gaps[j - 1] > acc + CHECK_SLACK:
                    ok = False
                    break
            holds += ok
            violated += not ok
    return holds, violated


def test_directional_sums_match_reference_bitwise(corpus):
    for bundle in corpus:
        run, basis = bundle.run, bundle.run.spectrum.basis
        got = _directional_sums(run, basis)
        assert len(got) == run.K
        for k in range(1, run.K + 1):
            assert got[k - 1][k - 1 :] == _ref_sums(run, basis, k)


@pytest.mark.parametrize("inflate", [1.0, 1e3])
def test_directional_sum_verdicts_match_reference(corpus, inflate):
    # inflating the measured gaps makes later steps violate, so both verdicts
    # are compared, not only the passing one
    runs = [
        dataclasses.replace(
            bundle,
            diags=[
                dataclasses.replace(dg, directional_gaps=dg.directional_gaps * inflate)
                for dg in bundle.diags
            ],
        )
        for bundle in corpus
    ]
    holds, violated = _ref_verdicts(runs)
    tally = run_level_checks(runs)["directional_sum"]
    assert (tally.holds, tally.violated, tally.skipped) == (holds, violated, 0)
    if inflate > 1.0:
        assert holds and violated
