"""The workloads' correctness checks catch a wrong output."""

import numpy as np
import pytest

from harness import CheckFailed, Laps
from workloads import load


def one_round(name):
    workload = load(name)(5, tiny=True)
    workload.setup()
    workload.start_phase()
    for _ in range(workload.min_rounds()):
        state = workload.new_round()
        workload.finish_round(state, workload.run_round(state, Laps()))
    return workload


def test_decode_output_differing_from_the_oracle_fails():
    workload = one_round("decode_prefix_cluster")
    workload.verify()
    workload.round_outputs[3][1] = workload.round_outputs[3][1] + 1e-12
    with pytest.raises(CheckFailed, match="sequential oracle"):
        workload.verify()


def test_memo_response_differing_from_the_oracle_fails():
    workload = one_round("vision_memo_cluster")
    workload.verify()
    workload.round_outputs = [o + 1e-12 for o in workload.round_outputs]
    with pytest.raises(CheckFailed, match="batch-1 sequential oracle"):
        workload.verify()


def test_vit_accuracy_drop_beyond_the_fig15_tolerance_fails():
    workload = one_round("vit_noisy_eval")
    try:
        workload.verify()
        rng = np.random.default_rng(0)
        for index, logits in workload.first_pass.items():
            workload.first_pass[index] = rng.normal(size=logits.shape)
        with pytest.raises(CheckFailed, match="drops more than"):
            workload.verify()
    finally:
        workload.close()
