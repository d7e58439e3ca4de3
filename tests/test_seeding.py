import numpy as np
import pytest

from fedal.data import PartitionSpec, partition, seed_initial_labels, synth_blobs
from fedal.fed import FedConfig, fedavg, independent_train
from fedal.nn import LrSchedule, MlpArchitecture, Model, init_params
from fedal.seeding import rng_for, stream_key


@pytest.mark.parametrize("part", [True, False, np.True_])
def test_a_bool_seed_part_is_rejected_as_numpys_bool_is(part):
    with pytest.raises(TypeError, match="unsupported seed part"):
        stream_key(part, "x")
    with pytest.raises(TypeError, match="unsupported seed part"):
        rng_for(7, part)


@pytest.mark.parametrize("train", ["fedavg", "independent_train"])
def test_training_with_dropout_rejects_a_bool_seed(train):
    ds = synth_blobs(30, 2, 2, 0.5, seed=0)
    pools = seed_initial_labels(partition(ds, PartitionSpec(client_count=2), seed=1), 0.5, seed=2)
    arch = MlpArchitecture((2, 3, 2), dropout_rate=0.5)
    model = Model(arch, init_params(arch, 0))
    cfg = FedConfig(schedule=LrSchedule(0.1, 1.0), max_global_iters=1)
    with pytest.raises(TypeError, match="unsupported seed part"):
        if train == "fedavg":
            fedavg(ds, pools, model, cfg, seed=True)
        else:
            independent_train(ds, pools, 0, model, cfg, seed=True)
