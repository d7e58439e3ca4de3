"""Golden outputs: SHA-256 pins of the result CSV and of every selection.

Each case runs the full harness (``run_experiment`` then ``emit_csv``) on a
small unsaturated setting: thin parallel bands with long shared boundaries,
few labels and a short iteration cap, so test accuracy stays well below 1.0
and a change in any selection or any training step shows in the CSV.  The
second digest covers each client's annotation history (the indices picked
per round), which the CSV's accuracies alone could miss.

A change that alters a digest changes what the simulator computes; it must
say why in CHANGES.md and update the pin.
"""

import hashlib
import json

import numpy as np
import pytest

from fedal import harness
from fedal.config import parse_config
from fedal.data import PartitionSpec, partition, seed_initial_labels, synth_blobs
from fedal.fed import FedConfig, fedavg, independent_train
from fedal.nn import LrSchedule, MlpArchitecture, Model, init_params

BASE = {
    "dataset": {"kind": "blobs", "train_size": 240, "test_size": 120, "classes": 6,
                "dim": 2, "spread": 0.3, "layout": "line", "elongation": 8.0},
    "partition": {"clients": 3},
    "model": {"hidden": [16]},
    "al": {"strategy": "random", "scorer": "entropy", "rounds": 2, "budget": 36,
           "initial_label_fraction": 0.1, "mc_passes": 3},
    "fl": {"lr": 0.5, "lr_decay": 0.99, "stop_loss_threshold": 0.03, "max_global_iters": 15},
    "independent": {"lr": 0.5, "lr_decay": 0.99, "stop_loss_threshold": 0.03,
                    "max_global_iters": 15},
    "run": {"repeats": 1, "seed": 5},
}

NOISY = {"model": {"activation": "tanh", "dropout": 0.2},
         "fl": {"minibatch_size": 8}, "independent": {"minibatch_size": 8}}
MINIBATCH = {"fl": {"minibatch_size": 8}, "independent": {"minibatch_size": 8}}
SKEW = {"partition": {"mode": "label_skew", "classes_per_client": 2}}


def _al(strategy, scorer="entropy"):
    return {"al": {"strategy": strategy, "scorer": scorer}}


CASES = {
    "random": [_al("random")],
    "full_budget": [_al("full_budget")],
    **{f"{s}-{k}": [_al(s, k)] for s in ("s_al", "f_al")
       for k in ("entropy", "mc_dropout", "discrepancy", "coreset")},
    **{f"{s}-{k}-noisy": [_al(s, k), NOISY] for s in ("s_al", "f_al")
       for k in ("mc_dropout", "discrepancy")},
    **{f"{s}-skew": [_al(s), SKEW] for s in ("random", "s_al", "f_al")},
    **{f"{s}-entropy-minibatch": [_al(s), MINIBATCH] for s in ("s_al", "f_al")},
}

# case -> (sha256 of the emitted CSV, sha256 of every client's history)
GOLDEN = {
    "f_al-coreset": ("7c7497f3d30d3d7ff5814c457ff94083dba7190bbf88e81819626128f1aa0dc9",
        "68f518213b91dc382b3b5b9a68e2d93e983ae2e52554df96eac9664ffb9c1e47"),
    "f_al-discrepancy": ("fb2b3b226d3bbba9a3ef7581fc78199c3c0d2b17d58a1e547f24d7e2ad6fc1ed",
        "c2c15282103259effb54bf099c6065bbbd9ed7b58cb59317d2363021e3cf8a26"),
    "f_al-discrepancy-noisy": ("3df548cda44e8ec4d85854dae4ad61eaacfcae975dbc822d56d82d1904cf6520",
        "843ead13a0f1d4e2cb71feddf71d47117b57b1ce4e2795a0476c4cab2564b210"),
    "f_al-entropy": ("2c33ba766b133e1b41346debcdc58efd5245c76c539c4b6e17f20252b84dc19d",
        "d3f9277c6018f9769c188f31dc7fe30377ba3635dd578c7183a07334b2077998"),
    "f_al-entropy-minibatch": ("edae5713061cbfe8679fa562fdf3392ad95b97154e73a5c5ddcc669f17d1c0b0",
        "709410f6b6ba1bf454e89e318e26d6b896d407be9862dda715eb91481f28a1fc"),
    "f_al-mc_dropout": ("695223cabd2ec8515b233ff84ce2fe02909dd68beacc16413c53b406f8f47625",
        "d3f9277c6018f9769c188f31dc7fe30377ba3635dd578c7183a07334b2077998"),
    "f_al-mc_dropout-noisy": ("accc17a73fb89ef636b25a1d768bdb1ed6f7978f9c919c722b47aa5327e7a51c",
        "ee5d58120a3a3efb3aa820dd802a9206d211ff80ab8dd16f31837c0dfa34a8ad"),
    "f_al-skew": ("5d4e2fff9619948a1a16b0974013f88f59092ff0c011b26ad6ca415624fd028d",
        "b7f1b769cd78fcca3cb7c162299c5243cfc5e1083c0982cfce8fd9ccc2d8e85c"),
    "full_budget": ("4a9474ae4b8d7cb33f3058cc7bb705b0b98496b372b5e578eae39bad3a257b83",
        "4ef129cad3f40fb28cdb82c70a275eab69df08afaefb97d10a076e2500074beb"),
    "random": ("bf5077eb597ffc45e706b5e236c7a740f4f106fa71b766ce75ac5893fa617556",
        "378abdee6c4d02b5b7d7684cc57e9b7fd43f90e487569112e3062d3700603859"),
    "random-skew": ("7c2a2b006917503564288dd89027a0f1be834477ec896f675bdf57e233f8a497",
        "16d0c9e2e6a0e21895bc03bf4ce83a4114d99d5b96565d904b0f5e8815cf9ff4"),
    "s_al-coreset": ("b401d784c99a506ff0c6b37b5ce0b0b7f6c187e19d782d3244f5a57ee21e8c71",
        "3a6437eeda805ff4e11108e3f038f1f3de22638b9a3dc1745a1bede327a24edb"),
    "s_al-discrepancy": ("e53362bc9374500ed9e9affb2006bad88a5071e7ce579022253d8ccdc3e3ab32",
        "c2aa146fb6b27b742f739c9161b0e4c291d44599baac4c225f7b97e701bf67f5"),
    "s_al-discrepancy-noisy": ("b6a5dc1b0d200d4dbddf491ae7856e5e430198cabc987a41757f4a6f01db21e3",
        "19560eb8e2ce870d32ac0fb6f0f9ccd7d13ff44f0bf857d500219a072032193f"),
    "s_al-entropy": ("ccdf97188737f95e51272b52d35977df4fb646ebee61a471a7436ab42369a630",
        "6ee8857c0c3527b0885fee14211d56e4f7391adf4b8d11c9cc9b962acaa871fd"),
    "s_al-entropy-minibatch": ("9d5a839671eb7a576769a25f3a149e9651a91f3b9b550f79352bd14483b3cd0b",
        "0f0845f351619b919845c4f10c8caa39913be904ac4b623d5502fdc3ce5c63ec"),
    "s_al-mc_dropout": ("1eaf3d93e457f21e1eb5188f59908224bc3d5bd3ddc22d3f14661aa40c3f2d50",
        "6ee8857c0c3527b0885fee14211d56e4f7391adf4b8d11c9cc9b962acaa871fd"),
    "s_al-mc_dropout-noisy": ("b3615fa9969a354441667ec7b3802c4a8c236d82c54bdfd31a381c57d3f58f46",
        "029b95817a277267d51b02edd3e33ab1ec8d1056faf4f7db02ab2a17a3b643b6"),
    "s_al-skew": ("8a683e2a8fc6bff0afed32ae7ea8eb54f188e8fdc44c35fc1b7b70b2c747da9f",
        "2014467bbeb9adc1cf0f972c2d240f5a7696b76a5e8bbfd2dd6fef1bf94a36da"),
}


def _merged(parts):
    cfg = json.loads(json.dumps(BASE))
    for part in parts:
        for section, values in part.items():
            cfg[section].update(values)
    return cfg


def _run(case, tmp_path, monkeypatch):
    worlds = []
    build_world = harness.build_world

    def recording_build_world(cfg, run_seed):
        world = build_world(cfg, run_seed)
        worlds.append(world)
        return world

    monkeypatch.setattr(harness, "build_world", recording_build_world)
    cfg = parse_config(json.dumps(_merged(CASES[case])))
    out = tmp_path / "golden.csv"
    harness.emit_csv(harness.run_experiment(cfg), out)
    (_, _, pools, _), = worlds
    history = [[[k, [int(i) for i in v]] for k, v in sorted(p.history.items())] for p in pools]
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(history).encode()).hexdigest())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tmp_path, monkeypatch):
    assert _run(case, tmp_path, monkeypatch) == GOLDEN[case]


# Training runs that stop at the loss threshold before the cap, on label-skewed
# shards (2 of 6 classes per client, half of each shard labeled).
# case -> (minibatch size, threshold)
STOP_CASES = {
    "independent-full": (None, 0.1),
    "independent-minibatch": (8, 0.1),
    "fedavg-minibatch": (8, 0.2),
}

# case -> (iterations used, sha256 of the final parameters and the loss trace)
STOP_GOLDEN = {
    "fedavg-minibatch": (98,
        "65c84990873dd7cf362105f2e78916e4b6f5bad79413e4018148808c97aaff1d"),
    "independent-full": (113,
        "c15f71360ae1649a9303fc363c98ee14e4a8ec6e9e2f0c7385c459f21422aba6"),
    "independent-minibatch": (29,
        "7c7514c0f07ee99f21486c5ea9efe14a52e868bd7ab0aed286adfaf12740b320"),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_threshold_stop_digests(case):
    ds = synth_blobs(240, 6, 2, 0.3, seed=5, layout="line", elongation=8.0)
    pools = seed_initial_labels(partition(ds, PartitionSpec(3, "label_skew", 2), 7), 0.5, 8)
    arch = MlpArchitecture((2, 16, 6))
    init = Model(arch, init_params(arch, 11))
    minibatch, threshold = STOP_CASES[case]
    cfg = FedConfig(LrSchedule(0.5, 0.99), minibatch_size=minibatch,
                    stop_loss_threshold=threshold, max_global_iters=200)
    if case.startswith("fedavg"):
        report = fedavg(ds, pools, init, cfg, seed=3)
    else:
        report = independent_train(ds, pools, 0, init, cfg, seed=4)
    assert report.global_iters_used < cfg.max_global_iters  # the threshold stopped it
    digest = hashlib.sha256(report.final_model.params.tobytes()
                            + np.array(report.loss_trace).tobytes()).hexdigest()
    assert (report.global_iters_used, digest) == STOP_GOLDEN[case]
