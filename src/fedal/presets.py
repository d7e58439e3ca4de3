"""Named configuration presets, including the full-scale reference settings.

The ``paper_scale_*`` presets mirror the published full-scale image-benchmark
experiments (ResNet-18 backbone, five silos of 10000 images each).  They are
shipped verbatim as documentation of that setting.  This package's
desk-scale MLP engine does not reproduce the reference accuracies below and
makes no reproduction claim; selecting one of these presets prints
:data:`PROVENANCE_NOTE` to make that explicit.
"""

from __future__ import annotations

import copy

PROVENANCE_NOTE = (
    "NOTE: a paper-scale preset is selected. Its settings and the reference "
    "accuracies shipped with it describe the published full-scale experiments "
    "(ResNet-18 on image benchmarks, 5 clients x 10000 images); they are "
    "documentation only. This desk-scale MLP engine does NOT reproduce those "
    "numbers, and no reproduction is claimed."
)

# Fraction of the training data labeled at each measured round.
REFERENCE_LABEL_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# Reference CIFAR-10 test accuracies at paper scale (federated and
# single-silo variants of adversarial and core-set acquisition, plus the
# random baseline). Documentation only; not desk-reproducible.
REFERENCE_TEST_ACCURACY = {
    "f_vaal": (0.571, 0.660, 0.720, 0.757, 0.778, 0.794, 0.808, 0.827, 0.839, 0.850),
    "vaal": (0.571, 0.634, 0.689, 0.737, 0.763, 0.789, 0.808, 0.819, 0.840, 0.850),
    "f_coreset": (0.571, 0.652, 0.699, 0.742, 0.768, 0.791, 0.807, 0.820, 0.838, 0.850),
    "coreset": (0.571, 0.655, 0.700, 0.745, 0.770, 0.792, 0.806, 0.819, 0.838, 0.850),
    "random": (0.571, 0.662, 0.716, 0.755, 0.781, 0.795, 0.808, 0.827, 0.837, 0.850),
}

_PAPER_SCALE_BASE = {
    "partition": {"clients": 5, "mode": "iid_disjoint"},
    "al": {
        "strategy": "f_al",
        "scorer": "entropy",
        "rounds": 10,
        "budget": 10000,
        "initial_label_fraction": 0.1,
    },
    "fl": {
        "local_epochs": 1,
        "minibatch_size": "full",
        "lr": 0.05,
        "lr_decay": 0.997,
        "max_global_iters": 10000,
    },
    "independent": {
        "lr": 0.01,
        "lr_decay": 0.997,
        "minibatch_size": "full",
        "max_global_iters": 10000,
    },
    "run": {"repeats": 3},
}


def _variant(threshold: float) -> dict:
    preset = copy.deepcopy(_PAPER_SCALE_BASE)
    preset["fl"]["stop_loss_threshold"] = threshold
    preset["independent"]["stop_loss_threshold"] = threshold
    return preset


# Stopping thresholds per benchmark, as published.
PRESETS = {
    "paper_scale_fashion_mnist": _variant(1e-3),
    "paper_scale_cifar10": _variant(5e-4),
    "paper_scale_cifar100": _variant(1.5e-3),
}
PRESETS["paper_scale"] = PRESETS["paper_scale_cifar10"]

PAPER_SCALE_PRESETS = tuple(sorted(PRESETS))
