"""A valid, fast config of every experiment, and of each einstein_noise
geometry; and the bad inputs that exit 2."""

import json

import numpy as np

from orient_bayes import forward

SMALL = {
    "snr_sweep": {
        "experiment": "snr_sweep",
        "seed": 5,
        "L": 20,
        "trials": 6,
        "sigmas": [0.01, 0.1],
        "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
    },
    "prior_mismatch": {
        "experiment": "prior_mismatch",
        "seed": 2,
        "L": 15,
        "trials": 4,
        "sigmas": [0.05],
        "truth_prior": {"kind": "isotropic_gaussian", "eta": 0.1},
        "estimation_priors": [
            {"kind": "isotropic_gaussian", "eta": 0.5},
            {"kind": "isotropic_gaussian", "eta": 0.1},
        ],
        "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
    },
    "grid_sweep": {
        "experiment": "grid_sweep",
        "seed": 2,
        "trials": 4,
        "sigmas": [0.02],
        "L_values": [10, 30],
        "phantom": {"kind": "gaussian_blobs", "n": 12, "seed": 1},
    },
    "recover2d": {
        "experiment": "recover2d",
        "seed": 1,
        "M": 20,
        "sigmas": [0.1],
        "polar": {"d_radial": 30, "l_angular": 8},
        "max_iters": 3,
    },
    "recover3d": {
        "experiment": "recover3d",
        "seed": 1,
        "L": 6,
        "M": 5,
        "sigmas": [0.05],
        "phantom": {"kind": "gaussian_blobs", "n": 10, "seed": 1},
        "template_phantom": {"kind": "asymmetric_L", "n": 10, "seed": 2},
        "max_iters": 2,
    },
    "einstein_noise": {
        "experiment": "einstein_noise",
        "seed": 1,
        "M": 15,
        "sigmas": [1.0],
        "polar": {"d_radial": 20, "l_angular": 6},
        "noise_seeds": 2,
        "max_iters": 2,
    },
    "einstein_noise_volume": {
        "experiment": "einstein_noise",
        "seed": 3,
        "geometry": "volume",
        "L": 12,
        "M": 8,
        "sigmas": [1.0],
        "template_phantom": {"kind": "asymmetric_L", "n": 10, "seed": 2},
        "noise_seeds": 2,
        "max_iters": 2,
    },
}

# Bad inputs that exit 2; each ran, or stopped with a traceback, before its
# check.  "<name.obv>" stands for the volume file VOLUME_FILES[name].
BAD_INPUTS = {
    "loaded-file-malformed": {"phantom": {"kind": "loaded", "path": "<bad.obv>"}},
    "loaded-file-too-small": {"phantom": {"kind": "loaded", "path": "<n2.obv>"}},
    "loaded-file-not-finite": {"phantom": {"kind": "loaded", "path": "<nan.obv>"}},
    "loaded-with-n": {"phantom": {"kind": "loaded", "path": "<n12.obv>", "n": 64}},
    "loaded-with-seed": {"phantom": {"kind": "loaded", "path": "<n12.obv>", "seed": 1}},
    "recover3d-phantom-sizes-differ": {"experiment": "recover3d", "phantom": {"kind": "gaussian_blobs", "n": 12}},
    "recover3d-loaded-size-differs": {"experiment": "recover3d", "phantom": {"kind": "loaded", "path": "<n12.obv>"}},
    "sigma-variance-overflows": {"sigmas": [1e300]},
    "sigma-variance-underflows": {"sigmas": [1e-300]},
    "sigma-too-large-for-a-double": {"sigmas": [10**400]},
    "snr-sigma-variance-overflows": {"sigmas": None, "snrs": [5e-324]},
    # a zero signal gives sigma 0 for every SNR, where the SNR is undefined
    "snr-of-a-zero-signal": {"sigmas": None, "snrs": [1.0], "phantom": {"kind": "loaded", "path": "<zero.obv>"}},
    # an EM run scores its estimates by PCC against the truth and the template,
    # which a constant phantom leaves undefined; a sweep takes no PCC and runs
    "recover3d-constant-phantom": {"experiment": "recover3d", "phantom": {"kind": "loaded", "path": "<zero.obv>"}},
    "einstein-noise-constant-template": {
        "experiment": "einstein_noise", "geometry": "volume", "polar": None,
        "template_phantom": {"kind": "loaded", "path": "<zero.obv>"},
    },
    "sigmas-and-snrs": {"snrs": [1.0, 0.01]},
    "einstein-noise-empty-sigmas": {"experiment": "einstein_noise", "sigmas": []},
    "eta-below-floor": {
        "experiment": "prior_mismatch", "estimation_priors": [{"kind": "isotropic_gaussian", "eta": 1e-5}]
    },
    # (n - 1) / 2.0 overflows a double before any voxel is allocated
    "phantom-n-too-large-for-a-double": {"phantom": {"kind": "asymmetric_L", "n": 10**400}},
    # runs too large to allocate: numpy refuses petabytes at once, more than
    # any address space holds, so nothing is allocated
    "snr-sweep-trials-too-many-to-allocate": {"trials": 10**15},
    "recover2d-M-too-many-to-allocate": {"experiment": "recover2d", "M": 10**12},
}
VOLUME_FILES = {
    "bad.obv": lambda path: path.write_bytes(b"OBV2" + bytes(12)),
    "n2.obv": lambda path: forward.write_obv(path, np.ones((2, 2, 2))),
    "nan.obv": lambda path: forward.write_obv(path, np.full((8, 8, 8), np.nan)),
    "zero.obv": lambda path: forward.write_obv(path, np.zeros((10, 10, 10))),
    "n12.obv": lambda path: forward.write_obv(path, forward.make_phantom("gaussian_blobs", 12, seed=1)),
}


def bad_input_config(case: str, directory) -> dict:
    """The config of BAD_INPUTS[case]: the small config of its experiment with
    the case's fields, its volume files written to ``directory`` (a Path)."""
    overrides = BAD_INPUTS[case]
    text = json.dumps(dict(SMALL[overrides.get("experiment", "snr_sweep")], **overrides))
    for name, write in VOLUME_FILES.items():
        write(directory / name)
        text = text.replace(f'"<{name}>"', json.dumps(str(directory / name)))
    return json.loads(text)
