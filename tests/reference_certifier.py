"""Reference for the planner's window certifier: the full-axis check.

This is the certifier the planner used before the window certificate: it
tabulates the floored weights at every point of the tilt axis, O(K * P * A)
memory and work per plan, and takes each pair's first argmin over the whole
axis. Tests compare the window certifier against it, index for index.
"""

from __future__ import annotations

import math

import numpy as np

from queryplan.bounds import PairTables, ordered_pairs
from queryplan.instances import Instance
from queryplan.planner import DerivedConstants, tilt_axis


def axis_weight_tables(
    instance: Instance, constants: DerivedConstants, axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis certificates: log prior amplitudes (P, A) and rounded
    weights (K, P, A)."""
    pairs = ordered_pairs(instance.n_labels)
    K = instance.n_models
    A = len(axis)
    log_amp = np.zeros((len(pairs), A))
    w = np.zeros((K, len(pairs), A), dtype=np.int64)
    for p, (yi, yj) in enumerate(pairs):
        tables = PairTables(instance, yi, yj)
        # (A, K, X) tilted log-likelihoods, reduced over symbols
        v = (
            (1.0 - axis)[:, None, None] * tables.log_p[None, :, :]
            + axis[:, None, None] * tables.log_q[None, :, :]
        )
        top = v.max(axis=2)
        log_m = np.log(np.exp(v - top[:, :, None]).sum(axis=2)) + top  # (A, K)
        raw = np.maximum(-log_m, 0.0)
        w[:, p, :] = np.floor(raw / constants.round_scale).astype(np.int64).T
        log_amp[p] = axis * tables.log_prior_ratio
    return log_amp, w


def pair_certificates(
    constants: DerivedConstants,
    log_amp: np.ndarray,
    w_axis: np.ndarray,
    counts: tuple[int, ...],
) -> np.ndarray:
    """The (P, A) table of certificates of one plan."""
    r = np.asarray(counts, dtype=np.int64)
    covered = np.minimum(np.tensordot(r, w_axis, axes=1), constants.t_max)
    return log_amp - constants.round_scale * covered


def certify_full_axis(
    instance: Instance,
    constants: DerivedConstants,
    log_amp: np.ndarray,
    w_axis: np.ndarray,
    counts: tuple[int, ...],
    masks: list[np.ndarray],
) -> np.ndarray | None:
    """Per-pair argmin axis indices if some assignment certifies all
    tolerances, else None."""
    cert = pair_certificates(constants, log_amp, w_axis, counts)
    best_idx = cert.argmin(axis=1)
    best = cert[np.arange(cert.shape[0]), best_idx]
    for yi, mask in enumerate(masks):
        if math.fsum(math.exp(v) for v in best[mask]) > float(
            instance.tolerances[yi]
        ):
            return None
    return best_idx


class FullAxisCertifier:
    """The full-axis check bound to one instance, with the window
    certifier's ``certify(counts)`` signature."""

    def __init__(self, instance: Instance, constants: DerivedConstants):
        self.instance = instance
        self.constants = constants
        self.log_amp, self.w_axis = axis_weight_tables(
            instance, constants, tilt_axis(constants)
        )
        pairs = ordered_pairs(instance.n_labels)
        self.masks = [
            np.array([p[0] == yi for p in pairs]) for yi in range(instance.n_labels)
        ]

    def certify(self, counts: tuple[int, ...]) -> np.ndarray | None:
        return certify_full_axis(
            self.instance, self.constants, self.log_amp, self.w_axis, counts, self.masks
        )
