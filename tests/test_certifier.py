"""The planner's window certifier against the full-axis reference.

The window certifier must return, on every plan, the same per-pair axis
indices (or None) as checking the plan at every point of the tilt axis; the
reference in reference_certifier.py is that full-axis check.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import acceptance_suite
from queryplan import planner
from queryplan.experiments import random_instance
from queryplan.planner import derive_constants, run_afptas, tilt_axis, tilt_axis_size
from reference_certifier import FullAxisCertifier, pair_certificates


def same_answer(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


@pytest.fixture
def checked(monkeypatch):
    """Makes every plan the lattice walk hands the window certifier go
    through the full-axis reference too, asserting the same answer.

    Yields a log of (counts, answer) for every certifier call.
    """
    log: list[tuple[tuple[int, ...], np.ndarray | None]] = []
    current: list = [None, None]  # (window certifier, its reference)
    init = planner._WindowCertifier.__init__
    certify = planner._WindowCertifier.certify

    def checked_init(self, instance, constants, *args, **kwargs):
        init(self, instance, constants, *args, **kwargs)
        current[:] = [self, FullAxisCertifier(instance, constants)]

    def checked_certify(self, counts):
        got = certify(self, counts)
        assert current[0] is self
        want = current[1].certify(counts)
        assert same_answer(got, want), (counts, got, want)
        log.append((counts, got))
        return got

    monkeypatch.setattr(planner._WindowCertifier, "__init__", checked_init)
    monkeypatch.setattr(planner._WindowCertifier, "certify", checked_certify)
    return log


def assert_tilts_from(cert, idx: np.ndarray) -> None:
    """The certificate's tilts are the axis points at the given indices."""
    assert [s for _, _, s in cert.tilts] == tilt_axis(cert.constants)[idx].tolist()


@pytest.mark.parametrize("name", ["bsc", "asym", "duo"])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
def test_window_matches_full_axis_on_fixtures(request, checked, name, epsilon):
    inst = request.getfixturevalue(name)
    cert = run_afptas(inst, epsilon)
    counts, idx = checked[-1]
    assert counts == cert.plan.counts
    assert_tilts_from(cert, idx)


def test_window_matches_full_axis_on_suite(checked):
    solved = 0
    for inst, _ in acceptance_suite():
        if tilt_axis_size(derive_constants(inst, 0.5)) >= 50_000:
            continue
        cert = run_afptas(inst, 0.5)
        assert_tilts_from(cert, checked[-1][1])
        solved += 1
    assert solved == 157
    assert len(checked) > 30_000


def test_window_matches_full_axis_on_sweep(checked):
    rng = np.random.default_rng(42)
    for _ in range(12):
        inst = random_instance(rng, n_labels=2, max_models=3, alpha=1e-3)
        for epsilon in (0.1, 0.5, 1.0):
            cert = run_afptas(inst, epsilon)
            assert_tilts_from(cert, checked[-1][1])
    assert len(checked) > 2_000


def test_fine_axis_draw_matches_full_axis(checked):
    # suite draw 59 has a 205,552-point axis, too fine for the full-axis
    # tables the planner used to build; the reference builds them anyway
    inst, _ = acceptance_suite(60)[59]
    cert = run_afptas(inst, 0.5)
    assert tilt_axis_size(cert.constants) == 205_552
    assert cert.plan.counts == (123,)
    assert checked[-1][0] == (123,)
    assert_tilts_from(cert, checked[-1][1])


# Plans, costs and tilts of the two slowest acceptance-suite draws, recorded
# with the full-axis certifier before the window certifier replaced it.
FULL_AXIS_RECORD = {
    23: (
        (78, 14, 0),
        67.26100027775574,
        (
            0.4708467510482352,
            0.4491015074684045,
            0.5291530225163864,
            0.46079027947033246,
            0.5508982660962171,
            0.5392094940942891,
        ),
    ),
    33: (
        (49, 0, 31),
        53.824337154737066,
        (
            0.5046680097978311,
            0.42105596245824184,
            0.49533803802696075,
            0.4147813328807076,
            0.5789351812582899,
            0.5852098108358241,
        ),
    ),
}


def test_slow_suite_draws_reproduce_full_axis_record():
    suite = acceptance_suite(34)
    for draw, (plan, cost, tilts) in FULL_AXIS_RECORD.items():
        cert = run_afptas(suite[draw][0], 0.5)
        assert cert.plan.counts == plan
        assert cert.cost == cost
        assert tuple(s for _, _, s in cert.tilts) == tilts
        assert cert.mode == "search-axis"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_labels=st.integers(2, 4),
    alpha=st.floats(1e-4, 0.3),
    mesh=st.floats(2e-3, 0.6),
    round_scale=st.floats(0.02, 1.0),
    t_max=st.integers(1, 400),
    counts=st.lists(st.integers(0, 30), min_size=3, max_size=3),
)
def test_window_certifier_grid_never_changes_output(
    seed, n_labels, alpha, mesh, round_scale, t_max, counts
):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng, n_labels=n_labels, max_models=3, alphabet_sizes=(2, 4), alpha=alpha
    )
    constants = dataclasses.replace(
        derive_constants(inst, 0.5), mesh=mesh, round_scale=round_scale, t_max=t_max
    )
    counts = tuple(counts[: inst.n_models])
    reference = FullAxisCertifier(inst, constants)
    want = reference.certify(counts)
    cert_min = pair_certificates(
        constants, reference.log_amp, reference.w_axis, counts
    ).min(axis=1)
    # the tangent grid and the scan's batch size set speed, never output
    default = (planner._TANGENT_GRID, planner._WINDOW_CHUNK)
    for grid, chunk in ((2, 5), (3, 1), (17, 64), default):
        with mock.patch.multiple(planner, _TANGENT_GRID=grid, _WINDOW_CHUNK=chunk):
            certifier = planner._WindowCertifier(inst, constants)
            assert same_answer(certifier.certify(counts), want)
        lb = certifier.lower_bounds(*certifier.proxy_on_grid(counts))
        assert np.all(lb <= cert_min)
