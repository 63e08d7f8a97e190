import json
import math

import numpy as np
import pytest
from scipy import stats

import dpsynth.dp as dp
from dpsynth.corpus import LABELS, ClassLabel
from dpsynth.dp import (
    DEFAULT_SENSITIVITY,
    BudgetLedger,
    Mechanism,
    PrivacyParams,
    SensitivityBound,
    TokenHistogram,
    build_histogram,
    charge,
    noise_scale,
    perturb_histogram,
    sample_gaussian,
    sample_laplace,
)
from dpsynth.rngutil import make_rng

from helpers import corp, laplace_pdf, rec, vector_releases


# ---------------------------------------------------------------- params

def test_epsilon_must_be_positive():
    with pytest.raises(ValueError, match="^epsilon must be > 0, got 0.0$"):
        PrivacyParams(epsilon=0.0)
    with pytest.raises(ValueError, match="^epsilon must be > 0, got -1.0$"):
        PrivacyParams(epsilon=-1.0)


def test_delta_range():
    with pytest.raises(ValueError, match=r"^delta must be in \[0, 1\), got 1.0$"):
        PrivacyParams(epsilon=1.0, delta=1.0)
    with pytest.raises(ValueError, match=r"^delta must be in \[0, 1\), got -0.1$"):
        PrivacyParams(epsilon=1.0, delta=-0.1)
    with pytest.raises(ValueError, match="^the Gaussian mechanism requires delta > 0$"):
        PrivacyParams(epsilon=1.0, delta=0.0, mechanism=Mechanism.GAUSSIAN)


def test_sensitivity_bound_validation():
    with pytest.raises(ValueError):
        SensitivityBound(l1=0.0, l2=1.0)
    with pytest.raises(ValueError):
        SensitivityBound(l1=1.0, l2=2.0)   # l2 > l1 impossible for counts
    assert DEFAULT_SENSITIVITY.l1 == 200.0
    assert DEFAULT_SENSITIVITY.l2 == pytest.approx(math.sqrt(200.0))


# ---------------------------------------------------------------- calibration

def test_laplace_scale_exact():
    params = PrivacyParams(epsilon=0.5)
    assert noise_scale(params, SensitivityBound(1.0, 1.0)) == 2.0


def test_gaussian_sigma_matches_direct_formula():
    params = PrivacyParams(epsilon=1.0, delta=1e-5, mechanism=Mechanism.GAUSSIAN)
    sigma = noise_scale(params, SensitivityBound(1.0, 1.0))
    expected = math.sqrt(2.0 * math.log(1.25 / 1e-5)) * 1.0 / 1.0
    assert abs(sigma - expected) < 1e-10
    assert str(sigma).startswith("4.84480")


def test_gaussian_sigma_epsilon_range():
    sens = SensitivityBound(1.0, 1.0)
    ok = PrivacyParams(epsilon=1.0, delta=1e-5, mechanism=Mechanism.GAUSSIAN)
    noise_scale(ok, sens)   # boundary epsilon accepted
    too_big = PrivacyParams(epsilon=1.5, delta=1e-5, mechanism=Mechanism.GAUSSIAN)
    with pytest.raises(ValueError, match="^analytic Gaussian calibration is valid for "
                                         "epsilon <= 1, got 1.5$"):
        noise_scale(too_big, sens)


def test_noise_scale_dispatch():
    sens = SensitivityBound(4.0, 2.0)
    assert noise_scale(PrivacyParams(epsilon=2.0), sens) == 2.0
    gau = PrivacyParams(epsilon=0.5, delta=1e-5, mechanism=Mechanism.GAUSSIAN)
    assert noise_scale(gau, sens) == pytest.approx(
        2.0 * math.sqrt(2.0 * math.log(1.25 / 1e-5)) / 0.5
    )


@pytest.mark.parametrize("mechanism, epsilon", [
    (Mechanism.LAPLACE, math.inf),       # scale 0: no noise at all
    (Mechanism.LAPLACE, 1e-320),         # scale overflows to inf
    (Mechanism.GAUSSIAN, 1e-320),
])
def test_noise_scale_must_be_positive_and_finite(mechanism, epsilon):
    params = PrivacyParams(epsilon=epsilon, delta=1e-5, mechanism=mechanism)
    with pytest.raises(ValueError, match=r"^epsilon .* gives noise scale .*, not positive and finite$"):
        noise_scale(params, DEFAULT_SENSITIVITY)


# ---------------------------------------------------------------- samplers

class FixedUniforms:
    """A generator stand-in whose ``random(size)`` returns chosen uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size=None):
        return self.values.reshape(() if size is None else size)


def test_laplace_inverse_cdf_matches_scipy():
    u = np.linspace(-0.499999, 0.499999, 10001)
    ours = sample_laplace(FixedUniforms(u + 0.5), 2.0, size=u.size)
    reference = stats.laplace.ppf(u + 0.5, scale=2.0)
    assert np.allclose(ours, reference, rtol=1e-10, atol=1e-12)


def test_laplace_endpoint_is_finite():
    assert np.isfinite(sample_laplace(FixedUniforms([0.0]), 1.0))
    assert np.isfinite(sample_laplace(FixedUniforms([0.0]), 1.0, size=1)).all()


@pytest.mark.parametrize("sample", [sample_laplace, sample_gaussian],
                         ids=["laplace", "gaussian"])
def test_draw_of_n_values_is_n_scalar_draws(sample):
    rng = make_rng(11)
    scalars = [sample(rng, 1.5) for _ in range(64)]
    assert all(type(x) is np.float64 for x in scalars)
    assert np.array_equal(scalars, sample(make_rng(11), 1.5, size=64))


def test_box_muller_known_values():
    # The generator's uniforms are (1 - u1, u2). u2 = 0 gives cos(0) = 1, so
    # the draw is sigma * sqrt(-2 ln u1).
    assert sample_gaussian(FixedUniforms([0.0, 0.0]), 3.0) == pytest.approx(0.0)
    assert sample_gaussian(FixedUniforms([1 - math.exp(-0.5), 0.0]), 3.0) == pytest.approx(3.0)
    pairs = FixedUniforms([0.0, 0.0, 1 - math.exp(-0.5), 0.0, 1 - math.exp(-0.5), 0.5])
    assert np.allclose(sample_gaussian(pairs, 3.0, size=3), [0.0, 3.0, -3.0])


def test_sampler_distributions_ks():
    lap = sample_laplace(make_rng(1234), 2.0, size=100_000)
    assert stats.kstest(lap, "laplace", args=(0, 2.0)).pvalue > 0.01
    gau = sample_gaussian(make_rng(99), 3.0, size=100_000)
    assert stats.kstest(gau, "norm", args=(0, 3.0)).pvalue > 0.01


def test_samplers_deterministic():
    a = sample_laplace(make_rng(5), 1.5, size=16)
    b = sample_laplace(make_rng(5), 1.5, size=16)
    assert np.array_equal(a, b)
    c = sample_gaussian(make_rng(5), 1.5, size=16)
    d = sample_gaussian(make_rng(5), 1.5, size=16)
    assert np.array_equal(c, d)


# ---------------------------------------------------------------- dp ratio

@pytest.mark.parametrize("epsilon", [0.5, 1.0, 10.0])
def test_laplace_density_ratio_bounded(epsilon):
    """Laplace output density ratio between neighbors never exceeds e^eps."""
    delta1 = 3.0
    b = delta1 / epsilon
    bound = math.exp(epsilon) * (1 + 1e-12)
    z = np.linspace(-8 * b - delta1, 8 * b + delta1, 2001)
    ratios = [laplace_pdf(v, 0.0, b) / laplace_pdf(v, delta1, b) for v in z]
    assert max(ratios) <= bound
    # and the bound is tight in the tail
    assert max(ratios) >= math.exp(epsilon) * (1 - 1e-9)


# ---------------------------------------------------------------- histogram noise

def _hist():
    c = corp(
        rec("apple apple banana", "cherry", ClassLabel.WORLD),
        rec("banana banana", "cherry banana", ClassLabel.SPORTS),
    )
    return build_histogram(c, vocab_limit=8)


def _params():
    return PrivacyParams(epsilon=1.0)


def test_perturb_histogram_deterministic():
    h = _hist()
    a = perturb_histogram(h, _params(), SensitivityBound(2.0, 1.0), make_rng(3))
    b = perturb_histogram(h, _params(), SensitivityBound(2.0, 1.0), make_rng(3))
    assert a.per_class == b.per_class
    assert a.vocab_limit == h.vocab_limit
    assert a.fingerprint == h.fingerprint
    assert a.params == _params()


N_VECTOR = 50


@pytest.mark.parametrize("params", [
    PrivacyParams(epsilon=1.0),
    PrivacyParams(epsilon=0.5, delta=1e-5, mechanism=Mechanism.GAUSSIAN),
], ids=["laplace", "gaussian"])
def test_sequential_releases_are_one_vector_draw(params):
    # At the default sensitivity the noise is wide: cells are clamped to 0
    # in some releases and not in others.
    h = _hist()
    rng = make_rng(31)
    sequential = [perturb_histogram(h, params, DEFAULT_SENSITIVITY, rng) for _ in range(N_VECTOR)]
    vector_rng = make_rng(31)
    cells, released = vector_releases(h, params, DEFAULT_SENSITIVITY, vector_rng, N_VECTOR)
    assert released.shape == (N_VECTOR, 5)
    assert released.tolist() == [[r.per_class[label][token] for label, token in cells]
                                 for r in sequential]
    assert 0 < (released == 0).sum() < released.size
    assert rng.bit_generator.state == vector_rng.bit_generator.state


def test_perturb_histogram_clamps_to_zero(monkeypatch):
    h = _hist()
    monkeypatch.setattr(dp, "sample_laplace", lambda rng, b: -100.0)
    noisy = perturb_histogram(h, _params(), SensitivityBound(2.0, 1.0), make_rng(0))
    for label in noisy.per_class:
        assert all(v == 0 for v in noisy.per_class[label].values())


def test_perturb_histogram_rounds_half_to_even(monkeypatch):
    h = _hist()
    monkeypatch.setattr(dp, "sample_laplace", lambda rng, b: 0.5)
    noisy = perturb_histogram(h, _params(), SensitivityBound(2.0, 1.0), make_rng(0))
    world = noisy.per_class[ClassLabel.WORLD]
    assert world["apple"] == 2     # 2.5 -> 2
    assert world["banana"] == 2    # 1.5 -> 2
    assert world["cherry"] == 2


def test_perturb_histogram_validates_params_even_with_noise_fn(monkeypatch):
    # A substituted draw cannot fail; the calibration error must still surface.
    h = _hist()
    monkeypatch.setattr(dp, "sample_gaussian", lambda rng, sigma: 0.0)
    bad = PrivacyParams(epsilon=2.0, delta=1e-5, mechanism=Mechanism.GAUSSIAN)
    with pytest.raises(ValueError, match="^analytic Gaussian calibration is valid for "
                                         "epsilon <= 1, got 2.0$"):
        perturb_histogram(h, bad, SensitivityBound(2.0, 1.0), make_rng(0))


def test_noisy_histogram_rejects_negative_cells():
    with pytest.raises(ValueError):
        TokenHistogram(
            per_class={ClassLabel.WORLD: {"aa": -1}},
            vocab_limit=5,
            params=_params(),
            sensitivity=SensitivityBound(1.0, 1.0),
        )


def test_noisy_histogram_json_roundtrip():
    h = _hist()
    noisy = perturb_histogram(h, _params(), SensitivityBound(2.0, 1.0), make_rng(1))
    written = json.loads(json.dumps(noisy.to_json_dict()))
    assert list(written) == ["fingerprint", "vocab_limit", "per_class", "params",
                             "sensitivity"]
    assert written["fingerprint"] == "unigram-lower-min2-v1:k8"
    assert written["per_class"] == {
        label.value: noisy.per_class[label] for label in LABELS
    }
    for cells in written["per_class"].values():
        assert list(cells) == sorted(cells)
    assert written["params"] == {"epsilon": 1.0, "delta": 0.0, "mechanism": "laplace"}
    assert written["sensitivity"] == {"l1": 2.0, "l2": 1.0}


# ---------------------------------------------------------------- ledger

def test_ledger_accumulates_sequential_composition():
    ledger = BudgetLedger()
    assert ledger.spent_epsilon == 0.0
    ledger = charge(ledger, "first", PrivacyParams(epsilon=0.5))
    ledger = charge(ledger, "second",
                    PrivacyParams(epsilon=1.0, delta=1e-5, mechanism=Mechanism.GAUSSIAN))
    assert ledger.spent_epsilon == pytest.approx(1.5)
    assert ledger.spent_delta == pytest.approx(1e-5)
    assert [label for label, _ in ledger.entries] == ["first", "second"]
    blob = ledger.to_json_dict()
    assert blob["spent_epsilon"] == pytest.approx(1.5)
    assert len(blob["entries"]) == 2
    assert BudgetLedger.from_json_dict(json.loads(json.dumps(blob))) == ledger


def test_charge_does_not_mutate_input_ledger():
    ledger = BudgetLedger()
    charge(ledger, "x", PrivacyParams(epsilon=1.0))
    assert ledger.entries == ()
