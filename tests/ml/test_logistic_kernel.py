"""Bit-exactness oracles for the logistic-regression training kernel.

The kernel in ``repro.ml.logistic`` is a branch-free sigmoid, a single-log
loss and a training loop over preallocated buffers.  The textbook forms it
replaced -- the two-branch sigmoid, the two-log loss and the allocating
gradient-descent loop -- live on here only, as reference implementations.
Every comparison is on raw float64 bits, so a reordering that moves one ulp
fails.
"""

import numpy as np
import pytest

from repro.ml.logistic import LogisticRegressionClassifier, _sigmoid
from repro.ml.postprocessing import PlattCalibrator
from repro.rng import as_generator


# -- reference implementations ---------------------------------------------------


def reference_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def reference_loss(labels, probabilities, normalized_weight, weights, regularization):
    eps = 1e-12
    log_likelihood = normalized_weight @ (
        labels * np.log(probabilities + eps) + (1 - labels) * np.log(1 - probabilities + eps)
    )
    penalty = 0.5 * regularization * float(weights @ weights) / labels.shape[0]
    return float(-log_likelihood + penalty)


def reference_fit(
    features,
    labels,
    sample_weight,
    learning_rate=0.1,
    max_iter=300,
    regularization=1e-3,
    tol=1e-6,
    seed=0,
):
    """The allocating gradient-descent loop; returns (weights, intercept, iterations, halvings)."""
    n_records, n_features = features.shape
    weights = as_generator(seed).normal(0.0, 0.01, size=n_features)
    intercept = 0.0
    normalized_weight = sample_weight / sample_weight.sum()
    step = learning_rate
    previous_loss = np.inf
    n_iterations = halvings = 0
    for iteration in range(max_iter):
        logits = features @ weights + intercept
        probabilities = reference_sigmoid(logits)
        error = (probabilities - labels) * normalized_weight
        gradient_w = features.T @ error + regularization * weights / n_records
        gradient_b = float(error.sum())

        loss = reference_loss(labels, probabilities, normalized_weight, weights, regularization)
        if loss > previous_loss + 1e-12:
            step *= 0.5
            halvings += 1
        previous_loss = loss

        weights -= step * gradient_w
        intercept -= step * gradient_b
        n_iterations = iteration + 1
        if max(np.abs(gradient_w).max(initial=0.0), abs(gradient_b)) < tol:
            break
    return weights, intercept, n_iterations, halvings


def reference_platt(scores, labels, max_iter=500, learning_rate=0.5, seed=0):
    """``PlattCalibrator.fit`` with its former private two-branch sigmoid."""
    scores = np.clip(np.asarray(scores, dtype=float), 0.0, 1.0)
    labels = np.asarray(labels, dtype=float)
    z = PlattCalibrator._logit(scores)
    a, b = 1.0 + as_generator(seed).normal(0, 0.01), 0.0
    for _ in range(max_iter):
        p = reference_sigmoid(a * z + b)
        error = p - labels
        grad_a = float((error * z).mean())
        grad_b = float(error.mean())
        a -= learning_rate * grad_a
        b -= learning_rate * grad_b
        if max(abs(grad_a), abs(grad_b)) < 1e-8:
            break
    return float(a), float(b)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# -- sigmoid ----------------------------------------------------------------------

SPECIAL = np.array(
    [0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]
)

SIGMOID_INPUTS = {
    "normal": np.random.default_rng(0).normal(size=10_001),
    "wide": np.random.default_rng(1).normal(scale=300.0, size=4_097),
    "special": SPECIAL,
    "special_tiled": np.tile(SPECIAL, 9),
    "empty": np.array([]),
    "zero_d_positive": np.array(2.5),
    "zero_d_negative": np.array(-2.5),
    "zero_d_nan": np.array(np.nan),
    "two_d": np.random.default_rng(2).normal(scale=5.0, size=(37, 41)),
}


@pytest.mark.parametrize("name", sorted(SIGMOID_INPUTS))
def test_sigmoid_bit_equal_to_two_branch_form(name):
    z = SIGMOID_INPUTS[name]
    expected = reference_sigmoid(z)
    actual = _sigmoid(z)
    assert isinstance(actual, np.ndarray) and actual.shape == z.shape
    assert bits(actual) == bits(expected)


@pytest.mark.parametrize("name", sorted(SIGMOID_INPUTS))
def test_sigmoid_out_buffer_and_in_place(name):
    z = SIGMOID_INPUTS[name]
    expected = bits(reference_sigmoid(z))
    buffer = np.empty_like(z)
    assert _sigmoid(z, out=buffer) is buffer
    assert bits(buffer) == expected
    in_place = z.copy()
    assert _sigmoid(in_place, out=in_place) is in_place
    assert bits(in_place) == expected


def test_sigmoid_keeps_nan_payload_and_sign():
    payloads = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64)
    z = np.concatenate([np.zeros(5), payloads.view(np.float64), np.ones(11)])
    assert bits(_sigmoid(z)) == bits(reference_sigmoid(z))


# -- loss ---------------------------------------------------------------------------


def _loss_case(seed, n=2_003):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    probabilities = rng.uniform(size=n)
    # Saturated scores on both labels, and exact-zero log terms.
    probabilities[:8] = [0.0, 1.0, 0.0, 1.0, 1e-300, 1 - 1e-16, 0.5, 1e-17]
    labels[:8] = [0, 0, 1, 1, 0, 1, 1, 0]
    weight = rng.uniform(0.1, 3.0, size=n)
    return labels, probabilities, weight / weight.sum(), rng.normal(size=7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_bit_equal_to_two_log_form(seed):
    labels, probabilities, normalized_weight, weights = _loss_case(seed)
    model = LogisticRegressionClassifier(regularization=0.25)
    expected = reference_loss(labels, probabilities, normalized_weight, weights, 0.25)
    negatives = 1.0 - labels.astype(float)
    scratch = np.empty_like(probabilities)
    loss = model._loss(negatives, probabilities, normalized_weight, weights, scratch)
    assert bits(loss) == bits(expected)


def test_loss_single_log_terms_match_per_record():
    labels, probabilities, _, _ = _loss_case(3)
    eps = 1e-12
    two_log = labels * np.log(probabilities + eps) + (1 - labels) * np.log(
        1 - probabilities + eps
    )
    single = np.log(np.abs(probabilities - (1.0 - labels)) + eps)
    assert bits(single) == bits(two_log)


# -- fit ------------------------------------------------------------------------------


def _fit_case(n_records, n_features, seed, order="C"):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_records, n_features))
    features[:, 0] = rng.uniform(0.0, 1.0, size=n_records)
    logits = features @ rng.normal(scale=1.5, size=n_features) - 0.3
    labels = (rng.uniform(size=n_records) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    return np.asarray(features, order=order), labels


def _assert_fit_matches_reference(features, labels, sample_weight=None, **params):
    model = LogisticRegressionClassifier(**params).fit(features, labels, sample_weight)
    weight = np.ones(len(labels)) if sample_weight is None else sample_weight
    weights, intercept, n_iterations, halvings = reference_fit(
        features, labels, weight, **params
    )
    assert bits(model.coefficients) == bits(weights)
    assert bits(model.intercept) == bits(intercept)
    assert model.n_iterations == n_iterations
    expected_scores = np.clip(reference_sigmoid(features @ weights + intercept), 0.0, 1.0)
    assert bits(model.predict_proba(features)) == bits(expected_scores)
    return n_iterations, halvings


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(2_500, 6), (1_750, 88), (301, 1)])
def test_fit_bit_equal_on_either_memory_order(shape, order):
    features, labels = _fit_case(*shape, seed=shape[1], order=order)
    assert features.flags["C_CONTIGUOUS" if order == "C" else "F_CONTIGUOUS"]
    n_iterations, _ = _assert_fit_matches_reference(features, labels)
    assert n_iterations == 300


@pytest.mark.parametrize("order", ["C", "F"])
def test_fit_bit_equal_with_non_uniform_sample_weight(order):
    features, labels = _fit_case(1_200, 9, seed=11, order=order)
    weight = np.random.default_rng(12).uniform(0.0, 4.0, size=len(labels))
    weight[::17] = 0.0
    _assert_fit_matches_reference(features, labels, weight, regularization=0.05, seed=3)


@pytest.mark.parametrize("regularization", [0.0, 5.0])
def test_fit_bit_equal_under_strong_regularization(regularization):
    # At 5.0 the penalty gradient is large enough that computing it as
    # ``(regularization / n) * w`` instead of ``(regularization * w) / n``
    # moves the fitted bits.
    features, labels = _fit_case(600, 4, seed=31)
    _assert_fit_matches_reference(features, labels, regularization=regularization)


def test_fit_bit_equal_when_step_halving_fires():
    features, labels = _fit_case(800, 5, seed=21)
    _, halvings = _assert_fit_matches_reference(
        features * 4.0, labels, learning_rate=40.0, max_iter=120
    )
    assert halvings > 0


def test_fit_bit_equal_when_tol_stops_early():
    features, labels = _fit_case(600, 4, seed=31)
    n_iterations, _ = _assert_fit_matches_reference(
        features, labels, learning_rate=0.5, max_iter=5_000, tol=1e-4
    )
    assert 1 < n_iterations < 5_000


# -- Platt calibrator -------------------------------------------------------------------


def test_platt_calibrator_bit_equal_to_former_private_sigmoid():
    rng = np.random.default_rng(5)
    truth = rng.uniform(0.02, 0.98, size=3_000)
    labels = (rng.uniform(size=truth.size) < truth).astype(int)
    scores = np.clip(truth**3 / (truth**3 + (1 - truth) ** 3), 0.0, 1.0)
    scores[:4] = [0.0, 1.0, 0.5, 1e-9]

    calibrator = PlattCalibrator(seed=9).fit(scores, labels)
    a, b = reference_platt(scores, labels, seed=9)
    assert bits(calibrator.coefficients) == bits((a, b))
    expected = reference_sigmoid(a * PlattCalibrator._logit(scores) + b)
    assert bits(calibrator.transform(scores)) == bits(expected)
