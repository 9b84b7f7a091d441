"""Model factories.

Every partitioner in :mod:`repro.core` needs to train fresh classifiers
(sometimes several times), so models are created through a
:class:`ModelFactory` built from a :class:`~repro.config.ModelConfig`.
"""

from __future__ import annotations

from typing import Callable

from ..config import ModelConfig
from ..registry import MODELS
from .base import Classifier
from .logistic import LogisticRegressionClassifier  # noqa: F401 - triggers registration
from .naive_bayes import GaussianNaiveBayesClassifier  # noqa: F401 - triggers registration
from .tree import DecisionTreeClassifier  # noqa: F401 - triggers registration

ModelFactory = Callable[[], Classifier]


def make_classifier(config: ModelConfig) -> Classifier:
    """Instantiate the classifier described by ``config``.

    The family is resolved through :data:`repro.registry.MODELS`; each
    registered classifier declares a ``config_fields`` mapping from
    constructor keyword to :class:`~repro.config.ModelConfig` attribute,
    so new families need no edits here.
    """
    entry = MODELS.resolve(config.kind)
    # A family registered without config_fields takes no hyper-parameters
    # from ModelConfig and is constructed with its own defaults.
    kwargs = {
        keyword: getattr(config, attribute)
        for keyword, attribute in entry.metadata.get("config_fields", {}).items()
    }
    return entry.obj(**kwargs)


def factory_for(config: ModelConfig) -> ModelFactory:
    """A zero-argument callable producing fresh classifiers for ``config``."""
    def _factory() -> Classifier:
        return make_classifier(config)

    return _factory
