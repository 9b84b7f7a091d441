"""Component registries: the single source of truth for pluggable names.

The paper's evaluation compares a fixed roster of partitioning methods and
classifier families.  Historically that roster was duplicated as string
if-chains and tuples across four layers (the experiment runner, the CLI's
``choices`` lists, the feature-heatmap loop, the model factory).  This
module replaces all of them with one mechanism:

* :class:`Registry` — an ordered name -> :class:`RegistryEntry` table with
  alias resolution, metadata flags, and did-you-mean error messages;
* :data:`PARTITIONERS` / :data:`MODELS` / :data:`TASKS` /
  :data:`CODECS` — the four registries the package actually uses;
* :func:`register_partitioner` / :func:`register_model` /
  :func:`register_codec` — class decorators applied to the
  implementations in :mod:`repro.core`, :mod:`repro.ml` and
  :mod:`repro.serving.codecs`; :func:`register_task` — the
  function-valued equivalent for label tasks.

Registration happens where the implementation lives, so adding a method is
one decorator: the CLI ``choices``, the experiment sweeps, artifact
provenance and the serving layer all pick the new name up through the
registry.  Each registry knows which module populates it and imports that
module lazily on first lookup, so ``from repro.config import
ModelConfig`` alone is enough to get validated names.

Resolution failures raise :class:`~repro.exceptions.ExperimentError`
listing every available name plus a nearest-match suggestion; duplicate
registrations (canonical names or aliases) raise
:class:`~repro.exceptions.ConfigurationError` immediately.

This module sits in the base-utility layer: it imports nothing from the
package except :mod:`repro.exceptions` and :mod:`repro.validation`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from .exceptions import ConfigurationError, ExperimentError
from .validation import did_you_mean

__all__ = [
    "Registry",
    "RegistryEntry",
    "PartitionerRegistry",
    "ModelRegistry",
    "PARTITIONERS",
    "MODELS",
    "TASKS",
    "CODECS",
    "register_partitioner",
    "register_model",
    "register_task",
    "register_codec",
]


@dataclass(frozen=True)
class RegistryEntry:
    """One registered implementation plus its declarative metadata.

    Attributes
    ----------
    name:
        Canonical name; the one serialized into specs and artifacts.
    obj:
        The registered implementation (a class, a factory function, or
        ``None`` for name-only entries such as ``zipcode`` partitions that
        have no constructor).
    aliases:
        Alternative spellings accepted by :meth:`Registry.resolve`; always
        normalised back to :attr:`name`.
    summary:
        One-line human description (CLI help text, catalogues).
    paper_ref:
        Where the component appears in the source paper, if anywhere.
    metadata:
        Free-form capability flags (``accepts_objective``,
        ``accepts_alphas``, ``servable``, ``paper_order``, ...).  Consumers
        read them through :meth:`flag`.
    """

    name: str
    obj: Any
    aliases: Tuple[str, ...] = ()
    summary: str = ""
    paper_ref: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def flag(self, key: str, default: Any = False) -> Any:
        """Metadata value for ``key`` (capability flags default to False)."""
        return self.metadata.get(key, default)


class Registry:
    """An ordered, alias-aware table of named implementations.

    Parameters
    ----------
    kind:
        Human name of what the registry holds (``"partitioner"``), used in
        error messages.
    populate_from:
        Dotted module path whose import performs the registrations (the
        module where the ``@register_*`` decorators live).  Imported
        lazily on first lookup so merely importing :mod:`repro.registry`
        or :mod:`repro.config` stays cheap and cycle-free.
    """

    def __init__(self, kind: str, populate_from: Optional[str] = None) -> None:
        self._kind = kind
        self._populate_from = populate_from
        self._populating = False
        self._populated = populate_from is None
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}

    # -- registration -----------------------------------------------------------

    def register(
        self,
        name: str,
        obj: Any,
        *,
        aliases: Tuple[str, ...] = (),
        summary: str = "",
        paper_ref: str = "",
        **metadata: Any,
    ) -> RegistryEntry:
        """Register ``obj`` under ``name`` (plus ``aliases``); return the entry.

        Raises :class:`~repro.exceptions.ConfigurationError` when the name
        or any alias collides with an existing registration — silent
        shadowing would defeat the whole point of a single source of truth.
        """
        if not name:
            raise ConfigurationError(f"{self._kind} name must be non-empty")
        for spelling in (name, *aliases):
            if spelling in self._aliases:
                raise ConfigurationError(
                    f"duplicate {self._kind} registration: {spelling!r} is already "
                    f"taken by {self._aliases[spelling]!r}"
                )
        entry = RegistryEntry(
            name=name,
            obj=obj,
            aliases=tuple(aliases),
            summary=summary,
            paper_ref=paper_ref,
            metadata=dict(metadata),
        )
        self._entries[name] = entry
        for spelling in (name, *aliases):
            self._aliases[spelling] = name
        return entry

    def decorator(
        self,
        name: str,
        *,
        aliases: Tuple[str, ...] = (),
        summary: str = "",
        paper_ref: str = "",
        **metadata: Any,
    ) -> Callable[[Any], Any]:
        """A class decorator registering its target under ``name``."""

        def _register(obj: Any) -> Any:
            self.register(
                name,
                obj,
                aliases=aliases,
                summary=summary,
                paper_ref=paper_ref,
                **metadata,
            )
            return obj

        return _register

    # -- population -------------------------------------------------------------

    def _ensure_populated(self) -> None:
        # The flag is set only after a *successful* import: if populating
        # fails partway (a broken module during development), the next
        # lookup retries and re-raises the real import error instead of
        # reporting a misleading partial name list.  Submodules that did
        # import stay cached in sys.modules, so a retry cannot re-run
        # their decorators and trip the duplicate check.
        if self._populated or self._populating:
            return
        self._populating = True
        try:
            importlib.import_module(self._populate_from)
            self._populated = True
        finally:
            self._populating = False

    # -- resolution -------------------------------------------------------------

    def resolve(self, name: str) -> RegistryEntry:
        """The entry for ``name`` (canonical or alias).

        Unknown names raise :class:`~repro.exceptions.ExperimentError`
        listing every registered name and, when one is close enough, a
        nearest-match suggestion.
        """
        self._ensure_populated()
        canonical = self._aliases.get(name)
        if canonical is None:
            raise ExperimentError(self.unknown_message(name))
        return self._entries[canonical]

    def canonical(self, name: str) -> str:
        """Canonical spelling of ``name`` (resolving aliases)."""
        return self.resolve(name).name

    def unknown_message(self, name: str) -> str:
        """The error text for an unknown ``name`` (names + suggestion)."""
        self._ensure_populated()
        message = (
            f"unknown {self._kind} {name!r}; available: {', '.join(self.names())}"
        )
        return message + did_you_mean(name, self._aliases, canonical=self._aliases)

    # -- introspection ----------------------------------------------------------

    def names(self, **flags: Any) -> Tuple[str, ...]:
        """Canonical names in registration order, filtered by metadata flags.

        ``names(servable=True)`` returns every entry whose metadata maps
        ``"servable"`` to ``True``; multiple flags must all match.
        """
        self._ensure_populated()
        return tuple(
            entry.name
            for entry in self._entries.values()
            if all(entry.flag(key, None) == value for key, value in flags.items())
        )

    def entries(self, **flags: Any) -> Tuple[RegistryEntry, ...]:
        """Entries in registration order, filtered like :meth:`names`."""
        self._ensure_populated()
        return tuple(self._entries[name] for name in self.names(**flags))

    def summaries(self) -> Dict[str, str]:
        """``{canonical name: one-line summary}`` for catalogues and help text."""
        self._ensure_populated()
        return {entry.name: entry.summary for entry in self._entries.values()}

    def paper_roster(self, **flags: Any) -> Tuple[str, ...]:
        """Names carrying a ``paper_order``, sorted by it (figure order).

        Extra ``flags`` filter like :meth:`names`.
        """
        entries = [
            entry
            for entry in self.entries(**flags)
            if entry.flag("paper_order", None) is not None
        ]
        entries.sort(key=lambda entry: entry.metadata["paper_order"])
        return tuple(entry.name for entry in entries)

    def __contains__(self, name: object) -> bool:
        self._ensure_populated()
        return name in self._aliases

    def __iter__(self) -> Iterator[RegistryEntry]:
        self._ensure_populated()
        return iter(tuple(self._entries.values()))

    def __len__(self) -> int:
        self._ensure_populated()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self._kind!r}, {list(self._entries)!r})"


class PartitionerRegistry(Registry):
    """Partitioner registry with the paper-roster helpers the sweeps use."""

    def paper_methods(self, **flags: Any) -> Tuple[str, ...]:
        """Methods of the paper's Figures 7/8 roster, in presentation order.

        Extra ``flags`` filter further, e.g. ``paper_methods(tree_based=True)``
        is the Figure 9 heatmap roster.
        """
        return self.paper_roster(**flags)


class ModelRegistry(Registry):
    """Classifier-family registry with the paper roster in figure order."""

    def paper_models(self) -> Tuple[str, ...]:
        """The classifier families of Figure 7, in presentation order."""
        return self.paper_roster()


#: Spatial partitioning methods (populated by importing :mod:`repro.core`).
PARTITIONERS = PartitionerRegistry("partitioning method", populate_from="repro.core")

#: Classifier families (populated by importing :mod:`repro.ml`).
MODELS = ModelRegistry("model kind", populate_from="repro.ml")

#: Label tasks (populated by importing :mod:`repro.datasets.labels`).
TASKS = Registry("label task", populate_from="repro.datasets.labels")

#: Wire codecs for the serving transports (populated by importing
#: :mod:`repro.serving.codecs`).
CODECS = Registry("serving codec", populate_from="repro.serving.codecs")


def register_partitioner(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    summary: str = "",
    paper_ref: str = "",
    **metadata: Any,
) -> Callable[[Any], Any]:
    """Class decorator registering a partitioner in :data:`PARTITIONERS`.

    Recognised metadata flags (all optional, defaulting to ``False``/``None``):

    ``accepts_objective`` / ``accepts_alphas``
        Which spec fields the constructor understands.
    ``paper_order``
        Position in the Figures 7/8 roster (``None`` = not in that roster).
    ``servable``
        Whether the CLI ``build`` verb can persist this method's partitions.
    ``tree_based`` / ``multi_task``
        Capability flags used by the Figure 9 and Figure 10 sweeps.
    """
    return PARTITIONERS.decorator(
        name, aliases=aliases, summary=summary, paper_ref=paper_ref, **metadata
    )


def register_model(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    summary: str = "",
    paper_ref: str = "",
    **metadata: Any,
) -> Callable[[Any], Any]:
    """Class decorator registering a classifier family in :data:`MODELS`.

    The ``config_fields`` metadata maps constructor keyword names to
    :class:`~repro.config.ModelConfig` attribute names, which is all
    :func:`repro.ml.model_selection.make_classifier` needs to build any
    registered family generically.
    """
    return MODELS.decorator(
        name, aliases=aliases, summary=summary, paper_ref=paper_ref, **metadata
    )


def register_codec(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    summary: str = "",
    **metadata: Any,
) -> Callable[[Any], Any]:
    """Class decorator registering a serving wire codec in :data:`CODECS`.

    A codec is a stateless class encoding locate batches for a transport
    (see :class:`repro.serving.codecs.Codec`): ``json+b64`` is the JSON
    envelope with dense base64 arrays every server since PR 5 speaks;
    ``binary`` is the length-prefixed raw-buffer framing.  Registered
    names (and aliases) are what ``ServingClient(transport=...)`` accepts
    and what a wire client names in its hello.
    """
    return CODECS.decorator(name, aliases=aliases, summary=summary, **metadata)


def register_task(
    name: str,
    factory: Callable[[], Any],
    *,
    aliases: Tuple[str, ...] = (),
    summary: str = "",
    paper_ref: str = "",
    **metadata: Any,
) -> RegistryEntry:
    """Register a zero-argument label-task factory in :data:`TASKS`."""
    return TASKS.register(
        name, factory, aliases=aliases, summary=summary, paper_ref=paper_ref, **metadata
    )
