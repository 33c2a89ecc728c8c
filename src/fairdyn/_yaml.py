"""YAML parsing shared by the scenario and causal model loaders."""

from __future__ import annotations

import yaml

from .errors import ConfigError
from .population import _is_real

_MERGE_TAG = "tag:yaml.org,2002:merge"


class _UniqueKeys:
    """Loader mixin that rejects a mapping key written twice, where the
    plain safe loaders keep the last copy without a word."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == _MERGE_TAG:
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # unhashable: the base class reports it
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


# libyaml only scans and parses; PyYAML's Python constructor and resolver
# build the values on either base, so both give equal configs and only the
# wording of a syntax error differs.
_BASE = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _UniqueKeyLoader(_UniqueKeys, _BASE):
    """The safe loader, on libyaml when PyYAML has it, with unique keys."""


def read_yaml(source, name: str, what: str):
    """Parse the YAML file ``source`` (a ``pathlib.Path`` or a package
    resource), read as UTF-8; ``name`` is what messages call the ``what``
    (say, "scenario file").

    A file that cannot be read or is not UTF-8 raises ``ConfigError("cannot
    read {what} {name}: ...")``; a syntax error or a repeated mapping key
    raises ``ConfigError("cannot parse {name}: ...")``.
    """
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {name}: {exc}") from exc
    try:
        return yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {name}: {exc}") from exc


def mapping(raw, path: str) -> dict:
    """``raw``, the value at ``path`` in a loaded file, once it is a mapping;
    anything else raises ``ConfigError`` naming ``path``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be a mapping")
    return raw


def sequence(raw, path: str) -> list:
    """``raw``, the value at ``path`` in a loaded file, once it is a list;
    anything else raises ``ConfigError`` naming ``path``."""
    if not isinstance(raw, list):
        raise ConfigError(f"{path} must be a list")
    return raw


def known_keys(raw, path: str, allowed) -> dict:
    """``raw``, the mapping at ``path`` in a loaded file, once it holds no key
    outside ``allowed``; a misspelt key raises ``ConfigError`` naming both."""
    for key in mapping(raw, path):
        if key not in allowed:
            raise ConfigError(
                f"{path}: unknown key {key!r}; expected one of {', '.join(allowed)}"
            )
    return raw


def as_float(value):
    """``value`` as a float if it is a number that is not a bool, or a
    numeric string (PyYAML follows YAML 1.1 and reads ``1e-6`` as a
    string), else as it is, for the caller to reject."""
    if isinstance(value, bool):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def as_text(value):
    """``value`` as its text if it is a number that is not a bool (YAML reads
    ``1`` as a number), else as it is, for the caller to reject."""
    return str(value) if _is_real(value) else value
