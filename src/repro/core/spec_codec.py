"""JSON codecs for declarative task and pipeline specs.

The HTTP service layer (:mod:`repro.service`) accepts whole pipelines as
JSON bodies and persists submitted specs in the store's job table, so every
spec the engine can execute needs a faithful wire form.  One encoder walks
the dataclass fields of any spec registered in the operator table
(:data:`repro.core.kinds.KINDS`), converting each value by its declared
field type through an explicit value codec (pairs, labelled samples,
imputation datasets, ...) rather than pickling arbitrary objects: a JSON
payload received over the network must never be able to smuggle a callable
or an unserialisable value into the engine.

Two spec features therefore do **not** round-trip, by design:

* ``PipelineStep.run`` callables and :data:`~repro.core.spec.SpecFactory`
  step factories — code is not data; encoding such a step raises
  :class:`~repro.exceptions.SpecError`.  Service clients express dataflow
  with concrete specs; factories remain available to in-process callers.
* non-JSON values inside ``strategy_options`` — rejected with
  :class:`~repro.exceptions.SpecError` at encode *and* decode time.

Decoded specs are re-validated by the caller (the service layer calls
``spec.validate()`` on every submission), so the codec restores structure
and leaves semantic checks to the spec itself.
"""

from __future__ import annotations

import json
from dataclasses import MISSING
from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Mapping

from repro.core.kinds import KINDS
from repro.core.spec import PipelineSpec, PipelineStep, TaskSpec
from repro.data.products import ImputationDataset
from repro.data.record import Dataset, Record
from repro.exceptions import SpecError

#: Bump when the wire layout changes; newer payloads are refused on decode.
SPEC_CODEC_VERSION = 1


def _json_safe(value: Any, *, context: str) -> Any:
    """Pass ``value`` through ``json`` round-trip rules, or raise SpecError.

    Used for the open-ended mappings (``strategy_options``, record
    attributes): their values must be plain JSON data, not live objects.
    """
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{context} is not JSON-serialisable: {exc}") from exc
    return value


def _encode_record(record: Record) -> dict[str, Any]:
    return {
        "record_id": record.record_id,
        "attributes": _json_safe(
            dict(record.attributes), context=f"record {record.record_id!r} attributes"
        ),
    }


def _decode_record(data: Mapping[str, Any]) -> Record:
    return Record(
        record_id=str(data["record_id"]), attributes=dict(data.get("attributes", {}))
    )


def _encode_dataset(dataset: Dataset) -> dict[str, Any]:
    return {
        "name": dataset.name,
        "records": [_encode_record(record) for record in dataset.records],
    }


def _decode_dataset(data: Mapping[str, Any]) -> Dataset:
    return Dataset(
        (_decode_record(record) for record in data.get("records", ())),
        name=str(data.get("name", "dataset")),
    )


def _encode_imputation(data: ImputationDataset) -> dict[str, Any]:
    return {
        "name": data.name,
        "target_attribute": data.target_attribute,
        "queries": _encode_dataset(data.queries),
        "reference": _encode_dataset(data.reference),
        "ground_truth": dict(data.ground_truth),
    }


def _decode_imputation(data: Mapping[str, Any]) -> ImputationDataset:
    return ImputationDataset(
        name=str(data.get("name", "imputation")),
        target_attribute=str(data["target_attribute"]),
        queries=_decode_dataset(data.get("queries", {})),
        reference=_decode_dataset(data.get("reference", {})),
        ground_truth={str(k): str(v) for k, v in dict(data.get("ground_truth", {})).items()},
    )


def _json_options(value: Any, context: str) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{context} must be an object")
    return _json_safe(dict(value), context=context)


def _sequence(value: Any, context: str) -> list[Any]:
    return list(value)


def _same(value: Any, context: str) -> Any:
    return value


#: An (encode, decode) pair of ``(value, "<Spec>.<field>") -> value`` maps.
_Codec = tuple[Callable[[Any, str], Any], Callable[[Any, str], Any]]

#: Value codecs by declared spec field type; ``Sequence[...]`` fields not
#: listed travel as JSON lists, every other field as its plain JSON value.
_FIELD_CODECS: dict[str, _Codec] = {
    "dict[str, Any]": (_json_options, _json_options),
    "Sequence[tuple[str, str]]": (
        lambda pairs, _: [[str(left), str(right)] for left, right in pairs],
        lambda data, _: [(str(pair[0]), str(pair[1])) for pair in data],
    ),
    "Mapping[tuple[str, str], bool]": (
        lambda labels, _: [
            [[left, right], bool(label)] for (left, right), label in labels.items()
        ],
        lambda data, _: {(str(pair[0]), str(pair[1])): bool(label) for pair, label in data},
    ),
    "Mapping[str, bool]": (
        lambda labels, _: {str(item): bool(label) for item, label in labels.items()},
        lambda data, _: {str(item): bool(label) for item, label in dict(data).items()},
    ),
    "Mapping[str, str]": (
        lambda labels, _: {str(item): str(label) for item, label in labels.items()},
        lambda data, _: {str(item): str(label) for item, label in dict(data).items()},
    ),
    "ImputationDataset | None": (
        lambda data, _: None if data is None else _encode_imputation(data),
        lambda data, _: None if data is None else _decode_imputation(data),
    ),
}


def _field_codec(annotation: Any) -> _Codec:
    codec = _FIELD_CODECS.get(str(annotation))
    if codec is not None:
        return codec
    if str(annotation).startswith("Sequence["):
        return (_sequence, _same)
    return (_same, _same)


def _spec_type(type_name: Any) -> type | None:
    return next((cls for cls in KINDS if cls.__name__ == type_name), None)


def spec_to_dict(spec: TaskSpec) -> dict[str, Any]:
    """Encode a concrete task spec as a JSON-shaped dict.

    Raises :class:`SpecError` for spec types without an operator kind or
    for specs carrying non-JSON ``strategy_options`` values.
    """
    type_name = type(spec).__name__
    if type(spec) not in KINDS:
        raise SpecError(f"no JSON codec for spec type {type_name}")
    # Omit fields still at their dataclass default: the wire form stays
    # compact, and — decisively — decoding restores the *default object*
    # (e.g. the empty tuple) rather than a listified copy of it, so a
    # round-tripped spec compares equal to the original.
    defaults = _field_defaults(type(spec))
    spec_fields: dict[str, Any] = {}
    for spec_field in dataclass_fields(spec):
        value = getattr(spec, spec_field.name)
        if spec_field.name in defaults and value == defaults[spec_field.name]:
            continue
        encode, _ = _field_codec(spec_field.type)
        spec_fields[spec_field.name] = encode(value, f"{type_name}.{spec_field.name}")
    return {"type": type_name, "version": SPEC_CODEC_VERSION, "fields": spec_fields}


def _field_defaults(cls: type) -> dict[str, Any]:
    defaults: dict[str, Any] = {}
    for spec_field in dataclass_fields(cls):
        if spec_field.default is not MISSING:
            defaults[spec_field.name] = spec_field.default
        elif spec_field.default_factory is not MISSING:
            defaults[spec_field.name] = spec_field.default_factory()
    return defaults


def spec_from_dict(data: Mapping[str, Any]) -> TaskSpec:
    """Rebuild a task spec from its wire dict.

    Raises :class:`SpecError` for unknown types, newer payload versions, or
    fields that do not exist on the spec (a typo in a hand-written payload
    must fail loudly, not be silently dropped).
    """
    if not isinstance(data, Mapping):
        raise SpecError(f"a spec payload must be an object, got {type(data).__name__}")
    type_name = data.get("type")
    cls = _spec_type(type_name)
    if cls is None:
        raise SpecError(f"unknown spec type {type_name!r}")
    version = int(data.get("version", 0))
    if version > SPEC_CODEC_VERSION:
        raise SpecError(
            f"spec payload version {version} is newer than this library's "
            f"{SPEC_CODEC_VERSION}"
        )
    spec_fields = dict(data.get("fields", {}))
    annotations = {f.name: f.type for f in dataclass_fields(cls)}
    unknown = set(spec_fields) - set(annotations)
    if unknown:
        raise SpecError(
            f"{type_name} payload carries unknown fields: {sorted(unknown)}"
        )
    for name, value in spec_fields.items():
        _, decode = _field_codec(annotations[name])
        spec_fields[name] = decode(value, f"{type_name}.{name}")
    try:
        return cls(**spec_fields)
    except TypeError as exc:
        raise SpecError(f"malformed {type_name} payload: {exc}") from exc


def step_to_dict(step: PipelineStep) -> dict[str, Any]:
    """Encode one pipeline step; ``run=`` and factory steps refuse to encode."""
    if step.run is not None:
        raise SpecError(
            f"pipeline step {step.name!r} carries a run= callable; callables are "
            "code, not data, and cannot be serialised to JSON"
        )
    if not isinstance(step.task, TaskSpec):
        raise SpecError(
            f"pipeline step {step.name!r} carries a spec factory; only concrete "
            "TaskSpec steps can be serialised to JSON"
        )
    return {
        "name": step.name,
        "task": spec_to_dict(step.task),
        "depends_on": list(step.depends_on),
        "description": step.description,
    }


def step_from_dict(data: Mapping[str, Any]) -> PipelineStep:
    if not isinstance(data, Mapping):
        raise SpecError(f"a step payload must be an object, got {type(data).__name__}")
    if "task" not in data:
        raise SpecError(f"pipeline step payload {data.get('name')!r} has no task")
    return PipelineStep(
        name=str(data.get("name", "")),
        task=spec_from_dict(data["task"]),
        depends_on=tuple(str(dep) for dep in data.get("depends_on", ())),
        description=str(data.get("description", "")),
    )


def pipeline_to_dict(pipeline: PipelineSpec) -> dict[str, Any]:
    """Encode a whole pipeline spec as a JSON-shaped dict."""
    return {
        "version": SPEC_CODEC_VERSION,
        "name": pipeline.name,
        "steps": [step_to_dict(step) for step in pipeline.steps],
        "budget_dollars": pipeline.budget_dollars,
        "description": pipeline.description,
    }


def pipeline_from_dict(data: Mapping[str, Any]) -> PipelineSpec:
    """Rebuild a pipeline spec from its wire dict (structure only —
    callers run :meth:`PipelineSpec.validate` for semantic checks)."""
    if not isinstance(data, Mapping):
        raise SpecError(
            f"a pipeline payload must be an object, got {type(data).__name__}"
        )
    version = int(data.get("version", 0))
    if version > SPEC_CODEC_VERSION:
        raise SpecError(
            f"pipeline payload version {version} is newer than this library's "
            f"{SPEC_CODEC_VERSION}"
        )
    budget = data.get("budget_dollars")
    return PipelineSpec(
        name=str(data.get("name", "pipeline")),
        steps=[step_from_dict(step) for step in data.get("steps", ())],
        budget_dollars=None if budget is None else float(budget),
        description=str(data.get("description", "")),
    )


def pipeline_to_json(pipeline: PipelineSpec) -> str:
    """The JSON wire form of a pipeline (what the service's job table stores)."""
    return json.dumps(pipeline_to_dict(pipeline), sort_keys=True)


def pipeline_from_json(payload: str) -> PipelineSpec:
    """Parse a pipeline from its JSON wire form."""
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed pipeline JSON: {exc}") from exc
    return pipeline_from_dict(data)
