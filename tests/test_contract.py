"""The tool argument contract: ``tools.json`` schemas, their validators, and
``safe_execute_tool`` staying total on arbitrary JSON-like calls."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from policygym.errors import MalformedArguments, ReadOnlyTable, UnknownTool
from policygym.executor import (
    ErrorPayload,
    ToolCall,
    ToolResult,
    _filters_to_sql,
    _lookup_tool,
    _run_write,
    open_environment,
    open_environment_at,
    safe_execute_tool,
)
from policygym.packages import compile_validator
from policygym.snapshots import quote_ident, select_sql, state_digest

# derandomized, so that CI sees the same corpus on every run
FUZZ = settings(derandomize=True, max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.fixture(scope="module")
def published(fixture_dir):
    """Validators compiled from the saved fixture's ``tools.json``."""
    doc = json.loads((fixture_dir / "tools.json").read_text("utf-8"))
    return {t["name"]: compile_validator(t["parameter_schema"], t["name"]) for t in doc}


def _contract_accepts(validate, tool_name: str, arguments) -> bool:
    """The published schema's verdict, plus the one rule a schema cannot
    state: a NULL query filter value only takes = and !=."""
    try:
        validate(arguments)
    except MalformedArguments:
        return False
    filters = arguments.get("filters") if tool_name.startswith("query_") else None
    return not (isinstance(filters, list) and any(
        f["value"] is None and f.get("op", "=") not in ("=", "!=") for f in filters))


# --- the fuzz corpus -----------------------------------------------------------------

_ODD = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**64), 2**64), st.floats(),
    st.text(max_size=4), st.binary(max_size=2),
)
# what the bind rule and the type rules are for, drawn often on purpose
_EDGE = st.sampled_from([True, 2**70, -(2**63) - 1, 2**63 - 1, "\ud800", "", b"x", [1]])
_TYPED = {
    "integer": st.sampled_from([1, 2, 3, 12, 15, 20, 30, 300]),
    "number": st.sampled_from([1.5, 300.0]),
    "string": st.sampled_from(["u_staff_01", "u_mgr_01", "APPROVED", "CANCELLED", "PENDING",
                               "ECONOMY", "FL-1", "v_harbor", "Audit"]),
}
_PLAIN = st.one_of(*_TYPED.values())
_KEYS = st.sampled_from(["filters", "set", "order_by", "limit", "summary", "column", "op",
                         "value", "id", "status"]) | st.text(max_size=3)
_JSON_LIKE = st.recursive(
    _ODD | _EDGE | _PLAIN,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8)
_ODD_NAMES = ["nope", "insert_users", "update_companies", 7, None, ["query_users"], "\ud800"]


def _mostly(usual, odd_one_in=3):
    """``usual``, except one time in ``odd_one_in``: then mostly an edge
    case, else any JSON-like value."""
    last = 4 * odd_one_in - 1  # hypothesis favours small draws: keep those usual
    return st.integers(0, last).flatmap(
        lambda i: usual if i < last - 3 else _JSON_LIKE if i == last else _EDGE)


def _arguments(spec):
    """Arguments for ``spec``: mostly shaped like its schema, with typed,
    mistyped, unbindable and misplaced values."""
    schema = spec.parameter_schema
    if spec.kind == "query":
        names = schema["properties"]["order_by"]["properties"]["column"]["enum"]
        column = _mostly(st.sampled_from(names))
        item = st.fixed_dictionaries(
            {"column": column, "value": _mostly(_PLAIN)},
            optional={"op": _mostly(st.sampled_from(["=", "!=", "<", ">=", "LIKE"]))})
        shaped = st.fixed_dictionaries({}, optional={
            "filters": st.dictionaries(st.sampled_from(names) | st.text(max_size=3),
                                       _mostly(_PLAIN), max_size=2)
            | st.lists(item, max_size=2),
            "order_by": st.fixed_dictionaries({"column": column},
                                              optional={"direction": _mostly(_PLAIN)}),
            "limit": _mostly(_TYPED["integer"]),
        })
    elif spec.kind == "update":
        typed = {col: _mostly(_TYPED[p["type"][0]])
                 for col, p in schema["properties"]["set"]["properties"].items()}
        one_column = st.sampled_from(sorted(typed)).flatmap(
            lambda col: st.fixed_dictionaries({col: typed[col]}))
        shaped = st.fixed_dictionaries({
            "filters": st.fixed_dictionaries({}, optional={"id": _mostly(_PLAIN)}),
            "set": one_column | st.fixed_dictionaries({}, optional=typed),
        })
    elif spec.kind == "insert":
        props = schema["properties"]
        # rarer odd values, or every row would have one
        typed = {col: _mostly(_TYPED[p["type"][0]], 10) for col, p in props.items()}
        shaped = st.fixed_dictionaries(
            {col: typed[col] for col in schema["required"]},
            optional={col: v for col, v in typed.items() if col not in schema["required"]})
    else:
        shaped = st.fixed_dictionaries({"summary": _mostly(_TYPED["string"])})
    return _mostly(shaped)


def _draw_calls(data, pkg) -> list[ToolCall]:
    """One to six calls of ``pkg``'s tools and odd names, arguments from ``_arguments``."""
    tools = pkg.env.tools_by_name()
    calls = []
    for name in data.draw(st.lists(st.sampled_from(sorted(tools) + _ODD_NAMES),
                                   min_size=1, max_size=6)):
        spec = tools.get(name) if isinstance(name, str) else None
        calls.append(ToolCall(name, data.draw(_arguments(spec) if spec else _JSON_LIKE)))
    return calls


def _open(pkg, opened_at: bool):
    return open_environment_at(pkg.env, pkg.origin_snapshot) if opened_at else open_environment(pkg)


@pytest.mark.parametrize("opened_at", [False, True], ids=["tracked", "open_environment_at"])
@FUZZ
@given(data=st.data())
def test_arbitrary_calls_are_total_and_match_the_published_contract(
        travel_pkg, published, opened_at, data):
    calls = _draw_calls(data, travel_pkg)
    with _open(travel_pkg, opened_at) as env:
        assert env.tracked is not opened_at
        for call in calls:
            before = env.digest()
            result = safe_execute_tool(env, call)
            assert isinstance(result, ToolResult)
            assert result.state_digest == env.digest() == state_digest(
                env.connection, env.schema_info)
            if result.status == "error":
                assert result.state_digest == before
            if isinstance(call.tool_name, str) and call.tool_name in published:
                malformed = result.error is not None and result.error.code == "MALFORMED_ARGUMENTS"
                accepted = _contract_accepts(published[call.tool_name], call.tool_name,
                                             call.arguments)
                assert malformed is not accepted, call


# --- the slow reference --------------------------------------------------------------

def _reference_result(env, call: ToolCall) -> ToolResult:
    """``safe_execute_tool``'s result built the slow way: each call rebuilds
    its SQL text (a query's columns from ``env.schema_info``), and the digest is
    attached to a digest-less result with ``dataclasses.replace``."""
    try:
        spec = _lookup_tool(env, call.tool_name)
        spec.validate(call.arguments)
        args, table = call.arguments, quote_ident(spec.table)
        if spec.kind == "query":
            columns = [c.name for c in env.schema_info.columns(spec.table)]
            where, params = _filters_to_sql(spec, args.get("filters"))
            sql = select_sql(spec.table, columns) + where
            order = args.get("order_by")
            if order is not None:
                direction = order.get("direction", "asc").upper()
                sql += f" ORDER BY {quote_ident(order['column'])} {direction}"
            if args.get("limit") is not None:
                sql += " LIMIT ?"
                params.append(args["limit"])
            rows = tuple(dict(zip(columns, row)) for row in env.read(sql, params))
            result = ToolResult(status="success", rows=rows)
        elif spec.kind == "update":
            where, params = _filters_to_sql(spec, args["filters"])
            setter = ", ".join(f"{quote_ident(c)} = ?" for c in args["set"])
            result = _run_write(env, f"UPDATE {table} SET {setter}{where}",
                                [*args["set"].values(), *params])
        else:
            names = ", ".join(map(quote_ident, args))
            result = _run_write(env, f"INSERT INTO {table} ({names}) VALUES"
                                     f" ({', '.join('?' * len(args))})", list(args.values()))
    except UnknownTool as exc:
        result = ToolResult(status="error", error=ErrorPayload(
            code="UNKNOWN_TOOL", message=f"unknown tool: {exc}",
            hint="use a tool from the provided catalog"))
    except ReadOnlyTable as exc:
        result = ToolResult(status="error", error=ErrorPayload(
            code="READ_ONLY_TABLE", message=str(exc), hint="this table only supports query tools"))
    except MalformedArguments as exc:
        result = ToolResult(status="error", error=ErrorPayload(
            code="MALFORMED_ARGUMENTS", message=str(exc), hint="check the tool parameter schema"))
    return replace(result, state_digest=env.digest())


@pytest.mark.parametrize("opened_at", [False, True], ids=["tracked", "open_environment_at"])
@FUZZ
@given(data=st.data())
def test_each_result_equals_the_slow_reference_field_by_field(travel_pkg, opened_at, data):
    calls = _draw_calls(data, travel_pkg)
    with _open(travel_pkg, opened_at) as env, _open(travel_pkg, opened_at) as twin:
        for call in calls:
            result, expected = safe_execute_tool(env, call), _reference_result(twin, call)
            for f in fields(ToolResult):
                assert getattr(result, f.name) == getattr(expected, f.name), (call, f.name)


# --- the validator -------------------------------------------------------------------

def test_published_schemas_are_the_catalog_schemas(travel_pkg, published, fixture_dir):
    doc = json.loads((fixture_dir / "tools.json").read_text("utf-8"))
    assert {t["name"]: t["parameter_schema"] for t in doc} == {
        t.name: t.parameter_schema for t in travel_pkg.env.tool_catalog}
    assert set(published) == set(travel_pkg.env.tools_by_name())


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "properties": {"x": {"type": "integer", "maximum": 3}}},
    {"type": "array", "items": {"format": "date"}},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": "integer", "enum": [0, 1]},
], ids=["pattern", "nested-maximum", "items-format", "additional-schema",
        "integer-enum"])
def test_a_schema_that_promises_an_unchecked_rule_does_not_compile(schema):
    with pytest.raises(ValueError):
        compile_validator(schema, "t")


@pytest.mark.parametrize("schema, value, ok", [
    ({"type": "number"}, -(2**63), True),
    ({"type": "number"}, 2**63 - 1, True),
    ({"type": "number"}, 2**63, False),
    ({"type": "number"}, -(2**63) - 1, False),
    ({"type": "number"}, float("nan"), True),
    ({"type": "number"}, True, False),
    ({"type": "integer"}, 1.0, False),
    ({"type": "integer"}, False, False),
    ({"type": ["string", "null"]}, "\udc80", False),
    ({"type": ["string", "null"]}, b"x", False),
    ({"type": "integer", "minimum": 0}, 0, True),
    ({"type": "integer", "minimum": 0}, -1, False),
    ({"type": "string", "minLength": 1}, "", False),
    ({"type": "string", "enum": ["asc", "desc"]}, "up", False),
    ({"type": "object", "minProperties": 1}, {}, False),
    ({"type": "object", "required": ["a"]}, {"b": 1}, False),
    ({"properties": {"a": {"type": "integer"}}}, {"a": 1, "b": [True]}, True),
])
def test_each_keyword_and_the_bind_rule(schema, value, ok):
    validate = compile_validator(schema, "v")
    if ok:
        validate(value)
    else:
        with pytest.raises(MalformedArguments, match="^v: "):
            validate(value)


def test_errors_name_the_offending_path():
    validate = compile_validator({
        "type": "object",
        "properties": {"filters": {"type": "array", "items": {
            "type": "object", "properties": {"value": {"type": ["string", "null"]}}}}},
        "additionalProperties": False,
    }, "query_t")
    validate({"filters": [{"value": None}, {"value": "x", "other": 1}]})
    with pytest.raises(MalformedArguments, match=r"^query_t\.filters\[\]\.value: .*boolean"):
        validate({"filters": [{"value": "x"}, {"value": True}]})
    with pytest.raises(MalformedArguments, match=r"^query_t: unknown property 'limit'"):
        validate({"limit": 1})
    with pytest.raises(MalformedArguments, match="not valid unicode"):
        validate({"filters": [{"value": "a\ud800"}]})
