"""Executor: transactional tool calls, trigger enforcement, error payloads."""

from __future__ import annotations

import pytest

from policygym.errors import MalformedArguments, ReadOnlyTable, UnknownTool
from policygym.executor import (
    ToolCall,
    _run_write,
    execute_tool,
    open_environment,
    open_environment_at,
    parse_engine_error,
    safe_execute_tool,
)
from policygym.packages import READ_ONLY, EnvironmentBundle
from policygym.snapshots import quote_ident
from policygym.verify import canonicalize, canonicalize_connection, diff_canonical


@pytest.fixture()
def env(travel_pkg):
    handle = open_environment(travel_pkg)
    yield handle
    handle.close()


def _diff_to_origin(env, pkg) -> int:
    origin = canonicalize(pkg.origin_snapshot, pkg.diff_config)
    live = canonicalize_connection(env.connection, pkg.diff_config)
    return diff_canonical(origin, live).total


def test_open_environment_matches_origin(env, travel_pkg):
    assert _diff_to_origin(env, travel_pkg) == 0
    assert env.digest() == travel_pkg.origin_snapshot.digest()


def test_two_handles_are_independent(travel_pkg):
    with open_environment(travel_pkg) as a, open_environment(travel_pkg) as b:
        r = execute_tool(a, ToolCall("transfer_to_human_agents", {"summary": "check"}))
        assert r.status == "success"
        assert _diff_to_origin(b, travel_pkg) == 0
        assert _diff_to_origin(a, travel_pkg) == 1


def test_quota_exceeded_on_fourth_flight(env):
    # request 1 is seeded at the quota boundary with 3 active flights
    result = execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": 1, "flight_code": "FL-900", "cost": 200,
        "class": "ECONOMY", "departure_step": 20, "booking_step": 12,
    }))
    assert result.status == "error"
    assert result.error.code == "QUOTA_EXCEEDED"
    assert "Maximum 3 flight bookings per travel request" in result.error.message
    assert result.error.violated_rule == "Maximum 3 flight bookings per travel request"
    assert result.error.hint  # registry carries a hint for this code


def test_emergency_booking_sets_violation_flag(env):
    result = execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": 2, "flight_code": "FL-777", "cost": 300,
        "class": "ECONOMY", "departure_step": 15, "booking_step": 14,
    }))
    assert result.status == "success"
    rows = execute_tool(env, ToolCall("query_flight_bookings", {
        "filters": {"flight_code": "FL-777"},
    })).rows
    assert len(rows) == 1
    assert rows[0]["policy_violation_flag"] == 1


def test_update_on_read_only_table_rejected_before_engine(env):
    with pytest.raises(ReadOnlyTable):
        execute_tool(env, ToolCall("update_users", {
            "filters": {"id": "u_dir_01"}, "set": {"active": 0},
        }))


@pytest.mark.parametrize("table", ["order items", "order-lines"])
def test_a_write_to_a_read_only_table_of_any_name_is_refused_as_read_only(table):
    schema = f"CREATE TABLE {quote_ident(table)} (id INTEGER PRIMARY KEY, note TEXT);"
    bundle = EnvironmentBundle.from_schema(schema, "", {table: READ_ONLY}, {})
    with open_environment_at(bundle, bundle.empty_snapshot) as handle:
        for kind in ("insert", "update"):
            result = safe_execute_tool(handle, ToolCall(f"{kind}_{table}", {}))
            assert result.error.code == "READ_ONLY_TABLE"
            assert result.error.message == (f"table {table} is read-only; "
                                             f"{kind}_{table} is not available")
        result = safe_execute_tool(handle, ToolCall(f"delete_{table}", {}))
        assert result.error.code == "UNKNOWN_TOOL"


def test_unknown_tool_and_malformed_arguments(env):
    with pytest.raises(UnknownTool):
        execute_tool(env, ToolCall("fly_me_to_the_moon", {}))
    with pytest.raises(MalformedArguments):
        execute_tool(env, ToolCall("insert_flight_bookings", {"travel_request_id": 2}))
    with pytest.raises(MalformedArguments):
        execute_tool(env, ToolCall("insert_flight_bookings", {
            "travel_request_id": "two", "flight_code": "F", "cost": 1,
            "class": "ECONOMY", "departure_step": 9, "booking_step": 1,
        }))
    with pytest.raises(MalformedArguments):
        execute_tool(env, ToolCall("query_users", {"filters": [{"column": "id", "op": "LIKE", "value": "u%"}]}))


def test_safe_execute_folds_contract_violations_into_results(env, travel_pkg):
    before = env.digest()
    for call in (
        ToolCall("fly_me_to_the_moon", {}),
        ToolCall("update_users", {"filters": {}, "set": {"active": 0}}),
        ToolCall("insert_flight_bookings", {"nonsense": 1}),
    ):
        result = safe_execute_tool(env, call)
        assert result.status == "error"
        assert result.state_digest == before
    assert _diff_to_origin(env, travel_pkg) == 0


def test_query_empty_match_returns_empty_success(env):
    result = execute_tool(env, ToolCall("query_travel_requests", {
        "filters": [{"column": "status", "op": "=", "value": "SUBMITTED"}],
    }))
    assert result.status == "success"
    assert result.rows == ()
    assert result.affected == 0


def test_query_operators_order_and_limit(env):
    result = execute_tool(env, ToolCall("query_flight_bookings", {
        "filters": [{"column": "cost", "op": ">=", "value": 400}],
        "order_by": {"column": "cost", "direction": "desc"},
        "limit": 2,
    }))
    costs = [row["cost"] for row in result.rows]
    assert costs == [600, 450]


def test_update_zero_rows_is_success_affected_zero(env):
    result = execute_tool(env, ToolCall("update_travel_requests", {
        "filters": {"status": "SUBMITTED"}, "set": {"status": "CANCELLED"},
    }))
    assert result.status == "success"
    assert result.affected == 0


def test_atomicity_digest_unchanged_on_error(env):
    before = env.digest()
    result = execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": 1, "flight_code": "FL-901", "cost": 100,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12,
    }))
    assert result.status == "error"
    assert result.state_digest == before
    assert env.digest() == before


def test_replay_determinism(travel_pkg):
    calls = [
        ToolCall("insert_flight_bookings", {
            "travel_request_id": 2, "flight_code": "FL-1", "cost": 100,
            "class": "ECONOMY", "departure_step": 20, "booking_step": 14,
        }),
        ToolCall("update_travel_requests", {"filters": {"id": 2}, "set": {"status": "APPROVED"}}),
        ToolCall("insert_hotel_bookings", {
            "travel_request_id": 2, "hotel_vendor_id": "v_harbor", "cost": 99,
            "booking_step": 14,
        }),
        ToolCall("transfer_to_human_agents", {"summary": "done"}),
    ]
    digests = []
    for _ in range(2):
        with open_environment(travel_pkg) as env:
            last = ""
            for call in calls:
                last = execute_tool(env, call).state_digest
            digests.append(last)
    assert digests[0] == digests[1]


def test_approval_flow_tickets_flight_then_cancels_are_blocked(env):
    # staff flight above the 1000 threshold, non-emergency: approval required
    result = execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": 1, "flight_code": "FL-500", "cost": 1500,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12,
        "approval_status": "PENDING",
    }))
    assert result.status == "error"  # request 1 is at quota; use a fresh request
    result = execute_tool(env, ToolCall("insert_travel_requests", {
        "user_id": "u_staff_01", "trip_purpose": "Vendor audit", "current_step": 13,
    }))
    assert result.status == "success"
    new_request = execute_tool(env, ToolCall("query_travel_requests", {
        "filters": {"trip_purpose": "Vendor audit"},
    })).rows[0]

    result = execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": new_request["id"], "flight_code": "FL-500", "cost": 1500,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12,
        "approval_status": "PENDING",
    }))
    assert result.status == "success"
    approval = execute_tool(env, ToolCall("query_approvals", {
        "filters": {"status": "PENDING"},
    })).rows
    assert len(approval) == 1  # created automatically by the after-insert hook

    decided = execute_tool(env, ToolCall("update_approvals", {
        "filters": {"id": approval[0]["id"]},
        "set": {"status": "APPROVED", "approver_id": "u_mgr_01"},
    }))
    assert decided.status == "success"
    flight = execute_tool(env, ToolCall("query_flight_bookings", {
        "filters": {"flight_code": "FL-500"},
    })).rows[0]
    assert flight["status"] == "TICKETED"
    assert flight["approval_status"] == "APPROVED"

    cancel = execute_tool(env, ToolCall("update_flight_bookings", {
        "filters": {"id": flight["id"]},
        "set": {"status": "CANCELLED", "cancellation_step": 13, "refund_amount": 1500},
    }))
    assert cancel.status == "error"
    assert cancel.error.code == "IRREVERSIBLE"
    assert "TICKETED flights cannot be cancelled" in cancel.error.message


def test_approval_authority_and_conflict_rules(env):
    execute_tool(env, ToolCall("insert_travel_requests", {
        "user_id": "u_mgr_01", "trip_purpose": "Offsite planning", "current_step": 14,
    }))
    request = execute_tool(env, ToolCall("query_travel_requests", {
        "filters": {"trip_purpose": "Offsite planning"},
    })).rows[0]
    execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": request["id"], "flight_code": "FL-600", "cost": 1200,
        "class": "ECONOMY", "departure_step": 40, "booking_step": 14,
        "approval_status": "PENDING",
    }))
    approval = execute_tool(env, ToolCall("query_approvals", {
        "filters": {"status": "PENDING"},
    })).rows[0]

    by_staff = execute_tool(env, ToolCall("update_approvals", {
        "filters": {"id": approval["id"]},
        "set": {"status": "APPROVED", "approver_id": "u_staff_01"},
    }))
    assert by_staff.error.code == "AUTHORITY_ERROR"

    by_self = execute_tool(env, ToolCall("update_approvals", {
        "filters": {"id": approval["id"]},
        "set": {"status": "APPROVED", "approver_id": "u_mgr_01"},
    }))
    assert by_self.error.code == "CONFLICT_OF_INTEREST"


def test_wrong_refund_rejected_with_calculation_error(env):
    # flight 1 on request 1: booking_step 10, cost 300; step 20 is a late cancel
    result = execute_tool(env, ToolCall("update_flight_bookings", {
        "filters": {"id": 1},
        "set": {"status": "CANCELLED", "cancellation_step": 20, "refund_amount": 300},
    }))
    assert result.status == "error"
    assert result.error.code == "CALCULATION_ERROR"
    assert "gets 50" in result.error.message

    correct = execute_tool(env, ToolCall("update_flight_bookings", {
        "filters": {"id": 1},
        "set": {"status": "CANCELLED", "cancellation_step": 20, "refund_amount": 150},
    }))
    assert correct.status == "success"
    request = execute_tool(env, ToolCall("query_travel_requests", {
        "filters": {"id": 1},
    })).rows[0]
    assert request["flight_booking_count"] == 2  # recounted by the status hook


def test_snapshot_isolation_and_reset(env, travel_pkg):
    first = env.snapshot()
    execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "note"}))
    second = env.snapshot()
    assert first.digest() != second.digest()
    assert diff_canonical(
        canonicalize(first, travel_pkg.diff_config),
        canonicalize(second, travel_pkg.diff_config),
    ).total == 1
    env.reset()
    assert _diff_to_origin(env, travel_pkg) == 0


def test_reset_after_error_restores_origin(env, travel_pkg):
    execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": 1, "flight_code": "FL-902", "cost": 100,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12,
    }))
    env.reset()
    assert _diff_to_origin(env, travel_pkg) == 0


def test_system_controlled_columns_pass_through_and_get_rejected(env):
    result = execute_tool(env, ToolCall("insert_flight_bookings", {
        "travel_request_id": 2, "flight_code": "FL-903", "cost": 100,
        "class": "ECONOMY", "departure_step": 30, "booking_step": 12,
        "policy_violation_flag": 1,
    }))
    assert result.status == "error"
    assert result.error.code == "SYSTEM_CONTROL"


def test_parse_engine_error_contract(travel_pkg):
    registry = travel_pkg.env.error_registry
    payload = parse_engine_error("[IRREVERSIBLE] TICKETED flights cannot be cancelled", registry)
    assert payload.code == "IRREVERSIBLE"
    assert payload.violated_rule == "TICKETED flights cannot be cancelled"
    assert payload.hint == registry["IRREVERSIBLE"]

    payload = parse_engine_error("disk I/O error", registry)
    assert payload.code == "UNCLASSIFIED"
    assert payload.message == "disk I/O error"
    assert payload.violated_rule == ""

    payload = parse_engine_error(
        "[CALCULATION_ERROR] Late flight cancellation (>2 steps from booking) gets 50", registry
    )
    assert payload.code == "CALCULATION_ERROR"


def test_no_delete_row_counts_never_decrease(env):
    def counts():
        out = {}
        for table in ("travel_requests", "flight_bookings", "hotel_bookings", "approvals"):
            rows = execute_tool(env, ToolCall(f"query_{table}", {})).rows
            out[table] = len(rows)
        return out

    before = counts()
    execute_tool(env, ToolCall("update_flight_bookings", {
        "filters": {"id": 2},
        "set": {"status": "CANCELLED", "cancellation_step": 11, "refund_amount": 450},
    }))
    after = counts()
    for table in before:
        assert after[table] >= before[table]


def test_query_null_filter_semantics(env):
    rows = execute_tool(env, ToolCall("query_flight_bookings", {
        "filters": [{"column": "cancellation_step", "op": "=", "value": None}],
    })).rows
    assert len(rows) == 3  # nothing cancelled in the origin state
    rows = execute_tool(env, ToolCall("query_flight_bookings", {
        "filters": [{"column": "cancellation_step", "op": "!=", "value": None}],
    })).rows
    assert rows == ()


_FLIGHT = {"travel_request_id": 2, "flight_code": "FL-904", "cost": 100,
           "class": "ECONOMY", "departure_step": 30, "booking_step": 12}

# argument shapes SQLite cannot bind; each used to escape safe_execute_tool
_UNBINDABLE = [
    ("query_travel_requests", {"filters": {"id": [1]}}),
    ("query_travel_requests", {"filters": {"id": 2**70}}),
    ("query_travel_requests", {"filters": {"trip_purpose": "\ud800"}}),
    ("query_travel_requests", {"filters": [{"column": "id", "op": "<", "value": {"v": 1}}]}),
    ("query_travel_requests", {"filters": [{"column": ["id"], "op": "=", "value": 1}]}),
    ("query_travel_requests", {"limit": 2**70}),
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"current_step": 2**70}}),
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"current_step": [2]}}),
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"trip_purpose": {"a": 1}}}),
    ("update_travel_requests", {"filters": {"id": [2]}, "set": {"current_step": 2}}),
    ("insert_flight_bookings", {**_FLIGHT, "cost": 2**70}),
    ("insert_flight_bookings", {**_FLIGHT, "cost": -(2**63) - 1}),
    ("transfer_to_human_agents", {"summary": "see \udc80"}),
]


@pytest.mark.parametrize("tool_name, arguments", _UNBINDABLE, ids=[
    "filter-list", "filter-overflow", "filter-surrogate", "filter-dict", "filter-column-list",
    "limit-overflow", "set-overflow", "set-list", "set-dict", "update-filter-list",
    "insert-overflow", "insert-underflow", "summary-surrogate",
])
def test_unbindable_arguments_are_malformed_and_leave_handle_usable(env, tool_name, arguments):
    before = env.digest()
    result = safe_execute_tool(env, ToolCall(tool_name, arguments))
    assert result.status == "error"
    assert result.error.code == "MALFORMED_ARGUMENTS"
    assert result.state_digest == before == env.digest()
    assert not env.connection.in_transaction
    follow = execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "next"}))
    assert follow.status == "success"


def test_writes_roll_back_on_non_engine_exceptions(env):
    before = env.digest()
    unbindable = ("INSERT INTO escalations (summary) VALUES (?)", [2**70])
    with pytest.raises(OverflowError):
        _run_write(env, *unbindable)
    assert not env.connection.in_transaction
    with pytest.raises(OverflowError):
        env.system_write(*unbindable)
    assert not env.connection.in_transaction
    assert env.digest() == before
    assert execute_tool(env, ToolCall("transfer_to_human_agents", {"summary": "ok"})).ok


@pytest.mark.parametrize("name", [5, 2.5, None, ["insert_users"], {"tool": "query_users"}])
@pytest.mark.parametrize("opened_at", [False, True], ids=["tracked", "open_environment_at"])
def test_non_string_tool_name_is_unknown_tool(travel_pkg, name, opened_at):
    if opened_at:
        handle = open_environment_at(travel_pkg.env, travel_pkg.origin_snapshot)
    else:
        handle = open_environment(travel_pkg)
    with handle as env:
        assert env.tracked is not opened_at
        before = env.digest()
        result = safe_execute_tool(env, ToolCall(name, {}))
        assert result.status == "error"
        assert result.error.code == "UNKNOWN_TOOL"
        assert result.state_digest == before == travel_pkg.origin_snapshot.digest()


# values a port can send (or, for bytes, an in-process caller) that bind but
# break the published types; each of these used to commit or match
_MISTYPED = [
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"current_step": "abc"}}),
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"trip_purpose": True}}),
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"current_step": 15.5}}),
    ("update_travel_requests", {"filters": {"id": True}, "set": {"current_step": 15}}),
    ("query_travel_requests", {"filters": {"id": True}}),
    ("query_travel_requests", {"filters": [{"column": "id", "op": ">=", "value": False}]}),
    ("update_travel_requests", {"filters": {"id": 2}, "set": {"trip_purpose": b"x"}}),
    ("query_travel_requests", {"filters": {"trip_purpose": b"Audit"}}),
]


@pytest.mark.parametrize("tool_name, arguments", _MISTYPED, ids=[
    "set-text-into-integer", "set-boolean-into-text", "set-real-into-integer",
    "update-boolean-filter", "query-boolean-filter", "query-boolean-filter-list",
    "set-bytes", "filter-bytes",
])
def test_mistyped_values_are_malformed_and_change_nothing(env, tool_name, arguments):
    before = env.digest()
    result = safe_execute_tool(env, ToolCall(tool_name, arguments))
    assert result.status == "error"
    assert result.error.code == "MALFORMED_ARGUMENTS"
    assert result.state_digest == before == env.digest()


@pytest.mark.parametrize("arguments", [None, [["filters", {}]], "filters", 5])
def test_tool_call_keeps_arguments_as_sent(env, arguments):
    call = ToolCall.from_json({"tool_name": "query_users", "arguments": arguments})
    assert call.arguments == arguments
    result = safe_execute_tool(env, call)
    assert result.error.code == "MALFORMED_ARGUMENTS"
    assert ToolCall.from_json({"tool_name": "query_users"}).arguments == {}
