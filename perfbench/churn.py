"""Scaled origin and seeded churn traffic for the churn_scaled workload.

The origin is the fixture origin grown to about ROWS_PER_TABLE rows in every
read-write table. Every row goes through ``EnvHandle.system_write``, so the
fixture triggers admit (and side-effect) each one exactly as they would for
agent traffic. The target is that origin plus the fixture oracle calls, so
delta0 stays 4 at any scale.

The call mix follows the fixture's atomicity-under-churn acceptance test
(about 70 % policy or contract rejections, plus reads, inserts and updates),
with key ranges scaled to the grown tables. A malformed shape is kept on
purpose at a fixed low rate: a list-valued ``set`` value on an ``update_*``
tool. The other list-valued shape of ROADMAP.md item 4, a list-valued filter
on a ``query_*`` tool, escapes ``run_episode`` as
``sqlite3.ProgrammingError``; a failed episode would make the count of
failed operations depend on how many episodes a run completes, so it is
not in the measured mix and is replayed once per run instead
(``LIST_FILTER_CALL``, see ``ChurnScaled.known_defects``).
"""

from __future__ import annotations

import dataclasses
import random
import sqlite3

from policygym import executor, verify
from policygym.executor import ToolCall
from policygym.fixtures import corporate_travel
from policygym.snapshots import Snapshot

from tracing import count_rows

ROWS_PER_TABLE = 2000
CALLS_PER_EPISODE = 20
LIST_SET_RATE = 0.01
LIST_FILTER_CALL = ToolCall("query_travel_requests", {"filters": {"id": [2]}})

_ALPHA_USERS = ("u_staff_01", "u_mgr_01", "u_dir_01", "u_vp_01")
_PURPOSES = ("Audit", "Expo", "Client visit", "Training", "Offsite", "Sales call",
             "Vendor review", "Site survey")


def _insert(env, table: str, row: dict) -> None:
    cols = list(row)
    env.system_write(
        "INSERT INTO {} ({}) VALUES ({})".format(
            table, ", ".join(cols), ", ".join("?" for _ in cols)
        ),
        [row[c] for c in cols],
    )


def _try_update(env, sql: str, params) -> None:
    try:
        env.system_write(sql, params)
    except sqlite3.Error:
        pass  # a trigger refused this transition; the row keeps its state


def build_scaled_origin(seed: int):
    """Fixture package whose origin holds about ROWS_PER_TABLE rows per
    read-write table; returns (package, rows per table)."""
    base = corporate_travel.build_task_package()
    rng = random.Random(seed)
    with executor.open_environment_at(base.env, base.origin_snapshot) as env:

        def count(table: str) -> int:
            return count_rows(env.connection, [table])[table]

        # seeding speed only: neither setting is stored in the image
        env.connection.execute("PRAGMA journal_mode = MEMORY")
        env.connection.execute("PRAGMA synchronous = OFF")
        first_new = count("travel_requests") + 1
        while count("travel_requests") < ROWS_PER_TABLE:
            _insert(env, "travel_requests", {
                "user_id": rng.choice(_ALPHA_USERS),
                "trip_purpose": f"{rng.choice(_PURPOSES)} {rng.randint(1, 99999)}",
                "current_step": rng.randint(5, 40),
            })
        last = count("travel_requests")
        # new requests only: request 2 keeps the room the oracle calls need
        request_ids = list(range(first_new, last + 1))
        # bookings crowd into the first half of the requests, so many sit at
        # their quota the way the fixture's staff request does
        busy = request_ids[: len(request_ids) // 2]

        while count("flight_bookings") < ROWS_PER_TABLE:
            booking = rng.randint(5, 30)
            row = {
                "travel_request_id": rng.choice(busy),
                "flight_code": f"FL-{rng.randint(100, 9999)}",
                "cost": rng.choice([180, 300, 420, 760, 1200, 1800, 2400]),
                "class": "ECONOMY",
                "departure_step": booking + rng.randint(1, 12),
                "booking_step": booking,
            }
            for approval in ("NOT_REQUIRED", "PENDING"):
                try:
                    _insert(env, "flight_bookings", {**row, "approval_status": approval})
                    break
                except sqlite3.Error:
                    continue  # the other approval status is the admissible one

        while count("hotel_bookings") < ROWS_PER_TABLE:
            try:
                _insert(env, "hotel_bookings", {
                    "travel_request_id": rng.choice(request_ids),
                    "hotel_vendor_id": rng.choice(["v_grand", "v_harbor"]),
                    "cost": rng.randint(60, 480),
                    "booking_step": rng.randint(5, 30),
                })
            except sqlite3.Error:
                continue  # request already holds its two hotels

        flights = env.connection.execute(
            "SELECT id, cost, booking_step FROM flight_bookings"
        ).fetchall()
        while count("approvals") < ROWS_PER_TABLE:
            _insert(env, "approvals", {
                "flight_booking_id": rng.choice(flights)[0],
                "status": "PENDING",
                "step": rng.randint(5, 30),
            })

        # move part of every lifecycle past its decision point, through the
        # same update triggers agent traffic meets
        for flight_id, cost, booking in flights:
            roll = rng.random()
            if roll < 0.25:
                _try_update(env, "UPDATE flight_bookings SET status = 'TICKETED' WHERE id = ?",
                            [flight_id])
            elif roll < 0.4:
                step = booking + rng.randint(0, 6)
                refund = cost if step - booking <= 2 else cost // 2
                _try_update(env, "UPDATE flight_bookings SET status = 'CANCELLED',"
                                 " cancellation_step = ?, refund_amount = ? WHERE id = ?",
                            [step, refund, flight_id])
        for approval_id in range(1, ROWS_PER_TABLE + 1):
            if rng.random() < 0.5:
                _try_update(env, "UPDATE approvals SET status = ?, approver_id = ? WHERE id = ?",
                            [rng.choice(["APPROVED", "DENIED"]),
                             rng.choice(["u_mgr_01", "u_vp_01"]), approval_id])
        for request_id in request_ids:
            if rng.random() < 0.85:
                _try_update(env, "UPDATE travel_requests SET status = ? WHERE id = ?",
                            [rng.choice(["SUBMITTED", "CANCELLED"]), request_id])

        rows = count_rows(env.connection, sorted(base.env.permissions) + ["escalations"])
        origin = Snapshot(env.connection.serialize())
        for call in corporate_travel.oracle_tool_calls():
            result = executor.execute_tool(env, call)
            if not result.ok:
                raise RuntimeError(f"oracle call rejected on the scaled origin: {result.error}")
        target = Snapshot(env.connection.serialize())

    delta0 = verify.diff(origin, target, base.diff_config).total
    pkg = dataclasses.replace(base, origin_snapshot=origin, target_snapshot=target,
                              delta0=delta0)
    return pkg, rows


class ChurnGenerator:
    """Episode ``i`` of seed ``s`` is the same call list whatever the run length."""

    def __init__(self, seed: int, rows: dict[str, int]):
        self.seed = seed
        self.n_requests = rows["travel_requests"]
        self.n_flights = rows["flight_bookings"]
        self.n_approvals = rows["approvals"]

    def episode(self, index: int) -> list[ToolCall]:
        rng = random.Random(self.seed * 1_000_003 + index)
        return [self._call(rng) for _ in range(CALLS_PER_EPISODE)]

    def _request_id(self, rng) -> int:
        return rng.randint(1, self.n_requests + 4)

    def _call(self, rng: random.Random) -> ToolCall:
        if rng.random() < LIST_SET_RATE:
            return ToolCall("update_travel_requests", {
                "filters": {"id": self._request_id(rng)},
                "set": {"trip_purpose": ["Audit", "Expo"]},
            })
        roll = rng.random()
        if roll < 0.03:
            return ToolCall("warp_reality", {"oops": True})
        if roll < 0.06:
            return ToolCall("update_users", {"filters": {"id": "u_dir_01"}, "set": {"active": 0}})
        if roll < 0.09:
            return ToolCall("insert_flight_bookings", {"bogus_column": 1})
        if roll < 0.17:
            table, key, high = rng.choice([
                ("travel_requests", "id", self.n_requests),
                ("flight_bookings", "id", self.n_flights),
                ("approvals", "id", self.n_approvals),
                ("flight_bookings", "travel_request_id", self.n_requests),
            ])
            return ToolCall(f"query_{table}",
                            {"filters": {key: rng.randint(1, high)}, "limit": 20})
        if roll < 0.23:
            return ToolCall("insert_travel_requests", {
                "user_id": rng.choice(["u_staff_01", "u_dir_01", "u_ghost", "u_staff_02"]),
                "trip_purpose": rng.choice(["Audit", "Expo", ""]),
                "current_step": rng.randint(10, 40),
            })
        if roll < 0.45:
            return ToolCall("insert_flight_bookings", {
                "travel_request_id": self._request_id(rng),
                "flight_code": f"FL-{rng.randint(100, 999)}",
                "cost": rng.choice([80, 420, 900, 1600]),
                "class": rng.choice(["ECONOMY", "BUSINESS", "FIRST"]),
                "departure_step": rng.randint(9, 40),
                "booking_step": rng.randint(8, 20),
                "approval_status": rng.choice(["NOT_REQUIRED", "PENDING"]),
            })
        if roll < 0.6:
            return ToolCall("insert_hotel_bookings", {
                "travel_request_id": self._request_id(rng),
                "hotel_vendor_id": rng.choice(["v_grand", "v_harbor", "v_city", "v_nope"]),
                "cost": rng.randint(40, 500),
                "booking_step": rng.randint(8, 20),
            })
        if roll < 0.68:
            return ToolCall("insert_approvals", {
                "flight_booking_id": rng.randint(1, self.n_flights + 8),
                "status": rng.choice(["PENDING", "APPROVED"]),
                "step": rng.randint(8, 20),
            })
        if roll < 0.8:
            return ToolCall("update_flight_bookings", {
                "filters": {"id": rng.randint(1, self.n_flights + 8)},
                "set": rng.choice([
                    {"status": "CANCELLED", "cancellation_step": rng.randint(10, 30),
                     "refund_amount": rng.choice([80, 150, 210, 300, 420, 450, 600])},
                    {"status": rng.choice(["APPROVED", "TICKETED"])},
                    {"cost": rng.randint(50, 2000)},
                ]),
            })
        if roll < 0.9:
            return ToolCall("update_approvals", {
                "filters": {"id": rng.randint(1, self.n_approvals + 8)},
                "set": {"status": rng.choice(["APPROVED", "DENIED"]),
                        "approver_id": rng.choice(["u_mgr_01", "u_staff_01", "u_dir_01"])},
            })
        if roll < 0.97:
            return ToolCall("update_travel_requests", {
                "filters": {"id": self._request_id(rng)},
                "set": {"status": rng.choice(["SUBMITTED", "APPROVED", "CANCELLED"])},
            })
        return ToolCall("transfer_to_human_agents", {"summary": f"case {rng.randint(1, 99)}"})
